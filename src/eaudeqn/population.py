"""Population members and the selection mechanics of adaptive pruning.

A Member is one online network: parameters, binary mask, optimizer state,
cumulated loss, sparsity, and a lineage id. A Member can also hold K networks
stacked along a leading axis (see nncore); its per-member scalars are then
(K,) arrays. A Population keeps its K members that way, as one stacked
Member, plus the shared target snapshot and the champion index, so a
gradient pass over the population is one batched forward/backward and one
Adam step. Population.members reads the stack as a list of per-row Member
views: their arrays are views into the stack, their scalars are copies.

Selection happens in two phases at every selection event (selection_event):

exploitation -- pick K source slots with repetition. Slot 0 is reserved for
the champion (lowest cumulated loss); every other slot runs one tournament:
draw M distinct members uniformly without replacement and keep the one with
the lowest cumulated loss.

exploration -- the next stack gathers the selected rows. The first
occurrence of each source moves in untouched; every later occurrence is a
duplicate: it samples a fresh (weakly higher) sparsity, and the duplicates
are magnitude-pruned and hard-zeroed as one sub-stack, their optimizer
moments and step counts reset, each starting a new lineage. All cumulated
losses are then reset to zero.

Dynamics note: duplicates sample their new sparsity starting from the target
that created the source's mask (Member.mask_target), not the realized
fraction. Targets are monotone along a lineage, which makes per-layer
round-half-up zero counts monotone too, so a lineage provably never
resurrects a pruned weight. Realized sparsity is what gets reported.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, NonFiniteError
from .nncore import AdamState, NetworkParams, adam_step, reset_optimizer, td_loss_and_grad
from .pruning import (
    EauDeConfig,
    Mask,
    apply_mask,
    magnitude_mask,
    mask_of_ones,
    sample_sparsity,
    sparsity_of,
)
from .rng import RngStream

LOSS_FLOOR = 1e-12  # behavior sampling clamp; cumulated losses start at 0


@dataclass
class Member:
    """One online network plus its optimizer, loss account, and lineage.

    Or K of them stacked: every array then has a leading (K,) axis and the
    scalars (cumulated_loss, sparsity, lineage_id, mask_target and the
    optimizer's step_count) are (K,) arrays.
    """

    params: NetworkParams
    mask: Mask
    optimizer: AdamState
    cumulated_loss: float
    sparsity: float
    lineage_id: int
    mask_target: float = 0.0
    # Per-member soft target, used by the actor-critic path only.
    target_params: NetworkParams | None = None
    target_mask: Mask | None = None


@dataclass
class Network:
    """A member's network alone, parameters and mask: all that acting reads."""

    params: NetworkParams
    mask: Mask


def _map_members(fn, *members: Member) -> Member:
    """A Member whose every per-member array or scalar is fn(*the members' ones).

    Layer specs and optimizer hyperparameters are shared: they come from the
    first member.
    """

    def nets(ps):
        if ps[0] is None:
            return None
        return NetworkParams(
            [fn(*ws) for ws in zip(*(p.weights for p in ps))],
            [fn(*bs) for bs in zip(*(p.biases for p in ps))],
            ps[0].layer_specs,
        )

    def masks(ms):
        return None if ms[0] is None else Mask([fn(*ls) for ls in zip(*(m.layers for m in ms))])

    opts = [m.optimizer for m in members]
    first = opts[0]
    return Member(
        params=nets([m.params for m in members]),
        mask=masks([m.mask for m in members]),
        optimizer=AdamState(
            nets([o.m for o in opts]),
            nets([o.v for o in opts]),
            fn(*(o.step_count for o in opts)),
            first.learning_rate,
            first.epsilon,
            first.beta1,
            first.beta2,
        ),
        cumulated_loss=fn(*(m.cumulated_loss for m in members)),
        sparsity=fn(*(m.sparsity for m in members)),
        lineage_id=fn(*(m.lineage_id for m in members)),
        mask_target=fn(*(m.mask_target for m in members)),
        target_params=nets([m.target_params for m in members]),
        target_mask=masks([m.target_mask for m in members]),
    )


def stack_members(members: list[Member]) -> Member:
    """Copy same-shaped members into one stack, row k from members[k]."""
    return _map_members(lambda *xs: np.array(xs), *members)


def stack_row(stack: Member, k: int) -> Member:
    """Row k of a stack: its arrays are views into the stack, its scalars copies."""
    # written out, not via _map_members: every checkpoint write builds K rows
    # per side, and the generic map made state_to_payload on pendulum about
    # 1.7x slower (455 -> 800 us median)
    opt = stack.optimizer
    return Member(
        params=stack.params.row(k),
        mask=stack.mask.row(k),
        optimizer=AdamState(
            opt.m.row(k),
            opt.v.row(k),
            int(opt.step_count[k]),
            opt.learning_rate,
            opt.epsilon,
            opt.beta1,
            opt.beta2,
        ),
        cumulated_loss=float(stack.cumulated_loss[k]),
        sparsity=float(stack.sparsity[k]),
        lineage_id=int(stack.lineage_id[k]),
        mask_target=float(stack.mask_target[k]),
        target_params=None if stack.target_params is None else stack.target_params.row(k),
        target_mask=None if stack.target_mask is None else stack.target_mask.row(k),
    )


def split_stack(stack: Member, parts: int) -> list[Member]:
    """Up to `parts` contiguous, non-empty row chunks of a stack, as views."""
    k = len(stack.lineage_id)
    n = min(parts, k)
    bounds = [k * i // n for i in range(n + 1)]
    return [_map_members(lambda a: a[lo:hi], stack) for lo, hi in zip(bounds, bounds[1:])]


def concat_stacks(stacks: list[Member]) -> Member:
    """Join row chunks back into one stack (the inverse of split_stack)."""
    return _map_members(lambda *xs: np.concatenate(xs), *stacks)


@dataclass(init=False)
class Population:
    """K members stacked into one Member, the shared target snapshot, and the
    champion index."""

    stack: Member = field(init=False)
    target_params: NetworkParams | None
    target_mask: Mask | None
    champion_index: int
    next_lineage_id: int

    def __init__(
        self,
        members: list[Member],
        target_params: NetworkParams | None = None,
        target_mask: Mask | None = None,
        champion_index: int = 0,
        next_lineage_id: int = 0,
    ):
        """Stack `members`. dataclasses.replace(population, members=...)
        restacks; the stack itself is not an init field."""
        self.stack = stack_members(members)
        self.target_params = target_params
        self.target_mask = target_mask
        self.champion_index = champion_index
        self.next_lineage_id = next_lineage_id

    @property
    def k(self) -> int:
        return len(self.stack.lineage_id)

    @property
    def members(self) -> list[Member]:
        """Per-row views of the stack (see stack_row); read-only."""
        return [self.member(k) for k in range(self.k)]

    def member(self, k: int) -> Member:
        return stack_row(self.stack, k)

    def network(self, k: int) -> Network:
        """Row k's params and mask as views, without the rest of the member."""
        return Network(self.stack.params.row(k), self.stack.mask.row(k))

    def target_network(self, k: int) -> Network:
        """Row k's soft target and its mask (actor-critic path), as views."""
        return Network(self.stack.target_params.row(k), self.stack.target_mask.row(k))

    def losses(self) -> list[float]:
        return self.stack.cumulated_loss.tolist()


def fresh_member(params: NetworkParams, optimizer: AdamState, lineage_id: int, with_target: bool = False) -> Member:
    mask = mask_of_ones(params)
    return Member(
        params=params,
        mask=mask,
        optimizer=optimizer,
        cumulated_loss=0.0,
        sparsity=0.0,
        lineage_id=lineage_id,
        mask_target=0.0,
        target_params=params.copy() if with_target else None,
        target_mask=mask.copy() if with_target else None,
    )


def member_digest(member: Member) -> str:
    """Hash of params, mask, and optimizer; used for bit-exactness checks."""
    h = hashlib.sha256()
    for arr in member.params.weights + member.params.biases + member.mask.layers:
        h.update(arr.tobytes())
    for arr in member.optimizer.m.weights + member.optimizer.m.biases:
        h.update(arr.tobytes())
    for arr in member.optimizer.v.weights + member.optimizer.v.biases:
        h.update(arr.tobytes())
    h.update(member.optimizer.step_count.to_bytes(8, "little"))
    return h.hexdigest()


def check_finite_loss(loss, member: Member) -> None:
    """Raise NonFiniteError naming the lineage of the first non-finite batch loss."""
    finite = np.isfinite(loss)
    if not finite.all():
        first_bad = np.flatnonzero(~finite)[0]
        raise NonFiniteError(f"non-finite batch loss on lineage {np.ravel(member.lineage_id)[first_bad]}")


def member_gradient_step(member: Member, inputs, action_indices, targets) -> tuple[Member, float]:
    """One masked TD gradient step; returns the updated member and batch loss.

    The cumulated loss grows by the scalar batch loss; the mask is unchanged;
    weights are re-zeroed at masked positions so the member invariant
    (params exactly zero where masked) holds even when stale optimizer
    moments exist from before a mask change. A stack takes the step on every
    row at once and returns a (K,) loss.
    """
    loss, grad = td_loss_and_grad(member.params, member.mask, inputs, action_indices, targets)
    check_finite_loss(loss, member)
    new_params, new_opt = adam_step(member.params, grad, member.optimizer)
    new_params = apply_mask(new_params, member.mask)
    updated = replace(
        member,
        params=new_params,
        optimizer=new_opt,
        cumulated_loss=member.cumulated_loss + loss,
    )
    return updated, loss


def behavior_distribution(losses) -> np.ndarray:
    """Probabilities inversely proportional to the cumulated losses.

    Losses below the floor are clamped; if every loss is below the floor
    (start of training, right after a reset) the distribution is uniform.
    """
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size < 1:
        raise ConfigError("need at least one loss")
    if np.all(arr < LOSS_FLOOR):
        return np.full(arr.size, 1.0 / arr.size)
    inv = 1.0 / np.maximum(arr, LOSS_FLOOR)
    return inv / inv.sum()


def sample_behavior_index(losses, rng: RngStream) -> int:
    return int(rng.choice(len(losses), p=behavior_distribution(losses)))


def select_target(losses) -> int:
    """Index of the minimal cumulated loss; ties break to the lowest index."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size < 1:
        raise ConfigError("need at least one loss")
    return int(arr.argmin())


def exploitation(losses, champion_index: int, cfg: EauDeConfig, rng: RngStream) -> list[int]:
    """Select K source indices with repetition; slot 0 is the champion.

    Each remaining slot draws tournament_size distinct members uniformly
    without replacement and keeps the lowest cumulated loss (ties break to
    the lowest member index).
    """
    k, m = cfg.population_size, cfg.tournament_size
    if len(losses) != k:
        raise ConfigError(f"got {len(losses)} losses for population size {k}")
    if m > k:
        raise ConfigError("tournament size cannot exceed population size")
    arr = np.asarray(losses, dtype=np.float64)
    selection = [int(champion_index)]
    for _ in range(k - 1):
        entrants = np.sort(np.asarray(rng.choice(k, size=m, replace=False)))
        winner = entrants[int(arr[entrants].argmin())]
        selection.append(int(winner))
    return selection


@dataclass
class ExplorationRecord:
    slot: int
    source: int
    duplicated: bool
    sparsity: float
    source_sparsity: float
    lineage_id: int


def exploration(
    population: Population,
    selection: list[int],
    t: int,
    t_next: int,
    cfg: EauDeConfig,
    rng: RngStream,
) -> tuple[Population, list[ExplorationRecord]]:
    """Build the next population from the selected sources.

    The next stack gathers the selected rows; first occurrences move in
    unchanged. Duplicates each draw a fresh sparsity in slot order (frozen at
    the source's once the horizon is reached) and are pruned as one
    sub-stack: zeroed at the new magnitude mask, optimizer reset, soft target
    (when present) restarted from the pruned copy, a fresh lineage each. All
    cumulated losses end at zero; slot 0, the champion's, is the next champion.
    """
    old, first_id = population.stack, population.next_lineage_id
    stack = _map_members(lambda a: a[selection], old)  # a gathered copy, safe to write
    stack.cumulated_loss[:] = 0.0
    seen: set[int] = set()
    rows = []
    for slot, source in enumerate(selection):
        if source in seen:
            rows.append(slot)
            if t < cfg.t_final:  # past the horizon a duplicate keeps its source's target
                stack.mask_target[slot] = sample_sparsity(stack.mask_target[slot], t, t_next, cfg, rng)
        seen.add(source)
    sub = _map_members(lambda a: a[rows], stack)
    mask = magnitude_mask(sub.params, sub.mask_target)
    params = apply_mask(sub.params, mask)
    pruned = replace(
        sub,
        params=params,
        mask=mask,
        optimizer=reset_optimizer(sub.optimizer),
        sparsity=sparsity_of(mask),
        lineage_id=np.arange(first_id, first_id + len(rows)),
        target_params=params,  # written only where the stack holds soft targets
        target_mask=mask,
    )

    def put(a, b):
        a[rows] = b
        return a

    stack = _map_members(put, stack, pruned)
    sparsity, lineage, sources = stack.sparsity.tolist(), stack.lineage_id.tolist(), old.sparsity.tolist()
    records = [
        ExplorationRecord(k, s, k in rows, sparsity[k], sources[s], lineage[k]) for k, s in enumerate(selection)
    ]
    next_population = copy.copy(population)
    next_population.stack, next_population.champion_index = stack, 0
    next_population.next_lineage_id = first_id + len(rows)
    return next_population, records


def selection_event(
    population: Population, champion: int, t: int, t_next: int, cfg: EauDeConfig, rng: RngStream
) -> tuple[Population, dict]:
    """One EauDe selection event: exploitation around `champion`, then
    exploration. Returns the next population and the event's log entry: the
    selection, the exploration records, and digests of the champion before
    and of slot 0 after."""
    pre_digest = member_digest(population.member(champion))
    selection = exploitation(population.losses(), champion, cfg, rng)
    population, records = exploration(population, selection, t, t_next, cfg, rng)
    return population, {
        "selection": selection,
        "records": [asdict(r) for r in records],
        "champion_digest_pre": pre_digest,
        "slot0_digest_post": member_digest(population.member(0)),
    }
