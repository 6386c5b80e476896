"""Population members and the selection mechanics of adaptive pruning.

A Member is one online network: parameters, binary mask, optimizer state,
cumulated loss, sparsity, and a lineage id. A Member can also hold K networks
stacked along a leading axis (see nncore); its per-member scalars are then
(K,) arrays. A Population is its K members held that way, as one stacked
Member, plus its frozen shared target (nncore.Frozen, which keeps the target's
params and mask; None on a critic side, whose members each hold a soft
target), the champion index and the next lineage id. So a gradient pass over
the population is one batched forward and reverse pass and one Adam step, and
a population is built, restored and replaced as its stack: set-up draws the K
networks into one buffer, and nothing stacks per-member records on a run's
path. Population.members reads the stack as a list of per-row Member views:
their arrays are views into the stack, their scalars are copies.

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

import hashlib
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, NonFiniteError
from .nncore import AdamState, Frozen, NetworkParams, Workspace, adam_step, reset_optimizer, td_loss_and_grad
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

    @property
    def target_mask(self) -> Mask | None:
        """The soft target's mask: the member's own (None without a soft target)."""
        return None if self.target_params is None else self.mask


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

    def buffers(xs):  # a network's or a mask's buffer
        return None if xs[0] is None else xs[0].like(fn(*(x.flat for x in xs)))

    opts = [m.optimizer for m in members]
    first = opts[0]
    return Member(
        params=buffers([m.params for m in members]),
        mask=buffers([m.mask for m in members]),
        optimizer=AdamState(
            buffers([o.m for o in opts]),
            buffers([o.v for o in opts]),
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
        target_params=buffers([m.target_params for m in members]),
    )


def stack_members(members: list[Member]) -> Member:
    """Copy same-shaped members into one stack, row k from members[k]."""
    return _map_members(lambda *xs: np.array(xs), *members)


def stack_row(stack: Member, k: int) -> Member:
    """Row k of a stack as one member: its arrays are views into the stack,
    its scalars Python copies."""
    return _map_members(lambda a: a[k] if a.ndim > 1 else a[k].item(), stack)


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
    """K members stacked into one Member, the shared target frozen for
    td_targets (None on a critic side), the champion index and the next
    lineage id. A target is replaced, never written in place: a new one is
    frozen where it is assigned (set-up, target updates, restore)."""

    stack: Member
    target: Frozen | None
    champion_index: int
    next_lineage_id: int

    def __init__(
        self,
        stack: Member,
        target: Frozen | None,
        champion_index: int,
        next_lineage_id: int,
        *,
        members: list[Member] | None = None,
    ):
        """The population around `stack` as it is (not copied). Given
        `members`, the stack is instead their stack_members copy in row
        order: dataclasses.replace(population, members=rows) puts a
        population taken apart by rows back together (perfbench's checker
        tests break one member that way)."""
        self.stack = stack if members is None else stack_members(members)
        self.target = target
        self.champion_index = champion_index
        self.next_lineage_id = next_lineage_id

    @property
    def target_params(self) -> NetworkParams | None:
        """The shared target's params (None on a critic side)."""
        return None if self.target is None else self.target.params

    @property
    def target_mask(self) -> Mask | None:
        """The shared target's mask (None on a critic side)."""
        return None if self.target is None else self.target.mask

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
        """Row k's soft target under row k's mask (actor-critic path), as views."""
        return Network(self.stack.target_params.row(k), self.stack.mask.row(k))

    def losses(self) -> list[float]:
        return self.stack.cumulated_loss.tolist()


def evolve(obj, **changes):
    """A copy of the dataclass instance obj with `changes`: what
    dataclasses.replace gives, without its per-call walk over the fields and
    __init__ (a gradient step makes one per population)."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


def fresh_member(params: NetworkParams, optimizer: AdamState, lineage_id: int, with_target: bool = False) -> Member:
    return Member(
        params=params,
        mask=mask_of_ones(params),
        optimizer=optimizer,
        cumulated_loss=0.0,
        sparsity=0.0,
        lineage_id=lineage_id,
        mask_target=0.0,
        target_params=params.copy() if with_target else None,
    )


def member_digest(member: Member) -> str:
    """Hash of params, mask, and optimizer; used for bit-exactness checks."""
    h = hashlib.sha256()
    # each buffer's bytes are its layers' weights, then its biases, in order
    for buffer in (member.params, member.mask, member.optimizer.m, member.optimizer.v):
        h.update(buffer.flat.tobytes())
    h.update(member.optimizer.step_count.to_bytes(8, "little"))
    return h.hexdigest()


def check_finite_loss(loss, member: Member) -> None:
    """Raise NonFiniteError naming the lineage of the first non-finite batch loss."""
    finite = np.isfinite(loss)
    if not finite.all():
        first_bad = np.flatnonzero(~finite)[0]
        raise NonFiniteError(f"non-finite batch loss on lineage {np.ravel(member.lineage_id)[first_bad]}")


def member_gradient_step(
    member: Member, inputs, action_indices, targets, workspace: Workspace | None = None
) -> tuple[Member, float]:
    """One masked TD gradient step; returns the updated member and batch loss.

    The cumulated loss grows by the scalar batch loss; the mask is unchanged;
    weights are re-zeroed at masked positions so the member invariant
    (params exactly zero where masked) holds even when stale optimizer
    moments exist from before a mask change. A stack takes the step on every
    row at once and returns a (K,) loss. `workspace` holds the TD pass's
    scratch arrays (see nncore.Workspace); the updated member shares none.
    """
    loss, grad = td_loss_and_grad(member.params, member.mask, inputs, action_indices, targets, workspace)
    check_finite_loss(loss, member)
    new_params, new_opt = adam_step(member.params, grad, member.optimizer)
    new_params.flat[..., : new_params.layout.n_weights] *= member.mask.flat  # Adam's output is fresh
    updated = evolve(member, params=new_params, optimizer=new_opt, cumulated_loss=member.cumulated_loss + loss)
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
    """One draw from behavior_distribution: the same index, from the same
    single uniform draw, as Generator.choice(len(losses), p=...), in less
    time. A non-finite distribution (a NaN loss) is a NonFiniteError."""
    cdf = behavior_distribution(losses).cumsum()
    if not math.isfinite(cdf[-1]):
        raise NonFiniteError(f"non-finite behavior distribution from losses {list(losses)}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
    )

    def put(a, b):
        a[rows] = b
        return a

    stack = _map_members(put, stack, pruned)
    sparsity, lineage, sources = stack.sparsity.tolist(), stack.lineage_id.tolist(), old.sparsity.tolist()
    records = [
        ExplorationRecord(k, s, k in rows, sparsity[k], sources[s], lineage[k]) for k, s in enumerate(selection)
    ]
    return Population(stack, population.target, 0, first_id + len(rows)), records


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
