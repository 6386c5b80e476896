"""Value-based operations: shared TD targets, member updates, action choice,
and the scheduled pruning step that every PolyPrune path (DistillQN,
PolyPruneQN, PolyPrune-SAC) applies to a population's stack.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .nncore import Frozen, Workspace, forward
from .population import Member, Network, member_gradient_step
from .pruning import PolyPruneConfig, apply_mask, magnitude_mask, poly_schedule, sparsity_of
from .replay import Batch
from .rng import RngStream


def td_targets(target: Frozen, batch: Batch, gamma: float) -> np.ndarray:
    """y_j = r_j + gamma * (1 - done_j) * max_a' Q(s'_j, a'), with Q the
    frozen target network (Population.target).

    One shared vector per gradient pass, consumed identically by every member.
    """
    q_next = target(batch.next_states)
    return batch.rewards + gamma * (1.0 - batch.dones) * q_next.max(axis=1)


def train_member(
    member: Member, batch: Batch, targets: np.ndarray, workspace: Workspace | None = None
) -> tuple[Member, float]:
    """One masked gradient step on the summed squared TD error.

    Takes one member or a population's stack (one step for every row).
    """
    return member_gradient_step(member, batch.states, batch.actions, targets, workspace)


def epsilon_at(step: int, start: float, end: float, decay_steps: int) -> float:
    """Linear decay from start to end over decay_steps (step is 1-based)."""
    if decay_steps <= 0:
        return end
    frac = min(max((step - 1) / decay_steps, 0.0), 1.0)
    if frac >= 1.0:
        return end
    return start + (end - start) * frac


def act_epsilon_greedy(member: Member | Network, state, epsilon: float, rng: RngStream) -> int:
    """Uniform action with probability epsilon, else the greedy argmax.

    Only the member's params and mask are read. The coin is flipped first, so
    an exploring step skips the forward pass.
    """
    if epsilon > 0.0 and float(rng.uniform()) < epsilon:
        return int(rng.integers(member.params.layer_specs[-1].output_width))
    return int(forward(member.params, member.mask, state).argmax())


def distillqn_update(member: Member, schedule: PolyPruneConfig, t: int) -> Member:
    """Prune the online network to the scheduled sparsity at a pruning event.

    The mask is recomputed from current weight magnitudes and the masked
    weights zeroed; a member's soft target (actor-critic path) is zeroed under
    the same mask, so pruned weights cannot leak back through it. The
    optimizer is kept (only population duplicates get optimizer resets), but
    its moments are zeroed under the mask: the weights they belong to are
    re-zeroed after every step, so they never reach a parameter, and left
    alone they decay through the subnormal range, which slows every later
    Adam step. A population's stack is pruned in one call, every row to the
    same target.
    """
    target = poly_schedule(t, schedule)
    if np.ndim(member.mask_target):
        target = np.full(len(member.mask_target), target)
    mask = magnitude_mask(member.params, target)
    params = apply_mask(member.params, mask)
    return replace(
        member,
        params=params,
        mask=mask,
        sparsity=sparsity_of(mask),
        mask_target=target,
        optimizer=replace(
            member.optimizer, m=apply_mask(member.optimizer.m, mask), v=apply_mask(member.optimizer.v, mask)
        ),
        target_params=None if member.target_params is None else apply_mask(member.target_params, mask),
    )
