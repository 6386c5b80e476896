"""Run-owned scratch: a workspace reused across stacked steps, and the frozen
shared target of the value-based loop.

A workspace only holds scratch arrays, so a step through a reused one must
give exactly what a step through a fresh one gives, leave its inputs as they
were and return nothing that aliases the workspace. The frozen target must
map inputs exactly as forward() on the population's current target does,
whatever replaced that target last.
"""

import numpy as np
import pytest

from eaudeqn.checkpoint import load_checkpoint, save_checkpoint
from eaudeqn.config import build_config, network_widths
from eaudeqn.dqn import distillqn_update
from eaudeqn.nncore import Workspace, forward, init_adam_state, init_network, mlp_layer_specs, td_loss_and_grad
from eaudeqn.population import (
    fresh_member,
    member_digest,
    member_gradient_step,
    selection_event,
    stack_members,
    stack_row,
)
from eaudeqn.pruning import PolyPruneConfig
from eaudeqn.rng import RngStream
from eaudeqn.sac import train_critic_member
from eaudeqn.training import run_training

WIDTHS = [4, 9, 7, 2]


def _stack(seed: int, critic: bool):
    """Three stacked members of WIDTHS (one output for a critic), stepped once
    and pruned to different sparsities so masks and moments are not trivial."""
    widths = WIDTHS[:-1] + [1] if critic else WIDTHS
    specs = mlp_layer_specs(widths)
    rng = np.random.default_rng(seed)
    members = []
    for k, sparsity in enumerate((0.0, 0.3, 0.6)):
        params = init_network(specs, RngStream(seed, f"ws/member/{k}"))
        member = fresh_member(params, init_adam_state(params, 1e-2, 1.5e-4), lineage_id=k, with_target=critic)
        member, _ = _step(member, (rng.normal(size=(3, 4)), rng.integers(0, widths[-1], size=3), rng.normal(size=3)),
                          critic)
        schedule = PolyPruneConfig(final_sparsity=sparsity, exponent=1.0, t_start=0, t_end=1, t_final=1)
        members.append(distillqn_update(member, schedule, 1))
    return stack_members(members)


def _step(stack, batch, critic, workspace=None):
    x, actions, targets = batch
    if critic:
        return train_critic_member(stack, x, targets, 0.005, workspace)
    return member_gradient_step(stack, x, actions, targets, workspace)


def _buffers(stack):
    """Every array a step reads from a stack, as copies."""
    arrays = [stack.params.flat, stack.mask.flat, stack.optimizer.m.flat, stack.optimizer.v.flat,
              stack.optimizer.step_count, stack.cumulated_loss]
    if stack.target_params is not None:
        arrays.append(stack.target_params.flat)
    return [a.copy() for a in arrays]


def _workspace_arrays(ws):
    arrays = [ws.effective, ws.dout, *ws.outputs, *ws.finite, ws.grad()[0]]
    return arrays + [d for d in ws.derivs if d is not None]


@pytest.mark.parametrize("critic", [False, True])
def test_a_reused_workspace_gives_the_bits_of_fresh_ones(critic):
    rng = np.random.default_rng(3)
    batch = (rng.normal(size=(6, 4)), rng.integers(0, 2, size=6), rng.normal(size=6))
    saved_batch = [a.copy() for a in batch]
    a0, b0 = _stack(1, critic), _stack(2, critic)  # two populations of one shape
    saved = [_buffers(a0), _buffers(b0)]

    ws = Workspace()
    a1, loss_a1 = _step(a0, batch, critic, ws)
    b1, loss_b1 = _step(b0, batch, critic, ws)
    a2, loss_a2 = _step(a1, batch, critic, ws)
    b2, loss_b2 = _step(b1, batch, critic, ws)

    fresh_a1, fresh_loss_a1 = _step(a0, batch, critic)
    fresh_b1, fresh_loss_b1 = _step(b0, batch, critic)
    fresh_a2, fresh_loss_a2 = _step(fresh_a1, batch, critic)
    fresh_b2, fresh_loss_b2 = _step(fresh_b1, batch, critic)

    for got, want in ((a1, fresh_a1), (b1, fresh_b1), (a2, fresh_a2), (b2, fresh_b2)):
        for k in range(3):
            assert member_digest(stack_row(got, k)) == member_digest(stack_row(want, k))
        assert np.array_equal(got.cumulated_loss, want.cumulated_loss)
        if critic:
            assert np.array_equal(got.target_params.flat, want.target_params.flat)
    for got, want in ((loss_a1, fresh_loss_a1), (loss_b1, fresh_loss_b1), (loss_a2, fresh_loss_a2),
                      (loss_b2, fresh_loss_b2)):
        assert np.array_equal(got, want)

    for stack, copies in zip((a0, b0), saved):
        assert all(np.array_equal(now, then) for now, then in zip(_buffers(stack), copies))
    assert all(np.array_equal(now, then) for now, then in zip(batch, saved_batch))
    returned = [a2.params.flat, a2.optimizer.m.flat, a2.optimizer.v.flat, loss_a2]
    returned += [b2.params.flat, b2.optimizer.m.flat, b2.optimizer.v.flat, loss_b2]
    if critic:
        returned += [a2.target_params.flat, b2.target_params.flat]
    assert not any(np.shares_memory(r, w) for r in returned for w in _workspace_arrays(ws))


def test_a_workspace_reshapes_when_the_batch_changes_and_its_gradient_is_fresh():
    stack = _stack(4, critic=False)
    rng = np.random.default_rng(5)
    ws = Workspace()
    for n in (5, 8, 5):
        x, actions, targets = rng.normal(size=(n, 4)), rng.integers(0, 2, size=n), rng.normal(size=n)
        loss, grad = td_loss_and_grad(stack.params, stack.mask, x, actions, targets, ws)
        fresh_loss, fresh_grad = td_loss_and_grad(stack.params, stack.mask, x, actions, targets)
        assert np.array_equal(loss, fresh_loss) and np.array_equal(grad.flat, fresh_grad.flat)
        assert ws.key[2] == n
        assert not any(np.shares_memory(r, w) for r in (loss, grad.flat) for w in _workspace_arrays(ws))


def _frozen_matches(pop, x) -> bool:
    return np.array_equal(pop.target(x), forward(pop.target_params, pop.target_mask, x))


def test_the_frozen_target_follows_target_updates_prunes_and_resume(tmp_path):
    config = build_config({
        "algorithm": "polyprune_dqn", "env": "chain", "seed": 5, "run.total_steps": 700,
        "run.target_period": 200, "replay.warmup": 50, "eval.period": 700,
        "polyprune.t_start": 100, "polyprune.t_end": 600, "polyprune.period": 150,
    })
    x = np.random.default_rng(6).normal(size=(16, network_widths(config)["q"][0]))

    _, state = run_training(config, until_step=199)
    pop = state.population
    target = pop.target
    assert _frozen_matches(pop, x)

    _, state = run_training(config, resume=state, until_step=200)  # a target update
    assert state.population is pop and pop.target is not target and _frozen_matches(pop, x)
    assert not np.array_equal(pop.target(x), target(x))

    target = pop.target
    _, state = run_training(config, resume=state, until_step=300)  # a scheduled prune at 300, no target update
    assert state.population.stack.sparsity[0] > 0.0
    assert pop.target is target and _frozen_matches(pop, x)

    save_checkpoint(state, tmp_path / "state.ckpt")
    restored = load_checkpoint(tmp_path / "state.ckpt")
    assert _frozen_matches(restored.population, x)
    assert np.array_equal(restored.population.target(x), pop.target(x))

    # eaude_dqn: each target update freezes a new target, which the selection
    # event that follows it hands on as it is
    config = build_config({
        "algorithm": "eaude_dqn", "env": "chain", "seed": 5, "run.total_steps": 400, "run.target_period": 200,
        "replay.warmup": 50, "eval.period": 400, "eaude.population": 3, "eaude.tournament": 2,
    })
    _, state = run_training(config, until_step=199)
    target = state.population.target
    _, state = run_training(config, resume=state, until_step=200)
    pop = state.population
    assert pop.target is not target and _frozen_matches(pop, x)
    after, _ = selection_event(pop, 1, 200, 400, config.eaude, RngStream(5, "test/selection"))
    assert after is not pop and after.target is pop.target
