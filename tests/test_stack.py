"""A population's stacked pass against K separate per-member passes.

One stacked gradient step (td_loss_and_grad, adam_step, the mask multiply
and, for critics, the soft update) must give every row exactly the bits its
member gets alone, whatever the members' masks and optimizer ages.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaudeqn.dqn import distillqn_update
from eaudeqn.errors import ConfigError
from eaudeqn.nncore import NetworkParams, forward, init_adam_state, init_network, mlp_layer_specs, params_equal
from eaudeqn.population import (
    Population,
    concat_stacks,
    fresh_member,
    member_digest,
    member_gradient_step,
    split_stack,
    stack_members,
    stack_row,
)
from eaudeqn.pruning import PolyPruneConfig, magnitude_mask, masks_equal, sparsity_of
from eaudeqn.rng import RngStream
from eaudeqn.sac import train_critic_member

TAU = 0.005


def _batch(rng, n, in_width, n_actions):
    return rng.normal(size=(n, in_width)), rng.integers(0, n_actions, size=n), rng.normal(size=n)


def _train(member, x, actions, targets, critic):
    if critic:
        return train_critic_member(member, x, targets, TAU)
    return member_gradient_step(member, x, actions, targets)


def _draw_members(seed, widths, ages, sparsities, critic):
    """Members aged by `ages` separate steps, then pruned to `sparsities`
    (optimizer kept, as a scheduled prune does); age 0 is a fresh member."""
    specs = mlp_layer_specs(widths)
    rng = RngStream(seed, "stack/batches")
    members = []
    for k, (age, sparsity) in enumerate(zip(ages, sparsities)):
        params = init_network(specs, RngStream(seed, f"stack/member/{k}"))
        member = fresh_member(params, init_adam_state(params, 1e-2, 1.5e-4), lineage_id=k, with_target=critic)
        for _ in range(age):
            member, _ = _train(member, *_batch(rng, 4, widths[0], widths[-1]), critic)
        if sparsity > 0.0:
            schedule = PolyPruneConfig(final_sparsity=sparsity, exponent=1.0, t_start=0, t_end=1, t_final=1)
            member = distillqn_update(member, schedule, 1)
        members.append(member)
    return members


def _assert_rows_equal(stack, members):
    for k, member in enumerate(members):
        row = stack_row(stack, k)
        assert member_digest(row) == member_digest(member)
        assert row.cumulated_loss == member.cumulated_loss
        assert row.sparsity == member.sparsity and row.lineage_id == member.lineage_id
        if member.target_params is not None:
            assert params_equal(row.target_params, member.target_params)
            assert masks_equal(row.target_mask, member.target_mask)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    obs=st.integers(1, 5),
    critic=st.booleans(),
    n_actions=st.integers(1, 3),
    batch=st.integers(1, 9),
    rows=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.3, 0.6, 0.9])), min_size=1, max_size=5),
)
def test_one_stacked_pass_equals_k_member_passes(seed, hidden, obs, critic, n_actions, batch, rows):
    widths = [obs, *hidden, 1 if critic else n_actions]
    ages, sparsities = zip(*rows)
    members = _draw_members(seed, widths, ages, sparsities, critic)
    x, actions, targets = _batch(RngStream(seed, "stack/pass"), batch, widths[0], widths[-1])

    stack, losses = _train(stack_members(members), x, actions, targets, critic)
    alone = [_train(m, x, actions, targets, critic) for m in members]

    assert losses.tolist() == [loss for _, loss in alone]
    _assert_rows_equal(stack, [m for m, _ in alone])
    # the row chunks a thread pool runs give the same stack
    chunks = [_train(c, x, actions, targets, critic)[0] for c in split_stack(stack_members(members), 2)]
    _assert_rows_equal(concat_stacks(chunks), [m for m, _ in alone])


def test_members_are_views_and_replace_restacks():
    members = _draw_members(0, [3, 5, 2], [2, 0, 1], [0.0, 0.3, 0.6], critic=False)
    pop = Population(members, None, None, champion_index=0, next_lineage_id=3)
    assert [m.optimizer.step_count for m in pop.members] == [2, 0, 1]
    view = pop.members[1]
    view.params.weights[0][0, 0] = 7.0  # arrays are views into the stack
    assert pop.stack.params.weights[0][1, 0, 0] == 7.0
    swapped = replace(pop, members=[members[2], members[0]])
    assert swapped.k == 2 and [m.lineage_id for m in swapped.members] == [2, 0]
    assert member_digest(swapped.member(0)) == member_digest(members[2])
    assert pop.k == 3


def test_stacked_forward_maps_a_batch_and_refuses_a_single_vector():
    members = _draw_members(1, [3, 5, 2], [1, 0, 2], [0.0, 0.6, 0.3], critic=False)
    stack = stack_members(members)
    x = RngStream(1, "stack/forward").normal(size=(4, 3))
    out = forward(stack.params, stack.mask, x)
    assert out.shape == (3, 4, 2)
    for k, member in enumerate(members):
        assert np.array_equal(out[k], forward(member.params, member.mask, x))
    with pytest.raises(ConfigError):
        forward(stack.params, stack.mask, x[0])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    targets=st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0), min_size=1, max_size=5),
    decimals=st.integers(0, 2),
    one_target=st.booleans(),
)
def test_stacked_mask_equals_per_row_masks(seed, widths, targets, decimals, one_target):
    specs = mlp_layer_specs(widths)
    rng = np.random.default_rng(seed)
    k = len(targets)
    # rounding to few decimals makes many tied magnitudes, of both signs
    weights = [np.round(rng.normal(size=(k, s.output_width, s.input_width)), decimals) for s in specs]
    stack = NetworkParams(weights, [np.zeros((k, s.output_width)) for s in specs], specs)
    row_targets = [targets[0]] * k if one_target else targets

    mask = magnitude_mask(stack, targets[0] if one_target else np.array(targets))
    sparsity = sparsity_of(mask)

    assert sparsity.shape == (k,)
    for row, target in enumerate(row_targets):
        alone = magnitude_mask(stack.row(row), target)
        for stacked_layer, layer in zip(mask.layers, alone.layers):
            assert stacked_layer.dtype == layer.dtype and np.array_equal(stacked_layer[row], layer)
        assert type(sparsity_of(alone)) is float and sparsity[row] == sparsity_of(alone)
