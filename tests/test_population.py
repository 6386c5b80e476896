from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaudeqn.errors import ConfigError, NonFiniteError
from eaudeqn.nncore import Frozen, init_adam_state, init_network, mlp_layer_specs, params_equal
from eaudeqn.population import (
    Population,
    behavior_distribution,
    exploitation,
    exploration,
    fresh_member,
    member_digest,
    member_gradient_step,
    sample_behavior_index,
    select_target,
    stack_members,
)
from eaudeqn.pruning import EauDeConfig, apply_mask, magnitude_mask, masks_equal, sparsity_of
from eaudeqn.rng import RngStream


class FixedChoiceRng:
    """Stub stream handing out queued tournament draws."""

    def __init__(self, draws):
        self.draws = [np.array(d) for d in draws]

    def choice(self, n, size=None, replace=True, p=None):
        return self.draws.pop(0)


def make_population(k, seed=0, with_target=False):
    members = []
    for i in range(k):
        params = init_network(mlp_layer_specs([4, 6, 2]), RngStream(seed, f"member/{i}/init"))
        opt = init_adam_state(params, 1e-3, 1e-8)
        members.append(fresh_member(params, opt, lineage_id=i, with_target=with_target))
    target = None if with_target else Frozen(members[0].params.copy(), members[0].mask.copy())
    return Population(stack_members(members), target, 0, k)


CFG = EauDeConfig(u_max=3.0, s_max=0.01, population_size=5, tournament_size=3, t_final=1000)


class TestBehaviorDistribution:
    def test_equal_losses_uniform(self):
        p = behavior_distribution([2.0, 2.0, 2.0, 2.0])
        assert np.allclose(p, 0.25)

    def test_reciprocal_normalization(self):
        p = behavior_distribution([1.0, 3.0])
        assert np.allclose(p, [0.75, 0.25])

    def test_all_zero_losses_fall_back_to_uniform(self):
        p = behavior_distribution([0.0, 0.0, 0.0])
        assert np.allclose(p, 1.0 / 3.0)

    def test_sampling_is_deterministic_given_stream(self):
        losses = [0.5, 1.5, 3.0]
        a = [sample_behavior_index(losses, RngStream(9, "b")) for _ in range(5)]
        b = [sample_behavior_index(losses, RngStream(9, "b")) for _ in range(5)]
        assert a == b

    def test_sampling_draws_what_generator_choice_draws(self):
        draws = RngStream(4, "losses")
        ours, theirs = RngStream(5, "b"), RngStream(5, "b")
        for trial in range(2000):
            k = int(draws.integers(1, 7))
            losses = np.zeros(k) if trial % 5 == 0 else draws.uniform(0.0, 3.0, size=k) ** 4
            assert sample_behavior_index(losses, ours) == int(theirs.choice(k, p=behavior_distribution(losses)))
        assert ours.get_state() == theirs.get_state()

    def test_a_nan_loss_is_a_non_finite_error(self):
        with pytest.raises(NonFiniteError):
            sample_behavior_index([0.5, float("nan")], RngStream(9, "b"))


class TestSelectTarget:
    def test_argmin(self):
        assert select_target([0.3, 0.1, 0.2]) == 1

    def test_single_member(self):
        assert select_target([0.7]) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert select_target([0.5, 0.5]) == 0

    def test_matches_brute_force_scan(self):
        rng = RngStream(100, "scan")
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            losses = np.round(rng.uniform(0.0, 1.0, size=k), 1)  # force some ties
            best, best_idx = np.inf, -1
            for i, value in enumerate(losses):
                if value < best:
                    best, best_idx = value, i
            assert select_target(losses) == best_idx

    def test_scale_invariance(self):
        rng = RngStream(8, "scale")
        for _ in range(100):
            losses = rng.uniform(0.1, 5.0, size=5)
            c = float(rng.uniform(0.01, 100.0))
            assert select_target(losses) == select_target(c * losses)


class TestExploitation:
    def test_population_of_one(self):
        cfg = EauDeConfig(population_size=1, tournament_size=1, t_final=10)
        assert exploitation([0.4], 0, cfg, RngStream(0, "sel")) == [0]

    def test_full_tournament_returns_all_champion(self):
        cfg = EauDeConfig(population_size=5, tournament_size=5, t_final=10)
        losses = [0.5, 0.2, 0.9, 0.4, 0.7]
        sel = exploitation(losses, 1, cfg, RngStream(0, "sel"))
        assert sel == [1, 1, 1, 1, 1]

    def test_hand_traced_tournaments(self):
        losses = [0.1, 0.2, 0.3, 0.4, 0.5]
        rng = FixedChoiceRng([[1, 2, 3], [0, 4, 2], [3, 4, 1], [2, 3, 4]])
        sel = exploitation(losses, 0, CFG, rng)
        assert sel == [0, 1, 0, 1, 2]

    def test_tournament_too_large_rejected(self):
        cfg = EauDeConfig(population_size=2, tournament_size=3, t_final=10)
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            exploitation([0.1, 0.2], 0, cfg, RngStream(0, "sel"))


class ZeroUniformRng(RngStream):
    def __init__(self):
        super().__init__(0, "zero")

    def uniform(self, low=0.0, high=1.0, size=None):
        return 0.0


class TestExploration:
    def test_distinct_selection_only_resets_losses(self):
        pop = make_population(5)
        pop.stack.cumulated_loss[:] = 1.0
        new_pop, records = exploration(pop, [0, 1, 2, 3, 4], 100, 200, CFG, RngStream(0, "sel"))
        assert all(not r.duplicated for r in records)
        for old, new in zip(pop.members, new_pop.members):
            assert params_equal(old.params, new.params)
            assert masks_equal(old.mask, new.mask)
            assert new.cumulated_loss == 0.0
            assert new.lineage_id == old.lineage_id

    def test_all_champion_selection_prunes_duplicates(self):
        pop = make_population(5)
        champion_digest = member_digest(pop.members[0])
        new_pop, records = exploration(pop, [0, 0, 0, 0, 0], 100, 200, CFG, RngStream(1, "sel"))
        assert member_digest(new_pop.members[0]) == champion_digest
        for record, member in list(zip(records, new_pop.members))[1:]:
            assert record.duplicated
            assert member.sparsity >= pop.members[0].sparsity
            assert member.optimizer.step_count == 0
            assert member.cumulated_loss == 0.0
            assert member.lineage_id >= 5
        lineages = [m.lineage_id for m in new_pop.members]
        assert len(set(lineages)) == 5

    def test_zero_draw_duplicate_keeps_sparsity_but_resets_optimizer(self):
        pop = make_population(2, with_target=False)
        # give the champion some optimizer history
        x = RngStream(2, "x").normal(size=(3, 4))
        member, _ = member_gradient_step(pop.members[0], x, [0, 1, 0], [0.5, -0.5, 1.0])
        pop.stack = stack_members([member, *pop.members[1:]])
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, population_size=2, tournament_size=1, t_final=1000)
        new_pop, records = exploration(pop, [0, 0], 10, 20, cfg, ZeroUniformRng())
        duplicate = new_pop.members[1]
        assert records[1].duplicated
        assert duplicate.sparsity == pop.members[0].sparsity
        assert duplicate.optimizer.step_count == 0
        assert duplicate.cumulated_loss == 0.0
        # the original keeps its optimizer history
        assert new_pop.members[0].optimizer.step_count == 1

    def test_duplicate_weights_are_zero_under_mask(self):
        pop = make_population(3)
        cfg = EauDeConfig(u_max=30.0, s_max=0.5, population_size=3, tournament_size=1, t_final=100)
        new_pop, records = exploration(pop, [0, 0, 0], 10, 90, cfg, RngStream(3, "sel"))
        for member in new_pop.members[1:]:
            assert member.sparsity > 0.0
            for w, m in zip(member.params.weights, member.mask.layers):
                assert np.all(w[m == 0.0] == 0.0)
            assert member.sparsity == sparsity_of(member.mask)

    def test_horizon_exhausted_freezes_sparsity(self):
        pop = make_population(2)
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, population_size=2, tournament_size=1, t_final=100)
        new_pop, records = exploration(pop, [0, 0], 100, 200, cfg, RngStream(4, "sel"))
        assert new_pop.members[1].sparsity == pop.members[0].sparsity

    def test_sac_style_target_reinitialized_for_duplicates(self):
        pop = make_population(2, with_target=True)
        cfg = EauDeConfig(u_max=30.0, s_max=0.5, population_size=2, tournament_size=1, t_final=100)
        new_pop, _ = exploration(pop, [0, 0], 10, 90, cfg, RngStream(5, "sel"))
        duplicate = new_pop.members[1]
        assert duplicate.target_params is not None
        assert params_equal(duplicate.target_params, duplicate.params)
        # survivor keeps its target object contents
        assert params_equal(new_pop.members[0].target_params, pop.members[0].target_params)


class TestMemberGradientStep:
    def test_targets_equal_predictions_is_noop(self):
        pop = make_population(1)
        member = pop.members[0]
        from eaudeqn.nncore import forward

        x = RngStream(6, "x").normal(size=(4, 4))
        actions = np.array([0, 1, 0, 1])
        out = forward(member.params, member.mask, x)
        targets = out[np.arange(4), actions]
        updated, loss = member_gradient_step(member, x, actions, targets)
        assert loss == 0.0
        assert params_equal(updated.params, member.params)
        assert updated.cumulated_loss == 0.0

    def test_identical_members_update_identically(self):
        pop_a = make_population(1, seed=7)
        pop_b = make_population(1, seed=7)
        x = RngStream(8, "x").normal(size=(4, 4))
        a, la = member_gradient_step(pop_a.members[0], x, [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0])
        b, lb = member_gradient_step(pop_b.members[0], x, [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0])
        assert la == lb
        assert params_equal(a.params, b.params)

    def test_descent_for_small_learning_rate(self):
        from eaudeqn.nncore import forward

        wins = 0
        for trial in range(20):
            params = init_network(mlp_layer_specs([4, 8, 3]), RngStream(trial, "descent"))
            opt = init_adam_state(params, 1e-4, 1e-8)
            member = fresh_member(params, opt, lineage_id=trial)
            rng = RngStream(trial, "descent/batch")
            x = rng.normal(size=(8, 4))
            actions = rng.integers(0, 3, size=8)
            targets = rng.normal(size=8)
            before, _ = member_gradient_step(member, x, actions, targets)
            out = forward(before.params, before.mask, x)
            resid = out[np.arange(8), actions] - targets
            after_loss = float(resid @ resid)
            out0 = forward(member.params, member.mask, x)
            resid0 = out0[np.arange(8), actions] - targets
            before_loss = float(resid0 @ resid0)
            if after_loss <= before_loss:
                wins += 1
        assert wins == 20


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    soft_targets=st.booleans(),
    frozen=st.booleans(),
    data=st.data(),
)
def test_exploration_under_arbitrary_selections(seed, soft_targets, frozen, data):
    k = data.draw(st.integers(1, 5))
    # sources with per-row sparsities, optimizer history and distinct losses
    pop = make_population(k, seed=seed, with_target=soft_targets)
    targets = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=k, max_size=k)))
    mask = magnitude_mask(pop.stack.params, targets)
    pop.stack = replace(pop.stack, params=apply_mask(pop.stack.params, mask), mask=mask,
                        sparsity=sparsity_of(mask), mask_target=targets)
    x = RngStream(seed, "explore/batch").normal(size=(3, 4))
    pop.stack, _ = member_gradient_step(pop.stack, x, [0, 1, 0], [0.5, -0.5, 1.0])
    pop.next_lineage_id = k + data.draw(st.integers(0, 3))
    champion = data.draw(st.integers(0, k - 1))
    selection = [champion] + data.draw(st.lists(st.integers(0, k - 1), min_size=k - 1, max_size=k - 1))
    cfg = EauDeConfig(u_max=30.0, s_max=0.5, population_size=k, tournament_size=1, t_final=100)
    t = 100 if frozen else 10  # at the horizon, duplicates keep the source's target
    sources = pop.members
    before = [member_digest(m) for m in sources]

    new_pop, records = exploration(pop, selection, t, 90, cfg, RngStream(seed, "sel"))

    assert [member_digest(m) for m in pop.members] == before  # the sources are left as they were
    assert new_pop.champion_index == 0 and new_pop.k == k
    assert new_pop.losses() == [0.0] * k
    firsts = {}
    for slot, source in enumerate(selection):
        firsts.setdefault(source, slot)
    duplicates = [slot for slot, source in enumerate(selection) if firsts[source] != slot]
    assert [r.duplicated for r in records] == [slot in duplicates for slot in range(k)]
    assert [r.source for r in records] == selection
    fresh_ids = iter(range(pop.next_lineage_id, pop.next_lineage_id + len(duplicates)))
    for slot, (member, source) in enumerate(zip(new_pop.members, (sources[s] for s in selection))):
        if slot not in duplicates:
            assert member_digest(member) == member_digest(source)
            assert (member.lineage_id, member.sparsity, member.mask_target) == (
                source.lineage_id, source.sparsity, source.mask_target)
            if soft_targets:
                assert params_equal(member.target_params, source.target_params)
            continue
        assert member.lineage_id == next(fresh_ids)
        assert member.mask_target >= source.mask_target
        if frozen:
            assert member.mask_target == source.mask_target
        assert masks_equal(member.mask, magnitude_mask(source.params, member.mask_target))
        for dup_layer, source_layer in zip(member.mask.layers, source.mask.layers):
            assert np.all(dup_layer[source_layer == 0.0] == 0.0)
        assert params_equal(member.params, apply_mask(source.params, member.mask))
        assert member.sparsity == sparsity_of(member.mask)
        assert member.optimizer.step_count == 0
        assert all(not a.any() for a in member.optimizer.m.weights + member.optimizer.m.biases
                   + member.optimizer.v.weights + member.optimizer.v.biases)
        if soft_targets:
            assert params_equal(member.target_params, member.params)
            assert masks_equal(member.target_mask, member.mask)
    assert next(fresh_ids, None) is None
    assert new_pop.next_lineage_id == pop.next_lineage_id + len(duplicates)
    assert [r.lineage_id for r in records] == [m.lineage_id for m in new_pop.members]
    assert [r.sparsity for r in records] == [m.sparsity for m in new_pop.members]
