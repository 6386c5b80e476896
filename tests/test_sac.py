import math

import numpy as np
import pytest

from eaudeqn.errors import ConfigError
from eaudeqn.nncore import (
    LayerSpec,
    NetworkParams,
    init_adam_state,
    init_network,
    mlp_layer_specs,
    params_equal,
    zeros_like_params,
)
from eaudeqn.population import Population, fresh_member, stack_members
from eaudeqn.pruning import EauDeConfig, mask_of_ones
from eaudeqn.replay import Batch
from eaudeqn.rng import RngStream
from eaudeqn.sac import (
    GaussianPolicy,
    TwinCriticPopulation,
    action_log_prob,
    actor_objective_and_grad,
    critic_inputs,
    draw_action,
    eaudesac_prune_event,
    ema_loss_update,
    sac_actor_update,
    sac_critic_targets,
    sample_action,
    soft_update,
    train_critic_member,
)

OBS_W = 3
ACT_D = 1


class ZeroNormalRng:
    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)


def make_policy(seed=0, hidden=(8,), low=-2.0, high=2.0):
    widths = [OBS_W, *hidden, 2 * ACT_D]
    params = init_network(mlp_layer_specs(widths), RngStream(seed, "actor/init"))
    opt = init_adam_state(params, 1e-3, 1e-8)
    return GaussianPolicy(params, mask_of_ones(params), opt, ACT_D, low, high)


def constant_policy(mean=0.0, raw_log_std=0.0):
    params = NetworkParams(
        [np.zeros((2 * ACT_D, OBS_W))],
        [np.array([mean, raw_log_std])],
        (LayerSpec(OBS_W, 2 * ACT_D, "identity"),),
    )
    opt = init_adam_state(params, 1e-3, 1e-8)
    return GaussianPolicy(params, mask_of_ones(params), opt, ACT_D, -2.0, 2.0)


def make_critic_member(seed=0, hidden=(8,), constant=None):
    if constant is None:
        params = init_network(mlp_layer_specs([OBS_W + ACT_D, *hidden, 1]), RngStream(seed, "critic/init"))
    else:
        params = NetworkParams(
            [np.zeros((1, OBS_W + ACT_D))],
            [np.array([float(constant)])],
            (LayerSpec(OBS_W + ACT_D, 1, "identity"),),
        )
    opt = init_adam_state(params, 1e-3, 1e-8)
    return fresh_member(params, opt, lineage_id=seed, with_target=True)


def make_twin(k=1, constant=None):
    sides = []
    for i in range(2):
        members = [make_critic_member(seed=10 * i + j, constant=constant) for j in range(k)]
        sides.append(Population(stack_members(members), None, 0, k))
    return TwinCriticPopulation((sides[0], sides[1]))


def batch_of(n=1, seed=0):
    rng = RngStream(seed, "batch")
    return Batch(
        states=rng.normal(size=(n, OBS_W)),
        actions=rng.uniform(-2.0, 2.0, size=(n, ACT_D)),
        rewards=np.zeros(n),
        next_states=rng.normal(size=(n, OBS_W)),
        dones=np.zeros(n),
    )


class TestCriticTargets:
    def test_done_transition_is_reward(self):
        twin = make_twin(constant=1.0)
        policy = make_policy()
        batch = batch_of()
        batch.rewards[:] = 3.25
        batch.dones[:] = 1.0
        y = sac_critic_targets(twin, policy, batch, 0.99, 0.2, RngStream(0, "target"))
        assert np.array_equal(y, np.array([3.25]))

    def test_identical_critics_alpha_zero(self):
        twin = make_twin(constant=1.0)
        policy = make_policy()
        batch = batch_of()
        y = sac_critic_targets(twin, policy, batch, 0.99, 0.0, RngStream(0, "target"))
        assert abs(float(y[0]) - 0.99 * 1.0) < 1e-12

    def test_hand_value_with_forced_log_prob(self):
        # mean 0, log_std chosen so log pi(center|s) = -1.5 exactly when the
        # noise draw is 0: logp = -c - 0.5*log(2*pi) - log(half_range)
        c = 1.5 - 0.5 * math.log(2.0 * math.pi) - math.log(2.0)
        policy = constant_policy(mean=0.0, raw_log_std=c)
        twin = make_twin(constant=1.0)
        batch = batch_of()
        y = sac_critic_targets(twin, policy, batch, 0.99, 0.2, ZeroNormalRng())
        assert abs(float(y[0]) - 1.287) < 1e-12

    def test_sampling_and_inversion_log_probs_agree(self):
        policy = make_policy(seed=3)
        rng = RngStream(5, "target")
        states = rng.normal(size=(6, OBS_W))
        noise = rng.normal(size=(6, ACT_D))
        actions, logp = sample_action(policy, states, noise)
        for j in range(6):
            via_inverse = float(action_log_prob(policy, states[j], actions[j])[0])
            assert abs(via_inverse - float(logp[j])) < 1e-7


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        a = init_network(mlp_layer_specs([3, 4, 2]), RngStream(0, "a"))
        b = init_network(mlp_layer_specs([3, 4, 2]), RngStream(1, "b"))
        assert params_equal(soft_update(a, b, 1.0), b)

    def test_tau_zero_keeps_target(self):
        a = init_network(mlp_layer_specs([3, 4, 2]), RngStream(0, "a"))
        b = init_network(mlp_layer_specs([3, 4, 2]), RngStream(1, "b"))
        assert params_equal(soft_update(a, b, 0.0), a)

    def test_hand_value(self):
        a = zeros_like_params(init_network(mlp_layer_specs([2, 2]), RngStream(0, "a")))
        b = init_network(mlp_layer_specs([2, 2]), RngStream(0, "a"))
        b.weights[0][:] = 1.0
        out = soft_update(a, b, 0.005)
        assert np.allclose(out.weights[0], 0.005, atol=1e-15)


class TestEmaLoss:
    def test_tau_one_returns_batch_loss(self):
        assert ema_loss_update(10.0, 3.0, 1.0) == 3.0

    def test_hand_value(self):
        assert abs(ema_loss_update(0.0, 1.0, 0.005) - 0.005) < 1e-15

    def test_fixed_point(self):
        assert ema_loss_update(2.5, 2.5, 0.005) == 2.5

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigError):
            ema_loss_update(1.0, 1.0, 0.0)


class TestPolicyDensity:
    def test_actions_respect_bounds(self):
        policy = make_policy(seed=11)
        rng = RngStream(12, "p")
        states = rng.normal(size=(64, OBS_W))
        noise = rng.normal(size=(64, ACT_D))
        actions, _ = sample_action(policy, states, noise)
        assert np.all(actions > -2.0) and np.all(actions < 2.0)

    def test_density_integrates_to_one(self):
        for seed in (0, 5, 9):
            policy = make_policy(seed=seed)
            state = RngStream(seed, "s").normal(size=OBS_W)
            grid = np.linspace(-2.0 + 1e-9, 2.0 - 1e-9, 40_001)
            logp = action_log_prob(policy, state, grid[:, None])
            mass = float(np.trapezoid(np.exp(logp), grid))
            assert abs(mass - 1.0) < 1e-3

    def test_draw_action_deterministic_given_stream(self):
        policy = make_policy(seed=2)
        state = np.ones(OBS_W)
        a1, lp1 = draw_action(policy, state, RngStream(7, "p"))
        a2, lp2 = draw_action(policy, state, RngStream(7, "p"))
        assert np.array_equal(a1, a2) and lp1 == lp2


class TestActorGradient:
    def test_flat_objective_gives_zero_gradient(self):
        # critics ignore the action (zero weights) and alpha = 0
        policy = make_policy(seed=1)
        critic = make_critic_member(constant=2.0)
        states = RngStream(2, "s").normal(size=(5, OBS_W))
        noise = RngStream(3, "n").normal(size=(5, ACT_D))
        _, grad = actor_objective_and_grad(policy, critic, critic, states, 0.0, noise)
        norm = math.sqrt(
            sum(float((g**2).sum()) for g in grad.weights) + sum(float((g**2).sum()) for g in grad.biases)
        )
        assert norm < 1e-6

    def test_matches_finite_differences_with_frozen_noise(self):
        policy = make_policy(seed=4, hidden=(6,))
        critic_a = make_critic_member(seed=21, hidden=(6,))
        critic_b = make_critic_member(seed=22, hidden=(6,))
        states = RngStream(6, "s").normal(size=(3, OBS_W))
        noise = RngStream(7, "n").normal(size=(3, ACT_D))
        alpha = 0.2
        objective, grad = actor_objective_and_grad(policy, critic_a, critic_b, states, alpha, noise)

        h = 1e-6
        work = policy.params.copy()
        frozen = GaussianPolicy(work, policy.mask, policy.optimizer, ACT_D, -2.0, 2.0)
        worst = 0.0
        scale = 1e-12
        fd_all, an_all = [], []
        for p_arrs, g_arrs in ((work.weights, grad.weights), (work.biases, grad.biases)):
            for p_arr, g_arr in zip(p_arrs, g_arrs):
                flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
                for j in range(flat_p.size):
                    orig = flat_p[j]
                    flat_p[j] = orig + h
                    up, _ = actor_objective_and_grad(frozen, critic_a, critic_b, states, alpha, noise)
                    flat_p[j] = orig - h
                    down, _ = actor_objective_and_grad(frozen, critic_a, critic_b, states, alpha, noise)
                    flat_p[j] = orig
                    fd_all.append((up - down) / (2.0 * h))
                    an_all.append(float(flat_g[j]))
        fd_all = np.array(fd_all)
        an_all = np.array(an_all)
        scale = max(scale, float(np.max(np.abs(fd_all))))
        assert float(np.max(np.abs(an_all - fd_all))) / scale < 1e-3

    def test_actor_update_deterministic(self):
        batch = batch_of(n=8, seed=9)
        results = []
        for _ in range(2):
            policy = make_policy(seed=10)
            twin = make_twin(k=3)
            for side in twin.sides:
                side.stack.cumulated_loss[:] = [0.1 * (j + 1) for j in range(side.k)]
            new_policy, behavior = sac_actor_update(policy, twin, batch, 0.2, RngStream(11, "actor"))
            results.append((new_policy, behavior))
        assert results[0][1] == results[1][1]
        assert params_equal(results[0][0].params, results[1][0].params)

    def test_critics_untouched_by_actor_update(self):
        batch = batch_of(n=4, seed=13)
        policy = make_policy(seed=14)
        twin = make_twin(k=2)
        before = [[m.params.copy() for m in side.members] for side in twin.sides]
        sac_actor_update(policy, twin, batch, 0.2, RngStream(15, "actor"))
        for side, frozen in zip(twin.sides, before):
            for m, p in zip(side.members, frozen):
                assert params_equal(m.params, p)


class TestCriticTraining:
    def test_soft_target_moves_toward_online(self):
        member = make_critic_member(seed=30)
        rng = RngStream(31, "c")
        inputs = critic_inputs(rng.normal(size=(8, OBS_W)), rng.uniform(-2, 2, size=(8, ACT_D)))
        targets = rng.normal(size=8)
        before_target = member.target_params.copy()
        updated, loss = train_critic_member(member, inputs, targets, tau=0.005)
        assert loss > 0.0
        assert updated.cumulated_loss == ema_loss_update(0.0, loss, 0.005)
        moved = any(
            not np.array_equal(a, b)
            for a, b in zip(updated.target_params.weights, before_target.weights)
        )
        assert moved
        expected = soft_update(before_target, updated.params, 0.005)
        assert params_equal(updated.target_params, expected)


class TestPruneEvent:
    CFG = EauDeConfig(u_max=3.0, s_max=0.01, population_size=1, tournament_size=1, t_final=1000)

    def test_population_of_one_only_resets(self):
        twin = make_twin(k=1)
        for side in twin.sides:
            side.stack.cumulated_loss[0] = 0.7
        new_twin, records = eaudesac_prune_event(twin, 100, 200, self.CFG, RngStream(0, "sel"))
        for side, old_side in zip(new_twin.sides, twin.sides):
            assert side.members[0].cumulated_loss == 0.0
            assert params_equal(side.members[0].params, old_side.members[0].params)
        assert [r["critic"] for r in records] == [0, 1]

    def test_equal_losses_champion_is_zero(self):
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, population_size=3, tournament_size=2, t_final=1000)
        twin = make_twin(k=3)
        for side in twin.sides:
            side.stack.cumulated_loss[:] = 0.5
        _, records = eaudesac_prune_event(twin, 100, 200, cfg, RngStream(1, "sel"))
        for r in records:
            assert r["selection"][0] == 0

    def test_duplicates_at_least_source_sparsity(self):
        cfg = EauDeConfig(u_max=3.0, s_max=0.5, population_size=3, tournament_size=3, t_final=1000)
        twin = make_twin(k=3)
        for side in twin.sides:
            side.stack.cumulated_loss[:] = [0.1, 0.2, 0.3]
        new_twin, records = eaudesac_prune_event(twin, 100, 600, cfg, RngStream(2, "sel"))
        for record in records:
            for rec in record["records"]:
                if rec["duplicated"]:
                    assert rec["sparsity"] >= rec["source_sparsity"]
        for side in new_twin.sides:
            assert side.champion_index == 0
            for m in side.members:
                assert m.cumulated_loss == 0.0
