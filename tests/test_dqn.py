import numpy as np

from eaudeqn.dqn import act_epsilon_greedy, distillqn_update, epsilon_at, td_targets, train_member
from eaudeqn.nncore import Frozen, NetworkParams, LayerSpec, forward, init_adam_state, init_network, mlp_layer_specs
from eaudeqn.population import fresh_member
from eaudeqn.pruning import PolyPruneConfig, mask_of_ones, masks_equal
from eaudeqn.replay import Batch
from eaudeqn.rng import RngStream


def make_member(widths=(4, 8, 2), seed=0):
    params = init_network(mlp_layer_specs(list(widths)), RngStream(seed, "member/0/init"))
    return fresh_member(params, init_adam_state(params, 1e-3, 1e-8), lineage_id=0)


def constant_q_net(values):
    """Single identity layer with zero weights: output is always `values`."""
    values = np.asarray(values, dtype=float)
    n = values.size
    params = NetworkParams(
        [np.zeros((n, 1))], [values.copy()], (LayerSpec(1, n),)
    )
    return params


def batch_of(states, actions, rewards, next_states, dones):
    return Batch(
        states=np.asarray(states, dtype=float),
        actions=np.asarray(actions, dtype=np.int64),
        rewards=np.asarray(rewards, dtype=float),
        next_states=np.asarray(next_states, dtype=float),
        dones=np.asarray(dones, dtype=float),
    )


class TestTdTargets:
    def test_done_transition_cuts_bootstrap(self):
        net = constant_q_net([5.0, 7.0])
        batch = batch_of([[1.0]], [0], [2.5], [[1.0]], [1.0])
        y = td_targets(Frozen(net, mask_of_ones(net)), batch, 0.99)
        assert np.array_equal(y, np.array([2.5]))

    def test_gamma_zero_is_reward(self):
        net = constant_q_net([5.0, 7.0])
        batch = batch_of([[1.0]] * 3, [0, 1, 0], [1.0, -2.0, 0.5], [[1.0]] * 3, [0.0, 0.0, 0.0])
        y = td_targets(Frozen(net, mask_of_ones(net)), batch, 0.0)
        assert np.array_equal(y, np.array([1.0, -2.0, 0.5]))

    def test_hand_value(self):
        # r=1, gamma=0.99, max next-Q = 2, not done -> 2.98
        net = constant_q_net([2.0, -1.0])
        batch = batch_of([[1.0]], [0], [1.0], [[1.0]], [0.0])
        y = td_targets(Frozen(net, mask_of_ones(net)), batch, 0.99)
        assert abs(float(y[0]) - 2.98) < 1e-12


class TestTrainMember:
    def test_perfect_predictions_leave_member_unchanged(self):
        member = make_member()
        x = RngStream(1, "x").normal(size=(4, 4))
        actions = np.array([0, 1, 1, 0])
        out = forward(member.params, member.mask, x)
        targets = out[np.arange(4), actions]
        batch = batch_of(x, actions, np.zeros(4), x, np.zeros(4))
        updated, loss = train_member(member, batch, targets)
        assert loss == 0.0
        assert updated.cumulated_loss == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(updated.params.weights, member.params.weights))

    def test_cumulated_loss_accumulates(self):
        member = make_member()
        x = RngStream(2, "x").normal(size=(4, 4))
        batch = batch_of(x, [0, 1, 0, 1], np.zeros(4), x, np.zeros(4))
        targets = np.array([1.0, 1.0, 1.0, 1.0])
        m1, l1 = train_member(member, batch, targets)
        m2, l2 = train_member(m1, batch, targets)
        assert m2.cumulated_loss == l1 + l2 > 0.0


class TestEpsilonGreedy:
    def test_epsilon_zero_is_argmax(self):
        member = make_member()
        state = np.ones(4)
        q = forward(member.params, member.mask, state)
        action = act_epsilon_greedy(member, state, 0.0, RngStream(0, "explore"))
        assert action == int(q.argmax())

    def test_known_q_values_pick_higher(self):
        net = constant_q_net([0.1, 0.9])
        member = fresh_member(net, init_adam_state(net, 1e-3, 1e-8), lineage_id=0)
        assert act_epsilon_greedy(member, np.array([1.0]), 0.0, RngStream(0, "explore")) == 1

    # Sequences and the stream's next draw recorded with the forward-first
    # implementation: flipping the coin first must not change either.
    PINNED = {
        0.0: ([2, 0, 0, 2, 2, 2, 2, 1, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 2, 1, 0, 0, 0, 2], 0.3690455012781332),
        0.5: ([1, 1, 0, 0, 2, 2, 0, 1, 2, 2, 0, 2, 1, 2, 0, 2, 2, 0, 2, 1, 0, 0, 0, 2], 0.08004713547974651),
        1.0: ([1, 1, 0, 0, 2, 2, 0, 1, 0, 2, 0, 0, 2, 2, 2, 1, 0, 1, 1, 2, 0, 0, 2, 1], 0.4703897232602744),
    }

    def test_action_sequence_and_draws_are_pinned(self):
        member = make_member(widths=(4, 8, 3))
        states = RngStream(1, "states").normal(size=(24, 4))
        for eps, (actions, next_draw) in self.PINNED.items():
            rng = RngStream(2, "explore")
            assert [act_epsilon_greedy(member, s, eps, rng) for s in states] == actions, eps
            assert rng.uniform() == next_draw, eps

    def test_epsilon_one_is_uniform(self):
        net = constant_q_net([0.1, 0.9, -0.3])
        member = fresh_member(net, init_adam_state(net, 1e-3, 1e-8), lineage_id=0)
        rng = RngStream(9, "explore")
        counts = np.zeros(3)
        n = 10_000
        for _ in range(n):
            counts[act_epsilon_greedy(member, np.array([1.0]), 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 1.0 / 3.0) < 0.02)

    def test_linear_decay(self):
        assert epsilon_at(1, 1.0, 0.01, 100) == 1.0
        assert epsilon_at(101, 1.0, 0.01, 100) == 0.01
        assert epsilon_at(10_000, 1.0, 0.01, 100) == 0.01
        mid = epsilon_at(51, 1.0, 0.01, 100)
        assert abs(mid - (1.0 + (0.01 - 1.0) * 0.5)) < 1e-12


class TestDistillUpdate:
    CFG = PolyPruneConfig(
        final_sparsity=0.95, exponent=3.0, t_start=100, t_end=400, t_final=500, pruning_period=50
    )

    def test_before_start_keeps_dense(self):
        member = make_member()
        updated = distillqn_update(member, self.CFG, 50)
        assert updated.sparsity == 0.0
        assert masks_equal(updated.mask, member.mask)

    def test_at_end_reaches_final_sparsity_up_to_rounding(self):
        member = make_member(widths=(6, 32, 3))
        updated = distillqn_update(member, self.CFG, 450)
        total = sum(w.size for w in member.params.weights)
        assert abs(updated.sparsity - 0.95) <= 0.5 * len(member.params.weights) / total

    def test_consecutive_equal_targets_idempotent(self):
        member = make_member(widths=(6, 16, 3))
        once = distillqn_update(member, self.CFG, 250)
        twice = distillqn_update(once, self.CFG, 250)
        assert masks_equal(once.mask, twice.mask)
        assert all(np.array_equal(a, b) for a, b in zip(once.params.weights, twice.params.weights))

    def test_optimizer_not_reset(self):
        member = make_member()
        x = RngStream(3, "x").normal(size=(4, 4))
        batch = batch_of(x, [0, 1, 0, 1], np.zeros(4), x, np.zeros(4))
        member, _ = train_member(member, batch, np.ones(4))
        pruned = distillqn_update(member, self.CFG, 250)
        assert pruned.optimizer.step_count == member.optimizer.step_count == 1

    def test_adam_moments_zeroed_under_the_new_mask(self):
        member = make_member(widths=(6, 16, 3))
        x = RngStream(3, "x").normal(size=(4, 6))
        batch = batch_of(x, [0, 1, 2, 1], np.zeros(4), x, np.zeros(4))
        member, _ = train_member(member, batch, np.ones(4))
        pruned = distillqn_update(member, self.CFG, 250)
        n = member.params.layout.n_weights
        for old, new in ((member.optimizer.m, pruned.optimizer.m), (member.optimizer.v, pruned.optimizer.v)):
            assert np.array_equal(new.flat[:n], old.flat[:n] * pruned.mask.flat)
            assert np.count_nonzero(new.flat[:n]) < np.count_nonzero(old.flat[:n])
            assert np.array_equal(new.flat[n:], old.flat[n:])  # biases are never masked

    def test_sparsity_monotone_over_schedule(self):
        member = make_member(widths=(6, 32, 3))
        values = []
        for t in range(0, 501, 50):
            member = distillqn_update(member, self.CFG, t)
            values.append(member.sparsity)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_soft_target_zeroed_under_the_new_mask(self):
        params = init_network(mlp_layer_specs([6, 16, 3]), RngStream(0, "member/0/init"))
        critic = fresh_member(params, init_adam_state(params, 1e-3, 1e-8), lineage_id=0, with_target=True)
        pruned = distillqn_update(critic, self.CFG, 250)
        assert pruned.sparsity > 0.0
        assert masks_equal(pruned.target_mask, pruned.mask)
        for w, m in zip(pruned.target_params.weights, pruned.mask.layers):
            assert np.all(w[m == 0.0] == 0.0)
        # a member without a soft target gets none
        assert distillqn_update(make_member(widths=(6, 16, 3)), self.CFG, 250).target_params is None
