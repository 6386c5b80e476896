import numpy as np
import pytest

from eaudeqn.errors import ConfigError, NonFiniteError
from eaudeqn.nncore import (
    LayerSpec,
    NetworkParams,
    adam_step,
    forward,
    init_adam_state,
    init_network,
    mlp_layer_specs,
    params_equal,
    reset_optimizer,
    td_loss_and_grad,
    zeros_like_params,
)
from eaudeqn.pruning import mask_of_ones
from eaudeqn.rng import RngStream


def make_net(widths, rng=None):
    return init_network(mlp_layer_specs(widths), RngStream(0, "test/init") if rng is None else rng)


from gradcheck import finite_difference_grad, max_relative_error, sample_fd_case


class TestForward:
    def test_zero_network_gives_zero_output(self):
        net = make_net([3, 4, 2])
        zero = zeros_like_params(net)
        zero.layer_specs = net.layer_specs
        out = forward(zero, mask_of_ones(zero), [1.0, -2.0, 3.0])
        assert np.array_equal(out, np.zeros(2))

    def test_all_ones_mask_is_identity(self):
        net = make_net([5, 6, 3])
        x = RngStream(1, "x").normal(size=5)
        masked = forward(net, mask_of_ones(net), x)
        # reference without any masking machinery: ReLU on every layer but the last
        a = x
        last = len(net.weights) - 1
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w.T + b
            a = np.maximum(z, 0.0) if i < last else z
        assert np.array_equal(masked, a)

    def test_hand_computed_single_layer(self):
        # weights [[1,2],[3,4]], bias 0, linear output: W @ [1,1] = [3, 7]
        specs = (LayerSpec(2, 2),)
        net = NetworkParams([np.array([[1.0, 2.0], [3.0, 4.0]])], [np.zeros(2)], specs)
        out = forward(net, mask_of_ones(net), [1.0, 1.0])
        assert np.array_equal(out, np.array([3.0, 7.0]))

    def test_mask_absorption_is_exact(self):
        from eaudeqn.pruning import apply_mask, magnitude_mask

        rng = RngStream(7, "absorb")
        for _ in range(10):
            net = make_net([4, 6, 3], rng=RngStream(int(rng.integers(1 << 30)), "net"))
            mask = magnitude_mask(net, float(rng.uniform(0.0, 0.9)))
            x = rng.normal(size=4)
            lhs = forward(net, mask, x)
            rhs = forward(apply_mask(net, mask), mask_of_ones(net), x)
            assert np.array_equal(lhs, rhs)

    def test_shape_mismatch_is_fatal(self):
        net = make_net([3, 2])
        with pytest.raises(ConfigError):
            forward(net, mask_of_ones(net), [1.0, 2.0])


class TestBackward:
    def test_zero_residual_gives_zero_gradient(self):
        net = make_net([3, 5, 2])
        mask = mask_of_ones(net)
        x = RngStream(3, "zr").normal(size=(4, 3))
        actions = np.array([0, 1, 0, 1])
        out = np.atleast_2d(forward(net, mask, x))
        targets = out[np.arange(4), actions]
        grad = td_loss_and_grad(net, mask, x, actions, targets)[1]
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grad.weights)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grad.biases)

    def test_masked_layer_has_zero_weight_gradient(self):
        net = make_net([3, 5, 2])
        mask = mask_of_ones(net)
        mask.layers[0] = np.zeros_like(mask.layers[0])
        x = RngStream(4, "ml").normal(size=(4, 3))
        grad = td_loss_and_grad(net, mask, x, [0, 1, 1, 0], [1.0, -1.0, 0.5, 2.0])[1]
        assert np.array_equal(grad.weights[0], np.zeros_like(grad.weights[0]))

    def test_matches_finite_differences(self):
        for trial in range(25):
            net, mask, x, actions, targets = sample_fd_case(trial, with_mask=True)
            _, grad = td_loss_and_grad(net, mask, x, actions, targets)
            fd = finite_difference_grad(net, mask, x, actions, targets)
            assert max_relative_error(grad, fd) < 1e-4

    def test_non_finite_reports_layer(self):
        net = make_net([2, 3, 2])
        net.weights[1][0, 0] = np.inf
        with pytest.raises(NonFiniteError) as info:
            td_loss_and_grad(net, mask_of_ones(net), [[1.0, 1.0]], [0], [0.0])
        assert info.value.layer_index == 1


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        net = make_net([3, 4, 2])
        state = init_adam_state(net, 1e-3, 1e-8)
        new, _ = adam_step(net, zeros_like_params(net), state)
        assert params_equal(new, net)

    def test_first_step_displacement_near_learning_rate(self):
        # m_hat/sqrt(v_hat) = sign(g) up to epsilon damping on the first step
        net = make_net([3, 3])
        grad = zeros_like_params(net)
        grad.weights[0][:] = 0.5
        state = init_adam_state(net, 1e-3, 1e-8)
        new, _ = adam_step(net, grad, state)
        disp = np.abs(new.weights[0] - net.weights[0])
        assert np.allclose(disp, 1e-3, rtol=1e-6)

    def test_deterministic(self):
        net = make_net([3, 4, 2])
        grad = td_loss_and_grad(net, mask_of_ones(net), np.ones((2, 3)), [0, 1], [1.0, 2.0])[1]
        state = init_adam_state(net, 1e-3, 1e-8)
        a1, s1 = adam_step(net, grad, state)
        a2, s2 = adam_step(net, grad, state)
        assert params_equal(a1, a2)
        assert s1.step_count == s2.step_count == 1

    def test_reset_zeroes_moments_and_step(self):
        net = make_net([3, 4, 2])
        state = init_adam_state(net, 2e-3, 1e-8)
        grad = zeros_like_params(net)
        grad.weights[0][:] = 1.0
        for _ in range(100):
            net, state = adam_step(net, grad, state)
        assert state.step_count == 100
        reset = reset_optimizer(state)
        assert reset.step_count == 0
        assert reset.learning_rate == 2e-3
        assert all(np.array_equal(m, np.zeros_like(m)) for m in reset.m.weights)
        assert all(np.array_equal(v, np.zeros_like(v)) for v in reset.v.weights)

    def test_reset_is_idempotent_on_fresh_state(self):
        net = make_net([2, 2])
        state = init_adam_state(net, 1e-3, 1e-8)
        reset = reset_optimizer(state)
        assert reset.step_count == 0
        assert all(np.array_equal(a, b) for a, b in zip(reset.m.weights, state.m.weights))

    def test_reset_then_step_equals_fresh_step(self):
        net = make_net([3, 4, 2])
        grad = td_loss_and_grad(net, mask_of_ones(net), np.ones((2, 3)), [0, 1], [3.0, -1.0])[1]
        trained = init_adam_state(net, 1e-3, 1e-8)
        for _ in range(10):
            _, trained = adam_step(net, grad, trained)
        from_reset, _ = adam_step(net, grad, reset_optimizer(trained))
        from_fresh, _ = adam_step(net, grad, init_adam_state(net, 1e-3, 1e-8))
        assert params_equal(from_reset, from_fresh)

    def test_masked_positions_are_training_fixed_points(self):
        from eaudeqn.pruning import apply_mask, magnitude_mask

        net = make_net([4, 6, 3])
        mask = magnitude_mask(net, 0.4)
        net = apply_mask(net, mask)
        frozen = net.copy()
        state = init_adam_state(net, 1e-2, 1e-8)
        rng = RngStream(5, "fixedpoint")
        for _ in range(50):
            x = rng.normal(size=(4, 4))
            grad = td_loss_and_grad(net, mask, x, rng.integers(0, 3, size=4), rng.normal(size=4))[1]
            net, state = adam_step(net, grad, state)
        for w_new, w_old, m in zip(net.weights, frozen.weights, mask.layers):
            assert np.array_equal(w_new[m == 0.0], w_old[m == 0.0])
            assert np.all(w_new[m == 0.0] == 0.0)


class TestInit:
    def test_same_seed_and_label_reproduce(self):
        specs = mlp_layer_specs([6, 8, 4])
        a = init_network(specs, RngStream(42, "member/0/init"))
        b = init_network(specs, RngStream(42, "member/0/init"))
        assert params_equal(a, b)

    def test_distinct_labels_differ(self):
        specs = mlp_layer_specs([6, 8, 4])
        a = init_network(specs, RngStream(42, "member/0/init"))
        b = init_network(specs, RngStream(42, "member/1/init"))
        assert not params_equal(a, b)

    def test_biases_are_zero(self):
        net = make_net([5, 7, 3])
        assert all(np.array_equal(b, np.zeros_like(b)) for b in net.biases)

    def test_weight_mean_near_zero(self):
        rng = RngStream(123, "init/mc")
        samples = []
        for _ in range(10):
            net = init_network(mlp_layer_specs([32, 32]), rng)
            samples.append(net.weights[0].ravel())
        pool = np.concatenate(samples)
        assert pool.size >= 10_000
        assert abs(pool.mean()) < 0.01

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            init_network([], RngStream(0, "x"))


def test_gradient_correctness_sweep_small():
    """Seeded mini-version of the acceptance gradient sweep."""
    for trial in range(100, 115):
        net, mask, x, actions, targets = sample_fd_case(trial)
        grad = td_loss_and_grad(net, mask, x, actions, targets)[1]
        fd = finite_difference_grad(net, mask, x, actions, targets)
        assert max_relative_error(grad, fd) < 1e-4
