import math

import numpy as np
import pytest

from eaudeqn.errors import ConfigError, ScheduleExhaustedError
from eaudeqn.nncore import NetworkParams, LayerSpec, init_network, mlp_layer_specs
from eaudeqn.pruning import (
    EauDeConfig,
    Mask,
    PolyPruneConfig,
    apply_mask,
    magnitude_mask,
    mask_of_ones,
    poly_schedule,
    sample_sparsity,
    sparsity_of,
)
from eaudeqn.rng import RngStream


class FixedUniformRng:
    """Stub stream returning queued uniform draws (scaled to the range)."""

    def __init__(self, unit_values):
        self.unit_values = list(unit_values)

    def uniform(self, low=0.0, high=1.0, size=None):
        assert size is None
        return low + (high - low) * self.unit_values.pop(0)


def single_layer_net(values):
    w = np.asarray(values, dtype=float).reshape(1, -1)
    return NetworkParams([w], [np.zeros(1)], (LayerSpec(w.shape[1], 1),))


class TestMagnitudeMask:
    def test_target_zero_keeps_everything(self):
        net = init_network(mlp_layer_specs([4, 5, 2]), RngStream(0, "m"))
        mask = magnitude_mask(net, 0.0)
        assert sparsity_of(mask) == 0.0

    def test_target_one_drops_everything(self):
        net = init_network(mlp_layer_specs([4, 5, 2]), RngStream(0, "m"))
        mask = magnitude_mask(net, 1.0)
        assert sparsity_of(mask) == 1.0

    def test_hand_case_drops_two_smallest(self):
        net = single_layer_net([0.1, -0.5, 0.3, 0.05])
        mask = magnitude_mask(net, 0.5)
        assert np.array_equal(mask.layers[0], np.array([[0.0, 1.0, 1.0, 0.0]]))

    def test_ties_break_toward_lowest_flat_index(self):
        net = single_layer_net([0.2, 0.2, 0.2, 0.2])
        mask = magnitude_mask(net, 0.5)
        assert np.array_equal(mask.layers[0], np.array([[0.0, 0.0, 1.0, 1.0]]))

    def test_zero_count_is_round_half_up_per_layer(self):
        rng = RngStream(9, "counts")
        net = init_network(mlp_layer_specs([3, 7, 2]), rng)
        for _ in range(50):
            target = float(rng.uniform(0.0, 1.0))
            mask = magnitude_mask(net, target)
            for w, m in zip(net.weights, mask.layers):
                expected = math.floor(target * w.size + 0.5)
                assert int((m == 0.0).sum()) == expected

    def test_target_outside_range_rejected(self):
        net = single_layer_net([1.0, 2.0])
        with pytest.raises(ConfigError):
            magnitude_mask(net, 1.5)

    def test_reprune_never_resurrects_along_target_chain(self):
        # Increasing the creating target keeps old zeros zeroed: the pruned
        # weights have magnitude 0, the minimum, and per-layer counts are
        # monotone in the target under round-half-up.
        rng = RngStream(31, "chain")
        net = init_network(mlp_layer_specs([5, 9, 3]), rng)
        target = 0.0
        mask = mask_of_ones(net)
        for _ in range(20):
            target = min(1.0, target + float(rng.uniform(0.0, 0.08)))
            new_mask = magnitude_mask(net, target)
            for old, new in zip(mask.layers, new_mask.layers):
                assert np.all(new[old == 0.0] == 0.0)
            assert sparsity_of(new_mask) >= sparsity_of(mask)
            mask = new_mask
            net = apply_mask(net, mask)


class TestSparsityOf:
    def test_all_ones_is_zero(self):
        assert sparsity_of(Mask([np.ones((3, 4))])) == 0.0

    def test_all_zeros_is_one(self):
        assert sparsity_of(Mask([np.zeros((3, 4))])) == 1.0

    def test_counts_fraction(self):
        m = Mask([np.ones((3, 4))])
        m.layers[0][0, :3] = 0.0
        assert sparsity_of(m) == 0.25


class TestApplyMask:
    def test_ones_mask_identity(self):
        net = single_layer_net([1.0, 2.0, 3.0, 4.0])
        out = apply_mask(net, mask_of_ones(net))
        assert np.array_equal(out.weights[0], net.weights[0])

    def test_zeros_mask_keeps_biases(self):
        net = single_layer_net([1.0, 2.0])
        net.biases[0][:] = 5.0
        out = apply_mask(net, Mask([np.zeros((1, 2))]))
        assert np.array_equal(out.weights[0], np.zeros((1, 2)))
        assert np.array_equal(out.biases[0], np.array([5.0]))

    def test_elementwise_product(self):
        net = single_layer_net([1.0, 2.0, 3.0, 4.0])
        out = apply_mask(net, Mask([np.array([[1.0, 0.0, 1.0, 0.0]])]))
        assert np.array_equal(out.weights[0], np.array([[1.0, 0.0, 3.0, 0.0]]))


class TestPolySchedule:
    CFG = PolyPruneConfig(
        final_sparsity=0.95, exponent=3.0, t_start=20, t_end=80, t_final=100, pruning_period=10
    )

    def test_zero_before_start(self):
        for t in (0, 5, 20):
            assert poly_schedule(t, self.CFG) == 0.0

    def test_final_after_end(self):
        for t in (80, 90, 100, 10_000):
            assert poly_schedule(t, self.CFG) == 0.95

    def test_hand_midpoint(self):
        # 0.95 * (1 - 0.5^3) = 0.83125 at the halfway point
        assert abs(poly_schedule(50, self.CFG) - 0.83125) < 1e-12

    def test_monotone_on_grid(self):
        values = [poly_schedule(t, self.CFG) for t in range(101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            PolyPruneConfig(t_start=80, t_end=20, t_final=100).validate()


class TestSampleSparsity:
    CFG = EauDeConfig(u_max=3.0, s_max=0.01, population_size=5, tournament_size=3, t_final=200)

    def test_zero_draw_returns_current(self):
        out = sample_sparsity(0.4, 10, 20, self.CFG, FixedUniformRng([0.0]))
        assert out == 0.4

    def test_hand_case_cap_active(self):
        # linear term 0.05 exceeds cap 0.005 -> 0.505
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, t_final=200)
        rng = FixedUniformRng([1.0 / 3.0])  # U = 1
        out = sample_sparsity(0.5, 100, 110, cfg, rng)
        assert abs(out - 0.505) < 1e-12

    def test_hand_case_linear_active(self):
        # linear term 0.003 below cap 0.01 -> 0.003
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, t_final=10_000)
        rng = FixedUniformRng([1.0])  # U = 3
        out = sample_sparsity(0.0, 0, 10, cfg, rng)
        assert abs(out - 0.003) < 1e-12

    def test_bounds_over_many_draws(self):
        rng = RngStream(77, "bounds")
        for _ in range(10_000):
            s = float(rng.uniform(0.0, 0.999))
            t = int(rng.integers(0, 199))
            t_next = int(rng.integers(t + 1, 201))
            out = sample_sparsity(s, t, t_next, self.CFG, rng)
            assert s <= out <= s + (1.0 - s) * self.CFG.s_max
            assert out < 1.0

    def test_uniform_law_before_cap(self):
        # Inputs chosen so the cap never binds: increments are exactly
        # linear_term * U with U ~ Uniform(0, u_max).
        cfg = EauDeConfig(u_max=3.0, s_max=0.01, t_final=100_000)
        s, t, t_next = 0.3, 0, 10
        linear_term = (1.0 - s) / (cfg.t_final - t) * (t_next - t)
        assert linear_term * cfg.u_max < (1.0 - s) * cfg.s_max
        rng = RngStream(4242, "ks")
        draws = np.array([sample_sparsity(s, t, t_next, cfg, rng) - s for _ in range(10_000)])
        scaled = np.sort(draws / (linear_term * cfg.u_max))
        n = scaled.size
        upper = np.max(np.arange(1, n + 1) / n - scaled)
        lower = np.max(scaled - np.arange(0, n) / n)
        ks_stat = max(upper, lower)
        assert ks_stat < 1.62762 / math.sqrt(n)  # alpha = 0.01

    def test_exhausted_horizon(self):
        with pytest.raises(ScheduleExhaustedError):
            sample_sparsity(0.5, 200, 210, self.CFG, FixedUniformRng([0.5]))
