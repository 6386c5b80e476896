import numpy as np
import pytest

from eaudeqn import rundir
from eaudeqn.config import build_config, canonical_text
from eaudeqn.errors import ConfigError, SchemaMismatchError
from eaudeqn.metrics import aggregate_runs, bootstrap_iqm_interval, iqm, run_table
from eaudeqn.rng import RngStream


def brute_force_trim_mean(values):
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    drop = int(np.floor(0.25 * n))
    kept = ordered[drop : n - drop]
    return sum(kept) / len(kept)


class TestIqm:
    def test_four_values(self):
        assert iqm([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_constant_sequence(self):
        assert iqm([7.0] * 9) == 7.0

    def test_single_element(self):
        assert iqm([3.5]) == 3.5

    def test_matches_brute_force_on_random_vectors(self):
        rng = RngStream(55, "iqm")
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            values = rng.normal(size=n)
            assert iqm(values) == brute_force_trim_mean(values)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            iqm([])


class TestBootstrap:
    def test_identical_values_zero_width(self):
        lo, hi = bootstrap_iqm_interval([2.0, 2.0, 2.0, 2.0, 2.0])
        assert lo == hi == 2.0

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_resamples_below_one_rejected(self, resamples):
        with pytest.raises(ConfigError, match=f"resamples must be >= 1, got {resamples}"):
            bootstrap_iqm_interval([0.1, 0.9, 0.4], resamples=resamples)

    def test_seeded_reproducible(self):
        values = [0.1, 0.9, 0.4, 0.7, 0.2]
        assert bootstrap_iqm_interval(values, seed=3) == bootstrap_iqm_interval(values, seed=3)

    def test_interval_brackets_iqm(self):
        rng = RngStream(6, "bs")
        values = rng.normal(size=10)
        lo, hi = bootstrap_iqm_interval(values)
        assert lo <= iqm(values) <= hi


def synthetic_table(config, steps, returns, sparsity):
    denom = config.reference_score - config.random_baseline
    return {
        "run": f"{config.algorithm}-synthetic",
        "algorithm": config.algorithm,
        "env": config.env,
        "population": config.population_size,
        "steps": np.asarray(steps),
        "eval_return": (np.asarray(returns, dtype=float) - config.random_baseline) / denom,
        "champion_sparsity": np.asarray(sparsity, dtype=float),
    }


class TestAggregate:
    CFG = build_config({"algorithm": "dqn", "env": "chain"})

    def test_single_run_passthrough_with_zero_width(self):
        table = synthetic_table(self.CFG, [100, 200], [0.674, 1.0], [0.0, 0.0])
        rows = aggregate_runs([table])
        assert len(rows) == 2
        assert abs(rows[0]["return_iqm"]) < 1e-12  # random baseline maps to 0
        assert abs(rows[1]["return_iqm"] - 1.0) < 1e-12  # reference maps to 1
        assert rows[0]["return_ci_low"] == rows[0]["return_ci_high"] == rows[0]["return_iqm"]

    def test_identical_runs_collapse_interval(self):
        table = synthetic_table(self.CFG, [100], [0.9], [0.3])
        rows = aggregate_runs([table] * 5)
        assert rows[0]["return_ci_low"] == rows[0]["return_ci_high"]
        assert rows[0]["champion_sparsity_ci_low"] == rows[0]["champion_sparsity_ci_high"]

    def test_hand_applied_trimming(self):
        tables = [
            synthetic_table(self.CFG, [100], [r], [0.0])
            for r in (0.674, 1.0, 1.0, 1.0, 1.0)  # normalized: 0,1,1,1,1
        ]
        rows = aggregate_runs(tables)
        assert abs(rows[0]["return_iqm"] - brute_force_trim_mean([0.0, 1.0, 1.0, 1.0, 1.0])) < 1e-12

    def test_skips_steps_with_missing_metric(self):
        a = synthetic_table(self.CFG, [100, 200], [np.nan, 1.0], [0.0, 0.0])
        b = synthetic_table(self.CFG, [100, 200], [0.9, 1.0], [0.0, 0.0])
        rows = aggregate_runs([a, b])
        assert [row["step"] for row in rows] == [200]

    def test_no_step_with_a_value_in_every_run_rejected(self):
        a = synthetic_table(self.CFG, [100, 200], [np.nan, 1.0], [0.0, 0.0])
        b = synthetic_table(self.CFG, [100, 200], [0.9, np.nan], [0.0, 0.0])
        with pytest.raises(ConfigError, match="none of the 2 logging steps has a finite eval_return in all 2 runs"):
            aggregate_runs([a, b])

    def test_mismatched_schema_lists_fields(self):
        other = build_config({"algorithm": "eaude_dqn", "env": "chain"})
        a = synthetic_table(self.CFG, [100], [1.0], [0.0])
        b = synthetic_table(other, [100], [1.0], [0.0])
        with pytest.raises(SchemaMismatchError) as info:
            aggregate_runs([a, b])
        assert "algorithm" in info.value.fields
        assert "population" in info.value.fields
        assert str(info.value).startswith("runs dqn-synthetic and eaude_dqn-synthetic disagree on: algorithm")


def read_table(tmp_path, config, csv_text):
    """The table of a run directory holding config and this hand-written log."""
    (tmp_path / rundir.CONFIG).write_text(canonical_text(config), encoding="utf-8")
    (tmp_path / rundir.LOG).write_text(csv_text, encoding="utf-8")
    _, log = rundir.read(tmp_path)
    assert log.to_csv() == csv_text
    return run_table(str(tmp_path), log)


class TestParseRunCsv:
    def test_value_based_columns(self, tmp_path):
        cfg = build_config({"algorithm": "dqn", "env": "chain"})
        csv_text = (
            "step,wallclock_s,episode_return,eval_return,champion_index,behavior_index,sparsity_1,loss_1\n"
            "100,0.0,nan,0.674,0,0,0.25,1.5\n"
            "200,0.0,1.0,1.0,0,0,0.5,0.5\n"
        )
        table = read_table(tmp_path, cfg, csv_text)
        assert list(table["steps"]) == [100, 200]
        assert abs(table["eval_return"][0]) < 1e-12
        assert abs(table["eval_return"][1] - 1.0) < 1e-12
        assert list(table["champion_sparsity"]) == [0.25, 0.5]

    def test_twin_columns_average_champion_sparsity(self, tmp_path):
        cfg = build_config({"algorithm": "eaude_sac", "env": "pendulum", "eaude.population": 2, "eaude.tournament": 1})
        header = (
            "step,wallclock_s,episode_return,eval_return,"
            "c1_champion_index,c2_champion_index,c1_behavior_index,c2_behavior_index,"
            "c1_sparsity_1,c1_sparsity_2,c2_sparsity_1,c2_sparsity_2,"
            "c1_loss_1,c1_loss_2,c2_loss_1,c2_loss_2"
        )
        row = "250,0.0,-900.0,-1240.0,1,0,0,0,0.1,0.2,0.3,0.4,1.0,1.0,1.0,1.0"
        table = read_table(tmp_path, cfg, header + "\n" + row + "\n")
        # champions: c1 slot 1 -> 0.2, c2 slot 0 -> 0.3; mean 0.25
        assert abs(table["champion_sparsity"][0] - 0.25) < 1e-12
        assert abs(table["eval_return"][0]) < 1e-12  # random baseline
