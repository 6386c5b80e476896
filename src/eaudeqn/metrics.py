"""Interquartile-mean aggregation across seeds with bootstrap intervals."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SchemaMismatchError
from .rng import RngStream


def iqm(values) -> float:
    """Mean after dropping floor(0.25 * n) values from each end of the sort."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ConfigError("iqm of an empty sequence")
    drop = int(np.floor(0.25 * arr.size))
    kept = arr[drop : arr.size - drop]
    # sequential sum, so results match a plain trim-and-mean bit for bit
    return sum(kept.tolist()) / kept.size


def _check_resamples(resamples: int) -> None:
    if resamples < 1:
        raise ConfigError(f"resamples must be >= 1, got {resamples}")


def bootstrap_iqm_interval(values, resamples: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Seeded percentile-bootstrap 95% interval of the IQM."""
    _check_resamples(resamples)
    arr = np.asarray(values, dtype=np.float64)
    rng = RngStream(seed, "bootstrap")
    stats = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, arr.size, size=arr.size)
        stats[i] = iqm(arr[idx])
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


METRICS = ("episode_return", "eval_return")


def run_table(name: str, log, metric: str = "eval_return") -> dict:
    """One run's aggregation table, from its RunLog (see rundir.read).

    Returns steps, the normalized metric, and per-row champion sparsity. For
    value-based runs the reigning champion sits at slot 0; for twin-critic
    runs the two live champions' sparsities are averaged. `name` (the run
    directory) labels the run in schema errors.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; known: {METRICS}")
    config, records = log.config, log.records
    steps = np.array([rec.step for rec in records], dtype=np.int64)
    raw = np.array([getattr(rec, metric) for rec in records])
    denom = config.reference_score - config.random_baseline
    normalized = (raw - config.random_baseline) / denom
    if config.is_sac:
        sparsity = np.array(
            [0.5 * (rec.sparsities[0][rec.champions[0]] + rec.sparsities[1][rec.champions[1]]) for rec in records]
        )
    else:
        sparsity = np.array([rec.sparsities[0][0] for rec in records])
    return {
        "run": name,
        "algorithm": config.algorithm,
        "env": config.env,
        "population": config.population_size,
        "steps": steps,
        metric: normalized,
        "champion_sparsity": sparsity,
    }


def check_same_schema(runs: list[dict]) -> None:
    """Runs must share algorithm, env, population size (and so the column
    layout), and logging steps."""
    if not runs:
        raise ConfigError("no runs to aggregate")
    reference = runs[0]
    for run in runs[1:]:
        differing = []
        for key in ("algorithm", "env", "population"):
            if run.get(key) != reference.get(key):
                differing.append(key)
        if not np.array_equal(run["steps"], reference["steps"]):
            differing.append("steps")
        if differing:
            raise SchemaMismatchError(
                f"runs {reference['run']} and {run['run']} disagree on: {', '.join(differing)}", fields=differing
            )


def aggregate_runs(
    runs: list[dict],
    metric: str = "eval_return",
    resamples: int = 2000,
    seed: int = 0,
) -> list[dict]:
    """Per logging step: IQM of normalized returns across runs plus 95%
    bootstrap intervals, and the same for champion sparsity.

    Each run dict (see run_table) carries: run, algorithm, env, population, steps,
    normalized returns under `metric`, and champion_sparsity. Steps where any
    run has no value yet (nan) are skipped; if that leaves no step, there is
    nothing to aggregate and ConfigError is raised.
    """
    check_same_schema(runs)
    _check_resamples(resamples)  # also when no step has a value to resample
    steps = runs[0]["steps"]
    rows = []
    for i, step in enumerate(steps):
        returns = np.array([run[metric][i] for run in runs])
        sparsities = np.array([run["champion_sparsity"][i] for run in runs])
        if not np.all(np.isfinite(returns)):
            continue
        lo, hi = bootstrap_iqm_interval(returns, resamples=resamples, seed=seed)
        sp_lo, sp_hi = bootstrap_iqm_interval(sparsities, resamples=resamples, seed=seed)
        rows.append(
            {
                "step": int(step),
                "runs": len(runs),
                "return_iqm": iqm(returns),
                "return_ci_low": lo,
                "return_ci_high": hi,
                "champion_sparsity_iqm": iqm(sparsities),
                "champion_sparsity_ci_low": sp_lo,
                "champion_sparsity_ci_high": sp_hi,
            }
        )
    if not rows:
        raise ConfigError(
            f"none of the {len(steps)} logging steps has a finite {metric} in all {len(runs)} runs; "
            "nothing to aggregate"
        )
    return rows
