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


def bootstrap_iqm_interval(values, resamples: int = 2000, seed: int = 0) -> tuple[float, float]:
    """Seeded percentile-bootstrap 95% interval of the IQM."""
    arr = np.asarray(values, dtype=np.float64)
    rng = RngStream(seed, "bootstrap")
    stats = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, arr.size, size=arr.size)
        stats[i] = iqm(arr[idx])
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def parse_run_csv(csv_text: str, config, metric: str = "eval_return") -> dict:
    """Turn one run's CSV log into the aggregation table.

    Returns steps, the normalized metric, and per-row champion sparsity. For
    value-based runs the reigning champion sits at slot 0 (sparsity_1); for
    twin-critic runs the two live champions' sparsities are averaged.
    """
    lines = [line for line in csv_text.splitlines() if line]
    if not lines:
        raise ConfigError("empty run log")
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    if metric not in col:
        raise ConfigError(f"log has no {metric!r} column")
    rows = [line.split(",") for line in lines[1:]]
    steps = np.array([int(r[col["step"]]) for r in rows], dtype=np.int64)
    raw = np.array([float(r[col[metric]]) for r in rows])
    denom = config.reference_score - config.random_baseline
    normalized = (raw - config.random_baseline) / denom
    twin = "c1_champion_index" in col
    if twin:
        sparsity = np.empty(len(rows))
        for j, r in enumerate(rows):
            values = []
            for prefix in ("c1_", "c2_"):
                champ = int(r[col[f"{prefix}champion_index"]])
                values.append(float(r[col[f"{prefix}sparsity_{champ + 1}"]]))
            sparsity[j] = 0.5 * (values[0] + values[1])
    else:
        sparsity = np.array([float(r[col["sparsity_1"]]) for r in rows])
    return {
        "algorithm": config.algorithm,
        "env": config.env,
        "population": config.population_size,
        "columns": tuple(header),
        "steps": steps,
        metric: normalized,
        "champion_sparsity": sparsity,
    }


def check_same_schema(runs: list[dict]) -> None:
    """Runs must share algorithm, env, population size, and column layout."""
    if not runs:
        raise ConfigError("no runs to aggregate")
    reference = runs[0]
    for run in runs[1:]:
        differing = []
        for key in ("algorithm", "env", "population", "columns"):
            if run.get(key) != reference.get(key):
                differing.append(key)
        if not np.array_equal(run["steps"], reference["steps"]):
            differing.append("steps")
        if differing:
            raise SchemaMismatchError(
                f"runs disagree on: {', '.join(differing)}", fields=differing
            )


def aggregate_runs(
    runs: list[dict],
    metric: str = "eval_return",
    resamples: int = 2000,
    seed: int = 0,
) -> list[dict]:
    """Per logging step: IQM of normalized returns across runs plus 95%
    bootstrap intervals, and the same for champion sparsity.

    Each run dict carries: algorithm, env, population, columns, steps,
    normalized returns under `metric`, and champion_sparsity. Steps where any
    run has no value yet (nan) are skipped.
    """
    check_same_schema(runs)
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
    return rows
