"""Training-throughput benchmark for eaudeqn.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a checkout; the package is imported from its src/.
Each round is one training run of the workload in its own process
(perfbench/worker.py); whole rounds repeat while one more, of the mean
length so far, fits in --seconds; there is always at least one, and at
least two with --trace 1. With --trace 0 every round is untraced, and each
end-to-end timing is a total over all rounds: environment steps over the time
run_training took, and set-up, write and load time over the number of times
each was done. With --trace 1 each round is
an untraced run followed by a traced run of the same workload and seed; the
per-layer metrics come from the traced runs, the two runs must leave
identical log.csv (wallclock_s aside) and events.jsonl, and the traced call
counts must repeat from round to round. Kernel checks run before any
timing, and every run's outputs are checked.

The last line of standard output is one JSON object with the keys
correct, attempted (environment steps run), failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "env_steps_per_s": "steps/s",
    "setup_s": "s",
    "outputs_write_s": "s",
    "resume_load_s": "s",
    "checkpoint_bytes": "bytes",
    "peak_rss_mib": "MiB",
}
SELECTION = {
    "population.duplicates_made": "count",
    "population.duplicate_wins": "count",
    "population.champion_sparsity": "fraction",
}
PER_SPAN = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": unit for name in tracer.span_names() for stat, unit in PER_SPAN.items()}
    units.update(SELECTION)
    units["trace.overhead_ratio"] = "ratio"
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(name: str, seed: int, out: Path, *, traced=False, tiny=False) -> dict:
    """One round: a training run in a fresh process; returns its result and outputs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed), "--out", str(out)]
    cmd += ["--traced"] * traced + ["--tiny"] * tiny
    # one BLAS thread: every workload runs single-threaded
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise WorkerError(f"{name}: worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["log_csv"] = (out / "log.csv").read_text(encoding="utf-8")
    result["events_jsonl"] = (out / "events.jsonl").read_text(encoding="utf-8")
    return result


def median_of(rounds: list[dict], key: str):
    return statistics.median(r[key] for r in rounds)


def mean_over(rounds: list[dict], key: str) -> float:
    """Total time over number of timings, pooled across rounds."""
    times = [t for r in rounds for t in r[key]]
    return sum(times) / len(times)


def end_to_end(plain: list[dict]) -> dict:
    # Totals over the whole run, not medians of per-round figures: the host
    # alternates between a fast and a ~1.5x slower phase, and a median flips
    # between the two as their mix shifts, while a total moves in proportion.
    return {
        "env_steps_per_s": sum(r["steps"] for r in plain) / sum(r["run_s"] for r in plain),
        "setup_s": mean_over(plain, "setup_times"),
        "outputs_write_s": mean_over(plain, "write_times"),
        "resume_load_s": mean_over(plain, "load_times"),
        "checkpoint_bytes": median_of(plain, "checkpoint_bytes"),
        "peak_rss_mib": median_of(plain, "peak_rss_mib"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Kernel checks, then the rounds that fit in `seconds`; returns the report."""
    from eaudeqn.config import build_config
    import numpy as np

    workload = WORKLOADS[name]
    failures = checks.kernel_failures(build_config(workload.config_overrides(seed, tiny)), np.random.default_rng(seed))
    out = RUNS / name
    plain, traced = [], []
    start = time.perf_counter()
    # two traced rounds at least, so that their call counts can be compared
    while len(plain) < 1 + trace or (time.perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
        plain.append(run_worker(name, seed, out / "plain", tiny=tiny))
        if trace:
            traced.append(run_worker(name, seed, out / "traced", traced=True, tiny=tiny))
            failures += checks.same_run_failures(
                f"{name} traced vs untraced",
                plain[-1]["log_csv"], plain[-1]["events_jsonl"],
                traced[-1]["log_csv"], traced[-1]["events_jsonl"],
            )
    for r in plain + traced:
        failures += [f"{name}: {f}" for f in r["failures"]]

    report = {"name": name, "failures": failures, "plain": plain, "traced": traced,
              "attempted": sum(r["steps"] for r in plain + traced)}
    if not trace:
        report["metrics"] = end_to_end(plain)
        return report
    metrics = {}
    first = traced[0]["trace"]
    for r in traced[1:]:
        if any(r["trace"][n]["calls"] != first[n]["calls"] for n in first):
            failures.append(f"{name}: traced call counts differ between rounds")
    for span, stats in first.items():
        metrics[f"{span}.calls"] = stats["calls"]
        for stat in ("self_s", "us_per_call"):
            metrics[f"{span}.{stat}"] = statistics.median(r["trace"][span][stat] for r in traced)
    for key in ("duplicates_made", "duplicate_wins", "champion_sparsity"):
        metrics[f"population.{key}"] = traced[0]["selection"][key]
    metrics["trace.overhead_ratio"] = sum(r["run_s"] for r in traced) / sum(r["run_s"] for r in plain)
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eaudeqn training-throughput benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="short runs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eaudeqn" / "__init__.py").is_file():
        print(f"error: no eaudeqn package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            reports.append(report)
            for metric, value in report["metrics"].items():
                print(f"{name}  {metric} = {value:.6g} {units[metric]}")
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = [f for r in reports for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['name']}/{m}": v for r in reports for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": 0,
        "metrics": {m: {"value": v, "unit": units[m.rsplit("/", 1)[-1]]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
