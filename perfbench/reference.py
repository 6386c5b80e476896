"""Reference figures: run spread over seeds, and the probe figures from one traced run.

    python3 perfbench/reference.py [--seeds 200-209]

For each workload, runs `run.py --trace 0` once per seed, for the
`run_seconds` of BENCHMARK.json, and prints, for each
end-to-end metric, the median over the seeds and the quartile spread
(statistics.quantiles(n=4): Q3 - Q1) as a share of the median. Then runs
`run.py --trace 1` on the first seed and prints the probe figures read from
the traced round: the share of the run spent in td_loss_and_grad + adam_step,
the share in replay sampling, and the median replay sample before and after
the buffer wraps.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, RUNS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = str(json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True,
                          cwd=HERE.parent, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"run.py {' '.join(args)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"run.py {' '.join(args)} reported failed checks:\n{proc.stderr}")
    return result


def probe_figures(name: str, overrides: dict) -> str:
    trace = json.loads((RUNS / name / "traced" / "result.json").read_text())["trace"]
    run_s = trace["training.run_training"]["us_per_call"] / 1e6
    kernels = trace["nncore.td_loss_and_grad"]["self_s"] + trace["nncore.adam_step"]["self_s"]
    sample = trace["replay.sample_batch"]
    line = (f"{name}: traced run_training {run_s:.2f} s; td_loss_and_grad + adam_step self time "
            f"{kernels / run_s:.0%}; replay.sample_batch {sample['self_s'] / run_s:.1%}, "
            f"{sample['self_s'] / max(sample['calls'], 1) * 1e6:.1f} us mean per call")
    capacity, warmup = overrides["replay.capacity"], overrides["replay.warmup"]
    if overrides["run.total_steps"] > capacity:
        # one sample per step after the warmup; the buffer wraps at step `capacity`
        with open(RUNS / name / "traced" / "spans.csv", encoding="utf-8") as fh:
            durs = [int(r["end_ns"]) - int(r["start_ns"]) for r in csv.DictReader(fh) if r["name"] == "replay.sample_batch"]
        wrap = capacity - warmup
        line += (f"; median sample {statistics.median(durs[:wrap]) / 1e3:.0f} us before the wrap, "
                 f"{statistics.median(durs[wrap:]) / 1e3:.0f} us over the {len(durs) - wrap} calls after it")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="200-209", help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    print("| workload | metric | median | (Q3 - Q1) / median |\n| --- | --- | --- | --- |")
    for name in WORKLOADS:
        values: dict[str, list] = {m: [] for m in END_TO_END}
        for seed in range(first, last + 1):
            result = bench("--workload", name, "--seed", str(seed), "--seconds", SECONDS, "--trace", "0")
            for metric in END_TO_END:
                values[metric].append(result["metrics"][metric]["value"])
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"| `{name}` | `{metric}` ({END_TO_END[metric]}) | {median:.4g} | {(q3 - q1) / median:.3f} |")
    print()
    for name in WORKLOADS:
        result = bench("--workload", name, "--seed", str(first), "--seconds", SECONDS, "--trace", "1")
        overhead = result["metrics"]["trace.overhead_ratio"]["value"]
        print(f"- {probe_figures(name, WORKLOADS[name].config_overrides(first))}; "
              f"trace.overhead_ratio {overhead:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
