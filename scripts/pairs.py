"""Run the benchmark in pairs on two source trees and write a BENCH_*.json file.

    python3 scripts/pairs.py --base DIR --change DIR --seeds A-B --out FILE [--workload W ...] [--claim TEXT]
                             [--aa AA_FILE]

One pair per workload W (by default every workload of BENCHMARK.json) and seed
S in A..B: each tree runs its own
`perfbench/run.py --workload W --seed S --seconds T --trace 0` from its root,
with T the `run_seconds` of BENCHMARK.json, so each side runs its own
benchmark code on its own package at the benchmark's own length, and the side
that runs first alternates from pair to pair (the base first in the first
pair). Each run's last output line, a JSON object, is kept as it is. Given the
same tree twice, the file is labelled A/A: the runs then measure the
protocol's noise floor.

FILE holds `runs`, one entry per pair (workload, seed, the side that ran
first, and the `parent` and `change` lines), and a `summary` block per
workload and end-to-end metric of BENCHMARK.json: each side's quartiles, with
Weibull plotting positions (numpy's `method="weibull"`, computed as
`statistics.quantiles(method="exclusive")` does), the pairs in which the change
read better, and those in which both read the same. With --aa, each block
also gets the quartiles of AA_FILE, an A/A file this script wrote earlier, for
the same workload and metric (`aa_parent_quartiles`, `aa_change_quartiles`),
so the claim's spread reads beside the noise floor's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def benchmark() -> dict:
    """BENCHMARK.json: its workloads, run length and end-to-end metrics (name, unit, better)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload (in order of first appearance) and metric: quartiles of each side, and the
    pairs in which the change read better and read the same."""
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    out = {}
    for workload in workloads:
        pairs = [run for run in runs if run["workload"] == workload]
        out[workload] = {}
        for metric in metrics:
            name = metric["name"]
            parent, change = ([run[side]["metrics"][name]["value"] for run in pairs] for side in SIDES)
            better = (lambda p, c: c > p) if metric["better"] == "higher" else (lambda p, c: c < p)
            out[workload][name] = {
                "unit": metric["unit"],
                "parent_quartiles": statistics.quantiles(parent, n=4, method="exclusive"),
                "change_quartiles": statistics.quantiles(change, n=4, method="exclusive"),
                "change_better_pairs": f"{sum(map(better, parent, change))}/{len(pairs)}",
                "equal_pairs": f"{sum(p == c for p, c in zip(parent, change))}/{len(pairs)}",
            }
    return out


def add_aa(summary: dict, aa_summary: dict) -> dict:
    """`summary` with each block's quartiles from the A/A file's summary beside its own, where
    the A/A file has that workload and metric."""
    for workload, blocks in summary.items():
        for name, block in blocks.items():
            aa = aa_summary.get(workload, {}).get(name)
            if aa is not None:
                block["aa_parent_quartiles"] = aa["parent_quartiles"]
                block["aa_change_quartiles"] = aa["change_quartiles"]
    return summary


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line `perfbench/run.py` prints in `tree`, parsed; RuntimeError if the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def revision(tree: Path) -> str:
    """`git describe --always --dirty` of the tree, or its directory name outside git."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else tree.name


def seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[1]) >= int(match[2]):  # quartiles need two pairs at least
        raise argparse.ArgumentTypeError(f"expected A-B with A < B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def main(argv=None) -> int:
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path, help="the base itself for an A/A file")
    parser.add_argument("--workload", action="append", metavar="W",
                        help="a workload to run (repeatable); every workload of BENCHMARK.json by default")
    parser.add_argument("--seeds", required=True, type=seed_range, metavar="A-B")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="the claim the runs test, stored in the file")
    parser.add_argument("--aa", type=Path, metavar="AA_FILE", help="an A/A file whose quartiles to copy beside these")
    args = parser.parse_args(argv)
    aa = json.loads(args.aa.read_text(encoding="utf-8")) if args.aa else None
    if aa is not None and aa.get("change") != "the parent itself (A/A)":
        parser.error(f"{args.aa} is not an A/A file")
    trees = {"parent": args.base.resolve(), "change": args.change.resolve()}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"workload": workload, "seed": seed, "first": order[0], **dict.fromkeys(SIDES)}
            for side in order:
                run[side] = run_benchmark(trees[side], workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {run[side]['metrics']['env_steps_per_s']['value']:.0f} steps/s "
                f"{run[side]['metrics']['peak_rss_mib']['value']:.2f} MiB" for side in SIDES), flush=True)

    bench = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, run by "
                     "scripts/pairs.py; each side's entry is the last line it printed; one parent/change pair per "
                     "seed, the side that runs first alternating from pair to pair",
        "host": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "parent": revision(trees["parent"]),
        "change": "the parent itself (A/A)" if trees["change"] == trees["parent"] else revision(trees["change"]),
        "claim": args.claim,
        "aa": None if aa is None else {"file": args.aa.name, "parent": aa["parent"]},
        "summary": add_aa(summary(runs, spec["end_to_end"]), {} if aa is None else aa["summary"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for workload, blocks in bench["summary"].items():
        for name, block in blocks.items():
            aa_text = (f"; A/A parent quartiles {', '.join(f'{q:.6g}' for q in block['aa_parent_quartiles'])}"
                       if "aa_parent_quartiles" in block else "")
            print(f"{workload}  {name}: parent {block['parent_quartiles'][1]:.6g}, "
                  f"change {block['change_quartiles'][1]:.6g} {block['unit']} (medians); "
                  f"change better in {block['change_better_pairs']}, equal in {block['equal_pairs']}{aa_text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
