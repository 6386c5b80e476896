"""Compare the training throughput of two source trees in one process.

    python3 scripts/ab_chunks.py --base DIR --change DIR --workload NAME --chunk N --seed S

Each tree's `src/eaudeqn` is copied into a temporary directory and imported
under its own name (`eaudeqn_base`, `eaudeqn_change`). Both trees then train
the same perfbench workload config from the same seed, in alternating chunks
of N environment steps (the tree that goes first alternates too), so both
see the same phases of a noisy host. Prints one JSON line: each tree's
steps/s over all chunks, the median change/base throughput ratio of the
chunks with its quartiles, the number of chunks the change was faster in,
and whether both trees logged the same events (the wallclock column aside).
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tree(tree: Path, name: str, tmp: Path):
    """Import tree/src/eaudeqn as package `name` from a copy in tmp."""
    shutil.copytree(tree / "src" / "eaudeqn", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--chunk", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    overrides = WORKLOADS[args.workload].config_overrides(seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = {}
        for label, tree in (("base", args.base), ("change", args.change)):
            pkg = load_tree(tree.resolve(), f"eaudeqn_{label}", Path(tmp))
            config = importlib.import_module(f"{pkg.__name__}.config").build_config(overrides)
            training = importlib.import_module(f"{pkg.__name__}.training")
            trees[label] = {"config": config, "training": training, "state": training.init_state(config), "s": 0.0}
        total = trees["base"]["config"].total_steps
        ratios, same_events = [], True
        for i, lo in enumerate(range(0, total, args.chunk)):
            hi = min(lo + args.chunk, total)
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            elapsed, events = {}, {}
            for label in order:
                tree = trees[label]
                t0 = time.perf_counter()
                log, tree["state"] = tree["training"].run_training(tree["config"], resume=tree["state"], until_step=hi)
                elapsed[label] = time.perf_counter() - t0
                tree["s"] += elapsed[label]
                events[label] = json.dumps(log.events, sort_keys=True)
            ratios.append(elapsed["base"] / elapsed["change"])
            same_events &= events["base"] == events["change"]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "chunk": args.chunk,
        "chunks": len(ratios),
        "base_steps_per_s": round(total / trees["base"]["s"], 1),
        "change_steps_per_s": round(total / trees["change"]["s"], 1),
        "ratio_median": round(median, 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
        "change_won": sum(r > 1.0 for r in ratios),
        "same_events": same_events,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
