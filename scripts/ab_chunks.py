"""Compare the training or checkpoint speed of two source trees in one process.

    python3 scripts/ab_chunks.py --base DIR --change DIR --workload NAME --chunk N --seed S
    python3 scripts/ab_chunks.py --base DIR --change DIR --workload NAME --chunk N --seed S --checkpoint ROUNDS

Each tree's `src/eaudeqn` is copied into a temporary directory and imported
under its own name (`eaudeqn_base`, `eaudeqn_change`). Both trees then train
the same perfbench workload config from the same seed, in alternating chunks
of N environment steps (the tree that goes first alternates too), so both
see the same phases of a noisy host. Prints one JSON line: each tree's
steps/s over all chunks, the median change/base throughput ratio of the
chunks with its quartiles, the number of chunks the change was faster in,
and whether both trees logged the same events (the wallclock column aside).

With --checkpoint ROUNDS, both trees instead train to step N and then run
ROUNDS alternating rounds of state_to_payload, payload_to_state,
save_checkpoint and load_checkpoint on that state. The JSON line then holds,
per operation, each tree's median time, the base/change time ratio (above 1
when the change is faster) and the rounds the change was faster in, plus
each tree's checkpoint file size, the encoded size of each top-level payload
entry (`buffer`, `population`, `streams`, ...), and whether the two files are
byte-identical.
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
ORDERS = (("base", "change"), ("change", "base"))  # round i runs ORDERS[i % 2]
CHECKPOINT_OPERATIONS = ("state_to_payload", "payload_to_state", "save_checkpoint", "load_checkpoint")


def load_tree(tree: Path, name: str, tmp: Path):
    """Import tree/src/eaudeqn as package `name` from a copy in tmp."""
    shutil.copytree(tree / "src" / "eaudeqn", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def train_in_chunks(trees: dict, chunk: int) -> dict:
    """Train both trees to the end in alternating chunks; the throughput figures."""
    total = trees["base"]["config"].total_steps
    ratios, same_events = [], True
    for i, lo in enumerate(range(0, total, chunk)):
        hi = min(lo + chunk, total)
        elapsed, events = {}, {}
        for label in ORDERS[i % 2]:
            tree = trees[label]
            t0 = time.perf_counter()
            log, tree["state"] = tree["training"].run_training(tree["config"], resume=tree["state"], until_step=hi)
            elapsed[label] = time.perf_counter() - t0
            tree["s"] += elapsed[label]
            events[label] = json.dumps(log.events, sort_keys=True)
        ratios.append(elapsed["base"] / elapsed["change"])
        same_events &= events["base"] == events["change"]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "chunks": len(ratios),
        "base_steps_per_s": round(total / trees["base"]["s"], 1),
        "change_steps_per_s": round(total / trees["change"]["s"], 1),
        "ratio_median": round(median, 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
        "change_won": sum(r > 1.0 for r in ratios),
        "same_events": same_events,
    }


def _timed(samples: list, fn, *args):
    """fn(*args), appending its wall time in seconds to samples."""
    t0 = time.perf_counter()
    out = fn(*args)
    samples.append(time.perf_counter() - t0)
    return out


def entry_bytes(checkpoint, state) -> dict:
    """The encoded size of each top-level entry of state's payload, key included."""
    payload = checkpoint.state_to_payload(state)
    empty = len(checkpoint.encode_payload({}))
    return {key: len(checkpoint.encode_payload({key: value})) - empty for key, value in payload.items()}


def time_checkpoints(trees: dict, step: int, rounds: int, tmp: Path) -> dict:
    """Train both trees to `step`, then time the checkpoint operations in
    alternating rounds; the per-operation figures."""
    times = {label: {op: [] for op in CHECKPOINT_OPERATIONS} for label in trees}
    for label, tree in trees.items():
        _, tree["state"] = tree["training"].run_training(tree["config"], resume=tree["state"], until_step=step)
        tree["path"] = tmp / f"{label}.ckpt"
    for i in range(rounds):
        for label in ORDERS[i % 2]:
            tree, ops, checkpoint = trees[label], times[label], trees[label]["checkpoint"]
            payload = _timed(ops["state_to_payload"], checkpoint.state_to_payload, tree["state"])
            _timed(ops["payload_to_state"], checkpoint.payload_to_state, payload)
            _timed(ops["save_checkpoint"], checkpoint.save_checkpoint, tree["state"], tree["path"])
            _timed(ops["load_checkpoint"], checkpoint.load_checkpoint, tree["path"])
    result = {"rounds": rounds}
    for op in CHECKPOINT_OPERATIONS:
        base, change = times["base"][op], times["change"][op]
        result[op] = {
            "base_ms": round(statistics.median(base) * 1e3, 4),
            "change_ms": round(statistics.median(change) * 1e3, 4),
            "ratio": round(statistics.median(base) / statistics.median(change), 4),
            "change_won": sum(c < b for b, c in zip(base, change)),
        }
    for label, tree in trees.items():
        result[f"{label}_bytes"] = tree["path"].stat().st_size
        result[f"{label}_entry_bytes"] = entry_bytes(tree["checkpoint"], tree["state"])
    result["same_bytes"] = trees["base"]["path"].read_bytes() == trees["change"]["path"].read_bytes()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--chunk", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--checkpoint", type=int, metavar="ROUNDS",
                        help="train to --chunk steps, then time ROUNDS rounds of checkpoint operations")
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
            trees[label] = {
                "config": config,
                "training": training,
                "checkpoint": importlib.import_module(f"{pkg.__name__}.checkpoint"),
                "state": training.init_state(config),
                "s": 0.0,
            }
        if args.checkpoint:
            result = time_checkpoints(trees, args.chunk, args.checkpoint, Path(tmp))
        else:
            result = train_in_chunks(trees, args.chunk)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "chunk": args.chunk, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
