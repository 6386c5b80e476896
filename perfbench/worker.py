"""One workload training run in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--traced] [--tiny]

Drives the package through its public API: `build_config` + `init_state`
(set-up, repeated and timed), `run_training`, the four files `eaudeqn train`
writes at exit (timed through the CLI's own `_write_outputs`: `RunLog.to_csv`,
the event trace, `canonical_text`, `save_checkpoint`) and `load_checkpoint`. Then it checks the outputs and
writes `result.json` into DIR. With --traced, the package's functions are
wrapped from outside before the first call and the spans go to
DIR/spans.csv.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 25
IO_REPS = 25


def import_package():
    """Import eaudeqn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eaudeqn

    if Path(eaudeqn.__file__).resolve().parent != (src / "eaudeqn").resolve():
        raise ImportError(f"eaudeqn imported from {eaudeqn.__file__}, not from {src}")
    return eaudeqn


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (import time is not part of any metric)

    import checks
    from workloads import WORKLOADS

    import_package()
    from eaudeqn import checkpoint, config as config_mod, training
    from eaudeqn.cli import _write_outputs

    workload = WORKLOADS[args.workload]
    overrides = workload.config_overrides(args.seed, args.tiny)
    out_dir = Path(args.out)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        config = config_mod.build_config(overrides)
        state = training.init_state(config)
        setup_times.append(time.perf_counter() - t0)

    run_s, (log, state) = timed(
        lambda: training.run_training(config, resume=state)
    )

    # Writes and loads alternate: each starts with the other's data in the caches,
    # as the single write at the end of a run does, and both sample the same
    # stretch of time. Back-to-back repetitions read about half as long. Each write
    # goes to new files, as `eaudeqn train` writes into a new run directory;
    # overwriting the last copy reads about 1.5x as long and bimodal.
    ckpt_path = out_dir / "checkpoint.ckpt"
    write_times, load_times = [], []
    for _ in range(IO_REPS):
        shutil.rmtree(out_dir)
        write_times.append(timed(_write_outputs, out_dir, config, log, state)[0])
        load_times.append(timed(checkpoint.load_checkpoint, ckpt_path)[0])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    csv_text = (out_dir / "log.csv").read_text(encoding="utf-8")
    events_text = (out_dir / "events.jsonl").read_text(encoding="utf-8")
    failures = checks.output_failures(state, csv_text, events_text, overrides)
    if tracer is None:  # re-encoding would add traced checkpoint calls
        failures += checks.checkpoint_failures(ckpt_path)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.traced,
        "steps": config.total_steps,
        "run_s": run_s,
        "setup_times": setup_times,
        "write_times": write_times,
        "load_times": load_times,
        "checkpoint_bytes": ckpt_path.stat().st_size,
        "peak_rss_mib": peak_rss_mib,
        "failures": failures,
        "selection": dict(
            checks.selection_stats(checks.parse_events(events_text)),
            champion_sparsity=checks.champion_sparsity(state),
        ),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(out_dir / "spans.csv")
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
