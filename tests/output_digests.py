"""Regression oracle: sha256 of the files `eaudeqn train` writes, for six short runs.

    PYTHONPATH=src python3 tests/output_digests.py OUT_DIR [THREADS]

Runs one short fixed config per algorithm (seed 7, wallclock pinned to 0) and
prints one line per output file: algorithm, file name, sha256. A refactor that
must not change results leaves every line unchanged, at any thread count.
Each config reaches its algorithm's events: target updates, scheduled prunes,
selection events with duplicates, and a wrapped replay buffer on cart-pole.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from eaudeqn import build_config, rundir, run_training

CONFIGS = {
    "dqn": {"algorithm": "dqn", "env": "chain", "run.total_steps": 1500, "replay.capacity": 1000},
    "polyprune_dqn": {"algorithm": "polyprune_dqn", "env": "cartpole", "run.total_steps": 3000,
                      "run.target_period": 500, "replay.capacity": 2000, "replay.warmup": 500},
    "eaude_dqn": {"algorithm": "eaude_dqn", "env": "chain", "run.total_steps": 2500, "run.target_period": 250,
                  "eaude.s_max": 0.2, "eaude.u_max": 30.0},
    "sac": {"algorithm": "sac", "env": "pendulum", "run.total_steps": 700, "replay.warmup": 300},
    "polyprune_sac": {"algorithm": "polyprune_sac", "env": "pendulum", "run.total_steps": 900,
                      "replay.warmup": 300, "sac.prune_period": 150},
    "eaude_sac": {"algorithm": "eaude_sac", "env": "pendulum", "run.total_steps": 1000, "replay.warmup": 300,
                  "sac.prune_period": 150, "eaude.s_max": 0.2, "eaude.u_max": 30.0},
}
FILES = (rundir.LOG, rundir.EVENTS, rundir.CHECKPOINT)


def digest_lines(out: Path, threads: int = 1) -> list[str]:
    """Run every config into out/<algorithm> and return one line per file."""
    lines = []
    for name, overrides in CONFIGS.items():
        config = build_config(dict(overrides, seed=7))
        log, state = run_training(config, threads=threads, clock=lambda: 0.0)
        rundir.write(out / name, config, log, state)
        for file in FILES:
            lines.append(f"{name} {file} {hashlib.sha256((out / name / file).read_bytes()).hexdigest()}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: PYTHONPATH=src python3 tests/output_digests.py OUT_DIR [THREADS]", file=sys.stderr)
        return 2
    threads = int(argv[1]) if len(argv) > 1 else 1
    for line in digest_lines(Path(argv[0]), threads):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
