"""Command-line interface: train, evaluate, aggregate, inspect.

Exit codes: 0 success, 2 bad input, 3 numeric abort (a checkpoint is dumped
next to the logs). Bad input is any config, checkpoint, run directory, output
path or option value that the command refuses; `main` reports each such error
once, as one `config error: ...` line on stderr. Run directories are written
and read through `rundir`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import rundir
from .checkpoint import load_checkpoint
from .config import load_config
from .envs import make_env
from .errors import CheckpointError, ConfigError, DataFormatError, SchemaMismatchError
from .metrics import METRICS, aggregate_runs, run_table
from .rng import RngStream
from .training import NumericAbortError, evaluate_policy, run_training

# the errors that mean bad input: `main` turns each into exit code 2
INPUT_ERRORS = (ConfigError, CheckpointError, DataFormatError, SchemaMismatchError, OSError)

_write_outputs = rundir.write  # perfbench/worker.py imports this name and times it as outputs_write_s


def _cmd_train(args) -> int:
    config = load_config(args.config, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(f"run_{config.algorithm}_{config.env}_seed{config.seed}")
    rundir.check_out_dir(out_dir)
    try:
        resume_state = load_checkpoint(args.resume) if args.resume else None
    except INPUT_ERRORS as err:  # main reports it, saying which input it was
        raise CheckpointError(f"cannot resume: {err}") from err
    try:
        log, state = run_training(config, resume=resume_state, threads=args.threads)
    except NumericAbortError as err:
        dump = rundir.write(out_dir, config, err.log, err.state, rundir.ABORT_CHECKPOINT)
        print(f"numeric abort: {err} (checkpoint dumped to {dump})", file=sys.stderr)
        return 3
    rundir.write(out_dir, config, log, state)
    final = log.records[-1] if log.records else None
    summary = f"eval_return={final.eval_return!r} " if final is not None else ""
    print(f"run complete: {config.algorithm} on {config.env}, seed {config.seed}, "
          f"{config.total_steps} steps; {summary}outputs in {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    state = load_checkpoint(args.checkpoint)
    config = state.config
    env = make_env(config.env)
    agent = state.policy if state.policy is not None else state.population.network(state.population.champion_index)
    seed = args.seed if args.seed is not None else config.seed
    rng = RngStream(seed, "cli/evaluate")
    mean = evaluate_policy(agent, env, args.episodes, rng)
    print(f"mean raw return over {args.episodes} episodes: {mean!r}")
    return 0


def _cmd_aggregate(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"cannot write the summary {out}: it is a directory or its parent is not one")
    tables = [run_table(str(d), rundir.read(d)[1], metric=args.metric) for d in rundir.run_dirs(args.runs)]
    rows = aggregate_runs(tables, metric=args.metric, resamples=args.resamples, seed=args.bootstrap_seed)
    header = [
        "step", "runs", "return_iqm", "return_ci_low", "return_ci_high",
        "champion_sparsity_iqm", "champion_sparsity_ci_low", "champion_sparsity_ci_high",
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(row[col]) if isinstance(row[col], float) else str(row[col]) for col in header))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"aggregated {len(tables)} runs over {len(rows)} logging steps into {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    state = load_checkpoint(args.checkpoint)
    config = state.config
    print(f"algorithm: {config.algorithm}")
    print(f"env: {config.env}")
    print(f"seed: {config.seed}")
    print(f"step: {state.step} / {config.total_steps}")
    print(f"replay: {state.buffer.size} / {state.buffer.capacity} transitions")
    groups = [("champion slot: ", "", state.population)] if state.population is not None else []
    if state.twin is not None:
        groups += [(f"critic {i + 1}: champion slot ", "  ", side) for i, side in enumerate(state.twin.sides)]
    for heading, indent, pop in groups:
        print(f"{heading}{pop.champion_index}")
        stack = pop.stack  # (K,) arrays; tolist() prints Python floats, not np.float64 reprs
        rows = zip(stack.sparsity.tolist(), stack.cumulated_loss.tolist(), stack.lineage_id.tolist())
        for k, (sparsity, loss, lineage) in enumerate(rows):
            print(f"{indent}member {k}: sparsity={sparsity:.4f} loss={loss!r} lineage={lineage}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eaudeqn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one training experiment")
    train.add_argument("--config", required=True, help="path to a key/value config file")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")
    train.add_argument("--out", default=None, help="output directory (log.csv, checkpoint.ckpt, ...)")
    train.add_argument("--resume", default=None, help="checkpoint to continue from")
    train.add_argument("--threads", type=int, default=1, help="worker threads for the population updates (>= 1)")
    train.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpointed policy")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--episodes", type=int, required=True)
    ev.add_argument("--seed", type=int, default=None)
    ev.set_defaults(fn=_cmd_evaluate)

    agg = sub.add_parser("aggregate", help="IQM + bootstrap intervals across run directories")
    agg.add_argument("--runs", required=True, help="directory containing one subdirectory per run")
    agg.add_argument("--out", required=True, help="summary CSV path")
    agg.add_argument("--metric", choices=METRICS, default="eval_return")
    agg.add_argument("--resamples", type=int, default=2000)
    agg.add_argument("--bootstrap-seed", type=int, default=0)
    agg.set_defaults(fn=_cmd_aggregate)

    ins = sub.add_parser("inspect", help="print per-member sparsity, losses, champion")
    ins.add_argument("--checkpoint", required=True)
    ins.set_defaults(fn=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
