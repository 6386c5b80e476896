"""The run directory: what `eaudeqn train` writes and `aggregate` reads back.

A run directory holds log.csv (one row per logged step, laid out by
RunLog.header), events.jsonl (the selection and pruning trace, one JSON
object per line), config.txt (the resolved config as canonical_text) and
checkpoint.ckpt (the final state; abort.ckpt after a numeric abort). This
module is the one place that knows those names and the CSV layout: `write`
writes a run, `run_dirs` finds the runs under a directory and `read` reads
one back as the strict inverse of RunLog.to_csv.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .config import ExperimentConfig, canonical_text, load_config
from .errors import ConfigError, DataFormatError

LOG = "log.csv"
EVENTS = "events.jsonl"
CONFIG = "config.txt"
CHECKPOINT = "checkpoint.ckpt"
ABORT_CHECKPOINT = "abort.ckpt"

# how to_csv writes each kind of cell; read accepts a cell only in this form
_CELL = {int: str, float: repr}


@dataclass
class LogRecord:
    step: int
    wallclock_s: float
    episode_return: float
    eval_return: float
    champions: tuple[int, ...]
    behaviors: tuple[int, ...]
    sparsities: tuple[tuple[float, ...], ...]
    losses: tuple[tuple[float, ...], ...]


@dataclass
class RunLog:
    """Append-only run record plus the selection-event trace."""

    config: ExperimentConfig
    records: list[LogRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def header(self) -> list[str]:
        cols = ["step", "wallclock_s", "episode_return", "eval_return"]
        groups = _groups(self.config)
        for prefix in groups:
            cols.append(f"{prefix}champion_index")
        for prefix in groups:
            cols.append(f"{prefix}behavior_index")
        for prefix in groups:
            cols.extend(f"{prefix}sparsity_{k + 1}" for k in range(self.config.population_size))
        for prefix in groups:
            cols.extend(f"{prefix}loss_{k + 1}" for k in range(self.config.population_size))
        return cols

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        for rec in self.records:
            cells = [str(rec.step), _fmt(rec.wallclock_s), _fmt(rec.episode_return), _fmt(rec.eval_return)]
            cells.extend(str(c) for c in rec.champions)
            cells.extend(str(b) for b in rec.behaviors)
            for group in rec.sparsities:
                cells.extend(_fmt(s) for s in group)
            for group in rec.losses:
                cells.extend(_fmt(v) for v in group)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _groups(config: ExperimentConfig) -> tuple[str, ...]:
    """Column prefixes: one per critic side for the SAC family, else one."""
    return ("c1_", "c2_") if config.is_sac else ("",)


def _fmt(x: float) -> str:
    return repr(float(x))


def write(out_dir: Path, config: ExperimentConfig, log: RunLog, state, checkpoint: str = CHECKPOINT) -> Path:
    """Write log.csv, events.jsonl and config.txt into out_dir (made if need
    be), then the checkpoint of `state` under the name `checkpoint`; returns
    the checkpoint's path."""
    from .checkpoint import save_checkpoint  # checkpoint imports training, which imports this module

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / LOG).write_text(log.to_csv(), encoding="utf-8")
    with open(out_dir / EVENTS, "w", encoding="utf-8") as fh:
        for event in log.events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    (out_dir / CONFIG).write_text(canonical_text(config), encoding="utf-8")
    path = out_dir / checkpoint
    save_checkpoint(state, path)
    return path


def check_out_dir(out_dir) -> None:
    """Refuse an output directory that is not, and cannot become, a writable
    directory, so that a run fails before its first step rather than after its
    last."""
    out_dir = Path(out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write the run directory {out_dir}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write the run directory {out_dir}: {existing} is not writable")


def run_dirs(runs_dir) -> list[Path]:
    """The subdirectories of runs_dir that hold a log.csv, sorted by name."""
    runs_dir = Path(runs_dir)
    found = sorted(d for d in runs_dir.iterdir() if (d / LOG).exists()) if runs_dir.is_dir() else []
    if not found:
        raise ConfigError(f"no run directories with {LOG} under {runs_dir}")
    return found


def read(run_dir) -> tuple[ExperimentConfig, RunLog]:
    """The config and log of one run directory, as `write` wrote them.

    config.txt goes through load_config, whose errors name the file. log.csv
    must be exactly what RunLog(config).to_csv() writes for some records, so a
    log that reads back writes back byte for byte. Anything else is a
    DataFormatError naming the file, the line and the column. The log's events
    are left empty.
    """
    run_dir = Path(run_dir)
    config = load_config(run_dir / CONFIG)
    return config, RunLog(config, _parse_log(run_dir, config))


def _parse_log(run_dir: Path, config: ExperimentConfig) -> list[LogRecord]:
    """The records of run_dir's log.csv; the checks follow the README's CSV
    log schema."""
    path, header = run_dir / LOG, RunLog(config).header()
    groups, k = len(_groups(config)), config.population_size

    def error(lineno: int, index: int, problem: str) -> DataFormatError:
        name = f" ({header[index]})" if index < len(header) else ""
        return DataFormatError(f"{path}: line {lineno}, column {index + 1}{name}: {problem}")

    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_start = data.rfind(b"\n", 0, err.start) + 1
        raise error(data.count(b"\n", 0, err.start) + 1, data.count(b",", line_start, err.start),
                    f"byte {err.start} is not UTF-8") from None
    lines = text.split("\n")
    last = lines.pop()  # "" when the text ends in a newline
    if last:
        raise error(len(lines) + 1, last.count(","), "the file does not end in a newline; its last row is cut short")
    if not lines:
        raise error(1, 0, "the file is empty; it has no header")
    found = lines[0].split(",")
    if found != header:
        index = next(i for i in range(len(found) + 1) if found[i : i + 1] != header[i : i + 1])
        have, want = (repr(cols[index]) if index < len(cols) else "no column" for cols in (found, header))
        raise error(1, index, f"the header has {have} where the log of {run_dir / CONFIG} has {want}")

    flat = 4 + 2 * groups  # the per-member columns start here
    indices = range(4, flat)  # champion and behavior indices
    kinds = [int if i == 0 or i in indices else float for i in range(len(header))]
    records, previous = [], 0
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise error(lineno, min(len(cells), len(header)), f"{len(cells)} cells where the header has {len(header)}")
        values = []
        for i, (cell, kind) in enumerate(zip(cells, kinds)):
            try:
                value = kind(cell)
                canonical = _CELL[kind](value) == cell
            except ValueError:
                canonical = False
            if not canonical:
                raise error(lineno, i, f"{cell!r} is not {'an int' if kind is int else 'a float'} as to_csv writes one")
            values.append(value)
        if values[0] <= previous:
            raise error(lineno, 0, f"steps must strictly increase; {values[0]} follows {previous}")
        previous = values[0]
        for i in indices:
            if not 0 <= values[i] < k:
                raise error(lineno, i, f"{values[i]} is not a member index; the population has {k}")
        records.append(
            LogRecord(
                step=values[0],
                wallclock_s=values[1],
                episode_return=values[2],
                eval_return=values[3],
                champions=tuple(values[4 : 4 + groups]),
                behaviors=tuple(values[4 + groups : flat]),
                sparsities=tuple(tuple(values[flat + g * k : flat + (g + 1) * k]) for g in range(groups)),
                losses=tuple(tuple(values[flat + g * k : flat + (g + 1) * k]) for g in range(groups, 2 * groups)),
            )
        )
    return records
