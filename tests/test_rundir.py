"""Run directories read back strictly: `aggregate` on a damaged run exits 2
naming the damaged file (and, for log.csv, the line and column), or reads a
log that writes back byte for byte. It never raises."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eaudeqn import rundir
from eaudeqn.cli import main
from eaudeqn.errors import ConfigError, DataFormatError

# short runs whose every log row holds a finite eval_return
CONFIGS = {
    "dqn": "algorithm = dqn\nenv = chain\nseed = 2\nrun.total_steps = 300\nreplay.warmup = 100\n"
           "eval.period = 50\nlog.period = 50\n",
    "eaude_sac": "algorithm = eaude_sac\nenv = pendulum\nseed = 2\nrun.total_steps = 200\nreplay.warmup = 100\n"
                 "eval.period = 50\neval.episodes = 1\nlog.period = 50\nsac.prune_period = 100\n"
                 "eaude.population = 2\neaude.tournament = 1\n",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> {file name: bytes} of a real run directory, per config."""
    base = tmp_path_factory.mktemp("runs")
    files = {}
    for name, text in CONFIGS.items():
        cfg = base / f"{name}.txt"
        cfg.write_text(text, encoding="utf-8")
        out = base / name
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        files[name] = {f: (out / f).read_bytes() for f in (rundir.CONFIG, rundir.LOG)}
    return files


def aggregate(files: dict, base: Path) -> tuple[Path, int, str]:
    """Write the files as the one run under base and aggregate it; returns
    the run directory, the exit code and stderr."""
    run = base / "runs" / "r"
    run.mkdir(parents=True)
    for name, blob in files.items():
        (run / name).write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["aggregate", "--runs", str(base / "runs"), "--out", str(base / "s.csv"), "--resamples", "5"])
    return run, code, err.getvalue()


def replace_line(blob: bytes, lineno: int, edit) -> bytes:
    lines = blob.split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    return b"\n".join(lines)


def set_cell(lineno: int, column: int, value: bytes):
    def edit(blob):
        def cells(line):
            parts = line.split(b",")
            parts[column - 1] = value
            return b",".join(parts)
        return replace_line(blob, lineno, cells)
    return edit


# damage to log.csv -> (line, column, what the error says)
LOG_DAMAGE = {
    "last row cut short": (lambda b: b[: b.rindex(b",", 0, len(b) - 1)] + b"\n", 7, 8, "7 cells where the header has 8"),
    "abc as an episode_return": (set_cell(3, 3, b"abc"), 3, 3, "'abc' is not a float"),
    "byte 0xff": (lambda b: b.replace(b"0.0,0,0", b"0.0,\xff,0", 1), 2, 5, "is not UTF-8"),
    "last row cut mid-number": (lambda b: b[:-5], 7, 8, "does not end in a newline"),
    "abc as a wallclock_s": (set_cell(4, 2, b"abc"), 4, 2, "'abc' is not a float"),
    "a float not as to_csv writes it": (set_cell(2, 7, b"0.00"), 2, 7, "'0.00' is not a float as to_csv writes one"),
    "a padded int": (set_cell(2, 1, b" 50"), 2, 1, "' 50' is not an int"),
    "steps out of order": (set_cell(3, 1, b"50"), 3, 1, "steps must strictly increase; 50 follows 50"),
    "a champion index past the population": (set_cell(2, 5, b"1"), 2, 5, "1 is not a member index"),
    "a renamed header column": (lambda b: b.replace(b"loss_1", b"loss_2", 1), 1, 8,
                                "the header has 'loss_2' where the log of"),
    "an empty line": (lambda b: b + b"\n", 8, 2, "1 cells where the header has 8"),
    "an empty file": (lambda b: b"", 1, 1, "the file is empty"),
}


@pytest.mark.parametrize("damage", sorted(LOG_DAMAGE))
def test_damaged_log_exits_2_naming_line_and_column(runs, tmp_path, damage):
    edit, line, column, says = LOG_DAMAGE[damage]
    files = dict(runs["dqn"])
    files[rundir.LOG] = edit(files[rundir.LOG])
    run, code, err = aggregate(files, tmp_path)
    assert code == 2
    assert err.startswith(f"config error: {run / rundir.LOG}: line {line}, column {column} (")
    assert says in err
    assert not (tmp_path / "s.csv").exists()


def test_config_that_is_not_utf8_exits_2_naming_it(runs, tmp_path):
    files = dict(runs["dqn"])
    files[rundir.CONFIG] = files[rundir.CONFIG].replace(b"chain", b"ch\xffin")
    run, code, err = aggregate(files, tmp_path)
    assert code == 2
    assert err.startswith(f"config error: {run / rundir.CONFIG}: line ")
    assert "is not UTF-8" in err


DAMAGE = st.sampled_from(["truncate", "flip", "insert", "drop column"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_run_exits_0_or_2_and_never_raises(runs, data):
    run_name = data.draw(st.sampled_from(sorted(runs)), label="run")
    files = dict(runs[run_name])
    target = data.draw(st.sampled_from([rundir.CONFIG, rundir.LOG]), label="file")
    blob = files[target]
    kind = data.draw(DAMAGE, label="damage")
    if kind == "drop column":  # in every line of the file
        lines = blob.split(b"\n")
        column = data.draw(st.integers(0, lines[0].count(b",")), label="column")
        blob = b"\n".join(b",".join(p for i, p in enumerate(line.split(b",")) if i != column) for line in lines)
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if kind == "truncate":
            blob = blob[:at]
        elif kind == "flip":
            blob = blob[:at] + bytes([blob[at] ^ (1 << data.draw(st.integers(0, 7), label="bit"))]) + blob[at + 1 :]
        else:
            blob = blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at:]
    files[target] = blob

    with tempfile.TemporaryDirectory() as tmp:
        run, code, err = aggregate(files, Path(tmp))
        try:
            _, log = rundir.read(run)
        except (ConfigError, DataFormatError) as refusal:
            assert code == 2
            assert err == f"config error: {refusal}\n"
            assert str(run / target) in err
        else:  # the damage left a log that to_csv could have written
            assert log.to_csv().encode("utf-8") == files[rundir.LOG]
            assert code == 0 or (code == 2 and "nothing to aggregate" in err)
