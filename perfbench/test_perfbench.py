"""The benchmark's own tests: tiny runs of every workload, and the checkers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from eaudeqn import build_config, run_training  # noqa: E402
from eaudeqn import nncore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# A short eaude_dqn run on the chain env: the checkers' test subject, and the
# only value-based population among the tests.
CHAIN_TINY = {
    "algorithm": "eaude_dqn",
    "env": "chain",
    "run.total_steps": 400,
    "run.target_period": 100,
    "replay.capacity": 10_000,
    "replay.warmup": 100,
    "eaude.population": 5,
    "eaude.tournament": 3,
    "eaude.s_max": 0.01,
    "eaude.u_max": 3.0,
    "eval.period": 200,
    "eval.episodes": 5,
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), metric
        if trace == "0":
            assert value["value"] > 0, metric


def test_traced_call_counts_repeat(tmp_path):
    counts = []
    for i in range(2):
        out = tmp_path / str(i)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "pendulum-eaude_sac", "--seed", "5",
             "--out", str(out), "--traced", "--tiny"],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        trace = json.loads((out / "result.json").read_text())["trace"]
        counts.append({name: stats["calls"] for name, stats in trace.items()})
        assert (out / "spans.csv").stat().st_size > 0
    assert counts[0] == counts[1]
    assert counts[0]["sac.train_critic_member"] > 0 and counts[0]["nncore.td_loss_and_grad"] > 0


def test_tracer_wraps_every_binding():
    script = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import tracer\n"
        "t = tracer.Tracer(); bound = t.install()\n"
        "import eaudeqn.training as tr, eaudeqn.dqn as dq, eaudeqn.population as po, eaudeqn.sac as sa\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.split('.')[0] == 'eaudeqn']\n"
        "originals = {id(v.__traced_original__) for m in mods for v in vars(m).values() if hasattr(v, '__traced_original__')}\n"
        "stale = [f'{m.__name__}.{a}' for m in mods for a, v in vars(m).items() if id(v) in originals]\n"
        "assert not stale, stale\n"
        "for mod, name in [(tr, 'train_member'), (tr, 'sample_behavior_index'), (dq, 'forward'),\n"
        "                  (po, 'td_loss_and_grad'), (sa, 'adam_step'), (sa, 'apply_mask'), (tr, 'draw_action')]:\n"
        "    assert hasattr(getattr(mod, name), '__traced_original__'), (mod.__name__, name)\n"
        "print(len(bound))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 27


def test_without_the_package_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = bench("--workload", "cartpole-polyprune_dqn", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the checkers must catch what they claim to catch -----------------------------------


@pytest.fixture(scope="module")
def chain_run():
    overrides = dict(CHAIN_TINY, seed=2)
    log, state = run_training(build_config(overrides))
    events = "".join(json.dumps(e, sort_keys=True) + "\n" for e in log.events)
    return overrides, log.to_csv(), events, state


def test_clean_run_passes_every_output_check(chain_run):
    overrides, csv_text, events, state = chain_run
    assert checks.output_failures(state, csv_text, events, overrides) == []


def test_a_nonzero_masked_weight_is_reported(chain_run):
    _, _, _, state = chain_run
    member = state.population.members[1]
    weights = [w.copy() for w in member.params.weights]
    masks = [m.copy() for m in member.mask.layers]
    masks[0][0, 0] = 0.0
    weights[0][0, 0] = 0.25
    broken = replace(member, params=replace(member.params, weights=weights), mask=replace(member.mask, layers=masks))
    pop = replace(state.population, members=[state.population.members[0], broken, *state.population.members[2:]])
    failures = checks.masked_weight_failures(replace(state, population=pop))
    assert len(failures) == 1 and "member 1 layer 0" in failures[0]


def test_a_misreported_sparsity_is_reported(chain_run):
    _, csv_text, _, state = chain_run
    members = list(state.population.members)
    members[2] = replace(members[2], sparsity=members[2].sparsity + 0.01)
    header, rows = checks.parse_log(csv_text)
    failures = checks.sparsity_failures(replace(state, population=replace(state.population, members=members)), header, rows)
    assert any("member 2: reported sparsity" in f for f in failures)


def test_a_decreasing_lineage_is_reported():
    events = [{"step": 500, "kind": "exploration", "records": [
        {"slot": 0, "source": 0, "duplicated": False, "sparsity": 0.2, "source_sparsity": 0.2, "lineage_id": 0},
        {"slot": 1, "source": 0, "duplicated": True, "sparsity": 0.19, "source_sparsity": 0.2, "lineage_id": 5},
    ]}]
    failures = checks.lineage_failures(events)
    assert len(failures) == 1 and "slot 1" in failures[0]


def test_a_target_above_the_ceiling_is_reported(chain_run):
    overrides, _, events, state = chain_run
    parsed = checks.parse_events(events)
    n = sum(e["kind"] == "exploration" for e in parsed)
    members = list(state.population.members)
    members[3] = replace(members[3], mask_target=1.0 - 0.99**n + 1e-9)
    failures = checks.ceiling_failures(replace(state, population=replace(state.population, members=members)), parsed, 0.01)
    assert len(failures) == 1 and "member 3" in failures[0]


def test_wrong_counts_and_eval_returns_are_reported(chain_run):
    overrides, csv_text, events, state = chain_run
    header, rows = checks.parse_log(csv_text)
    parsed = checks.parse_events(events)
    assert checks.count_failures(state, rows[:-1], parsed, overrides)
    assert checks.count_failures(state, rows, parsed[4:], overrides)
    col = header.index("eval_return")
    rows[-1] = rows[-1][:col] + ["1.5"] + rows[-1][col + 1 :]
    assert checks.eval_failures("chain", header, rows)


def test_schedule_check_rejects_a_wrong_zero_count():
    overrides = WORKLOADS["cartpole-polyprune_dqn"].config_overrides(seed=1, tiny=True)
    log, state = run_training(build_config(overrides))
    assert checks.schedule_failures(state, log.events, overrides) == []
    member = state.population.members[0]
    layer = member.mask.layers[1]
    layer[np.unravel_index(np.flatnonzero(layer == 0.0)[0], layer.shape)] = 1.0
    assert checks.schedule_failures(state, log.events, overrides)


def test_determinism_checks_ignore_only_wallclock(chain_run):
    _, csv_text, events, _ = chain_run
    header, rows = checks.parse_log(csv_text)
    col = header.index("wallclock_s")
    shifted = "\n".join(",".join(r[:col] + ["9.0"] + r[col + 1 :]) for r in rows)
    other = ",".join(header) + "\n" + shifted + "\n"
    assert checks.same_run_failures("x", csv_text, events, other, events) == []
    assert checks.same_run_failures("x", csv_text, events, csv_text, events.replace("0", "1", 1))
    assert checks.digest_failures("x", events, events) == []
    assert checks.digest_failures("x", events, events.replace('"member_digests": ["', '"member_digests": ["0', 1))


def test_two_threads_give_the_member_digests_of_one():
    overrides = dict(CHAIN_TINY, seed=4)
    events = []
    for threads in (1, 2):
        log, _ = run_training(build_config(overrides), threads=threads)
        events.append("".join(json.dumps(e, sort_keys=True) + "\n" for e in log.events))
    assert checks.digest_failures("threads=2 vs threads=1", *events) == []


def test_kernel_checks_pass_on_the_package():
    config = build_config(WORKLOADS["pendulum-eaude_sac"].config_overrides(seed=0, tiny=True))
    assert checks.kernel_failures(config, np.random.default_rng(0)) == []


def test_kernel_checks_catch_a_wrong_gradient(monkeypatch):
    original = nncore.td_loss_and_grad

    def skewed(*args):
        loss, grad = original(*args)
        grad.weights[1] = grad.weights[1] * 1.001
        return loss, grad

    monkeypatch.setattr(nncore, "td_loss_and_grad", skewed)
    failures = checks.td_gradient_failures((4, 8, 8, 2), np.random.default_rng(1))
    assert any("central differences" in f for f in failures)


def test_kernel_checks_catch_a_wrong_adam_step(monkeypatch):
    original = nncore.adam_step

    def no_bias_correction(params, grad, state):
        return original(params, grad, replace(state, step_count=10_000))

    monkeypatch.setattr(nncore, "adam_step", no_bias_correction)
    failures = checks.adam_failures((4, 8, 8, 2), np.random.default_rng(1))
    assert any("params differ" in f for f in failures)
