"""scripts/pairs.py: its summary rebuilds the committed BENCH files' summaries from their runs, and it
runs pairs in alternating order, at the benchmark's own length, into one file per call."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


@pytest.mark.parametrize("name, places", [("BENCH_14.json", 9), ("BENCH_15.json", None)])
def test_summary_rebuilds_the_committed_summaries(name, places):
    bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
    rebuilt = pairs.summary(bench["runs"], pairs.benchmark()["end_to_end"])
    if places is not None:  # BENCH_14 stored its quartiles rounded to 9 decimal places
        for block in (b for metrics in rebuilt.values() for b in metrics.values()):
            for key in ("parent_quartiles", "change_quartiles"):
                block[key] = [round(q, places) for q in block[key]]
    assert rebuilt == bench["summary"]


FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(Path(__file__).parents[3] / "calls.txt", "a") as fh:
    fh.write(f"{Path.cwd().name} {args['--workload']} {args['--seed']} {args['--seconds']}\\n")
value = float(args["--seed"]) + (0.5 if Path.cwd().name == "change" else 0.0)
metrics = {name: {"value": value, "unit": "u"} for name in NAMES}
print("progress line")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def fake_trees(tmp_path, *trees):
    names = [m["name"] for m in pairs.benchmark()["end_to_end"]]
    for tree in trees:
        (tmp_path / "trees" / tree / "perfbench").mkdir(parents=True)
        (tmp_path / "trees" / tree / "perfbench" / "run.py").write_text(f"NAMES = {names!r}\n" + FAKE_RUN)
    return [str(tmp_path / "trees" / tree) for tree in trees]


def test_pairs_alternate_at_the_benchmark_length(tmp_path):
    base, change = fake_trees(tmp_path, "base", "change")
    out = tmp_path / "BENCH.json"
    argv = ["--base", base, "--change", change, "--workload", "w1", "--workload", "w2", "--seeds", "1-3",
            "--out", str(out), "--claim", "c"]
    assert pairs.main(argv) == 0
    seconds = pairs.benchmark()["run_seconds"]
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert calls == [f"{tree} {w} {seed} {seconds}" for w in ("w1", "w2") for tree, seed in [
        ("base", 1), ("change", 1), ("change", 2), ("base", 2), ("base", 3), ("change", 3)]]
    bench = json.loads(out.read_text())
    assert bench["claim"] == "c" and "--seconds 55 " in bench["benchmark"]
    assert bench["change"] != "the parent itself (A/A)"
    assert [(r["workload"], r["seed"], r["first"]) for r in bench["runs"]] == [
        (w, seed, first) for w in ("w1", "w2") for seed, first in [(1, "parent"), (2, "change"), (3, "parent")]]
    assert list(bench["summary"]) == ["w1", "w2"]
    steps = bench["summary"]["w1"]["env_steps_per_s"]
    assert steps["parent_quartiles"] == [1.0, 2.0, 3.0] and steps["change_quartiles"] == [1.5, 2.5, 3.5]
    assert steps["change_better_pairs"] == "3/3" and bench["summary"]["w1"]["setup_s"]["change_better_pairs"] == "0/3"


def test_the_same_tree_twice_is_an_aa_file_over_every_workload(tmp_path):
    (base,) = fake_trees(tmp_path, "base")
    out = tmp_path / "BENCH_aa.json"
    assert pairs.main(["--base", base, "--change", base + "/../base", "--seeds", "1-2", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["change"] == "the parent itself (A/A)" and bench["claim"] is None
    assert list(bench["summary"]) == [w["name"] for w in pairs.benchmark()["workloads"]]
    assert all(block["equal_pairs"] == "2/2" for blocks in bench["summary"].values() for block in blocks.values())


@pytest.mark.parametrize("seeds", ["5-3", "3-3", "a-b", "3-", "3"])
def test_a_bad_seed_range_is_refused(seeds, capsys):
    with pytest.raises(SystemExit):
        pairs.main(["--base", ".", "--change", ".", "--seeds", seeds, "--out", "x"])
    assert "expected A-B" in capsys.readouterr().err


def test_an_aa_file_puts_its_quartiles_beside_the_claims(tmp_path):
    base, change = fake_trees(tmp_path, "base", "change")
    aa = tmp_path / "BENCH_aa.json"
    assert pairs.main(["--base", base, "--change", base, "--workload", "w1", "--seeds", "1-3", "--out", str(aa)]) == 0
    out = tmp_path / "BENCH.json"
    argv = ["--base", base, "--change", change, "--workload", "w1", "--workload", "w2", "--seeds", "4-6",
            "--out", str(out), "--aa", str(aa)]
    assert pairs.main(argv) == 0
    bench, floor = json.loads(out.read_text()), json.loads(aa.read_text())
    assert bench["aa"] == {"file": "BENCH_aa.json", "parent": floor["parent"]}
    for name, block in bench["summary"]["w1"].items():
        assert block["aa_parent_quartiles"] == floor["summary"]["w1"][name]["parent_quartiles"] == [1.0, 2.0, 3.0]
        assert block["aa_change_quartiles"] == floor["summary"]["w1"][name]["change_quartiles"]
        assert block["parent_quartiles"] == [4.0, 5.0, 6.0]
    assert not any("aa_parent_quartiles" in block for block in bench["summary"]["w2"].values())  # not in the A/A file


def test_a_claim_file_is_refused_as_an_aa_file(tmp_path, capsys):
    base, change = fake_trees(tmp_path, "base", "change")
    claim = tmp_path / "BENCH.json"
    argv = ["--base", base, "--change", change, "--workload", "w1", "--seeds", "1-2"]
    assert pairs.main([*argv, "--out", str(claim)]) == 0
    with pytest.raises(SystemExit):
        pairs.main([*argv, "--out", str(tmp_path / "x"), "--aa", str(claim)])
    assert "is not an A/A file" in capsys.readouterr().err
