import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from eaudeqn.checkpoint import load_checkpoint, save_checkpoint
from eaudeqn.cli import main
from eaudeqn.config import load_config
from eaudeqn.training import init_state

CHAIN_CFG = """\
algorithm = dqn
env = chain
seed = 2
run.total_steps = 700
"""


def write_config(tmp_path, text=CHAIN_CFG, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTrain:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "log.csv").exists()
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "config.txt").exists()
        assert (out / "events.jsonl").exists()
        header = (out / "log.csv").read_text().splitlines()[0]
        assert header == (
            "step,wallclock_s,episode_return,eval_return,champion_index,behavior_index,sparsity_1,loss_1"
        )
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert any(e["kind"] == "target_update" for e in events)
        assert "run complete" in capsys.readouterr().out

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b), "--seed", "9"]) == 0
        assert (a / "config.txt").read_text() != (b / "config.txt").read_text()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CHAIN_CFG + "run.total_stepz = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_combination_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "algorithm = sac\nenv = chain\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "absent.txt")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(CHAIN_CFG.encode().replace(b"chain", b"ch\xffin"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: line 2: byte 24 is not UTF-8\n"
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_exits_2_before_training(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CHAIN_CFG.replace("700", "1000000"))  # would take minutes to train
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        for target in (out, out / "run"):
            assert main(["train", "--config", str(cfg), "--out", str(target)]) == 2
            assert capsys.readouterr().err == (
                f"config error: cannot write the run directory {target}: {out} is not a directory\n"
            )
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_numeric_abort_exits_3_and_dumps_checkpoint(self, tmp_path, capsys):
        from eaudeqn.config import load_config

        cfg_path = write_config(tmp_path)
        config = load_config(cfg_path)
        state = init_state(config)
        state.population.members[0].params.weights[0][0, 0] = np.nan
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(state, bad)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume", str(bad)])
        assert code == 3
        for name in ("abort.ckpt", "log.csv", "events.jsonl", "config.txt"):
            assert (out / name).exists()
        assert "numeric abort" in capsys.readouterr().err

    def test_resume_from_a_damaged_checkpoint_exits_2(self, tmp_path, capsys):
        from eaudeqn.checkpoint import encode_payload, state_to_payload
        from eaudeqn.config import load_config
        from eaudeqn.training import run_training

        cfg_path = write_config(tmp_path)
        _, half = run_training(load_config(cfg_path), until_step=300, clock=lambda: 0.0)
        payload = state_to_payload(half)
        del payload["population"]["mask"]
        damaged = tmp_path / "damaged.ckpt"
        damaged.write_bytes(encode_payload(payload))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--resume", str(damaged)])
        assert code == 2
        assert "cannot resume: checkpoint population: no 'mask' entry" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_resume_from_an_older_format_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        old = tmp_path / "old.ckpt"
        save_checkpoint(init_state(load_config(cfg_path)), old)
        for version in ("EAUDECK1", "EAUDECK2", "EAUDECK3", "EAUDECK4", "EAUDECK5"):
            old.write_bytes(version.encode() + old.read_bytes()[8:])
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--resume", str(old)]) == 2
            assert f"checkpoint format {version} is not this version's EAUDECK6" in capsys.readouterr().err
            assert main(["inspect", "--checkpoint", str(old)]) == 2
            assert f"checkpoint format {version} is not this version's EAUDECK6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_resume_continues_to_completion(self, tmp_path):
        from eaudeqn.config import load_config
        from eaudeqn.training import run_training

        cfg_path = write_config(tmp_path)
        config = load_config(cfg_path)
        _, half = run_training(config, until_step=300, clock=lambda: 0.0)
        ckpt = tmp_path / "half.ckpt"
        save_checkpoint(half, ckpt)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out), "--resume", str(ckpt)]) == 0
        final = load_checkpoint(out / "checkpoint.ckpt")
        assert final.step == 700


# name -> (config, the whole `inspect` output for its final checkpoint): a Q population, and two critic sides
INSPECTED = {
    "eaude_dqn": (
        "algorithm = eaude_dqn\nenv = chain\nseed = 2\nrun.total_steps = 700\nrun.target_period = 250\n",
        """\
algorithm: eaude_dqn
env: chain
seed: 2
step: 700 / 700
replay: 700 / 10000 transitions
champion slot: 0
member 0: sparsity=0.0000 loss=12.777936532117723 lineage=0
member 1: sparsity=0.0099 loss=12.852459680137631 lineage=8
member 2: sparsity=0.0099 loss=12.852459680137631 lineage=5
member 3: sparsity=0.0192 loss=12.706478655397497 lineage=9
member 4: sparsity=0.0099 loss=12.852459680137631 lineage=6
""",
    ),
    "eaude_sac": (
        "algorithm = eaude_sac\nenv = pendulum\nseed = 2\nrun.total_steps = 250\nreplay.warmup = 100\n"
        "eval.period = 50\neval.episodes = 1\nlog.period = 50\nsac.prune_period = 100\neaude.population = 2\n"
        "eaude.tournament = 1\n",
        """\
algorithm: eaude_sac
env: pendulum
seed: 2
step: 250 / 250
replay: 250 / 50000 transitions
critic 1: champion slot 1
  member 0: sparsity=0.0000 loss=79.95118483564615 lineage=0
  member 1: sparsity=0.0098 loss=79.8380952881194 lineage=2
critic 2: champion slot 0
  member 0: sparsity=0.0000 loss=87.24702837580257 lineage=0
  member 1: sparsity=0.0098 loss=97.11867431900804 lineage=3
""",
    ),
}


class TestEvaluateAndInspect:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_evaluate_prints_mean_return(self, run_dir, capsys):
        code = main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--episodes", "3"])
        assert code == 0
        assert "mean raw return over 3 episodes" in capsys.readouterr().out

    def test_sac_returns_print_as_plain_numbers(self, tmp_path, capsys):
        # pendulum's rewards are numpy floats; the printed returns must not be their reprs
        cfg = write_config(tmp_path, "algorithm = eaude_sac\nenv = pendulum\nseed = 2\nrun.total_steps = 200\n"
                                     "replay.warmup = 100\neval.period = 50\neval.episodes = 1\nlog.period = 50\n"
                                     "sac.prune_period = 100\neaude.population = 2\neaude.tournament = 1\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.ckpt"), "--episodes", "1"]) == 0
        printed = capsys.readouterr().out
        assert "eval_return=-" in printed and "mean raw return over 1 episodes: -" in printed
        assert "np.float64(" not in printed

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_evaluate_without_episodes_exits_2(self, run_dir, capsys, episodes):
        code = main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--episodes", episodes])
        assert code == 2
        assert "config error: episodes must be >= 1" in capsys.readouterr().err

    def test_inspect_prints_members(self, run_dir, tmp_path, capsys):
        code = main(["inspect", "--checkpoint", str(run_dir / "checkpoint.ckpt")])
        assert code == 0
        text = capsys.readouterr().out
        assert "algorithm: dqn" in text
        assert "member 0: sparsity=" in text
        assert "step: 700 / 700" in text
        assert "replay: 700 / 10000 transitions" in text
        for name, (config, expected) in INSPECTED.items():
            out = tmp_path / name
            cfg = write_config(tmp_path, config, f"{name}.txt")
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["inspect", "--checkpoint", str(out / "checkpoint.ckpt")]) == 0
            assert capsys.readouterr().out == expected

    def test_bad_checkpoint_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage")
        assert main(["inspect", "--checkpoint", str(junk)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_checkpoint_outside_its_env_exits_2(self, run_dir, tmp_path, capsys):
        from eaudeqn.checkpoint import decode_payload, encode_payload

        payload = decode_payload((run_dir / "checkpoint.ckpt").read_bytes())
        payload["env_state"] = np.array([99.0])  # the chain has 10 states
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(encode_payload(payload))
        assert main(["inspect", "--checkpoint", str(bad)]) == 2
        assert "env_state: [99.0] is not a chain state" in capsys.readouterr().err

    def test_malformed_array_header_exits_2(self, run_dir, tmp_path, capsys):
        magic = (run_dir / "checkpoint.ckpt").read_bytes()[:8]
        bad = tmp_path / "bad.ckpt"
        # an array of one item whose dtype string, "zz", names no dtype
        bad.write_bytes(magic + b"A\x02\x00\x00\x00zz\x01" + struct.pack("<qQ", 1, 8) + bytes(8))
        assert main(["inspect", "--checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: corrupted checkpoint: not a float64, int64 or uint8 array at byte offset 13\n"

    def test_deeply_nested_checkpoint_exits_2(self, run_dir, tmp_path, capsys):
        magic = (run_dir / "checkpoint.ckpt").read_bytes()[:8]
        deep = tmp_path / "deep.ckpt"
        deep.write_bytes(magic + b"L\x01\x00\x00\x00" * 100_000 + b"N")  # 0.5 MB of nested one-element lists
        assert main(["inspect", "--checkpoint", str(deep)]) == 2
        assert "nested deeper than" in capsys.readouterr().err


class TestAggregate:
    def test_aggregates_two_seeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        runs = tmp_path / "runs"
        for seed in (1, 2):
            assert main(
                ["train", "--config", str(cfg), "--seed", str(seed), "--out", str(runs / f"s{seed}")]
            ) == 0
        out_csv = tmp_path / "summary.csv"
        code = main(
            ["aggregate", "--runs", str(runs), "--out", str(out_csv), "--metric", "episode_return",
             "--resamples", "200"]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("step,runs,return_iqm,return_ci_low,return_ci_high")
        assert len(lines) > 1
        assert all(line.split(",")[1] == "2" for line in lines[1:])
        # pinned bytes: how runs are read must not change the summary
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "5ea1aaed0756f73e2f8aa0a50f8dc511e056da2955bd01e33ae80a6ae702a88d"
        )

    def test_mismatched_runs_exit_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        cfg_a = write_config(tmp_path, CHAIN_CFG, name="a.txt")
        cfg_b = write_config(tmp_path, CHAIN_CFG.replace("env = chain", "env = gridworld"), name="b.txt")
        assert main(["train", "--config", str(cfg_a), "--out", str(runs / "a")]) == 0
        assert main(["train", "--config", str(cfg_b), "--out", str(runs / "b")]) == 0
        capsys.readouterr()
        assert main(["aggregate", "--runs", str(runs), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"config error: runs {runs / 'a'} and {runs / 'b'} disagree on: env\n"

    def test_resamples_below_one_exit_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(runs / "a")]) == 0
        shutil.copytree(runs / "a", runs / "b")
        for resamples in ("0", "-3"):
            out_csv = tmp_path / "x.csv"
            assert main(["aggregate", "--runs", str(runs), "--out", str(out_csv), "--resamples", resamples]) == 2
            assert f"config error: resamples must be >= 1, got {resamples}" in capsys.readouterr().err
            assert not out_csv.exists()

    def test_run_without_a_config_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(runs / "a")]) == 0
        shutil.copytree(runs / "a", runs / "b")
        (runs / "b" / "config.txt").unlink()
        out_csv = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["aggregate", "--runs", str(runs), "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(runs / "b" / "config.txt") in err
        assert not out_csv.exists()

    def test_no_step_with_the_metric_in_every_run_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        for seed in (1, 2):  # 700 steps: no evaluation yet (chain evaluates every 1,000 steps)
            assert main(["train", "--config", str(write_config(tmp_path)), "--seed", str(seed),
                         "--out", str(runs / f"s{seed}")]) == 0
        out_csv = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["aggregate", "--runs", str(runs), "--out", str(out_csv), "--resamples", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: none of the 7 logging steps has a finite eval_return in all 2 runs; nothing to aggregate\n"
        )
        assert captured.out == "" and not out_csv.exists()

    def test_out_without_a_parent_exits_2_before_reading_runs(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(runs / "a")]) == 0
        (runs / "a" / "log.csv").write_text("damaged", encoding="utf-8")
        capsys.readouterr()
        for out in (tmp_path / "nodir" / "s.csv", runs):
            assert main(["aggregate", "--runs", str(runs), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: cannot write the summary {out}: it is a directory or its parent is not one\n"
            )
        assert not (tmp_path / "nodir").exists()

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["aggregate", "--runs", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()
