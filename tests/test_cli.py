import json

import numpy as np
import pytest

from eaudeqn.checkpoint import load_checkpoint, save_checkpoint
from eaudeqn.cli import main
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
        del payload["population"]["members"][0]["params"]["weights"]
        damaged = tmp_path / "damaged.ckpt"
        damaged.write_bytes(encode_payload(payload))
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--resume", str(damaged)])
        assert code == 2
        assert "cannot resume: checkpoint population.members[0].params: no 'weights' entry" in capsys.readouterr().err
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

    def test_inspect_prints_members(self, run_dir, capsys):
        code = main(["inspect", "--checkpoint", str(run_dir / "checkpoint.ckpt")])
        assert code == 0
        text = capsys.readouterr().out
        assert "algorithm: dqn" in text
        assert "member 0: sparsity=" in text
        assert "step: 700 / 700" in text

    def test_bad_checkpoint_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage")
        assert main(["inspect", "--checkpoint", str(junk)]) == 2
        assert "config error" in capsys.readouterr().err


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

    def test_mismatched_runs_exit_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        cfg_a = write_config(tmp_path, CHAIN_CFG, name="a.txt")
        cfg_b = write_config(tmp_path, CHAIN_CFG.replace("env = chain", "env = gridworld"), name="b.txt")
        assert main(["train", "--config", str(cfg_a), "--out", str(runs / "a")]) == 0
        assert main(["train", "--config", str(cfg_b), "--out", str(runs / "b")]) == 0
        assert main(["aggregate", "--runs", str(runs), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["aggregate", "--runs", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()
