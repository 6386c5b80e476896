import json

import numpy as np
import pytest

from eaudeqn.config import build_config
from eaudeqn.envs import make_env
from eaudeqn.errors import ConfigError
from eaudeqn.nncore import LayerSpec, NetworkParams, init_adam_state
from eaudeqn.population import fresh_member
from eaudeqn.training import NumericAbortError, evaluate_policy, run_training
from eaudeqn.rng import RngStream


def chain_config(algorithm="dqn", total=1_500, **extra):
    overrides = {"algorithm": algorithm, "env": "chain", "seed": 11, "run.total_steps": total}
    overrides.update(extra)
    return build_config(overrides)


FIXED_CLOCK = lambda: 0.0  # noqa: E731


class TestWarmupGate:
    def test_total_equals_warmup_takes_no_gradient_steps(self):
        cfg = chain_config(total=500)
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        assert state.population.members[0].optimizer.step_count == 0
        assert state.buffer.size == 500
        assert all(rec.losses[0][0] == 0.0 for rec in log.records)

    def test_gradients_start_after_warmup(self):
        cfg = chain_config(total=520)
        _, state = run_training(cfg, clock=FIXED_CLOCK)
        assert state.population.members[0].optimizer.step_count == 20


class TestEventStructure:
    def test_target_updates_at_period_boundaries(self):
        cfg = chain_config("eaude_dqn", total=1_500)
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        target_steps = [e["step"] for e in log.events if e["kind"] == "target_update"]
        assert target_steps == [500, 1000, 1500]

    def test_exploration_immediately_after_exploitation(self):
        cfg = chain_config("eaude_dqn", total=1_500)
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        kinds = [(e["step"], e["kind"]) for e in log.events]
        for i, (step, kind) in enumerate(kinds):
            if kind == "exploitation":
                assert kinds[i - 1] == (step, "target_update")
                assert kinds[i + 1] == (step, "exploration")
            if kind == "exploration":
                assert step % cfg.target_period == 0

    def test_losses_zero_in_event_rows(self):
        cfg = chain_config("eaude_dqn", total=1_500)
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        event_steps = {e["step"] for e in log.events if e["kind"] == "loss_reset"}
        for rec in log.records:
            if rec.step in event_steps:
                assert all(v == 0.0 for v in rec.losses[0])

    def test_champion_slot_zero_after_events(self):
        cfg = chain_config("eaude_dqn", total=1_500)
        _, state = run_training(cfg, clock=FIXED_CLOCK)
        assert state.population.champion_index == 0

    def test_polyprune_period_events(self):
        cfg = chain_config("polyprune_dqn", total=1_500)
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        prune_steps = [e["step"] for e in log.events if e["kind"] == "prune"]
        assert prune_steps == [500, 1000, 1500]
        # schedule ramps from t_start=300 to t_end=1200 at s_F=0.95
        assert state.population.members[0].sparsity > 0.9


class TestLogging:
    def test_value_based_header_exact(self):
        cfg = chain_config("dqn", total=600)
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        expected = "step,wallclock_s,episode_return,eval_return,champion_index,behavior_index,sparsity_1,loss_1"
        assert log.to_csv().splitlines()[0] == expected

    def test_eaude_header_has_k_columns(self):
        cfg = chain_config("eaude_dqn", total=600)
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        header = log.to_csv().splitlines()[0].split(",")
        assert header[4:6] == ["champion_index", "behavior_index"]
        assert [c for c in header if c.startswith("sparsity_")] == [f"sparsity_{k}" for k in range(1, 6)]
        assert [c for c in header if c.startswith("loss_")] == [f"loss_{k}" for k in range(1, 6)]

    def test_sac_header_prefixes_per_critic(self):
        cfg = build_config(
            {
                "algorithm": "eaude_sac",
                "env": "pendulum",
                "run.total_steps": 300,
                "replay.warmup": 250,
                "eaude.population": 2,
                "eaude.tournament": 1,
            }
        )
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        header = log.to_csv().splitlines()[0]
        assert header == (
            "step,wallclock_s,episode_return,eval_return,"
            "c1_champion_index,c2_champion_index,c1_behavior_index,c2_behavior_index,"
            "c1_sparsity_1,c1_sparsity_2,c2_sparsity_1,c2_sparsity_2,"
            "c1_loss_1,c1_loss_2,c2_loss_1,c2_loss_2"
        )

    def test_rows_at_log_period_and_events_strictly_increasing(self):
        cfg = build_config(
            {
                "algorithm": "eaude_sac",
                "env": "pendulum",
                "run.total_steps": 600,
                "replay.warmup": 100,
                "eaude.population": 2,
                "eaude.tournament": 1,
            }
        )
        log, _ = run_training(cfg, clock=FIXED_CLOCK)
        steps = [rec.step for rec in log.records]
        assert steps == sorted(set(steps))
        assert set(steps) == {100, 200, 250, 300, 400, 500, 600}  # 100s plus P=250 events

    def test_identical_seeds_identical_csv(self):
        a, _ = run_training(chain_config("eaude_dqn", total=800), clock=FIXED_CLOCK)
        b, _ = run_training(chain_config("eaude_dqn", total=800), clock=FIXED_CLOCK)
        assert a.to_csv() == b.to_csv()

    def test_threads_do_not_change_csv(self):
        a, _ = run_training(chain_config("eaude_dqn", total=800), threads=1, clock=FIXED_CLOCK)
        b, _ = run_training(chain_config("eaude_dqn", total=800), threads=4, clock=FIXED_CLOCK)
        assert a.to_csv() == b.to_csv()

    def test_threads_do_not_change_eaude_sac_outputs(self):
        cfg = build_config(
            {"algorithm": "eaude_sac", "env": "pendulum", "seed": 3, "run.total_steps": 500,
             "replay.warmup": 200, "sac.prune_period": 100, "eaude.s_max": 0.2, "eaude.u_max": 30.0}
        )
        runs = [run_training(cfg, threads=n, clock=FIXED_CLOCK)[0] for n in (1, 2)]
        events = ["".join(json.dumps(e, sort_keys=True) + "\n" for e in log.events) for log in runs]
        assert any(r["duplicated"] for e in runs[0].events if e["kind"] == "sac_prune" for r in e["records"])
        assert runs[0].to_csv() == runs[1].to_csv()
        assert events[0] == events[1]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_is_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            run_training(chain_config(total=600), threads=threads)


class TestNumericAbort:
    def test_non_finite_weight_aborts_with_state(self):
        from eaudeqn.training import init_state

        cfg = chain_config("dqn", total=600, **{"replay.warmup": 10})
        state = init_state(cfg)
        state.population.members[0].params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericAbortError) as info:
            run_training(cfg, resume=state, clock=FIXED_CLOCK)
        assert info.value.state.step == 11  # first gradient pass after warmup
        assert info.value.log is not None


class TestEvaluatePolicy:
    def always_right_member(self):
        params = NetworkParams(
            [np.zeros((2, 10))], [np.array([0.0, 1.0])], (LayerSpec(10, 2, "identity"),)
        )
        return fresh_member(params, init_adam_state(params, 1e-3, 1e-8), lineage_id=0)

    def test_optimal_chain_policy_scores_one(self):
        env = make_env("chain")
        mean = evaluate_policy(self.always_right_member(), env, 5, RngStream(0, "eval"))
        assert mean == 1.0

    def test_deterministic_env_and_policy_zero_variance(self):
        env = make_env("chain")
        member = self.always_right_member()
        returns = [evaluate_policy(member, env, 1, RngStream(i, "eval")) for i in range(5)]
        assert len(set(returns)) == 1


class TestOtherEnvsAndAlgorithms:
    def test_dqn_trains_on_gridworld(self):
        cfg = build_config({"algorithm": "dqn", "env": "gridworld", "seed": 1, "run.total_steps": 700})
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        assert state.step == 700
        assert state.population.members[0].optimizer.step_count == 200

    def test_dqn_trains_on_cartpole(self):
        cfg = build_config(
            {"algorithm": "dqn", "env": "cartpole", "seed": 1, "run.total_steps": 1_200,
             "replay.warmup": 200}
        )
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        assert state.step == 1_200
        assert any(np.isfinite(rec.episode_return) for rec in log.records)

    def test_plain_sac_trains_on_pendulum(self):
        cfg = build_config(
            {"algorithm": "sac", "env": "pendulum", "seed": 2, "run.total_steps": 500,
             "replay.warmup": 200}
        )
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        assert [side.k for side in state.twin.sides] == [1, 1]
        assert state.twin.sides[0].members[0].optimizer.step_count == 300
        assert not any(e["kind"] == "sac_prune" for e in log.events)

    def test_polyprune_sac_prunes_critics_not_actor(self):
        cfg = build_config(
            {"algorithm": "polyprune_sac", "env": "pendulum", "seed": 2, "run.total_steps": 1_000,
             "replay.warmup": 200, "polyprune.t_start": 100, "polyprune.t_end": 800}
        )
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        prune_events = [(e["step"], e["critic"]) for e in log.events if e["kind"] == "prune"]
        assert prune_events == sorted(set(prune_events)) and len(prune_events) > 0
        assert {c for _, c in prune_events} == {0, 1}
        for side in state.twin.sides:
            member = side.members[0]
            assert member.sparsity > 0.9
            # soft targets are pruned under the same mask
            for w, m in zip(member.target_params.weights, member.mask.layers):
                assert np.all(w[m == 0.0] == 0.0)
        from eaudeqn.pruning import sparsity_of

        assert sparsity_of(state.policy.mask) == 0.0

    def test_sac_resume_equals_continue(self):
        from eaudeqn.checkpoint import encode_payload, state_to_payload

        cfg = build_config(
            {"algorithm": "eaude_sac", "env": "pendulum", "seed": 4, "run.total_steps": 700,
             "replay.warmup": 100, "eaude.population": 2, "eaude.tournament": 1}
        )
        full_log, full_state = run_training(cfg, clock=FIXED_CLOCK)
        _, half = run_training(cfg, until_step=350, clock=FIXED_CLOCK)
        resumed_log, resumed_state = run_training(cfg, resume=half, clock=FIXED_CLOCK)
        assert encode_payload(state_to_payload(resumed_state)) == encode_payload(
            state_to_payload(full_state)
        )
        tail = full_log.to_csv().splitlines()[1:]
        resumed = resumed_log.to_csv().splitlines()[1:]
        assert resumed == tail[-len(resumed):]


class TestReduction:
    def test_eaude_k1_u0_matches_dqn_short(self):
        dqn_log, dqn_state = run_training(chain_config("dqn", total=1_200), clock=FIXED_CLOCK)
        eaude_log, eaude_state = run_training(
            chain_config(
                "eaude_dqn",
                total=1_200,
                **{"eaude.population": 1, "eaude.tournament": 1, "eaude.u_max": 0.0},
            ),
            clock=FIXED_CLOCK,
        )
        assert dqn_log.to_csv() == eaude_log.to_csv()
        a = dqn_state.population.members[0].params
        b = eaude_state.population.members[0].params
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
        dqn_digests = [e["member_digests"] for e in dqn_log.events if e["kind"] == "target_update"]
        eaude_digests = [e["member_digests"] for e in eaude_log.events if e["kind"] == "target_update"]
        assert dqn_digests == eaude_digests
