"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -v through the test name,
and on stdout). Training runs shared by several criteria are session-scoped
fixtures. The desk-scale sparsity clause of the value-based learning
criterion sits above the cap-compounding ceiling of the selection mechanism
at these run constants (40 events x 1%-of-remaining per event caps the
reachable champion sparsity near 0.31 even under a perfect ratchet); it is
asserted as stated and expected to fail red. See notes in the repository
README for the measured numbers.
"""

import math
import time
from multiprocessing import get_context

import numpy as np
import pytest

from gradcheck import finite_difference_grad, max_relative_error, sample_fd_case

from eaudeqn.checkpoint import encode_payload, load_checkpoint, save_checkpoint, state_to_payload
from eaudeqn.config import build_config
from eaudeqn.envs import make_env, policy_matches_oracle, value_iteration
from eaudeqn.metrics import bootstrap_iqm_interval, iqm
from eaudeqn.nncore import forward, td_loss_and_grad
from eaudeqn.population import exploitation, select_target
from eaudeqn.pruning import EauDeConfig, PolyPruneConfig, poly_schedule, sample_sparsity
from eaudeqn.rng import RngStream
from eaudeqn.training import run_training

FIXED_CLOCK = lambda: 0.0  # noqa: E731
SEEDS = (0, 1, 2, 3, 4)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- shared runs ---------------------------------------------------------------


@pytest.fixture(scope="session")
def chain_vi():
    env = make_env("chain")
    return value_iteration(env, env.spec.discount)


def _greedy_actions(member):
    q = forward(member.params, member.mask, np.eye(10))
    return q.argmax(axis=1)


@pytest.fixture(scope="session")
def dqn_chain_runs():
    t0 = time.perf_counter()
    results = []
    for seed in SEEDS:
        cfg = build_config({"algorithm": "dqn", "env": "chain", "seed": seed})
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        results.append((log, state))
    return {"results": results, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def eaude_chain_runs():
    t0 = time.perf_counter()
    results = []
    for seed in SEEDS:
        cfg = build_config({"algorithm": "eaude_dqn", "env": "chain", "seed": seed})
        log, state = run_training(cfg, clock=FIXED_CLOCK)
        results.append((log, state))
    return {"results": results, "elapsed": time.perf_counter() - t0}


def _sac_worker(seed: int) -> dict:
    cfg = build_config({"algorithm": "eaude_sac", "env": "pendulum", "seed": seed})
    log, state = run_training(cfg, clock=FIXED_CLOCK)
    evals = [r.eval_return for r in log.records if math.isfinite(r.eval_return)]
    return {
        "seed": seed,
        "best_eval": max(evals),
        "champion_sparsities": [
            side.members[side.champion_index].sparsity for side in state.twin.sides
        ],
    }


@pytest.fixture(scope="session")
def sac_pendulum_runs():
    t0 = time.perf_counter()
    with get_context("fork").Pool(processes=2) as pool:
        summaries = pool.map(_sac_worker, SEEDS)
    return {"summaries": summaries, "elapsed": time.perf_counter() - t0}


# -- criteria ------------------------------------------------------------------


def test_01_gradient_oracle_against_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        net, mask, x, actions, targets = sample_fd_case(trial)
        grad = td_loss_and_grad(net, mask, x, actions, targets)[1]
        fd = finite_difference_grad(net, mask, x, actions, targets)
        worst = max(worst, max_relative_error(grad, fd))
    elapsed = time.perf_counter() - t0
    report(
        "gradient oracle: 100 random networks vs central differences",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_population_of_one_reduces_to_dense_baseline():
    t0 = time.perf_counter()
    base = {"env": "chain", "seed": 7, "run.total_steps": 5_000}
    dqn_log, dqn_state = run_training(
        build_config({"algorithm": "dqn", **base}), clock=FIXED_CLOCK
    )
    eaude_log, eaude_state = run_training(
        build_config(
            {
                "algorithm": "eaude_dqn",
                **base,
                "eaude.population": 1,
                "eaude.tournament": 1,
                "eaude.u_max": 0.0,
            }
        ),
        clock=FIXED_CLOCK,
    )
    elapsed = time.perf_counter() - t0
    csv_equal = dqn_log.to_csv() == eaude_log.to_csv()
    trajectory_equal = [
        e["member_digests"] for e in dqn_log.events if e["kind"] == "target_update"
    ] == [e["member_digests"] for e in eaude_log.events if e["kind"] == "target_update"]
    a = dqn_state.population.members[0].params
    b = eaude_state.population.members[0].params
    final_equal = all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )
    report(
        "reduction: single-member adaptive run is bit-identical to the dense baseline",
        csv_equal and trajectory_equal and final_equal and elapsed < 30.0,
        f"csv={csv_equal} trajectory={trajectory_equal} final={final_equal}, {elapsed:.1f}s",
    )


def test_03_period_and_target_synced_pruning_paths_agree():
    t0 = time.perf_counter()
    base = {"algorithm": "polyprune_dqn", "env": "chain", "seed": 3, "polyprune.period": 500}
    period_log, _ = run_training(build_config(base), clock=FIXED_CLOCK)
    synced_log, _ = run_training(
        build_config({**base, "polyprune.sync_to_target_updates": True}), clock=FIXED_CLOCK
    )
    elapsed = time.perf_counter() - t0
    period_masks = [(e["step"], e["mask_digest"]) for e in period_log.events if e["kind"] == "prune"]
    synced_masks = [(e["step"], e["mask_digest"]) for e in synced_log.events if e["kind"] == "prune"]
    report(
        "equivalence: period-triggered and target-synced pruning produce identical masks",
        len(period_masks) == 40 and period_masks == synced_masks and elapsed < 60.0,
        f"{len(period_masks)} events, {elapsed:.1f}s",
    )


def test_04_polynomial_schedule_exactness():
    cfg = PolyPruneConfig(
        final_sparsity=0.95, exponent=3.0, t_start=20, t_end=80, t_final=10_000, pruning_period=10
    )
    zero_before = all(poly_schedule(t, cfg) == 0.0 for t in (0, 10, 20))
    final_after = all(poly_schedule(t, cfg) == 0.95 for t in (80, 5_000, 10_000))
    grid = [poly_schedule(t, cfg) for t in np.linspace(0, 10_000, 10_000)]
    monotone = all(b >= a for a, b in zip(grid, grid[1:]))
    midpoint = abs(poly_schedule(50, cfg) - 0.83125) < 1e-12
    report(
        "schedule exactness: clip endpoints, monotonicity, hand midpoint",
        zero_before and final_after and monotone and midpoint,
        f"mid={poly_schedule(50, cfg)!r}",
    )


def test_05_sparsity_sampler_bounds_and_uniform_law():
    t0 = time.perf_counter()
    cfg = EauDeConfig(u_max=3.0, s_max=0.01, population_size=5, tournament_size=3, t_final=200)
    rng = RngStream(2025, "acceptance/sampler")
    in_bounds = True
    for _ in range(10_000):
        s = float(rng.uniform(0.0, 0.999))
        t = int(rng.integers(0, 199))
        t_next = int(rng.integers(t + 1, 201))
        out = sample_sparsity(s, t, t_next, cfg, rng)
        if not (s <= out <= s + (1.0 - s) * cfg.s_max and out < 1.0):
            in_bounds = False
            break
    # fixed inputs chosen so the cap never binds: increment is linear_term * U
    flat = EauDeConfig(u_max=3.0, s_max=0.01, population_size=5, tournament_size=3, t_final=100_000)
    s, t, t_next = 0.3, 0, 10
    linear_term = (1.0 - s) / (flat.t_final - t) * (t_next - t)
    draws = np.sort(
        np.array([sample_sparsity(s, t, t_next, flat, rng) - s for _ in range(10_000)])
        / (linear_term * flat.u_max)
    )
    n = draws.size
    ks = max(np.max(np.arange(1, n + 1) / n - draws), np.max(draws - np.arange(0, n) / n))
    ks_ok = ks < 1.62762 / math.sqrt(n)  # alpha = 0.01
    elapsed = time.perf_counter() - t0
    report(
        "sampler bounds and pre-cap uniformity",
        in_bounds and ks_ok and elapsed < 10.0,
        f"KS {ks:.4f} vs {1.62762 / math.sqrt(n):.4f}, {elapsed:.1f}s",
    )


def test_06_selection_mechanics(eaude_chain_runs):
    rng = RngStream(600, "acceptance/selection")
    argmin_ok = True
    for _ in range(1_000):
        k = int(rng.integers(1, 10))
        losses = np.round(rng.uniform(0.0, 1.0, size=k), 1)
        best, best_idx = np.inf, -1
        for i, value in enumerate(losses):
            if value < best:
                best, best_idx = value, i
        if select_target(losses) != best_idx:
            argmin_ok = False
            break
    full = EauDeConfig(u_max=3.0, s_max=0.01, population_size=5, tournament_size=5, t_final=100)
    sel = exploitation([0.5, 0.2, 0.9, 0.4, 0.7], 1, full, RngStream(0, "acceptance/tourney"))
    all_champion = sel == [1, 1, 1, 1, 1]
    champion_preserved = True
    events_seen = 0
    for log, _ in eaude_chain_runs["results"]:
        for event in log.events:
            if event["kind"] == "exploration":
                events_seen += 1
                if event["champion_digest_pre"] != event["slot0_digest_post"]:
                    champion_preserved = False
    report(
        "selection mechanics: argmin scan, exhaustive tournament, champion preservation",
        argmin_ok and all_champion and champion_preserved and events_seen > 0,
        f"{events_seen} exploration events checked bit-exact",
    )


def test_07_lineage_monotonicity_and_loss_resets(eaude_chain_runs):
    monotone = True
    survivors_stable = True
    losses_zero = True
    for log, _ in eaude_chain_runs["results"]:
        reset_steps = {e["step"] for e in log.events if e["kind"] == "loss_reset"}
        for event in log.events:
            if event["kind"] != "exploration":
                continue
            for rec in event["records"]:
                if rec["duplicated"]:
                    if rec["sparsity"] < rec["source_sparsity"]:
                        monotone = False
                else:
                    if rec["sparsity"] != rec["source_sparsity"]:
                        survivors_stable = False
        for rec in log.records:
            if rec.step in reset_steps and any(v != 0.0 for v in rec.losses[0]):
                losses_zero = False
    report(
        "lineage sparsity never decreases; losses exactly zero after selection events",
        monotone and survivors_stable and losses_zero,
    )


def test_08_desk_scale_value_learning(dqn_chain_runs, eaude_chain_runs, chain_vi):
    dqn_optimal = sum(
        policy_matches_oracle(chain_vi, _greedy_actions(state.population.members[0]))
        for _, state in dqn_chain_runs["results"]
    )
    eaude_optimal = 0
    sparse_enough = 0
    champion_sparsities = []
    for _, state in eaude_chain_runs["results"]:
        champion = state.population.members[state.population.champion_index]
        if policy_matches_oracle(chain_vi, _greedy_actions(champion)):
            eaude_optimal += 1
        champion_sparsities.append(round(champion.sparsity, 3))
        if champion.sparsity > 0.30:
            sparse_enough += 1
    elapsed = dqn_chain_runs["elapsed"] + eaude_chain_runs["elapsed"]
    report(
        "desk-scale value learning: optimal policies and champion sparsity > 0.30",
        dqn_optimal >= 4 and eaude_optimal >= 4 and sparse_enough >= 4 and elapsed < 300.0,
        f"dqn optimal {dqn_optimal}/5, adaptive optimal {eaude_optimal}/5, "
        f"sparsity>0.30 on {sparse_enough}/5 (champions {champion_sparsities}), {elapsed:.0f}s",
    )


def test_09_desk_scale_actor_critic_learning(sac_pendulum_runs):
    successes = 0
    details = []
    for summary in sac_pendulum_runs["summaries"]:
        reached = summary["best_eval"] >= -300.0
        sparse = all(s > 0.20 for s in summary["champion_sparsities"])
        successes += reached and sparse
        details.append(
            f"seed {summary['seed']}: best {summary['best_eval']:.0f}, "
            f"champions {[round(s, 3) for s in summary['champion_sparsities']]}"
        )
    elapsed = sac_pendulum_runs["elapsed"]
    report(
        "desk-scale actor-critic learning: return >= -300 with critic champion sparsity > 0.20",
        successes >= 3 and elapsed < 900.0,
        f"{successes}/5 seeds ({'; '.join(details)}), {elapsed:.0f}s",
    )


def test_10_iqm_and_aggregation():
    rng = RngStream(1010, "acceptance/iqm")
    exact = True
    for _ in range(1_000):
        n = int(rng.integers(1, 50))
        values = rng.normal(size=n)
        ordered = sorted(values.tolist())
        drop = int(math.floor(0.25 * n))
        kept = ordered[drop : n - drop]
        if iqm(values) != sum(kept) / len(kept):
            exact = False
            break
    lo, hi = bootstrap_iqm_interval([0.8] * 5)
    zero_width = lo == hi == iqm([0.8] * 5)
    report("iqm matches brute-force trim-and-mean exactly; identical runs collapse the interval",
           exact and zero_width)


def test_11_persistence_and_determinism(tmp_path):
    cfg = build_config({"algorithm": "eaude_dqn", "env": "chain", "seed": 13, "run.total_steps": 2_000})

    full_log, full_state = run_training(cfg, clock=FIXED_CLOCK)
    path = tmp_path / "state.ckpt"
    save_checkpoint(full_state, path)
    round_trip = encode_payload(state_to_payload(load_checkpoint(path))) == path.read_bytes()

    _, half_state = run_training(cfg, until_step=1_000, clock=FIXED_CLOCK)
    half_path = tmp_path / "half.ckpt"
    save_checkpoint(half_state, half_path)
    resumed_log, resumed_state = run_training(cfg, resume=load_checkpoint(half_path), clock=FIXED_CLOCK)
    tail = [line for line in full_log.to_csv().splitlines()[1:]][-len(resumed_log.records):]
    resume_equals_continue = (
        resumed_log.to_csv().splitlines()[1:] == tail
        and encode_payload(state_to_payload(resumed_state)) == encode_payload(state_to_payload(full_state))
    )

    single, _ = run_training(cfg, threads=1, clock=FIXED_CLOCK)
    multi, _ = run_training(cfg, threads=4, clock=FIXED_CLOCK)
    thread_identical = single.to_csv() == multi.to_csv() == full_log.to_csv()

    report(
        "persistence: bit-exact round trip, resume equals continue, thread-count invariance",
        round_trip and resume_equals_continue and thread_identical,
        f"round_trip={round_trip} resume={resume_equals_continue} threads={thread_identical}",
    )
