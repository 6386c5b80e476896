"""Resume-equals-continue and thread-count invariance for all six algorithms.

Each algorithm runs a tiny config (600 steps, events every 100 steps, a
replay ring that wraps, evals every 300 steps). The run is cut at steps 100,
200 and 301, carried through an encode/decode round trip of its checkpoint
payload and resumed; the resumed run must log the same rows and events as the
uninterrupted run after the cut and end in the same checkpoint bytes. A run
with threads=3 must match the single-threaded run in every output.
"""

import json

import pytest

from eaudeqn.checkpoint import decode_payload, encode_payload, payload_to_state, state_to_payload
from eaudeqn.config import ALGORITHMS, SAC_FAMILY, build_config
from eaudeqn.training import run_training

FIXED_CLOCK = lambda: 0.0  # noqa: E731
SPLITS = (100, 200, 301)


def tiny_config(algorithm: str):
    overrides = {
        "algorithm": algorithm,
        "env": "pendulum" if algorithm in SAC_FAMILY else "chain",
        "seed": 17,
        "run.total_steps": 600,
        "replay.capacity": 250,
        "replay.warmup": 60,
        "eval.period": 300,
        "eval.episodes": 1,
        "log.period": 50,
    }
    overrides["sac.prune_period" if algorithm in SAC_FAMILY else "run.target_period"] = 100
    if algorithm.startswith("eaude"):
        overrides.update({"eaude.population": 3, "eaude.tournament": 2, "eaude.s_max": 0.2, "eaude.u_max": 30.0})
    return build_config(overrides)


def outputs(log, state, after: int = 0):
    """The CSV rows and event lines past step `after`, and the final checkpoint bytes."""
    rows = [line for line in log.to_csv().splitlines()[1:] if int(line.split(",")[0]) > after]
    events = [json.dumps(e, sort_keys=True) for e in log.events if e["step"] > after]
    return rows, events, encode_payload(state_to_payload(state))


@pytest.fixture(scope="module", params=ALGORITHMS)
def uninterrupted(request):
    config = tiny_config(request.param)
    log, state = run_training(config, clock=FIXED_CLOCK)
    return config, log, state


def test_resume_equals_continue(uninterrupted):
    config, full_log, full_state = uninterrupted
    for split in SPLITS:
        _, half = run_training(config, until_step=split, clock=FIXED_CLOCK)
        restored = payload_to_state(decode_payload(encode_payload(state_to_payload(half))), adopt_buffer=True)
        log, state = run_training(config, resume=restored, clock=FIXED_CLOCK)
        assert outputs(log, state) == outputs(full_log, full_state, after=split), f"split at {split}"


def test_thread_count_invariance(uninterrupted):
    config, full_log, full_state = uninterrupted
    log, state = run_training(config, threads=3, clock=FIXED_CLOCK)
    assert outputs(log, state) == outputs(full_log, full_state)
