import numpy as np
import pytest

from eaudeqn.checkpoint import (
    decode_payload,
    encode_payload,
    load_checkpoint,
    payload_to_state,
    save_checkpoint,
    state_to_payload,
)
from eaudeqn.config import build_config
from eaudeqn.errors import CheckpointError, DataFormatError
from eaudeqn.training import run_training

FIXED_CLOCK = lambda: 0.0  # noqa: E731


def chain_config(algorithm="eaude_dqn", total=1_200, seed=5, **extra):
    overrides = {"algorithm": algorithm, "env": "chain", "seed": seed, "run.total_steps": total}
    overrides.update(extra)
    return build_config(overrides)


class TestCodec:
    def test_round_trips_every_type(self):
        payload = {
            "none": None,
            "flag": True,
            "small": -7,
            "big": (1 << 127) + 12345,  # PCG64-sized state integer
            "pi": 3.141592653589793,
            "nan": float("nan"),
            "text": "labels/with/slashes",
            "blob": b"\x00\x01\xff",
            "nested": {"list": [1, 2.5, "x", None, [True]], "arr": np.arange(6).reshape(2, 3)},
            "floats": np.array([0.1, -0.0, np.inf]),
            "bools": np.array([True, False]),
        }
        out = decode_payload(encode_payload(payload))
        assert out["none"] is None and out["flag"] is True
        assert out["small"] == -7 and out["big"] == payload["big"]
        assert out["pi"] == payload["pi"]
        assert np.isnan(out["nan"])
        assert out["text"] == payload["text"] and out["blob"] == payload["blob"]
        assert out["nested"]["list"] == [1, 2.5, "x", None, [True]]
        assert np.array_equal(out["nested"]["arr"], payload["nested"]["arr"])
        assert np.array_equal(out["floats"], payload["floats"], equal_nan=True)
        assert out["bools"].dtype == np.bool_

    def test_truncation_is_a_parse_error_with_offset(self):
        blob = encode_payload({"a": np.arange(10)})
        with pytest.raises(DataFormatError) as info:
            decode_payload(blob[:-3])
        assert info.value.byte_offset is not None

    def test_corrupted_length_field_rejected_without_partial_state(self):
        blob = bytearray(encode_payload({"a": 1, "z": np.arange(4)}))
        # inflate the final array's byte-length field (last 8 bytes before payload)
        idx = blob.rindex(b"A")
        length_at = idx + 1 + 4 + 2 + 1 + 8  # tag, dtype len, dtype '<i8', ndim, shape
        blob[length_at : length_at + 8] = (1 << 40).to_bytes(8, "little")
        with pytest.raises(DataFormatError):
            decode_payload(bytes(blob))

    def test_bad_magic_rejected(self):
        with pytest.raises(DataFormatError):
            decode_payload(b"NOTACKPT" + b"\x00" * 16)


class TestStateRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        cfg = chain_config(total=800)
        _, state = run_training(cfg, clock=FIXED_CLOCK)
        path = tmp_path / "state.ckpt"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        # byte-level: re-serializing the restored state reproduces the file
        assert encode_payload(state_to_payload(restored)) == path.read_bytes()

    def test_sac_state_round_trip(self, tmp_path):
        cfg = build_config(
            {
                "algorithm": "eaude_sac",
                "env": "pendulum",
                "seed": 3,
                "run.total_steps": 400,
                "replay.warmup": 200,
                "eaude.population": 2,
                "eaude.tournament": 1,
            }
        )
        _, state = run_training(cfg, clock=FIXED_CLOCK)
        path = tmp_path / "sac.ckpt"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        assert encode_payload(state_to_payload(restored)) == path.read_bytes()

    def test_resume_equals_continue(self, tmp_path):
        cfg = chain_config(total=2_000)
        full_log, full_state = run_training(cfg, clock=FIXED_CLOCK)

        _, half_state = run_training(cfg, until_step=1_000, clock=FIXED_CLOCK)
        path = tmp_path / "half.ckpt"
        save_checkpoint(half_state, path)
        resumed_log, resumed_state = run_training(cfg, resume=load_checkpoint(path), clock=FIXED_CLOCK)

        tail = [r for r in full_log.records if r.step > 1_000]
        assert [r.step for r in resumed_log.records] == [r.step for r in tail]
        full_csv_tail = full_log.to_csv().splitlines()[1:]
        resumed_csv = resumed_log.to_csv().splitlines()[1:]
        assert resumed_csv == full_csv_tail[-len(resumed_csv):]
        assert encode_payload(state_to_payload(resumed_state)) == encode_payload(
            state_to_payload(full_state)
        )

    def test_digest_mismatch_refuses_resume(self, tmp_path):
        cfg = chain_config(total=800)
        _, state = run_training(cfg, until_step=500, clock=FIXED_CLOCK)
        other = chain_config(total=800, **{"run.batch_size": 64})
        with pytest.raises(CheckpointError):
            run_training(other, resume=state, clock=FIXED_CLOCK)

    def test_tampered_config_text_rejected(self, tmp_path):
        cfg = chain_config(total=600)
        _, state = run_training(cfg, until_step=500, clock=FIXED_CLOCK)
        payload = state_to_payload(state)
        payload["config_text"] = payload["config_text"].replace("seed = 5", "seed = 6")
        with pytest.raises(CheckpointError):
            payload_to_state(payload)

    def test_in_memory_restore_does_not_share_the_buffer(self):
        cfg = chain_config(total=600)
        _, state = run_training(cfg, until_step=300, clock=FIXED_CLOCK)
        before = encode_payload(state_to_payload(state))
        restored = payload_to_state(state_to_payload(state))
        for name in ("_states", "_next_states", "_actions", "_rewards", "_dones"):
            assert not np.shares_memory(getattr(restored.buffer, name), getattr(state.buffer, name))
        run_training(cfg, resume=restored, clock=FIXED_CLOCK)  # pushes into the restored rings
        assert encode_payload(state_to_payload(state)) == before

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("states", lambda buf: buf["states"][:10]),
            ("actions", lambda buf: buf["actions"].astype(np.float64)),
            ("insert_count", lambda buf: -5),
            ("capacity", lambda buf: buf["capacity"] + 1),
        ],
    )
    def test_malformed_replay_buffer_rejected(self, field, bad):
        cfg = chain_config(algorithm="dqn", total=800)
        _, state = run_training(cfg, until_step=600, clock=FIXED_CLOCK)
        payload = state_to_payload(state)
        payload["buffer"] = dict(payload["buffer"], **{field: bad(payload["buffer"])})
        with pytest.raises(CheckpointError, match="replay"):
            payload_to_state(payload)


def _first_entry(value):
    """A transform: the array with its first entry set to value."""

    def transform(arr):
        arr = arr.copy()
        arr.flat[0] = value
        return arr

    return transform


M0 = ("population", "members", 0)
S0, S1 = ("twin", "sides", 0, "members"), ("twin", "sides", 1, "members")
# case -> (payload's algorithm, path to a payload entry, its replacement given the old value, error match)
MALFORMED_NETWORKS = {
    "weight_cut_to_3_rows": ("dqn", (*M0, "params", "weights", 0), lambda w: w[:3],
                             r"population\.members\[0\]\.params\.weights\[0\]: expected float64\[32, 10\], "
                             r"got float64\[3, 10\]"),
    "weight_float32": ("dqn", (*M0, "params", "weights", 1), lambda w: w.astype(np.float32), r"weights\[1\].*got float32"),
    "missing_bias": ("dqn", (*M0, "params", "biases"), lambda bs: bs[:2], "2 arrays for 3 layers"),
    "layer_specs": ("dqn", (*M0, "params", "specs", 0, 1), lambda width: 16, "layer specs"),
    "adam_moment": ("dqn", (*M0, "optimizer", "v", "biases", 2), lambda b: b[:1], r"optimizer\.v\.biases\[2\]"),
    "shared_target": ("dqn", ("population", "target_params", "weights", 1), lambda w: w[:3],
                      r"population\.target_params\.weights\[1\]"),
    "shared_target_missing": ("dqn", ("population", "target_params"), lambda t: None, "one shared target"),
    "mask_shape": ("dqn", (*M0, "mask", "layers", 1), lambda m: m[:3], r"mask\.layers\[1\]"),
    "mask_not_binary": ("dqn", (*M0, "mask", "layers", 1), _first_entry(0.5),
                        r"population\.members\[\*\]\.mask\.layers\[1\]: 0\.5 at \[0, 0, 0\] is not 0 or 1"),
    "shared_target_mask_not_binary": ("dqn", ("population", "target_mask", "layers", 0), _first_entry(np.nan),
                                      r"population\.target_mask\.layers\[0\]: nan at \[0, 0\]"),
    "negative_step": ("dqn", ("step",), lambda step: -1, "step -1 is negative"),
    "negative_adam_step_count": ("dqn", (*M0, "optimizer", "step_count"), lambda n: -2,
                                 r"members\[0\]\.optimizer\.step_count: -2 is negative"),
    "population_missing": ("dqn", ("population",), lambda pop: None, "population: missing"),
    "member_missing": ("eaude_dqn", ("population", "members"), lambda ms: ms[:4], "4 members, the config has 5"),
    "champion_index_high": ("eaude_dqn", ("population", "champion_index"), lambda i: 5, "champion_index 5"),
    "champion_index_negative": ("eaude_dqn", ("population", "champion_index"), lambda i: -1,
                                "champion_index: -1 is negative"),
    "lineage_id_unissued": ("eaude_dqn", ("population", "members", 3, "lineage_id"), lambda i: 10**6,
                            "at or above next_lineage_id"),
    "soft_target_cut": ("eaude_sac", (*S1, 0, "target_params", "weights", 1), lambda w: w[:3],
                        r"twin\.sides\[1\]\.members\[0\]\.target_params\.weights\[1\]"),
    "soft_target_missing": ("eaude_sac", (*S0, 1, "target_params"), lambda t: None, "a soft target per member"),
    "soft_target_mask_not_binary": ("eaude_sac", (*S0, 1, "target_mask", "layers", 2), _first_entry(2.0),
                                    r"sides\[0\]\.members\[\*\]\.target_mask\.layers\[2\]: 2\.0 at \[1, 0, 0\]"),
    "critic_side_missing": ("eaude_sac", ("twin", "sides"), lambda sides: sides[:1], "1 entries, expected 2"),
    "policy_weight": ("eaude_sac", ("policy", "params", "weights", 2), lambda w: w[:1],
                      r"policy\.params\.weights\[2\]: expected float64\[2, 48\]"),
    "policy_mask_not_binary": ("eaude_sac", ("policy", "mask", "layers", 0), _first_entry(-1.0),
                               r"policy\.mask\.layers\[0\]: -1\.0 at \[0, 0\]"),
    "policy_adam_step_count": ("eaude_sac", ("policy", "optimizer", "step_count"), lambda n: -1,
                               r"policy\.optimizer\.step_count: -1 is negative"),
    "population_in_sac": ("eaude_sac", ("population",), lambda pop: {}, "population: not used"),
}


@pytest.fixture(scope="module")
def payload_blobs():
    """Encoded mid-run payloads, one per algorithm the malformed cases use."""
    configs = {
        "dqn": chain_config(algorithm="dqn", total=800),
        "eaude_dqn": chain_config(algorithm="eaude_dqn", total=800, **{"run.target_period": 250}),
        "eaude_sac": build_config({"algorithm": "eaude_sac", "env": "pendulum", "seed": 3, "run.total_steps": 400,
                                   "replay.warmup": 200, "sac.prune_period": 100, "eaude.population": 2,
                                   "eaude.tournament": 1}),
    }
    return {
        name: encode_payload(state_to_payload(run_training(cfg, until_step=300 if cfg.is_sac else 600,
                                                           clock=FIXED_CLOCK)[1]))
        for name, cfg in configs.items()
    }


DROP = object()  # a replacement that deletes the entry

# case -> (payload's algorithm, path to a payload entry, its replacement or DROP, error match)
MALFORMED_STATE = {
    "member_weights_missing": ("dqn", (*M0, "params", "weights"), lambda w: DROP,
                               r"population\.members\[0\]\.params: no 'weights' entry"),
    "mask_record_an_int": ("dqn", (*M0, "mask"), lambda m: 7,
                           r"population\.members\[0\]\.mask: expected a record, got int"),
    "last_eval_missing": ("dqn", ("last_eval",), lambda v: DROP, "payload: no 'last_eval' entry"),
    "loss_a_string": ("dqn", (*M0, "cumulated_loss"), lambda v: "0.5",
                      r"members\[0\]\.cumulated_loss: expected float, got str"),
    "config_text_an_int": ("dqn", ("config_text",), lambda t: 5, "config_text: expected str, got int"),
    "replay_ring_missing": ("dqn", ("buffer", "states"), lambda r: DROP, "replay buffer does not fit"),
    "stream_missing": ("dqn", ("streams", "replay"), lambda s: DROP,
                       r"streams: \['behavior', 'env', 'eval', 'explore', 'selection'\] are not this config's"),
    "stream_extra": ("dqn", ("streams",), lambda s: dict(s, actor=s["env"]),
                     r"streams: \['actor', .* are not this config's"),
    "sac_stream_missing": ("eaude_sac", ("streams", "target"), lambda s: DROP, "are not this config's"),
    "stream_state_garbage": ("dqn", ("streams", "env"), lambda s: {"bit_generator": "PCG64", "state": 3},
                             r"streams\['env'\]: not a bit-generator state"),
    "stream_state_a_string": ("dqn", ("streams", "explore"), lambda s: "x", r"streams\['explore'\]"),
    "obs_cut_to_3": ("dqn", ("obs",), lambda o: o[:3], r"obs: expected float64\[10\], got float64\[3\]"),
    "obs_float32": ("eaude_sac", ("obs",), lambda o: o.astype(np.float32),
                    r"obs: expected float64\[3\], got float32\[3\]"),
    "env_state_a_string": ("dqn", ("env_state",), lambda s: "x", r"env_state: expected float64\[1\], got str"),
    "env_state_cut": ("eaude_sac", ("env_state",), lambda s: s[:1],
                      r"env_state: expected float64\[2\], got float64\[1\]"),
    "negative_episode_len": ("dqn", ("episode_len",), lambda n: -1, "episode_len -1 is negative"),
}


def _assert_rejected(algorithm, path, replace, match, payload_blobs):
    payload_to_state(decode_payload(payload_blobs[algorithm]))  # the unmodified payload loads
    payload = decode_payload(payload_blobs[algorithm])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    value = replace(parent[path[-1]])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(CheckpointError, match=match):
        payload_to_state(payload)


@pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
def test_malformed_network_rejected(case, payload_blobs):
    _assert_rejected(*MALFORMED_NETWORKS[case], payload_blobs)


@pytest.mark.parametrize("case", sorted(MALFORMED_STATE))
def test_malformed_state_rejected(case, payload_blobs):
    _assert_rejected(*MALFORMED_STATE[case], payload_blobs)
