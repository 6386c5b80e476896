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
