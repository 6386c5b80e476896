import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
from eaudeqn.training import NumericAbortError, run_training

FIXED_CLOCK = lambda: 0.0  # noqa: E731


def chain_config(algorithm="eaude_dqn", total=1_200, seed=5, **extra):
    overrides = {"algorithm": algorithm, "env": "chain", "seed": seed, "run.total_steps": total}
    overrides.update(extra)
    return build_config(overrides)


# payload leaves, the types a state payload holds: ints beyond 128 bits, every
# float (nan, infinities, -0.0), strings and float64, int64 and uint8 arrays of
# 0-d, empty and multi-dimensional shapes
leaves = (
    st.none()
    | st.integers(-(2**130), 2**130)
    | st.floats()
    | st.text(max_size=8)
    | hnp.arrays(
        st.sampled_from([np.float64, np.int64, np.uint8]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    )
)
payloads = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_size=6,
)


def _same(a, b) -> bool:
    """a and b are equal in type and value, floats and arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    return a == b


class TestCodec:
    def test_round_trips_every_type(self):
        payload = {
            "none": None,
            "small": -7,
            "big": (1 << 127) + 12345,  # PCG64-sized state integer
            "pi": 3.141592653589793,
            "nan": float("nan"),
            "text": "labels/with/slashes",
            "nested": {"list": [1, 2.5, "x", None, [-1]], "arr": np.arange(6).reshape(2, 3)},
            "floats": np.array([0.1, -0.0, np.inf]),
            "bits": np.packbits([1, 0, 1]),
        }
        out = decode_payload(encode_payload(payload))
        assert out["none"] is None
        assert out["small"] == -7 and out["big"] == payload["big"]
        assert out["pi"] == payload["pi"]
        assert np.isnan(out["nan"])
        assert out["text"] == payload["text"]
        assert out["nested"]["list"] == [1, 2.5, "x", None, [-1]]
        assert np.array_equal(out["nested"]["arr"], payload["nested"]["arr"])
        assert np.array_equal(out["floats"], payload["floats"], equal_nan=True)
        assert out["bits"].dtype == np.uint8 and out["bits"].tolist() == [0b1010_0000]

    # a bool is an int and np.float64 a float to isinstance: each would be written as the other type
    @pytest.mark.parametrize(
        "value, kind",
        [(True, "bool"), (np.True_, "bool"), (b"x", "bytes"), (np.int64(1), "int64"), (np.float64(1.0), "float64"),
         ((1, 2), "tuple"), (np.array([True, False]), "a bool array"), (np.zeros(2, np.float32), "a float32 array")],
    )
    def test_encode_refuses_what_a_payload_never_holds(self, value, kind):
        with pytest.raises(CheckpointError, match=f"cannot serialize {kind}"):
            encode_payload({"entry": [value]})

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_round_trip_property(self, payload):
        blob = encode_payload(payload)
        out = decode_payload(blob)
        assert _same(out, payload)
        assert encode_payload(out) == blob

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

    @pytest.mark.parametrize("key, kind", [(b"I\x01\x00\x00\x00\x03", "int"), (b"L\x00\x00\x00\x00", "list")])
    def test_non_string_dict_key_rejected_with_offset(self, key, kind):
        magic = encode_payload({})[:8]
        blob = magic + b"D" + struct.pack("<I", 1) + key + b"N"
        with pytest.raises(DataFormatError, match=f"dict key of type {kind} at byte offset 13") as info:
            decode_payload(blob)
        assert info.value.byte_offset == 13


def _array_header(dtype: bytes, shape: tuple, nbytes: int) -> bytes:
    """The encoding of an array up to its payload: tag, dtype, shape and byte length."""
    return (b"A" + struct.pack("<I", len(dtype)) + dtype + struct.pack(f"<B{len(shape)}q", len(shape), *shape)
            + struct.pack("<Q", nbytes))


_NOT_A_PAYLOAD_ARRAY = "not a float64, int64 or uint8 array at byte offset 13"
# case -> (encoding after the magic, the byte offset the error names, error match)
MALFORMED_HEADERS = {
    "negative_dimensions": (_array_header(b"<f8", (-1, -8), 64) + bytes(64), 41,
                            r"array of shape \[-1, -8\] at byte offset 41: negative dimensions"),
    "product_past_int64": (_array_header(b"<f8", (2**32, 2**32), 0), 41,
                           "array length field 0 != expected 147573952589676412928 at byte offset 41"),
    "too_big_with_no_items": (_array_header(b"<f8", (0, 2**62), 0), 41,
                              r"array of shape \[0, 4611686018427387904\] at byte offset 41: array is too big"),
    # an array is float64, int64 or uint8: any other dtype, numpy's own included, is refused
    "unknown_dtype": (_array_header(b"zz", (1,), 8) + bytes(8), 13, _NOT_A_PAYLOAD_ARRAY),
    "dtype_not_ascii": (_array_header(b"\xff", (1,), 8) + bytes(8), 13, _NOT_A_PAYLOAD_ARRAY),
    "complex_array": (_array_header(b"<c16", (1,), 16) + bytes(16), 13, _NOT_A_PAYLOAD_ARRAY),
    "bool_array": (_array_header(b"|b1", (1,), 1) + bytes(1), 13, _NOT_A_PAYLOAD_ARRAY),
    "string_not_utf8": (b"S\x01\x00\x00\x00\xff", 13, "string that is not UTF-8 at byte offset 13"),
    "dict_key_not_utf8": (b"D\x01\x00\x00\x00S\x01\x00\x00\x00\xffN", 18,
                          "string that is not UTF-8 at byte offset 18"),
    # encodings the encoder never writes: no bool tag B or bytes tag Y, and an
    # int takes its shortest two's complement form
    "bool_byte_two": (b"B\x02", 8, r"unknown tag b'B' at byte offset 8"),
    "bytes_tag": (b"Y\x01\x00\x00\x00x", 8, r"unknown tag b'Y' at byte offset 8"),
    "int_with_a_padding_byte": (b"I\x02\x00\x00\x00\x05\x00", 13,
                                "2-byte int 5 is not in its shortest form at byte offset 13"),
    "int_with_no_bytes": (b"I\x00\x00\x00\x00", 13, "0-byte int 0 is not in its shortest form at byte offset 13"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_a_parse_error_with_offset(case):
    encoding, offset, match = MALFORMED_HEADERS[case]
    with pytest.raises(DataFormatError, match=match) as info:
        decode_payload(encode_payload({})[:8] + encoding)
    assert info.value.byte_offset == offset


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

    def test_numeric_abort_state_loads_and_resumes(self, tmp_path):
        cfg = chain_config(total=1_000, **{"run.target_period": 250})
        _, state = run_training(cfg, until_step=600, clock=FIXED_CLOCK)
        state.population.members[2].params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericAbortError) as info:
            run_training(cfg, resume=state, clock=FIXED_CLOCK)
        path = tmp_path / "abort.ckpt"
        save_checkpoint(info.value.state, path)
        restored = load_checkpoint(path)
        assert encode_payload(state_to_payload(restored)) == path.read_bytes()
        with pytest.raises(NumericAbortError):
            run_training(cfg, resume=restored, clock=FIXED_CLOCK)

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

    def test_unknown_payload_entry_rejected(self, payload_blobs):
        payload = dict(decode_payload(payload_blobs["dqn"]), extra=None)
        with pytest.raises(CheckpointError, match="payload: unknown entry 'extra'"):
            payload_to_state(payload)

    def test_buffer_record_holds_the_written_rows(self, tmp_path):
        cfg = chain_config(algorithm="dqn", total=800, **{"replay.capacity": 400, "replay.warmup": 200})
        for step in (300, 600):  # before the 400-row ring fills, and after it wraps
            _, state = run_training(cfg, until_step=step, clock=FIXED_CLOCK)
            record = state_to_payload(state)["buffer"]
            rings = ("states", "actions", "rewards", "dones")
            assert {key: len(record[key]) for key in rings} == dict.fromkeys(rings, min(step, 400))
            # next states only where the next slot's state is not the same (an episode end or the last slot)
            assert len(record["next_states"]) == len(record["next_state_rows"]) < min(step, 400) // 2
            save_checkpoint(state, tmp_path / "state.ckpt")
            restored = load_checkpoint(tmp_path / "state.ckpt")
            assert restored.buffer.capacity == 400 and len(restored.buffer._states) == 400
            before, after = state.buffer.snapshot(), restored.buffer.snapshot()
            assert [t.reward for t in after] == [t.reward for t in before]
            assert np.array_equal([t.state for t in after], [t.state for t in before])
            assert np.array_equal([t.next_state for t in after], [t.next_state for t in before])

    @pytest.mark.parametrize(
        "algorithm, env, overrides",
        [
            ("dqn", "chain", {"run.total_steps": 700}),  # a partial ring
            ("dqn", "cartpole", {"run.total_steps": 1_300, "replay.capacity": 500, "replay.warmup": 200}),  # wrapped
        ],
    )
    def test_next_state_rows_are_the_episode_ends(self, monkeypatch, algorithm, env, overrides):
        from eaudeqn.envs import make_env
        from eaudeqn.replay import ReplayBuffer

        pushed = []
        push = ReplayBuffer.push
        monkeypatch.setattr(ReplayBuffer, "push", lambda buf, t: (pushed.append(t), push(buf, t)))
        cfg = build_config({"algorithm": algorithm, "env": env, "seed": 4, **overrides})
        _, state = run_training(cfg, clock=FIXED_CLOCK)
        horizon, capacity, steps = make_env(env).spec.horizon, cfg.buffer_capacity, len(pushed)
        ends, length = [], 0
        for step, t in enumerate(pushed):  # the training loop's episode bookkeeping
            length += 1
            if t.done or length >= horizon:
                ends.append(step)
                length = 0
        # an episode end is left out only where the next episode starts in the state this one ended in: on
        # chain, a 100-step episode that ends back in state 0; on cart-pole, whose resets are random, never
        same = [s for s in ends if s + 1 < steps and pushed[s].next_state.tobytes() == pushed[s + 1].state.tobytes()]
        assert all(pushed[s].next_state[0] == 1.0 and not pushed[s].done for s in same) if env == "chain" else not same
        kept = {s % capacity for s in ends if s >= steps - capacity and s not in same}  # the steps the ring holds
        expected = sorted(kept | {(steps - 1) % capacity})  # and the last written slot
        rows = state_to_payload(state)["buffer"]["next_state_rows"]
        assert len(ends) > 5 and rows.dtype == np.int64
        assert rows.tolist() == expected

    @pytest.mark.parametrize(
        "case, bad, match",
        [
            ("rows_unsorted", lambda b: dict(b, next_state_rows=b["next_state_rows"][::-1]),
             r"next_state_rows: slot \d+ follows \d+, not increasing"),
            ("row_twice", lambda b: dict(b, next_state_rows=np.insert(b["next_state_rows"], 1, b["next_state_rows"][0]),
                                         next_states=np.insert(b["next_states"], 1, b["next_states"][0], axis=0)),
             r"next_state_rows: slot (\d+) follows \1, not increasing"),
            ("row_negative", lambda b: dict(b, next_state_rows=np.insert(b["next_state_rows"], 0, -1),
                                            next_states=np.insert(b["next_states"], 0, 0.0, axis=0)),
             r"next_state_rows: slot -1 outside \[0, 600\)"),
            ("row_unwritten", lambda b: dict(b, next_state_rows=np.append(b["next_state_rows"], 600),
                                             next_states=np.append(b["next_states"], np.zeros((1, 10)), axis=0)),
             r"next_state_rows: slot 600 outside \[0, 600\)"),
            ("rows_int32", lambda b: dict(b, next_state_rows=b["next_state_rows"].astype(np.int32)),
             r"next_state_rows: expected int64\[k\], got int32\["),
            ("rows_a_list", lambda b: dict(b, next_state_rows=b["next_state_rows"].tolist()),
             r"next_state_rows: expected int64\[k\], got list"),
            ("next_states_a_row_short", lambda b: dict(b, next_states=b["next_states"][:-1]),
             r"replay ring next_states: expected float64\[\d+, 10\], got float64\[\d+, 10\]"),
            ("next_states_float32", lambda b: dict(b, next_states=b["next_states"].astype(np.float32)),
             r"replay ring next_states: expected float64\[\d+, 10\], got float32"),
            ("next_states_the_whole_ring", lambda b: dict(b, next_states=np.zeros((10_000, 10))),
             r"replay ring next_states: expected float64\[\d+, 10\], got float64\[10000, 10\]"),
            ("last_written_slot_missing", lambda b: dict(b, next_state_rows=b["next_state_rows"][:-1],
                                                         next_states=b["next_states"][:-1]),
             "next_state_rows: the last written slot 599 of a partial ring is missing"),
        ],
    )
    def test_malformed_next_states_rejected(self, payload_blobs, case, bad, match):
        payload = decode_payload(payload_blobs["dqn"])  # step 600 of a 10,000-row ring
        assert payload["buffer"]["next_state_rows"][-1] == 599 and len(payload["buffer"]["next_state_rows"]) > 2
        payload["buffer"] = bad(payload["buffer"])
        with pytest.raises(CheckpointError, match=match):
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
            ("capacity", lambda buf: len(buf["rewards"]) + 1),
            # at step 600 a ring holds its 600 written rows, not the whole 10,000-row ring (the EAUDECK3 layout)
            pytest.param("states", lambda buf: np.resize(buf["states"], (10_000, 10)), id="states_of_the_whole_ring"),
            pytest.param("rewards", lambda buf: buf["rewards"][:-1], id="rewards_one_row_short"),
        ],
    )
    def test_malformed_replay_buffer_rejected(self, field, bad):
        cfg = chain_config(algorithm="dqn", total=800)
        _, state = run_training(cfg, until_step=600, clock=FIXED_CLOCK)
        payload = state_to_payload(state)
        # the record holds only the rings: the config fixes the capacity and the step the insert count
        ring = rf"replay ring {field}: expected \w+\[600\b"  # each ring holds the 600 rows written
        match = ring if field in payload["buffer"] else f"buffer: unknown entry '{field}'"
        payload["buffer"] = dict(payload["buffer"], **{field: bad(payload["buffer"])})
        with pytest.raises(CheckpointError, match=match):
            payload_to_state(payload)


def _entry(index, value):
    """A transform: the array with its entry at flat index `index` set to value."""

    def transform(arr):
        arr = arr.copy()
        arr[index] = value
        return arr

    return transform


def _extra(key, value):
    """A transform: the record with one more entry."""
    return lambda record: dict(record, **{key: value})


P = ("population",)
T0, T1 = ("twin", 0), ("twin", 1)
# case -> (payload's algorithm, path to a payload entry, its replacement given the old value, error match).
# A population is stored as its stack: K=1 for dqn, 5 for eaude_dqn and 2 per critic side in the eaude_sac
# payload. Its params, Adam moments and soft targets are float64 (K, P): P=1474 for a dqn member, 2641 for a
# pendulum critic and 2642 for the actor. Its mask is the packed bits of its 0/1 entries, uint8 (K, 176) for
# a dqn member's 1408 weights. A soft target is used under its member's mask and the actor is never pruned, so
# neither mask is stored: a record holding one is refused.
MALFORMED_NETWORKS = {
    "weight_cut_to_3_rows": ("dqn", (*P, "params"), lambda p: p[:, :3],
                             r"population\.params: expected float64\[1, 1474\], got float64\[1, 3\]"),
    "weight_float32": ("dqn", (*P, "params"), lambda p: p.astype(np.float32),
                       r"population\.params: expected float64\[1, 1474\], got float32\[1, 1474\]"),
    "missing_bias": ("dqn", (*P, "params"), lambda p: p[:, :1408],
                     r"params: expected float64\[1, 1474\], got float64\[1, 1408\]"),
    "layer_specs": ("dqn", P, _extra("specs", [[10, 16, "relu"]]), "population: unknown entry 'specs'"),
    "adam_moment": ("dqn", (*P, "optimizer", "v"), lambda v: v[:, :1],
                    r"population\.optimizer\.v: expected float64\[1, 1474\]"),
    "shared_target": ("dqn", (*P, "target_params"), lambda t: t.reshape(2, -1),
                      r"population\.target_params: expected float64\[1474\], got float64\[2, 737\]"),
    "shared_target_missing": ("dqn", (*P, "target_params"), lambda t: None, "one shared target"),
    "mask_shape": ("dqn", (*P, "mask"), lambda m: m[:, :3],
                   r"population\.mask: expected uint8\[1, 176\], got uint8\[1, 3\]"),
    "mask_one_byte_long": ("dqn", (*P, "target_mask"), lambda m: np.append(m, np.uint8(0)),
                           r"population\.target_mask: expected uint8\[176\], got uint8\[177\]"),
    # a float64 0/1 record (the EAUDECK4 layout) is refused, whatever values it holds
    "mask_not_binary": ("dqn", (*P, "mask"),
                        lambda m: _entry((0, 400), 0.5)(np.unpackbits(m, axis=-1).astype(np.float64)),
                        r"population\.mask: expected uint8\[1, 176\], got float64\[1, 1408\]"),
    "shared_target_mask_not_binary": ("dqn", (*P, "target_mask"),
                                      lambda m: _entry(0, np.nan)(np.unpackbits(m).astype(np.float64)),
                                      r"population\.target_mask: expected uint8\[176\], got float64\[1408\]"),
    # a 5-unit hidden layer on chain has 60 weights: 8 bytes, of which the last 4 bits are padding
    "mask_padding_bit_set": ("narrow", (*P, "mask"), _entry((0, -1), 0b0000_0001),
                             r"population\.mask: padding bits set past the last of 60 weights"),
    "shared_target_mask_padding_bits_set": ("narrow", (*P, "target_mask"), _entry(-1, 0b1111_1111),
                                            r"population\.target_mask: padding bits set past the last of 60"),
    "negative_step": ("dqn", ("step",), lambda step: -1, "step: -1 is negative"),
    "negative_adam_step_count": ("dqn", (*P, "optimizer", "step_count"), _entry(0, -2),
                                 r"population\.optimizer\.step_count\[0\]: -2 is negative"),
    "population_missing": ("dqn", P, lambda pop: None, "population: missing"),
    "member_missing": ("eaude_dqn", (*P, "params"), lambda p: p[:4],
                       r"population\.params: expected float64\[5, 1474\], got float64\[4, 1474\]"),
    "champion_index_high": ("eaude_dqn", (*P, "champion_index"), lambda i: 5, "champion_index 5"),
    "champion_index_negative": ("eaude_dqn", (*P, "champion_index"), lambda i: -1, "champion_index: -1 is negative"),
    "lineage_id_unissued": ("eaude_dqn", (*P, "lineage_id"), _entry(3, 10**6),
                            r"population\.lineage_id\[3\]: 1000000 is at or above next_lineage_id"),
    "soft_target_cut": ("eaude_sac", (*T1, "soft_targets"), lambda t: t[:, :3],
                        r"twin\[1\]\.soft_targets: expected float64\[2, 2641\], got float64\[2, 3\]"),
    "soft_target_missing": ("eaude_sac", (*T0, "soft_targets"), lambda t: None, "a soft target per member"),
    "soft_target_mask_not_binary": ("eaude_sac", T0, lambda side: dict(side, target_mask=np.full((2, 2544), 2.0)),
                                    r"twin\[0\]: this config's population has a soft target per member and no other"),
    "critic_side_missing": ("eaude_sac", ("twin",), lambda sides: sides[:1], "twin: 1 sides, expected 2"),
    "policy_weight": ("eaude_sac", ("policy", "params"), lambda p: p[:1],
                      r"policy\.params: expected float64\[2642\], got float64\[1\]"),
    "policy_mask_not_binary": ("eaude_sac", ("policy",), _extra("mask", _entry(0, -1.0)(np.ones(2544))),
                               "policy: unknown entry 'mask'"),
    "policy_adam_step_count": ("eaude_sac", ("policy", "optimizer", "step_count"), lambda n: -1,
                               r"policy\.optimizer\.step_count: -1 is negative"),
    "population_in_sac": ("eaude_sac", P, lambda pop: {}, "population: not used"),
    # each (K, ...) entry of a stack one row short: 4 rows for eaude_dqn's 5 members, 1 for a critic side's 2
    "mask_a_row_short": ("eaude_dqn", (*P, "mask"), lambda m: m[:4],
                         r"population\.mask: expected uint8\[5, 176\], got uint8\[4, 176\]"),
    "adam_m_a_row_short": ("eaude_dqn", (*P, "optimizer", "m"), lambda m: m[:4],
                           r"population\.optimizer\.m: expected float64\[5, 1474\], got float64\[4, 1474\]"),
    "adam_v_a_row_short": ("eaude_dqn", (*P, "optimizer", "v"), lambda v: v[:4],
                           r"population\.optimizer\.v: expected float64\[5, 1474\], got float64\[4, 1474\]"),
    "adam_step_counts_a_row_short": ("eaude_dqn", (*P, "optimizer", "step_count"), lambda n: n[:4],
                                     r"population\.optimizer\.step_count: expected int64\[5\], got int64\[4\]"),
    "losses_a_row_short": ("eaude_dqn", (*P, "cumulated_loss"), lambda v: v[:4],
                           r"population\.cumulated_loss: expected float64\[5\], got float64\[4\]"),
    "lineage_ids_a_row_short": ("eaude_dqn", (*P, "lineage_id"), lambda i: i[:4],
                                r"population\.lineage_id: expected int64\[5\], got int64\[4\]"),
    "mask_targets_a_row_short": ("eaude_dqn", (*P, "mask_target"), lambda t: t[:4],
                                 r"population\.mask_target: expected float64\[5\], got float64\[4\]"),
    "soft_targets_a_row_short": ("eaude_sac", (*T1, "soft_targets"), lambda t: t[:1],
                                 r"twin\[1\]\.soft_targets: expected float64\[2, 2641\], got float64\[1, 2641\]"),
}


@pytest.fixture(scope="module")
def payload_blobs():
    """Encoded mid-run payloads, one per algorithm the malformed cases use."""
    configs = {
        "dqn": chain_config(algorithm="dqn", total=800),
        "narrow": chain_config(algorithm="dqn", total=800, **{"network.hidden_widths": (5,)}),
        **{env: build_config({"algorithm": "dqn", "env": env, "seed": 5, "run.total_steps": 800, "replay.warmup": 200})
           for env in ("gridworld", "cartpole")},
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
    "member_weights_missing": ("dqn", (*P, "params"), lambda w: DROP, "population: no 'params' entry"),
    "mask_record_an_int": ("dqn", (*P, "mask"), lambda m: 7, r"population\.mask: expected uint8\[1, 176\], got int"),
    "last_eval_missing": ("dqn", ("last_eval",), lambda v: DROP, "payload: no 'last_eval' entry"),
    "loss_a_string": ("dqn", (*P, "cumulated_loss"), lambda v: "0.5",
                      r"population\.cumulated_loss: expected float64\[1\], got str"),
    # bool subclasses int, but a count or a loss is never a bool
    "step_a_bool": ("dqn", ("step",), lambda n: True, "step: expected int, got bool"),
    "loss_a_bool": ("dqn", (*P, "cumulated_loss"), lambda v: v != 0.0,
                    r"population\.cumulated_loss: expected float64\[1\], got bool\[1\]"),
    "adam_step_count_a_bool": ("dqn", (*P, "optimizer", "step_count"), lambda n: n != 0,
                               r"population\.optimizer\.step_count: expected int64\[1\], got bool\[1\]"),
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
    # the observation is env.observe(env_state), so the payload does not store it
    "obs_cut_to_3": ("dqn", (), _extra("obs", np.zeros(3)), "payload: unknown entry 'obs'"),
    "obs_float32": ("eaude_sac", (), _extra("obs", np.zeros(3, np.float32)), "payload: unknown entry 'obs'"),
    "env_state_a_string": ("dqn", ("env_state",), lambda s: "x", r"env_state: expected float64\[1\], got str"),
    "env_state_cut": ("eaude_sac", ("env_state",), lambda s: s[:1],
                      r"env_state: expected float64\[2\], got float64\[1\]"),
    # an env_state of the right shape that is not a state of its env
    "chain_state_negative": ("dqn", ("env_state",), lambda s: np.array([-1.0]),
                             r"env_state: \[-1\.0\] is not a chain state"),
    "chain_state_fractional": ("dqn", ("env_state",), lambda s: np.array([3.5]),
                               r"env_state: \[3\.5\] is not a chain state"),
    "chain_state_past_the_end": ("dqn", ("env_state",), lambda s: np.array([99.0]),
                                 r"env_state: \[99\.0\] is not a chain state"),
    "gridworld_state_off_the_grid": ("gridworld", ("env_state",), lambda s: np.array([0.0, 5.0]),
                                     r"env_state: \[0\.0, 5\.0\] is not a gridworld state"),
    "gridworld_state_fractional": ("gridworld", ("env_state",), lambda s: np.array([1.0, 0.5]),
                                   r"env_state: \[1\.0, 0\.5\] is not a gridworld state"),
    "cartpole_state_nan": ("cartpole", ("env_state",), _entry(2, np.nan), r"env_state: \[.*nan.*\] is not a cartpole"),
    "pendulum_state_infinite": ("eaude_sac", ("env_state",), _entry(0, np.inf),
                                r"env_state: \[inf, .*\] is not a pendulum state"),
    "negative_episode_len": ("dqn", ("episode_len",), lambda n: -1, "episode_len: -1 is negative"),
    "logged_champion_outside": ("dqn", ("logged_champion",), lambda i: 99, r"logged_champion: 99 outside \[0, 1\)"),
    "logged_behavior_negative": ("eaude_dqn", ("logged_behavior",), lambda i: -1,
                                 r"logged_behavior: -1 outside \[0, 5\)"),
    "logged_behaviors_three": ("dqn", ("logged_behaviors",), lambda b: [5, 6, 7],
                               "logged_behaviors: 3 entries, expected 2"),
    "logged_behaviors_outside": ("eaude_sac", ("logged_behaviors",), lambda b: [0, 2],
                                 r"logged_behaviors\[1\]: 2 outside \[0, 2\)"),
    # fields that the config, the env or the mask fix are not stored: a record holding one is refused
    "twin_alpha": ("eaude_sac", T0, _extra("alpha", 5.0), r"twin\[0\]: unknown entry 'alpha'"),
    "twin_tau": ("eaude_sac", T1, _extra("tau", 0.9), r"twin\[1\]: unknown entry 'tau'"),
    "twin_prune_period": ("eaude_sac", T0, _extra("prune_period", 50), r"twin\[0\]: unknown entry 'prune_period'"),
    "policy_action_high": ("eaude_sac", ("policy",), _extra("action_high", 7.0), "policy: unknown entry 'action_high'"),
    "policy_action_low": ("eaude_sac", ("policy",), _extra("action_low", -1.0), "policy: unknown entry 'action_low'"),
    "policy_action_dim": ("eaude_sac", ("policy",), _extra("action_dim", 3), "policy: unknown entry 'action_dim'"),
    "policy_learning_rate": ("eaude_sac", ("policy", "optimizer"), _extra("learning_rate", 1.0),
                             r"policy\.optimizer: unknown entry 'learning_rate'"),
    "critic_beta1": ("eaude_sac", (*T0, "optimizer"), _extra("beta1", 1.5),
                     r"twin\[0\]\.optimizer: unknown entry 'beta1'"),
    "second_critic_learning_rate": ("eaude_sac", (*T1, "optimizer"), _extra("learning_rate", 1.0),
                                    r"twin\[1\]\.optimizer: unknown entry 'learning_rate'"),
    "member_epsilon": ("dqn", (*P, "optimizer"), _extra("epsilon", 1e-8),
                       r"population\.optimizer: unknown entry 'epsilon'"),
    "member_beta2": ("eaude_dqn", (*P, "optimizer"), _extra("beta2", 0.99),
                     r"population\.optimizer: unknown entry 'beta2'"),
    "sparsity_off_its_mask": ("eaude_sac", T0, _extra("sparsity", np.full(2, 0.7)),
                              r"twin\[0\]: unknown entry 'sparsity'"),
    "sparsity_negative_zero": ("dqn", P, _extra("sparsity", np.array([-0.0])), "population: unknown entry 'sparsity'"),
    "population_extra": ("eaude_dqn", P, _extra("k", 5), "population: unknown entry 'k'"),
    "buffer_extra": ("dqn", ("buffer",), _extra("size", 10), "buffer: unknown entry 'size'"),
    # member scalars that contradict the member's arrays or each other
    "mask_target_two": ("eaude_dqn", (*P, "mask_target"), _entry(1, 2.0),
                        r"population\.mask_target\[1\]: 2\.0 is outside \[0, 1\)"),
    "mask_target_nan": ("eaude_sac", (*T1, "mask_target"), _entry(0, np.nan),
                        r"twin\[1\]\.mask_target\[0\]: nan is outside \[0, 1\)"),
    # a stack holds ids and counts as int64: one past it is a uint64 array
    "lineage_id_beyond_int64": ("eaude_dqn", (*P, "lineage_id"), lambda i: _entry(3, 2**63)(i.astype(np.uint64)),
                                r"population\.lineage_id: expected int64\[5\], got uint64\[5\]"),
    "adam_step_count_beyond_int64": ("dqn", (*P, "optimizer", "step_count"),
                                     lambda n: _entry(0, 2**63)(n.astype(np.uint64)),
                                     r"population\.optimizer\.step_count: expected int64\[1\], got uint64\[1\]"),
    "next_lineage_id_beyond_int64": ("eaude_dqn", (*P, "next_lineage_id"), lambda i: 2**63,
                                     r"population\.next_lineage_id: 9223372036854775808 does not fit in int64"),
    "lineage_id_negative": ("eaude_dqn", (*P, "lineage_id"), _entry(2, -1),
                            r"population\.lineage_id\[2\]: -1 is negative"),
    "lineage_id_shared": ("eaude_dqn", (*P, "lineage_id"), lambda i: _entry(3, i[1])(i),
                          r"population\.lineage_id\[1\]: \d+ is another member's too"),
}


def _assert_rejected(algorithm, path, replace, match, payload_blobs):
    payload_to_state(decode_payload(payload_blobs[algorithm]))  # the unmodified payload loads
    root = [decode_payload(payload_blobs[algorithm])]
    parent, path = root, (0, *path)  # an empty path replaces the whole payload
    for key in path[:-1]:
        parent = parent[key]
    value = replace(parent[path[-1]])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(CheckpointError, match=match):
        payload_to_state(root[0])


@pytest.mark.parametrize("case", sorted(MALFORMED_NETWORKS))
def test_malformed_network_rejected(case, payload_blobs):
    _assert_rejected(*MALFORMED_NETWORKS[case], payload_blobs)


@pytest.mark.parametrize("case", sorted(MALFORMED_STATE))
def test_malformed_state_rejected(case, payload_blobs):
    _assert_rejected(*MALFORMED_STATE[case], payload_blobs)
