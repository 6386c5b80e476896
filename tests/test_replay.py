import numpy as np
import pytest

from eaudeqn.envs import DiscreteSpace, Transition, make_env
from eaudeqn.errors import ConfigError, DataFormatError
from eaudeqn.replay import (
    ReplayBuffer,
    buffer_from_dataset,
    collect_dataset,
    dataset_from_transitions,
    load_dataset,
    save_dataset,
)
from eaudeqn.rng import RngStream


def tr(tag, done=False):
    state = np.full(3, float(tag))
    return Transition(state, tag % 2, float(tag), state + 0.5, done)


def make_buffer(capacity):
    return ReplayBuffer(capacity, 3, DiscreteSpace(2))


class TestFifo:
    def test_capacity_two_keeps_last_two(self):
        buf = make_buffer(2)
        for tag in (1, 2, 3):
            buf.push(tr(tag))
        contents = [t.reward for t in buf.snapshot()]
        assert contents == [2.0, 3.0]

    def test_single_push(self):
        buf = make_buffer(5)
        buf.push(tr(1))
        assert buf.size == 1

    def test_thousand_pushes_keep_tail(self):
        buf = make_buffer(100)
        for tag in range(1, 1001):
            buf.push(tr(tag))
        contents = [t.reward for t in buf.snapshot()]
        assert contents == [float(x) for x in range(901, 1001)]
        assert buf.size == 100

    def test_interleaved_order_and_bound(self):
        buf = make_buffer(7)
        rng = RngStream(5, "fifo")
        pushed = []
        for tag in range(200):
            buf.push(tr(tag))
            pushed.append(tag)
            if rng.random() < 0.3:
                contents = [int(t.reward) for t in buf.snapshot()]
                assert contents == pushed[-buf.size :]
                assert buf.size <= 7


class TestSampling:
    def test_singleton_buffer_repeats(self):
        buf = make_buffer(4)
        buf.push(tr(9))
        batch = buf.sample_batch(6, RngStream(0, "replay"))
        assert len(batch) == 6
        assert np.all(batch.rewards == 9.0)

    def test_same_stream_same_batch(self):
        buf = make_buffer(8)
        for tag in range(8):
            buf.push(tr(tag))
        a = buf.sample_batch(5, RngStream(3, "replay"))
        b = buf.sample_batch(5, RngStream(3, "replay"))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)

    def test_batch_follows_snapshot_order_before_and_after_wrap(self):
        buf = make_buffer(7)
        for pushes in (5, 19):  # 5 fills part of the ring, 19 wraps it twice
            while buf.insert_count < pushes:
                buf.push(tr(buf.insert_count))
            batch = buf.sample_batch(40, RngStream(4, "replay"))
            idx = RngStream(4, "replay").integers(0, buf.size, size=40)
            ordered = buf.snapshot()
            assert np.array_equal(batch.rewards, [ordered[i].reward for i in idx])
            assert np.array_equal(batch.states, [ordered[i].state for i in idx])
            assert np.array_equal(batch.next_states, [ordered[i].next_state for i in idx])
            assert np.array_equal(batch.actions, [ordered[i].action for i in idx])
            assert np.array_equal(batch.dones, [float(ordered[i].done) for i in idx])

    def test_uniform_frequencies(self):
        buf = make_buffer(4)
        for tag in range(4):
            buf.push(tr(tag))
        rng = RngStream(11, "replay")
        draws = buf.sample_batch(100_000, rng).rewards
        for tag in range(4):
            freq = float(np.mean(draws == float(tag)))
            assert abs(freq - 0.25) < 0.01

    def test_empty_buffer_rejected(self):
        with pytest.raises(ConfigError):
            make_buffer(4).sample_batch(1, RngStream(0, "replay"))


class TestDatasetFile:
    def _dataset(self):
        env = make_env("chain")
        rng = RngStream(21, "collect")

        def policy(obs, r):
            return int(r.integers(2))

        return collect_dataset(env, policy, episodes=3, rng=rng)

    def test_round_trip_is_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "chain.ds"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_truncated_file_names_byte_offset(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "chain.ds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ds"
        cut.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataFormatError) as info:
            load_dataset(cut)
        assert info.value.byte_offset is not None
        assert str(info.value.byte_offset) in str(info.value)
        assert info.value.record_index is not None

    def test_bad_done_flag_names_record(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "chain.ds"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 7  # final record's done byte
        bad = tmp_path / "bad.ds"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as info:
            load_dataset(bad)
        assert info.value.record_index == len(ds) - 1

    def test_empty_dataset_refused(self):
        env = make_env("chain")
        with pytest.raises(ConfigError):
            dataset_from_transitions(env.spec, [])

    def test_continuous_actions_round_trip(self, tmp_path):
        env = make_env("pendulum")
        rng = RngStream(4, "collect")

        def policy(obs, r):
            return r.uniform(-2.0, 2.0, size=1)

        ds = collect_dataset(env, policy, episodes=1, rng=rng)
        path = tmp_path / "pend.ds"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_buffer_prefill_from_dataset(self):
        ds = self._dataset()
        buf = buffer_from_dataset(ds)
        assert buf.size == len(ds)
        first = buf.snapshot()[0]
        assert np.array_equal(first.state, ds.states[0])
