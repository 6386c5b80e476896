import numpy as np
import pytest

from eaudeqn.envs import DiscreteSpace, Transition
from eaudeqn.errors import ConfigError
from eaudeqn.replay import ReplayBuffer
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


class TestStateDict:
    def test_round_trip_copies_or_adopts_the_rings(self):
        buf = make_buffer(4)
        for tag in range(6):
            buf.push(tr(tag))
        state = buf.state_dict()
        copied = ReplayBuffer.from_state_dict(state, 4, 3, DiscreteSpace(2), 6)
        adopted = ReplayBuffer.from_state_dict(state, 4, 3, DiscreteSpace(2), 6, copy=False)
        for restored in (copied, adopted):
            assert restored.size == 4 and restored.insert_count == 6
            assert [t.reward for t in restored.snapshot()] == [2.0, 3.0, 4.0, 5.0]
        assert not np.shares_memory(copied._states, buf._states)
        assert adopted._states is buf._states

    def test_partly_filled_ring_keeps_only_written_rows(self):
        buf = make_buffer(5)
        for tag in range(3):
            buf.push(tr(tag))
        state = buf.state_dict()
        assert {key: len(ring) for key, ring in state.items()} == dict.fromkeys(state, 3)
        restored = ReplayBuffer.from_state_dict(state, 5, 3, DiscreteSpace(2), 3, copy=False)
        assert restored._states.shape == (5, 3) and restored._rewards.shape == (5,)
        assert not np.shares_memory(restored._states, buf._states)
        restored.push(tr(7))
        assert restored._rewards.tolist() == [0.0, 1.0, 2.0, 7.0, 0.0]
        assert [t.reward for t in restored.snapshot()] == [0.0, 1.0, 2.0, 7.0]
