import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eaudeqn
from eaudeqn import build_config, rundir
from eaudeqn.checkpoint import load_checkpoint
from eaudeqn.envs import DiscreteSpace, Transition
from eaudeqn.errors import ConfigError
from eaudeqn.replay import ReplayBuffer
from eaudeqn.rng import RngStream
from eaudeqn.training import init_state, run_training
from output_digests import CONFIGS


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
        assert restored._rewards[:4].tolist() == [0.0, 1.0, 2.0, 7.0]  # the fifth row is unwritten
        assert [t.reward for t in restored.snapshot()] == [0.0, 1.0, 2.0, 7.0]


# float64 bit patterns: +0.0 and -0.0, quiet nans with and without a payload and of either sign, a
# signalling nan, 1.0 and -inf
BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
        0x7FF0000000000001, 0x3FF0000000000000, 0xFFF0000000000000]


@st.composite
def pushed_rings(draw):
    """(capacity, width, transitions): a ring left partial, exactly full or wrapped, whose next states
    run in stretches that are and are not the following transition's state."""
    capacity, width = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    fill = draw(st.sampled_from(["partial", "full", "wrapped"]))
    pushes = {"partial": st.integers(0, capacity - 1), "full": st.just(capacity),
              "wrapped": st.integers(capacity + 1, 3 * capacity + 1)}[fill]
    n = draw(pushes)
    vector = st.lists(st.sampled_from(BITS), min_size=width, max_size=width).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))
    states = [draw(vector) for _ in range(n + 1)]
    linked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    transitions = [
        Transition(states[t], draw(st.integers(0, 1)), float(draw(vector)[0]),
                   states[t + 1] if linked[t] else draw(vector), draw(st.booleans()))
        for t in range(n)
    ]
    return capacity, width, transitions


class TestStateDictRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(ring=pushed_rings())
    def test_round_trips_bit_for_bit(self, ring):
        capacity, width, transitions = ring
        buf = ReplayBuffer(capacity, width, DiscreteSpace(2))
        for t in transitions:
            buf.push(t)
        n = buf.size
        state = buf.state_dict()
        # the listed slots: each whose next state is not bit for bit its successor's state (slot j + 1,
        # wrapping to 0 in a full ring), and the last written slot of a partial ring, which has none
        rows = [
            j for j in range(n)
            if (j == n - 1 and n < capacity)
            or buf._next_states[j].tobytes() != buf._states[(j + 1) % capacity].tobytes()
        ]
        assert state.keys() == ReplayBuffer.RECORD_KEYS
        assert state["next_state_rows"].dtype == np.int64 and state["next_state_rows"].tolist() == rows
        assert state["next_states"].tobytes() == buf._next_states[rows].tobytes()
        for copy in (True, False):
            restored = ReplayBuffer.from_state_dict(state, capacity, width, DiscreteSpace(2), len(transitions),
                                                    copy=copy)
            for name in ("_states", "_next_states", "_actions", "_rewards", "_dones"):
                assert getattr(restored, name).shape == getattr(buf, name).shape
                assert getattr(restored, name)[:n].tobytes() == getattr(buf, name)[:n].tobytes(), name
            again = restored.state_dict()
            assert all(again[key].tobytes() == state[key].tobytes() for key in ReplayBuffer.RECORD_KEYS)


# float64 nans with payloads, of either sign, quiet and signalling
NANS = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001, 0x7FF0_0000_0000_0BAD], dtype=np.uint64)


def fill_unwritten(buf: ReplayBuffer) -> None:
    """Write garbage into every ring row at or past buf.size: nans in the float rings, -1 in an int64 ring."""
    for name in ("_states", "_next_states", "_actions", "_rewards", "_dones"):
        rows = getattr(buf, name)[buf.size:]
        if rows.dtype == np.int64:
            rows[...] = -1
        else:
            rows.view(np.uint64)[...] = np.resize(NANS, rows.shape)


class TestUnwrittenRows:
    """The rings are not zeroed (ReplayBuffer._allocate), which is safe only if no row at or past
    `size` is ever read."""

    @pytest.mark.parametrize("algorithm, split", [("eaude_sac", 500), ("polyprune_dqn", 1500), ("dqn", 600)])
    def test_garbage_past_size_changes_no_output(self, tmp_path, algorithm, split):
        # the digest configs; split leaves the ring partial, and the two dqn runs wrap it after the split
        config = build_config(dict(CONFIGS[algorithm], seed=7))

        def run(out: Path, garble: bool) -> dict:
            state = init_state(config)
            if garble:
                fill_unwritten(state.buffer)
            log, state = run_training(config, resume=state, until_step=split, clock=lambda: 0.0)
            rundir.write(out / "first", config, log, state)
            state = load_checkpoint(out / "first" / rundir.CHECKPOINT)
            assert state.buffer.size < state.buffer.capacity
            if garble:
                fill_unwritten(state.buffer)
            log, state = run_training(config, resume=state, clock=lambda: 0.0)
            rundir.write(out / "rest", config, log, state)
            return {f"{half}/{file}": (out / half / file).read_bytes()
                    for half in ("first", "rest") for file in (rundir.LOG, rundir.EVENTS, rundir.CHECKPOINT)}

        assert run(tmp_path / "garbled", garble=True) == run(tmp_path / "clean", garble=False)

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="reads /proc/self/statm; the heap reuse it guards against is glibc's")
    def test_building_a_buffer_touches_no_ring_page(self):
        # In a fresh process, so the test process's heap history does not count: once one block is freed,
        # glibc serves later blocks from its heap, where zeroing them would write every page.
        code = """
import os
from eaudeqn.envs import DiscreteSpace
from eaudeqn.replay import ReplayBuffer

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

ReplayBuffer(100_000, 10, DiscreteSpace(2))
before = rss()
held = [ReplayBuffer(100_000, 10, DiscreteSpace(2)) for _ in range(3)]
for _ in range(10):
    ReplayBuffer(100_000, 10, DiscreteSpace(2))
print(rss() - before)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(eaudeqn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        block = 100_000 * (10 + 10 + 1 + 1 + 1) * 8  # states, next states, actions, rewards, dones: 17.5 MiB
        # zeroed blocks wrote one block's pages here (17.9 MiB); untouched ones add about 0.02 MiB. Half a
        # block leaves room for the odd 2 MiB page where transparent huge pages are always on.
        assert int(proc.stdout) < block / 2
