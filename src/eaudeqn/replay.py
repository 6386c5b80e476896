"""FIFO replay buffer.

The buffer stores transitions in preallocated rings (struct-of-arrays) and
samples uniformly with replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import DiscreteSpace, Transition
from .errors import ConfigError
from .rng import RngStream


@dataclass
class Batch:
    """A sampled mini-batch as aligned arrays (row j is transition j)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self):
        return self.states.shape[0]


class ReplayBuffer:
    """Ring buffer with strictly FIFO eviction.

    The rings are not zeroed: no code reads a row at or past `size`, which
    only a push writes. Sampling draws from [0, size), state_dict() and
    _next_state_rows() read the first `size` rows, and a full ring has been
    written in every row. So memory is paid only for the rows a run writes.
    """

    # the entries of a state_dict()
    RECORD_KEYS = frozenset({"states", "next_state_rows", "next_states", "actions", "rewards", "dones"})

    def __init__(self, capacity: int, observation_width: int, action_space):
        if capacity < 1:
            raise ConfigError("replay capacity must be positive")
        self.capacity = int(capacity)
        self.observation_width = int(observation_width)
        self.action_space = action_space
        self.insert_count = 0
        self._allocate()

    def _allocate(self) -> None:
        """Set every ring to a view into one new, uninitialized block.

        The block is not zeroed, so building a buffer touches none of its
        pages: a row costs memory once a push or a restore writes it. Zeroing
        would write every page whenever the allocator serves the block from
        its heap (calloc), which it does once a block that large has been
        freed in the process. That freeing also makes glibc raise its heap
        trim threshold above a buffer's size, so later set-ups and checkpoint
        loads reuse freed pages; with one allocation per ring, repeated
        pendulum set-ups and loads could settle into trimming and re-faulting
        ~1,100 pages each time.
        """
        rings = self._rings()
        sizes = [int(np.prod(shape)) * dtype.itemsize for _, shape, dtype in rings]
        block = np.empty(sum(sizes), dtype=np.uint8)
        offset = 0
        for (key, shape, dtype), size in zip(rings, sizes):
            setattr(self, f"_{key}", block[offset : offset + size].view(dtype).reshape(shape))
            offset += size

    def _rings(self) -> list[tuple[str, tuple, np.dtype]]:
        """(state_dict key, shape, dtype) of each ring; the attribute is _key."""
        n, w = self.capacity, self.observation_width
        if isinstance(self.action_space, DiscreteSpace):
            actions = ((n,), np.dtype(np.int64))
        else:
            actions = ((n, self.action_space.dimension), np.dtype(np.float64))
        f64 = np.dtype(np.float64)
        return [
            ("states", (n, w), f64),
            ("next_states", (n, w), f64),
            ("actions", *actions),
            ("rewards", (n,), f64),
            ("dones", (n,), f64),
        ]

    @property
    def size(self) -> int:
        return min(self.insert_count, self.capacity)

    def push(self, transition: Transition) -> None:
        slot = self.insert_count % self.capacity
        self._states[slot] = transition.state
        self._next_states[slot] = transition.next_state
        self._actions[slot] = transition.action
        self._rewards[slot] = transition.reward
        self._dones[slot] = 1.0 if transition.done else 0.0
        self.insert_count += 1

    def _ordered_indices(self) -> np.ndarray:
        """Physical slots from oldest to newest."""
        n = self.size
        if self.insert_count <= self.capacity:
            return np.arange(n)
        head = self.insert_count % self.capacity
        return (head + np.arange(n)) % self.capacity

    def snapshot(self) -> list[Transition]:
        """All stored transitions, oldest first."""
        out = []
        for i in self._ordered_indices():
            action = self._actions[i]
            out.append(
                Transition(
                    state=self._states[i].copy(),
                    action=int(action) if action.ndim == 0 else action.copy(),
                    reward=float(self._rewards[i]),
                    next_state=self._next_states[i].copy(),
                    done=bool(self._dones[i] > 0.5),
                )
            )
        return out

    def sample_batch(self, batch_size: int, rng: RngStream) -> Batch:
        """Uniform sampling with replacement; deterministic given the stream."""
        n = self.size  # read once: a consistent snapshot under one writer
        if n < 1:
            raise ConfigError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, n, size=batch_size)
        # logical index i (0 = oldest) lives in slot i until the ring wraps,
        # then in (head + i) % capacity; fancy indexing already copies
        if self.insert_count > self.capacity:
            head = self.insert_count % self.capacity
            idx = (head + idx) % self.capacity
        return Batch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            dones=self._dones[idx],
        )

    # -- checkpoint support --------------------------------------------------

    def _next_state_rows(self) -> np.ndarray:
        """The written slots whose next state is not bit for bit the state of
        their successor, in increasing order. Slot j's successor is j + 1; the
        last slot's is slot 0 once the ring is full, and in a partial ring the
        last written slot has none, so it is always listed. A transition's next
        state is the following transition's state except at an episode end,
        so few slots are listed."""
        n = self.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        # bits, so -0.0 and 0.0 differ and a nan equals itself; one column at a
        # time, since .any(axis=1) over the rows takes about five times as long
        states = self._states[:n].view(np.uint64)
        nxt = self._next_states[:n].view(np.uint64)
        differs = np.empty(n, dtype=bool)
        differs[:-1] = nxt[:-1, 0] != states[1:, 0]
        for c in range(1, self.observation_width):
            differs[:-1] |= nxt[:-1, c] != states[1:, c]
        differs[-1] = n < self.capacity or not np.array_equal(nxt[-1], states[0])
        return np.flatnonzero(differs).astype(np.int64, copy=False)

    def state_dict(self) -> dict:
        """The rows written so far: the first `size` rows of the states,
        actions, rewards and dones rings (each ring itself once it is full),
        and of the next states only those of the slots in `next_state_rows`
        (see _next_state_rows); every other slot's next state is its
        successor's state. Rows past `size` were never written and are never
        sampled; a run's config and step fix capacity and insert count."""
        n = self.size
        rings = {key: getattr(self, f"_{key}") for key, _, _ in self._rings() if key != "next_states"}
        if n < self.capacity:
            rings = {key: ring[:n] for key, ring in rings.items()}
        rows = self._next_state_rows()
        return {**rings, "next_state_rows": rows, "next_states": self._next_states[rows]}

    @classmethod
    def from_state_dict(
        cls, state: dict, capacity: int, observation_width: int, action_space, insert_count: int, *, copy: bool = True
    ) -> "ReplayBuffer":
        """Rebuild a buffer that took insert_count pushes from state_dict()
        output, else ConfigError. The states, actions, rewards and dones rings
        must hold min(insert_count, capacity) rows of the observation width
        and action space; next_state_rows must be increasing int64 slots of
        those rows, the last written slot among them if the ring is not full,
        and next_states must hold one float64 row of the observation width
        per listed slot. The rows are copied into the first rows of new
        full-capacity rings, whose other rows stay unwritten (see _allocate),
        except that with copy=False full rings are adopted as they are: the
        caller must not use them again (push writes into them)."""
        buf = cls.__new__(cls)  # __init__ would allocate rings that adoption drops
        buf.capacity = int(capacity)
        buf.observation_width = int(observation_width)
        buf.action_space = action_space
        buf.insert_count = insert_count
        n = buf.size
        rings = {
            key: _ring(state, key, (n, *shape[1:]), dtype) for key, shape, dtype in buf._rings() if key != "next_states"
        }
        rows = state["next_state_rows"]
        if not isinstance(rows, np.ndarray) or rows.ndim != 1 or rows.dtype != np.int64:
            raise ConfigError(f"replay next_state_rows: expected int64[k], got {_kind(rows)}")
        stored = _ring(state, "next_states", (len(rows), buf.observation_width), np.dtype(np.float64))
        unordered = np.flatnonzero(rows[1:] <= rows[:-1])
        if len(unordered):
            i = unordered[0]
            raise ConfigError(f"replay next_state_rows: slot {rows[i + 1]} follows {rows[i]}, not increasing")
        if len(rows) and (rows[0] < 0 or rows[-1] >= n):
            raise ConfigError(f"replay next_state_rows: slot {rows[0] if rows[0] < 0 else rows[-1]} outside [0, {n})")
        if 0 < n < buf.capacity and (not len(rows) or rows[-1] != n - 1):
            raise ConfigError(f"replay next_state_rows: the last written slot {n - 1} of a partial ring is missing")
        if not copy and n == buf.capacity:
            for key, arr in rings.items():
                setattr(buf, f"_{key}", arr)
            buf._next_states = np.empty_like(buf._states)
        else:
            buf._allocate()
            for key, arr in rings.items():
                getattr(buf, f"_{key}")[:n] = arr
        if n:  # each slot's next state is its successor's state, but in the stored rows
            buf._next_states[: n - 1] = buf._states[1:n]
            if n == buf.capacity:
                buf._next_states[n - 1] = buf._states[0]
        buf._next_states[rows] = stored
        return buf


def _kind(value) -> str:
    return f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else type(value).__name__


def _ring(state: dict, key: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """state[key], if it is an array of this shape and dtype."""
    arr = state[key]
    if not isinstance(arr, np.ndarray) or arr.shape != shape or arr.dtype != dtype:
        raise ConfigError(f"replay ring {key}: expected {dtype}{list(shape)}, got {_kind(arr)}")
    return arr
