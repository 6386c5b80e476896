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
    """Ring buffer with strictly FIFO eviction."""

    def __init__(self, capacity: int, observation_width: int, action_space):
        if capacity < 1:
            raise ConfigError("replay capacity must be positive")
        self.capacity = int(capacity)
        self.observation_width = int(observation_width)
        self.action_space = action_space
        self.insert_count = 0
        self._allocate()

    def _allocate(self) -> None:
        """Set every ring to a zeroed view into one new block.

        Freeing a block that large makes glibc raise its heap trim threshold
        above a buffer's size, so later set-ups and checkpoint loads in the
        process reuse freed pages; with one allocation per ring, repeated
        pendulum set-ups and loads could settle into trimming and re-faulting
        ~1,100 pages each time.
        """
        rings = self._rings()
        sizes = [int(np.prod(shape)) * dtype.itemsize for _, shape, dtype in rings]
        block = np.zeros(sum(sizes), dtype=np.uint8)
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

    def state_dict(self) -> dict:
        """The rows written so far by ring name: each ring's first `size` rows,
        the ring itself once it is full. Rows past `size` were never written
        and are never sampled; a run's config and step fix capacity and insert
        count."""
        n = self.size
        rings = {key: getattr(self, f"_{key}") for key, _, _ in self._rings()}
        return rings if n == self.capacity else {key: ring[:n] for key, ring in rings.items()}

    @classmethod
    def from_state_dict(
        cls, state: dict, capacity: int, observation_width: int, action_space, insert_count: int, *, copy: bool = True
    ) -> "ReplayBuffer":
        """Rebuild a buffer that took insert_count pushes from state_dict()
        output. Every ring must hold min(insert_count, capacity) rows of the
        observation width and action space, else ConfigError. The rows are
        copied into fresh full-capacity rings, except that with copy=False
        full rings are adopted as they are: the caller must not use them
        again (push writes into them)."""
        buf = cls.__new__(cls)  # __init__ would allocate rings that adoption drops
        buf.capacity = int(capacity)
        buf.observation_width = int(observation_width)
        buf.action_space = action_space
        buf.insert_count = insert_count
        n = buf.size
        rings = {}
        for key, shape, dtype in buf._rings():
            arr, shape = state[key], (n, *shape[1:])
            if not isinstance(arr, np.ndarray) or arr.shape != shape or arr.dtype != dtype:
                got = f"{arr.dtype}{list(arr.shape)}" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ConfigError(f"replay ring {key}: expected {dtype}{list(shape)}, got {got}")
            rings[key] = arr
        if not copy and n == buf.capacity:
            for key, arr in rings.items():
                setattr(buf, f"_{key}", arr)
        else:
            buf._allocate()
            for key, arr in rings.items():
                getattr(buf, f"_{key}")[:n] = arr
        return buf
