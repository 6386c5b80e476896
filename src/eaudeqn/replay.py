"""FIFO replay buffer and the offline-dataset file format.

The buffer stores transitions in preallocated rings (struct-of-arrays) and
samples uniformly with replacement. Datasets are written as a self-describing
header (env id, widths, record count) followed by fixed-width little-endian
records, one per transition, in field declaration order:
state, action, reward, next_state, done.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .envs import BoxSpace, DiscreteSpace, EnvSpec, Transition
from .errors import ConfigError, DataFormatError
from .rng import RngStream

_MAGIC = b"EAUDEDS1"


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
        self._states = np.zeros((capacity, observation_width))
        self._next_states = np.zeros((capacity, observation_width))
        if isinstance(action_space, DiscreteSpace):
            self._actions = np.zeros(capacity, dtype=np.int64)
        else:
            self._actions = np.zeros((capacity, action_space.dimension))
        self._rewards = np.zeros(capacity)
        self._dones = np.zeros(capacity)

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
        return {
            "capacity": self.capacity,
            "insert_count": self.insert_count,
            "states": self._states,
            "next_states": self._next_states,
            "actions": self._actions,
            "rewards": self._rewards,
            "dones": self._dones,
        }

    def load_state_dict(self, state: dict, *, copy: bool = True) -> None:
        """Restore a state_dict(). With copy=False the buffer adopts the
        arrays, which the caller must not use again (push writes into them)."""
        if state["capacity"] != self.capacity:
            raise ConfigError("replay capacity mismatch on restore")
        take = np.copy if copy else np.asarray
        self.insert_count = int(state["insert_count"])
        self._states = take(state["states"])
        self._next_states = take(state["next_states"])
        self._actions = take(state["actions"])
        self._rewards = take(state["rewards"])
        self._dones = take(state["dones"])


@dataclass
class OfflineDataset:
    """Immutable batch of transitions tied to the env that produced them."""

    env_id: str
    observation_width: int
    action_space: DiscreteSpace | BoxSpace
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self):
        return self.states.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, OfflineDataset)
            and self.env_id == other.env_id
            and self.observation_width == other.observation_width
            and self.action_space == other.action_space
            and np.array_equal(self.states, other.states)
            and np.array_equal(self.actions, other.actions)
            and np.array_equal(self.rewards, other.rewards)
            and np.array_equal(self.next_states, other.next_states)
            and np.array_equal(self.dones, other.dones)
        )


def dataset_from_transitions(spec: EnvSpec, transitions: list[Transition]) -> OfflineDataset:
    if not transitions:
        raise ConfigError("an offline dataset must contain at least one transition")
    n = len(transitions)
    w = spec.observation_width
    states = np.zeros((n, w))
    next_states = np.zeros((n, w))
    rewards = np.zeros(n)
    dones = np.zeros(n, dtype=bool)
    if isinstance(spec.action_space, DiscreteSpace):
        actions = np.zeros(n, dtype=np.int64)
    else:
        actions = np.zeros((n, spec.action_space.dimension))
    for j, tr in enumerate(transitions):
        if len(tr.state) != w or len(tr.next_state) != w:
            raise ConfigError(f"transition {j} does not match observation width {w}")
        if not np.isfinite(tr.reward):
            raise ConfigError(f"transition {j} has a non-finite reward")
        states[j] = tr.state
        next_states[j] = tr.next_state
        actions[j] = tr.action
        rewards[j] = tr.reward
        dones[j] = tr.done
    return OfflineDataset(spec.id, w, spec.action_space, states, actions, rewards, next_states, dones)


def buffer_from_dataset(dataset: OfflineDataset, capacity: int | None = None) -> ReplayBuffer:
    """Fill a replay buffer from a dataset for training without interaction."""
    cap = capacity if capacity is not None else len(dataset)
    buf = ReplayBuffer(cap, dataset.observation_width, dataset.action_space)
    for j in range(len(dataset)):
        action = dataset.actions[j]
        buf.push(
            Transition(
                state=dataset.states[j],
                action=int(action) if np.ndim(action) == 0 else action,
                reward=float(dataset.rewards[j]),
                next_state=dataset.next_states[j],
                done=bool(dataset.dones[j]),
            )
        )
    return buf


def save_dataset(dataset: OfflineDataset, path) -> None:
    if len(dataset) == 0:
        raise ConfigError("refusing to save an empty dataset")
    discrete = isinstance(dataset.action_space, DiscreteSpace)
    env_id = dataset.env_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", len(env_id)))
        fh.write(env_id)
        fh.write(struct.pack("<I", dataset.observation_width))
        if discrete:
            fh.write(struct.pack("<BId", 0, dataset.action_space.count, 0.0))
            fh.write(struct.pack("<d", 0.0))
        else:
            fh.write(struct.pack("<BId", 1, dataset.action_space.dimension, dataset.action_space.low))
            fh.write(struct.pack("<d", dataset.action_space.high))
        fh.write(struct.pack("<Q", len(dataset)))
        w = dataset.observation_width
        for j in range(len(dataset)):
            fh.write(dataset.states[j].astype("<f8").tobytes())
            if discrete:
                fh.write(struct.pack("<I", int(dataset.actions[j])))
            else:
                fh.write(np.asarray(dataset.actions[j], dtype="<f8").tobytes())
            fh.write(struct.pack("<d", float(dataset.rewards[j])))
            fh.write(dataset.next_states[j].astype("<f8").tobytes())
            fh.write(struct.pack("<B", 1 if dataset.dones[j] else 0))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise DataFormatError(
                f"truncated dataset: needed {n} bytes for {what} at byte offset {self.offset}",
                byte_offset=self.offset,
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_dataset(path) -> OfflineDataset:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(_MAGIC), "magic") != _MAGIC:
        raise DataFormatError("not a dataset file (bad magic)", byte_offset=0)
    (id_len,) = reader.unpack("<H", "env id length")
    env_id = reader.take(id_len, "env id").decode("utf-8")
    (obs_width,) = reader.unpack("<I", "observation width")
    kind, dim, low = reader.unpack("<BId", "action space")
    (high,) = reader.unpack("<d", "action space high")
    if kind == 0:
        action_space = DiscreteSpace(dim)
    elif kind == 1:
        action_space = BoxSpace(dim, low, high)
    else:
        raise DataFormatError(f"unknown action space kind {kind}", byte_offset=reader.offset)
    (count,) = reader.unpack("<Q", "record count")
    if count == 0:
        raise DataFormatError("dataset contains zero records", byte_offset=reader.offset)
    states = np.zeros((count, obs_width))
    next_states = np.zeros((count, obs_width))
    rewards = np.zeros(count)
    dones = np.zeros(count, dtype=bool)
    if kind == 0:
        actions = np.zeros(count, dtype=np.int64)
    else:
        actions = np.zeros((count, dim))
    vec = f"<{obs_width}d"
    for j in range(count):
        try:
            states[j] = reader.unpack(vec, f"record {j} state")
            if kind == 0:
                (actions[j],) = reader.unpack("<I", f"record {j} action")
            else:
                actions[j] = reader.unpack(f"<{dim}d", f"record {j} action")
            (rewards[j],) = reader.unpack("<d", f"record {j} reward")
            next_states[j] = reader.unpack(vec, f"record {j} next state")
            (done_byte,) = reader.unpack("<B", f"record {j} done flag")
        except DataFormatError as err:
            err.record_index = j
            raise
        if done_byte not in (0, 1):
            raise DataFormatError(
                f"record {j}: done flag must be 0 or 1, got {done_byte}",
                byte_offset=reader.offset - 1,
                record_index=j,
            )
        dones[j] = bool(done_byte)
    if reader.offset != len(reader.data):
        raise DataFormatError(
            f"trailing bytes after the last record at byte offset {reader.offset}",
            byte_offset=reader.offset,
        )
    return OfflineDataset(env_id, obs_width, action_space, states, actions, rewards, next_states, dones)


def collect_dataset(env, policy_fn, episodes: int, rng: RngStream) -> OfflineDataset:
    """Generate a dataset by rolling out a behavior policy in-repo.

    policy_fn(obs, rng) -> action. Horizon truncation is not recorded as done.
    """
    transitions: list[Transition] = []
    for _ in range(episodes):
        state = env.reset(rng)
        obs = env.observe(state)
        for _ in range(env.spec.horizon):
            action = policy_fn(obs, rng)
            state, reward, done = env.step(state, action, rng)
            next_obs = env.observe(state)
            transitions.append(Transition(obs, action, reward, next_obs, done))
            obs = next_obs
            if done:
                break
    return dataset_from_transitions(env.spec, transitions)
