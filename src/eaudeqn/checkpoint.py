"""Bit-exact checkpointing of a full training state.

The file is an 8-byte magic that names the format version, then a tagged
binary tree of what a state payload holds: None, ints (arbitrary-precision:
PCG64 states are 128-bit), floats (raw IEEE doubles), strings, lists, dicts
with string keys, and float64, int64 or uint8 arrays (dtype + shape + raw
bytes), so load(save(x)) reproduces x exactly. Any other type is refused on
save, and any other tag or dtype on load. The config rides along as its
canonical text plus digest; resuming against a different config is refused,
and so is a state whose networks or replay rings do not fit that config.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .config import build_config, canonical_text, config_digest, network_widths, parse_config_text
from .errors import CheckpointError, ConfigError, DataFormatError
from .nncore import AdamState, Frozen, LayerSpec, Layout, NetworkParams, mlp_layer_specs, spec_layout
from .population import Member, Population
from .pruning import Mask, mask_of_ones, sparsity_of
from .replay import ReplayBuffer
from .rng import RngStream
from .sac import GaussianPolicy, TwinCriticPopulation
from .training import SAC_STREAMS, VALUE_STREAMS, TrainState
from .envs import make_env

_MAGIC = b"EAUDECK6"


# -- binary codec -------------------------------------------------------------
#
# Both directions stream: save writes straight into the file and load reads
# each array straight into its final buffer. Building the whole file in memory
# first cost two file-sized copies per call, and whether the allocator kept or
# returned those pages to the system made save and load up to twice as slow.


# the array dtypes a payload holds, keyed by the spelling a file stores
_DTYPES = {np.dtype(t).str.encode("ascii"): np.dtype(t) for t in (np.float64, np.int64, np.uint8)}


def _encode(obj, write) -> None:
    """Append obj's encoding through write(bytes-like). Types match exactly, so
    a bool (an int) or a numpy scalar (np.float64 is a float) is refused with
    everything else a payload never holds, not written as another type."""
    kind = type(obj)
    if obj is None:
        write(b"N")
    elif kind is int:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8 or 1, "little", signed=True)
        write(b"I" + struct.pack("<I", len(raw)) + raw)
    elif kind is float:
        write(b"F" + struct.pack("<d", obj))
    elif kind is str:
        raw = obj.encode("utf-8")
        write(b"S" + struct.pack("<I", len(raw)) + raw)
    elif kind is list:
        write(b"L" + struct.pack("<I", len(obj)))
        for item in obj:
            _encode(item, write)
    elif kind is dict:
        write(b"D" + struct.pack("<I", len(obj)))
        for key, value in obj.items():
            if type(key) is not str:
                raise CheckpointError(f"dict keys must be strings, got {type(key).__name__}")
            _encode(key, write)
            _encode(value, write)
    elif kind is np.ndarray:
        dtype = obj.dtype.str.encode("ascii")
        if dtype not in _DTYPES:
            raise CheckpointError(f"cannot serialize a {obj.dtype} array")
        arr = obj if obj.flags.c_contiguous else obj.copy(order="C")  # ascontiguousarray makes 0-d 1-d
        shape = struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b""
        write(b"A" + struct.pack("<I", len(dtype)) + dtype + struct.pack("<B", arr.ndim) + shape)
        write(struct.pack("<Q", arr.nbytes))
        write(arr.data)
    else:
        raise CheckpointError(f"cannot serialize {kind.__name__}")


class _Reader:
    """Reads a payload of `size` bytes from a binary stream, checking every
    length against the bytes left before it reads or allocates anything."""

    def __init__(self, stream, size: int):
        self.stream = stream
        self.size = size
        self.offset = 0

    def _claim(self, n: int, what: str) -> int:
        """Reserve the next n bytes; returns where they start."""
        start = self.offset
        if start + n > self.size:
            raise DataFormatError(
                f"corrupted checkpoint: needed {n} bytes for {what} at byte offset {start}",
                byte_offset=start,
            )
        self.offset += n
        return start

    def _check_read(self, got: int, n: int, what: str, start: int) -> None:
        if got != n:  # the file shrank while it was read
            raise DataFormatError(
                f"corrupted checkpoint: read {got} of {n} bytes for {what} at byte offset {start}",
                byte_offset=start,
            )

    def take(self, n: int, what: str) -> bytes:
        start = self._claim(n, what)
        chunk = self.stream.read(n)
        self._check_read(len(chunk), n, what, start)
        return chunk

    def take_array(self, dtype: np.dtype, shape: tuple, nbytes: int) -> np.ndarray:
        start = self._claim(nbytes, "array payload")
        try:
            arr = np.empty(shape, dtype=dtype)
        except ValueError as err:  # a shape no array can have: a negative dimension, or (0, 2**62)
            raise DataFormatError(
                f"corrupted checkpoint: array of shape {list(shape)} at byte offset {start}: {err}", byte_offset=start
            ) from None
        self._check_read(self.stream.readinto(arr.data), nbytes, "array payload", start)
        return arr

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


_MAX_DEPTH = 64  # a state payload nests 8 deep; deeper input is refused, not recursed into


def _decode(reader: _Reader, depth: int = 0):
    if depth > _MAX_DEPTH:
        raise DataFormatError(
            f"corrupted checkpoint: nested deeper than {_MAX_DEPTH} at byte offset {reader.offset}",
            byte_offset=reader.offset,
        )
    tag = reader.take(1, "type tag")
    if tag == b"N":
        return None
    if tag == b"I":
        (n,) = reader.unpack("<I", "int length")
        start = reader.offset
        value = int.from_bytes(reader.take(n, "int payload"), "little", signed=True)
        if n != ((value.bit_length() + 8) // 8 or 1):  # the encoder writes the shortest two's complement
            raise DataFormatError(
                f"corrupted checkpoint: {n}-byte int {value} is not in its shortest form at byte offset {start}",
                byte_offset=start,
            )
        return value
    if tag == b"F":
        return reader.unpack("<d", "float")[0]
    if tag == b"S":
        (n,) = reader.unpack("<I", "string length")
        start = reader.offset
        try:
            return reader.take(n, "string payload").decode("utf-8")
        except UnicodeDecodeError:
            raise DataFormatError(
                f"corrupted checkpoint: string that is not UTF-8 at byte offset {start}", byte_offset=start
            ) from None
    if tag == b"L":
        (n,) = reader.unpack("<I", "list length")
        return [_decode(reader, depth + 1) for _ in range(n)]
    if tag == b"D":
        (n,) = reader.unpack("<I", "dict length")
        out = {}
        for _ in range(n):
            start = reader.offset
            key = _decode(reader, depth + 1)
            if type(key) is not str:
                raise DataFormatError(
                    f"corrupted checkpoint: dict key of type {type(key).__name__} at byte offset {start}",
                    byte_offset=start,
                )
            out[key] = _decode(reader, depth + 1)
        return out
    if tag == b"A":
        (n,) = reader.unpack("<I", "dtype length")
        start = reader.offset
        dtype = _DTYPES.get(reader.take(n, "dtype"))
        if dtype is None:
            raise DataFormatError(
                f"corrupted checkpoint: not a float64, int64 or uint8 array at byte offset {start}", byte_offset=start
            )
        (ndim,) = reader.unpack("<B", "ndim")
        shape = reader.unpack(f"<{ndim}q", "shape") if ndim else ()
        (nbytes,) = reader.unpack("<Q", "array length")
        expected = math.prod(shape) * dtype.itemsize  # exact: no int64 product to wrap
        if nbytes != expected:
            raise DataFormatError(
                f"corrupted checkpoint: array length field {nbytes} != expected {expected} "
                f"at byte offset {reader.offset}",
                byte_offset=reader.offset,
            )
        return reader.take_array(dtype, shape, nbytes)
    raise DataFormatError(
        f"corrupted checkpoint: unknown tag {tag!r} at byte offset {reader.offset - 1}",
        byte_offset=reader.offset - 1,
    )


def _decode_stream(stream, size: int) -> dict:
    reader = _Reader(stream, size)
    magic = reader.take(len(_MAGIC), "magic")
    if magic != _MAGIC:
        if magic.startswith(_MAGIC[:-1]):  # another version of this format
            raise CheckpointError(
                f"checkpoint format {magic.decode('ascii', 'replace')} is not this version's {_MAGIC.decode()}"
            )
        raise DataFormatError("not a checkpoint file (bad magic)", byte_offset=0)
    payload = _decode(reader)
    if reader.offset != size:
        raise DataFormatError(
            f"trailing bytes after checkpoint payload at byte offset {reader.offset}",
            byte_offset=reader.offset,
        )
    return payload


def encode_payload(payload: dict) -> bytes:
    out = bytearray(_MAGIC)
    _encode(payload, out.extend)
    return bytes(out)


def decode_payload(blob: bytes) -> dict:
    return _decode_stream(io.BytesIO(blob), len(blob))


# -- state <-> payload --------------------------------------------------------
#
# A population is stored as the stack it trains as: params, Adam moments and
# (critics) soft_targets as float64 (K, P), the mask as its packed 0/1 bits
# (np.packbits along the last axis, uint8 (K, ceil(W/8))), cumulated_loss and
# mask_target as float64 (K,), lineage_id and step_count as int64 (K,), then
# the shared target, champion_index and next_lineage_id; targets a population
# does not have are None. The policy record is its params and optimizer, the
# twin a list of its two side records. What restore can derive is left out:
# sparsity (the mask's), Adam hyperparameters (the config's), the policy's
# mask (all ones) and action box (the env's), obs (env.observe(env_state)),
# and the replay buffer's capacity and insert count; of each replay ring the
# payload holds only what ReplayBuffer.state_dict keeps. Restoring checks
# every entry against the config before any state is returned: a missing or
# unknown entry, or a value of the wrong type, dtype or shape, is a
# CheckpointError, never a KeyError or a TypeError. Each population is then
# built around copies of its stored arrays, not restacked, and its shared
# target is frozen.

_NUMBERS = {int: (int,), float: (float, int)}  # exact types: a bool is not a count
# a payload holds the state's fields but obs, with the config as its text and digest
_PAYLOAD_KEYS = frozenset(
    {f.name for f in dataclasses.fields(TrainState)} - {"config", "obs"} | {"config_text", "config_digest"}
)
_OPTIMIZER_KEYS = frozenset({"m", "v", "step_count"})
_POLICY_KEYS = frozenset({"params", "optimizer"})
_POPULATION_KEYS = frozenset({"params", "mask", "optimizer", "cumulated_loss", "lineage_id", "mask_target",
                              "soft_targets", "target_params", "target_mask", "champion_index", "next_lineage_id"})


def _bits(mask: Mask) -> np.ndarray:
    return np.packbits(mask.flat != 0.0, axis=-1)


def _optimizer_record(optimizer: AdamState) -> dict:
    return {"m": optimizer.m.flat, "v": optimizer.v.flat, "step_count": optimizer.step_count}


def _population_record(population: Population) -> dict:
    stack, target, target_mask = population.stack, population.target_params, population.target_mask
    return {
        "params": stack.params.flat,
        "mask": _bits(stack.mask),
        "optimizer": _optimizer_record(stack.optimizer),
        "cumulated_loss": stack.cumulated_loss,
        "lineage_id": stack.lineage_id,
        "mask_target": stack.mask_target,
        "soft_targets": None if stack.target_params is None else stack.target_params.flat,
        "target_params": None if target is None else target.flat,
        "target_mask": None if target_mask is None else _bits(target_mask),
        "champion_index": population.champion_index,
        "next_lineage_id": population.next_lineage_id,
    }


def _kind(value) -> str:
    """How an error message names a payload value: dtype and shape, or type."""
    return f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else type(value).__name__


def _array(value, dtype, shape: tuple, where: str) -> np.ndarray:
    """A copy of value, if it is an array of exactly this dtype and shape."""
    if type(value) is not np.ndarray or value.dtype != dtype or value.shape != shape:
        raise CheckpointError(f"checkpoint {where}: expected {np.dtype(dtype)}{list(shape)}, got {_kind(value)}")
    return value.copy()


def _fields(record, keys: frozenset, where: str) -> dict:
    """The record, if it is a dict whose entries are exactly keys."""
    if type(record) is not dict:
        raise CheckpointError(f"checkpoint {where}: expected a record, got {_kind(record)}")
    if record.keys() != keys:
        missing = sorted(keys - record.keys())
        if missing:
            raise CheckpointError(f"checkpoint {where}: no {missing[0]!r} entry")
        unknown = next(key for key in record if key not in keys)
        raise CheckpointError(f"checkpoint {where}: unknown entry {unknown!r}")
    return record


def _list(value, where: str) -> list:
    if type(value) is not list:
        raise CheckpointError(f"checkpoint {where}: expected a list, got {_kind(value)}")
    return value


def _number(hint, value, where: str):
    """value as an int or a float (hint), refusing any other type, bools too."""
    if type(value) not in _NUMBERS[hint]:
        raise CheckpointError(f"checkpoint {where}: expected {hint.__name__}, got {_kind(value)}")
    return hint(value)


def _count(value, shape: tuple, where: str):
    """A count, index or id: a non-negative int below 2**63 or, given a
    stack's shape, an int64 array of it with no negative entry."""
    if shape:
        value = _array(value, np.int64, shape, where)
        negative = np.flatnonzero(value < 0)
        if negative.size:
            raise CheckpointError(f"checkpoint {where}[{negative[0]}]: {value[negative[0]]} is negative")
        return value
    value = _number(int, value, where)
    if value < 0:
        raise CheckpointError(f"checkpoint {where}: {value} is negative")
    if value >= 2**63:  # a stack holds counts and ids as int64
        raise CheckpointError(f"checkpoint {where}: {value} does not fit in int64")
    return value


class _Net(NamedTuple):
    """The networks the config gives one role (q, actor or critic): their
    layer specs and layout, and their optimizer's settings. `lead` is () for
    one network and (K,) for a stack of them."""

    specs: tuple[LayerSpec, ...]
    layout: Layout
    learning_rate: float
    epsilon: float

    def params(self, record, lead: tuple, where: str) -> NetworkParams:
        return NetworkParams.of(_array(record, np.float64, (*lead, self.layout.size), where), self.specs)

    def mask(self, record, lead: tuple, where: str) -> Mask:
        """The 0/1 mask whose packed bits a record holds, refusing a record
        with a padding bit set past the last weight."""
        n = self.layout.n_weights
        bits = _array(record, np.uint8, (*lead, -(-n // 8)), where)
        if n % 8 and (bits[..., -1] & (0xFF >> n % 8)).any():
            raise CheckpointError(f"checkpoint {where}: padding bits set past the last of {n} weights")
        return Mask.of(np.unpackbits(bits, axis=-1, count=n).astype(np.float64), self.layout)

    def optimizer(self, record, lead: tuple, where: str) -> AdamState:
        record = _fields(record, _OPTIMIZER_KEYS, where)
        return AdamState(
            self.params(record["m"], lead, f"{where}.m"),
            self.params(record["v"], lead, f"{where}.v"),
            _count(record["step_count"], lead, f"{where}.step_count"),
            self.learning_rate,
            self.epsilon,
        )

    def population(self, record, k: int, soft_targets: bool, where: str) -> Population:
        """A population of k networks with a soft target each or one shared
        target, refusing one whose member scalars or targets do not fit."""
        record = _fields(record, _POPULATION_KEYS, where)
        soft, target, target_mask = record["soft_targets"], record["target_params"], record["target_mask"]
        if {soft is not None, target is None, target_mask is None} != {soft_targets}:
            wanted = "a soft target per member" if soft_targets else "one shared target"
            raise CheckpointError(f"checkpoint {where}: this config's population has {wanted} and no other")
        mask = self.mask(record["mask"], (k,), f"{where}.mask")
        ids = _count(record["lineage_id"], (k,), f"{where}.lineage_id")
        mask_target = _array(record["mask_target"], np.float64, (k,), f"{where}.mask_target")
        champion = _count(record["champion_index"], (), f"{where}.champion_index")
        next_id = _count(record["next_lineage_id"], (), f"{where}.next_lineage_id")
        if champion >= k:
            raise CheckpointError(f"checkpoint {where}: champion_index {champion} outside [0, {k})")
        for name, values, bad, why in (
            ("mask_target", mask_target, ~((mask_target >= 0.0) & (mask_target < 1.0)), "is outside [0, 1)"),
            ("lineage_id", ids, ids >= next_id, "is at or above next_lineage_id"),
            ("lineage_id", ids, (ids == ids[:, None]).sum(axis=0) > 1, "is another member's too"),
        ):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise CheckpointError(f"checkpoint {where}.{name}[{i}]: {values.tolist()[i]!r} {why}")
        stack = Member(
            params=self.params(record["params"], (k,), f"{where}.params"),
            mask=mask,
            optimizer=self.optimizer(record["optimizer"], (k,), f"{where}.optimizer"),
            cumulated_loss=_array(record["cumulated_loss"], np.float64, (k,), f"{where}.cumulated_loss"),
            sparsity=sparsity_of(mask),
            lineage_id=ids,
            mask_target=mask_target,
            target_params=None if soft is None else self.params(soft, (k,), f"{where}.soft_targets"),
        )
        if target is not None:
            target = Frozen(
                self.params(target, (), f"{where}.target_params"), self.mask(target_mask, (), f"{where}.target_mask")
            )
        return Population(stack, target, champion, next_id)


def state_to_payload(state: TrainState) -> dict:
    config, policy, twin = state.config, state.policy, state.twin
    return {
        "config_text": canonical_text(config),
        "config_digest": config_digest(config),
        "step": state.step,
        "streams": {label: stream.get_state() for label, stream in state.streams.items()},
        "buffer": state.buffer.state_dict(),
        "env_state": state.env_state,
        "episode_return": state.episode_return,
        "episode_len": state.episode_len,
        "last_episode_return": state.last_episode_return,
        "last_eval": state.last_eval,
        "logged_champion": state.logged_champion,
        "logged_behavior": state.logged_behavior,
        "logged_behaviors": list(state.logged_behaviors),
        "population": None if state.population is None else _population_record(state.population),
        "policy": None if policy is None else {
            "params": policy.params.flat, "optimizer": _optimizer_record(policy.optimizer)
        },
        "twin": None if twin is None else [_population_record(side) for side in twin.sides],
    }


def payload_to_state(payload: dict, *, adopt_buffer: bool = False) -> TrainState:
    """Rebuild a TrainState, refusing with CheckpointError any entry that is
    missing, unknown, of the wrong type or does not fit the config: networks,
    replay rings, random streams and the env state. The replay buffer copies
    the payload's rows into fresh rings, except that with adopt_buffer set it
    adopts full rings as they are, as for a payload that was just decoded and
    has no other user."""

    get = _fields(payload, _PAYLOAD_KEYS, "payload").__getitem__
    text = get("config_text")
    if type(text) is not str:
        raise CheckpointError(f"checkpoint config_text: expected str, got {_kind(text)}")
    try:
        config = build_config(parse_config_text(text))
    except ConfigError as err:
        raise CheckpointError(f"checkpoint config text is not a valid config: {err}") from err
    if config_digest(config) != get("config_digest"):
        raise CheckpointError("checkpoint config text does not match its stored digest")
    step = _count(get("step"), (), "step")
    env = make_env(config.env)
    spec = env.spec
    try:
        buffer = ReplayBuffer.from_state_dict(
            get("buffer"), config.buffer_capacity, spec.observation_width, spec.action_space, step,
            copy=not adopt_buffer,
        )
    except (ConfigError, KeyError, TypeError) as err:
        raise CheckpointError(f"checkpoint replay buffer does not fit this config: {err!r}") from err
    _fields(get("buffer"), ReplayBuffer.RECORD_KEYS, "buffer")
    k = config.population_size
    nets = {}
    for role, widths in network_widths(config).items():
        specs = mlp_layer_specs(widths)
        nets[role] = _Net(specs, spec_layout(specs), config.learning_rate, config.adam_epsilon)

    def part(name: str, role: str, restore):
        """A per-family part of the state: present exactly when the config has its network."""
        record = get(name)
        if (record is None) != (role not in nets):
            raise CheckpointError(f"checkpoint {name}: {'missing' if record is None else 'not used by this config'}")
        return None if record is None else restore(record, nets[role])

    def policy(record, net: _Net) -> GaussianPolicy:
        record = _fields(record, _POLICY_KEYS, "policy")
        params, box = net.params(record["params"], (), "policy.params"), spec.action_space
        optimizer = net.optimizer(record["optimizer"], (), "policy.optimizer")
        return GaussianPolicy(params, mask_of_ones(params), optimizer, box.dimension, box.low, box.high)

    def twin(record, net: _Net) -> TwinCriticPopulation:
        if len(_list(record, "twin")) != 2:
            raise CheckpointError(f"checkpoint twin: {len(record)} sides, expected 2")
        return TwinCriticPopulation(tuple(net.population(side, k, True, f"twin[{i}]") for i, side in enumerate(record)))

    labels = SAC_STREAMS if config.is_sac else VALUE_STREAMS
    states = get("streams")
    if type(states) is not dict or set(states) != set(labels):
        got = sorted(map(str, states)) if type(states) is dict else _kind(states)
        raise CheckpointError(f"checkpoint streams: {got} are not this config's {sorted(labels)}")
    streams = {label: RngStream(config.seed, label) for label in labels}
    # a fresh reset shows the dtype and shape env_state must have; set_state
    # below overwrites the draw it takes
    reset = env.reset(streams["env"])
    for label, stream in streams.items():
        try:
            stream.set_state(states[label])
        except (KeyError, OverflowError, TypeError, ValueError) as err:
            raise CheckpointError(f"checkpoint streams[{label!r}]: not a bit-generator state: {err!r}") from err
    env_state = _array(get("env_state"), reset.dtype, reset.shape, "env_state")
    if not env.contains(env_state):
        raise CheckpointError(f"checkpoint env_state: {env_state.tolist()} is not a {spec.id} state")

    def index(value, where: str) -> int:  # a member index into a population
        value = _number(int, value, where)
        if not 0 <= value < k:
            raise CheckpointError(f"checkpoint {where}: {value} outside [0, {k})")
        return value

    behaviors = _list(get("logged_behaviors"), "logged_behaviors")
    if len(behaviors) != 2:
        raise CheckpointError(f"checkpoint logged_behaviors: {len(behaviors)} entries, expected 2")
    return TrainState(
        config=config,
        step=step,
        streams=streams,
        buffer=buffer,
        env_state=env_state,
        obs=env.observe(env_state),
        episode_return=_number(float, get("episode_return"), "episode_return"),
        episode_len=_count(get("episode_len"), (), "episode_len"),
        last_episode_return=_number(float, get("last_episode_return"), "last_episode_return"),
        last_eval=_number(float, get("last_eval"), "last_eval"),
        population=part("population", "q", lambda record, net: net.population(record, k, False, "population")),
        logged_champion=index(get("logged_champion"), "logged_champion"),
        logged_behavior=index(get("logged_behavior"), "logged_behavior"),
        policy=part("policy", "actor", policy),
        twin=part("twin", "critic", twin),
        logged_behaviors=(index(behaviors[0], "logged_behaviors[0]"), index(behaviors[1], "logged_behaviors[1]")),
    )


def save_checkpoint(state: TrainState, path) -> None:
    payload = state_to_payload(state)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        _encode(payload, fh.write)


def load_checkpoint(path) -> TrainState:
    with open(path, "rb") as fh:
        payload = _decode_stream(fh, os.fstat(fh.fileno()).st_size)
    return payload_to_state(payload, adopt_buffer=True)
