"""Bit-exact checkpointing of a full training state.

The file is an 8-byte magic that names the format version, then a tagged
binary tree: ints are arbitrary-precision (PCG64 states are 128-bit), floats
are raw IEEE doubles, and arrays are dtype + shape + raw bytes, so
load(save(x)) reproduces x exactly. The config rides along as its
canonical text plus digest; resuming against a different config is refused,
and so is a state whose networks or replay rings do not fit that config.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import os
import struct
import types
import typing
from typing import NamedTuple

import numpy as np

from .config import build_config, canonical_text, config_digest, network_widths, parse_config_text
from .errors import CheckpointError, ConfigError, DataFormatError
from .nncore import AdamState, LayerSpec, Layout, NetworkParams, mlp_layer_specs, spec_layout
from .population import Member, Population
from .pruning import Mask, mask_of_ones, sparsity_of
from .replay import ReplayBuffer
from .rng import RngStream
from .sac import GaussianPolicy, TwinCriticPopulation
from .training import SAC_STREAMS, VALUE_STREAMS, TrainState
from .envs import make_env

_MAGIC = b"EAUDECK5"


# -- binary codec -------------------------------------------------------------
#
# Both directions stream: save writes straight into the file and load reads
# each array straight into its final buffer. Building the whole file in memory
# first cost two file-sized copies per call, and whether the allocator kept or
# returned those pages to the system made save and load up to twice as slow.


def _encode(obj, write) -> None:
    """Append obj's encoding through write(bytes-like)."""
    if obj is None:
        write(b"N")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        write(b"B" + (b"\x01" if obj else b"\x00"))
    elif isinstance(obj, (int, np.integer)):
        value = int(obj)
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "little", signed=True)
        write(b"I" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, (float, np.floating)):
        write(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        write(b"S" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(obj, (bytes, bytearray)):
        write(b"Y" + struct.pack("<I", len(obj)) + bytes(obj))
    elif isinstance(obj, (list, tuple)):
        write(b"L" + struct.pack("<I", len(obj)))
        for item in obj:
            _encode(item, write)
    elif isinstance(obj, dict):
        write(b"D" + struct.pack("<I", len(obj)))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CheckpointError(f"dict keys must be strings, got {type(key).__name__}")
            _encode(key, write)
            _encode(value, write)
    elif isinstance(obj, np.ndarray):
        arr = obj if obj.flags.c_contiguous else obj.copy(order="C")  # ascontiguousarray makes 0-d 1-d
        dtype = arr.dtype.str.encode("ascii")
        shape = struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b""
        write(b"A" + struct.pack("<I", len(dtype)) + dtype + struct.pack("<B", arr.ndim) + shape)
        write(struct.pack("<Q", arr.nbytes))
        write(arr.data)
    else:
        raise CheckpointError(f"cannot serialize {type(obj).__name__}")


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
        arr = np.empty(shape, dtype=dtype)
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
    if tag == b"B":
        return reader.take(1, "bool") == b"\x01"
    if tag == b"I":
        (n,) = reader.unpack("<I", "int length")
        return int.from_bytes(reader.take(n, "int payload"), "little", signed=True)
    if tag == b"F":
        return reader.unpack("<d", "float")[0]
    if tag == b"S":
        (n,) = reader.unpack("<I", "string length")
        return reader.take(n, "string payload").decode("utf-8")
    if tag == b"Y":
        (n,) = reader.unpack("<I", "bytes length")
        return reader.take(n, "bytes payload")
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
        dtype = np.dtype(reader.take(n, "dtype").decode("ascii"))
        if dtype.hasobject:
            raise DataFormatError(
                f"corrupted checkpoint: object array at byte offset {reader.offset}", byte_offset=reader.offset
            )
        (ndim,) = reader.unpack("<B", "ndim")
        shape = reader.unpack(f"<{ndim}q", "shape") if ndim else ()
        (nbytes,) = reader.unpack("<Q", "array length")
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
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
# A state object is stored as a record: a dict of its dataclass fields by
# name, in field order, leaving out the fields in _DERIVED, which restore sets
# from the config, the env's action box or the record's own arrays. A network
# is stored as its float64 buffer and a mask as the packed bits of its 0/1
# entries (np.packbits, uint8, the last byte's unused bits 0); a soft target
# has no mask of its own (it is used under its member's). The payload leaves
# out obs, which is env.observe(env_state), and the replay buffer's capacity
# and insert count (the config's, and the step); of each replay ring it holds
# only the rows written so far, the first min(step, capacity), and of the next
# states only the rows that are not bit for bit the next slot's state (an
# episode end, and the last written slot), so restore rebuilds the full rings
# around them (ReplayBuffer.state_dict). Restoring walks the same fields, led
# by their type hints, and checks every buffer against the config before any
# state is returned. A missing or unknown entry or a value of the wrong type
# anywhere in the payload is a CheckpointError, never a KeyError or a
# TypeError. A Population stores one member record per row; restore rebuilds
# each as a plain Member, like every other record, and Population(members,
# ...) stacks them.

_PLAIN = {float, int, bool, str, type(None), np.ndarray}  # stored as they are
_NUMBERS = {int: (int, np.integer), float: (float, int, np.floating, np.integer)}
_DERIVED = {  # record type -> the fields its record leaves out
    AdamState: ("learning_rate", "epsilon", "beta1", "beta2"),  # the config's
    GaussianPolicy: ("mask", "action_dim", "action_low", "action_high"),  # all ones (never pruned); the env's
    Member: ("sparsity",),  # its mask's
}
# a payload holds the state's fields but obs, with the config as its text and digest
_PAYLOAD_KEYS = frozenset(
    {f.name for f in dataclasses.fields(TrainState)} - {"config", "obs"} | {"config_text", "config_digest"}
)


def _record(obj):
    """The payload form of a state object or of one of its field values."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, NetworkParams):
        return obj.flat
    if isinstance(obj, Mask):
        return np.packbits(obj.flat != 0.0)
    if isinstance(obj, (list, tuple)):
        return [_record(x) for x in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    record = {name: _record(getattr(obj, name)) for name, _, _ in _plan(type(obj))}
    return {"members": [_record(m) for m in obj.members], **record} if isinstance(obj, Population) else record


@functools.cache
def _plan(cls) -> list:
    """(name, type, optional) of each init field of cls that its record holds."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        if f.init and f.name not in _DERIVED.get(cls, ()):
            args = typing.get_args(hints[f.name])
            optional = type(None) in args
            plan.append((f.name, args[0] if optional else hints[f.name], optional))
    return plan


class _Net(NamedTuple):
    """What the config expects of the networks of one role (q, actor or
    critic) and of the population they sit in."""

    specs: tuple[LayerSpec, ...]
    layout: Layout
    population_size: int
    soft_targets: bool  # critics: a soft target per member and no shared target
    derived: dict  # record type -> {field left out of its record: the value the config or env fixes}


def _kind(value) -> str:
    """How an error message names a payload value: dtype and shape, or type."""
    return f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else type(value).__name__


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


@functools.cache
def _keys(cls) -> frozenset:
    """The keys of a record of cls."""
    return frozenset(name for name, _, _ in _plan(cls)) | ({"members"} if cls is Population else set())


def _list(value, where: str) -> list:
    if type(value) is not list:
        raise CheckpointError(f"checkpoint {where}: expected a list, got {_kind(value)}")
    return value


def _number(hint, value, where: str, name: str | None = None):
    """value as an int or a float (hint), refusing any other type, bools too."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS[hint]):
        at = where if name is None else f"{where}.{name}"
        raise CheckpointError(f"checkpoint {at}: expected {hint.__name__}, got {_kind(value)}")
    return hint(value)


def _restore(hint, record, net: _Net, where: str):
    """Rebuild a value of type `hint` from its record, refusing what does not
    fit the config: network and mask buffers that do not match `net`,
    negative int fields, and populations whose member count, champion index,
    targets, masks or member scalars do not fit."""
    if hint is NetworkParams:
        size = net.layout.size
        if type(record) is not np.ndarray or record.dtype != np.float64 or record.shape != (size,):
            raise CheckpointError(f"checkpoint {where}: expected float64[{size}], got {_kind(record)}")
        return NetworkParams.of(record.copy(), net.specs)
    if hint is Mask:
        return Mask.of(_unpack_mask(record, net.layout.n_weights, where), net.layout)
    if isinstance(hint, types.GenericAlias):  # a fixed-length tuple
        hints = typing.get_args(hint)
        if len(_list(record, where)) != len(hints):
            raise CheckpointError(f"checkpoint {where}: {len(record)} entries, expected {len(hints)}")
        return tuple(_restore(h, r, net, f"{where}[{i}]") for i, (h, r) in enumerate(zip(hints, record)))
    record = _fields(record, _keys(hint), where)
    kwargs = dict(net.derived.get(hint, {}))
    for name, field_hint, optional in _plan(hint):
        value = record[name]
        if field_hint is float:
            kwargs[name] = _number(float, value, where, name)
        elif field_hint is int:  # step counts, indices, ids and sizes
            kwargs[name] = _number(int, value, where, name)
            if kwargs[name] < 0:
                raise CheckpointError(f"checkpoint {where}.{name}: {value} is negative")
            if kwargs[name] >= 2**63:  # a stack holds them as int64
                raise CheckpointError(f"checkpoint {where}.{name}: {value} does not fit in int64")
        elif optional and value is None:
            kwargs[name] = None
        else:
            kwargs[name] = _restore(field_hint, value, net, f"{where}.{name}")
    if hint is Member:
        kwargs["sparsity"] = sparsity_of(kwargs["mask"])
    elif hint is GaussianPolicy:
        kwargs["mask"] = mask_of_ones(kwargs["params"])
    if hint is not Population:
        return hint(**kwargs)
    k = net.population_size
    records = _list(record["members"], f"{where}.members")
    if len(records) != k:
        raise CheckpointError(f"checkpoint {where}: {len(records)} members, the config has {k}")
    members = [_restore(Member, m, net, f"{where}.members[{i}]") for i, m in enumerate(records)]
    if kwargs["champion_index"] >= k:
        raise CheckpointError(f"checkpoint {where}: champion_index {kwargs['champion_index']} outside [0, {k})")
    soft = {m.target_params is not None for m in members}
    shared = {kwargs["target_params"] is not None, kwargs["target_mask"] is not None}
    if soft != {net.soft_targets} or shared != {not net.soft_targets}:
        wanted = "a soft target per member" if net.soft_targets else "one shared target"
        raise CheckpointError(f"checkpoint {where}: this config's population has {wanted} and no other")
    population = Population(members, **kwargs)
    stack = population.stack
    ids, target = stack.lineage_id, stack.mask_target
    for name, bad, why in (
        ("mask_target", ~((target >= 0.0) & (target < 1.0)), "is outside [0, 1)"),
        ("lineage_id", ids >= kwargs["next_lineage_id"], "is at or above next_lineage_id"),
        ("lineage_id", (ids == ids[:, None]).sum(axis=0) > 1, "is another member's too"),
    ):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            value = getattr(stack, name).tolist()[i]
            raise CheckpointError(f"checkpoint {where}.members[{i}].{name}: {value!r} {why}")
    return population


def _unpack_mask(record, size: int, where: str) -> np.ndarray:
    """The float64 0/1 mask of `size` weights that a record of its packed bits
    holds, refusing a record of another dtype or length or with a padding bit
    set past the last weight."""
    nbytes = -(-size // 8)
    if type(record) is not np.ndarray or record.dtype != np.uint8 or record.shape != (nbytes,):
        raise CheckpointError(f"checkpoint {where}: expected uint8[{nbytes}], {size} mask bits, got {_kind(record)}")
    if size % 8 and record[-1] & (0xFF >> size % 8):
        raise CheckpointError(f"checkpoint {where}: padding bits set past the last of {size} weights")
    return np.unpackbits(record, count=size).astype(np.float64)


def _part(hint, record, net: _Net | None, where: str):
    """A per-family part of the state: present exactly when the config has its network."""
    if (record is None) != (net is None):
        raise CheckpointError(f"checkpoint {where}: {'missing' if record is None else 'not used by this config'}")
    return None if record is None else _restore(hint, record, net, where)


def state_to_payload(state: TrainState) -> dict:
    config = state.config
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
        "population": _record(state.population),
        "policy": _record(state.policy),
        "twin": _record(state.twin),
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
    step = _number(int, get("step"), "step")
    if step < 0:
        raise CheckpointError(f"checkpoint step {step} is negative")
    episode_len = _number(int, get("episode_len"), "episode_len")
    if episode_len < 0:
        raise CheckpointError(f"checkpoint episode_len {episode_len} is negative")
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
    # the values of the _DERIVED fields that the config and the env fix, by
    # record type; a type is only restored under its own role, so one table
    # serves every role (a member's sparsity is its mask's, set in _restore)
    derived = {
        AdamState: {"learning_rate": config.learning_rate, "epsilon": config.adam_epsilon,
                    "beta1": AdamState.beta1, "beta2": AdamState.beta2},
    }
    if config.is_sac:
        box = spec.action_space
        derived[GaussianPolicy] = {"action_dim": box.dimension, "action_low": box.low, "action_high": box.high}
    specs = {role: mlp_layer_specs(widths) for role, widths in network_widths(config).items()}
    q, actor, critic = (
        _Net(specs[role], spec_layout(specs[role]), k, role == "critic", derived) if role in specs else None
        for role in ("q", "actor", "critic")
    )
    population = _part(Population, get("population"), q, "population")
    policy = _part(GaussianPolicy, get("policy"), actor, "policy")
    twin = _part(TwinCriticPopulation, get("twin"), critic, "twin")
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
    env_state = get("env_state")
    if type(env_state) is not np.ndarray or env_state.dtype != reset.dtype or env_state.shape != reset.shape:
        raise CheckpointError(f"checkpoint env_state: expected {_kind(reset)}, got {_kind(env_state)}")
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
        episode_len=episode_len,
        last_episode_return=_number(float, get("last_episode_return"), "last_episode_return"),
        last_eval=_number(float, get("last_eval"), "last_eval"),
        population=population,
        logged_champion=index(get("logged_champion"), "logged_champion"),
        logged_behavior=index(get("logged_behavior"), "logged_behavior"),
        policy=policy,
        twin=twin,
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
