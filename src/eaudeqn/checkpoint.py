"""Bit-exact checkpointing of a full training state.

The file is a tagged binary tree: ints are arbitrary-precision (PCG64 states
are 128-bit), floats are raw IEEE doubles, and arrays are dtype + shape + raw
bytes, so load(save(x)) reproduces x exactly. The config rides along as its
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
from .nncore import LayerSpec, NetworkParams, mlp_layer_specs
from .population import Member, Population
from .pruning import Mask
from .replay import ReplayBuffer
from .rng import RngStream
from .sac import GaussianPolicy, TwinCriticPopulation
from .training import SAC_STREAMS, VALUE_STREAMS, TrainState
from .envs import make_env

_MAGIC = b"EAUDECK1"


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
        arr = np.ascontiguousarray(obj)
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


def _decode(reader: _Reader):
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
        return [_decode(reader) for _ in range(n)]
    if tag == b"D":
        (n,) = reader.unpack("<I", "dict length")
        out = {}
        for _ in range(n):
            key = _decode(reader)
            out[key] = _decode(reader)
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
    if reader.take(len(_MAGIC), "magic") != _MAGIC:
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
# name, in field order. The two leaves that hold arrays store them as lists:
# a network as "weights", "biases" and "specs" (its layer_specs, each as
# [input_width, output_width, activation]), a mask as "layers". A Population
# stores its stack as one "members" record per row. Restoring walks the same
# fields, led by their type hints, and checks every network array against the
# config before any state is returned. A missing entry or a value of the wrong
# type anywhere in the payload is a CheckpointError, never a KeyError or a
# TypeError.

_F64 = np.dtype(np.float64)
_PLAIN = {float, int, bool, str, type(None), np.ndarray}  # stored as they are
_NUMBERS = {int: (int, np.integer), float: (float, int, np.floating, np.integer)}


def _record(obj):
    """The payload form of a state object or of one of its field values."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, NetworkParams):
        return {"weights": list(obj.weights), "biases": list(obj.biases), "specs": _spec_records(obj.layer_specs)}
    if isinstance(obj, Mask):
        return {"layers": list(obj.layers)}
    if isinstance(obj, (list, tuple)):
        return [_record(x) for x in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    record = {name: _record(getattr(obj, name)) for name, _, _ in _plan(type(obj))}
    return {"members": [_record(m) for m in obj.members], **record} if isinstance(obj, Population) else record


def _spec_records(specs) -> list:
    return [[s.input_width, s.output_width, s.activation] for s in specs]


@functools.cache
def _plan(cls) -> list:
    """(name, type, optional) of each init field of cls: the fields a record holds."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        if f.init:
            args = typing.get_args(hints[f.name])
            optional = type(None) in args
            plan.append((f.name, args[0] if optional else hints[f.name], optional))
    return plan


class _Net(NamedTuple):
    """What the config expects of the networks of one role (q, actor or
    critic) and of the population they sit in."""

    specs: tuple[LayerSpec, ...]
    spec_records: list
    weight_shapes: list
    bias_shapes: list
    population_size: int
    soft_targets: bool  # critics: a soft target per member and no shared target


def _net(widths, population_size: int, soft_targets: bool) -> _Net:
    specs = mlp_layer_specs(widths)
    shapes = [(s.output_width, s.input_width) for s in specs]
    return _Net(specs, _spec_records(specs), shapes, [shape[:1] for shape in shapes], population_size, soft_targets)


def _kind(value) -> str:
    """How an error message names a payload value: dtype and shape, or type."""
    return f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else type(value).__name__


def _fields(record, keys: frozenset, where: str) -> dict:
    """The record, if it is a dict holding every one of keys."""
    if type(record) is not dict:
        raise CheckpointError(f"checkpoint {where}: expected a record, got {_kind(record)}")
    if not record.keys() >= keys:
        raise CheckpointError(f"checkpoint {where}: no {', '.join(map(repr, sorted(keys - record.keys())))} entry")
    return record


@functools.cache
def _keys(cls) -> frozenset:
    """The keys of a record of cls."""
    if cls is NetworkParams:
        return frozenset(("weights", "biases", "specs"))
    return frozenset(name for name, _, _ in _plan(cls)) | ({"members"} if cls is Population else set())


def _list(value, where: str) -> list:
    if type(value) is not list:
        raise CheckpointError(f"checkpoint {where}: expected a list, got {_kind(value)}")
    return value


def _number(hint, value, where: str, name: str | None = None):
    """value as an int or a float (hint), refusing any other type."""
    if not isinstance(value, _NUMBERS[hint]):
        at = where if name is None else f"{where}.{name}"
        raise CheckpointError(f"checkpoint {at}: expected {hint.__name__}, got {_kind(value)}")
    return hint(value)


def _arrays(arrays, shapes: list, where: str) -> list:
    """The record's arrays, if there is one float64 array of each expected shape."""
    if len(_list(arrays, where)) != len(shapes):
        raise CheckpointError(f"checkpoint {where}: {len(arrays)} arrays for {len(shapes)} layers")
    for i, (arr, shape) in enumerate(zip(arrays, shapes)):
        if type(arr) is not np.ndarray or arr.shape != shape or arr.dtype != _F64:
            raise CheckpointError(f"checkpoint {where}[{i}]: expected float64{list(shape)}, got {_kind(arr)}")
    return list(arrays)


def _restore(hint, record, net: _Net, where: str):
    """Rebuild a value of type `hint` from its record, refusing what does not
    fit the config: network arrays that do not match `net`, negative int
    fields, and populations whose member count, champion index, lineage ids,
    targets or masks do not fit."""
    if isinstance(hint, types.GenericAlias):  # a fixed-length tuple
        hints = typing.get_args(hint)
        if len(_list(record, where)) != len(hints):
            raise CheckpointError(f"checkpoint {where}: {len(record)} entries, expected {len(hints)}")
        return tuple(_restore(h, r, net, f"{where}[{i}]") for i, (h, r) in enumerate(zip(hints, record)))
    record = _fields(record, _keys(hint), where)
    if hint is NetworkParams:
        if record["specs"] != net.spec_records:
            raise CheckpointError(f"checkpoint {where}: layer specs {record['specs']} are not {net.spec_records}")
        weights = _arrays(record["weights"], net.weight_shapes, f"{where}.weights")
        return NetworkParams(weights, _arrays(record["biases"], net.bias_shapes, f"{where}.biases"), net.specs)
    if hint is Mask:
        return Mask(_arrays(record["layers"], net.weight_shapes, f"{where}.layers"))
    kwargs = {}
    for name, field_hint, optional in _plan(hint):
        value = record[name]
        if field_hint is float:
            kwargs[name] = _number(float, value, where, name)
        elif field_hint is int:  # step counts, indices, ids and sizes
            kwargs[name] = _number(int, value, where, name)
            if kwargs[name] < 0:
                raise CheckpointError(f"checkpoint {where}.{name}: {value} is negative")
        elif optional and value is None:
            kwargs[name] = None
        else:
            kwargs[name] = _restore(field_hint, value, net, f"{where}.{name}")
    if hint is not Population:
        return hint(**kwargs)
    k = net.population_size
    records = _list(record["members"], f"{where}.members")
    if len(records) != k:
        raise CheckpointError(f"checkpoint {where}: {len(records)} members, the config has {k}")
    members = [_restore(Member, m, net, f"{where}.members[{i}]") for i, m in enumerate(records)]
    if kwargs["champion_index"] >= k:
        raise CheckpointError(f"checkpoint {where}: champion_index {kwargs['champion_index']} outside [0, {k})")
    if any(m.lineage_id >= kwargs["next_lineage_id"] for m in members):
        raise CheckpointError(f"checkpoint {where}: a lineage id is at or above next_lineage_id")
    soft = {m.target_params is not None for m in members} | {m.target_mask is not None for m in members}
    shared = {kwargs["target_params"] is not None, kwargs["target_mask"] is not None}
    if soft != {net.soft_targets} or shared != {not net.soft_targets}:
        wanted = "a soft target per member" if net.soft_targets else "one shared target"
        raise CheckpointError(f"checkpoint {where}: this config's population has {wanted} and no other")
    pop = Population(members, **kwargs)
    _check_binary(pop.stack.mask, f"{where}.members[*].mask")  # one check per stacked layer
    _check_binary(pop.stack.target_mask, f"{where}.members[*].target_mask")
    _check_binary(pop.target_mask, f"{where}.target_mask")
    return pop


def _check_binary(mask: Mask | None, where: str) -> None:
    """Refuse a mask, or a stack of member masks, holding values other than 0 and 1."""
    for i, layer in enumerate(() if mask is None else mask.layers):
        bad = (layer != 0.0) & (layer != 1.0)
        if bad.any():
            at = np.argwhere(bad)[0].tolist()
            raise CheckpointError(f"checkpoint {where}.layers[{i}]: {float(layer[tuple(at)])!r} at {at} is not 0 or 1")


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
        "obs": state.obs,
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
    missing, of the wrong type or does not fit the config: networks, replay
    rings, random streams, the env state and the observation. The replay
    buffer copies the payload's arrays unless adopt_buffer is set, as for a
    payload that was just decoded and has no other user."""

    def get(key):
        return _fields(payload, {key}, "payload")[key]

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
            get("buffer"), config.buffer_capacity, spec.observation_width, spec.action_space, copy=not adopt_buffer
        )
    except (ConfigError, KeyError, TypeError) as err:
        raise CheckpointError(f"checkpoint replay buffer does not fit this config: {err!r}") from err
    k = config.population_size
    nets = network_widths(config)
    q, actor, critic = (
        _net(nets[role], k, role == "critic") if role in nets else None for role in ("q", "actor", "critic")
    )
    population = _part(Population, get("population"), q, "population")
    policy = _part(GaussianPolicy, get("policy"), actor, "policy")
    twin = _part(TwinCriticPopulation, get("twin"), critic, "twin")
    if policy is not None:
        _check_binary(policy.mask, "policy.mask")
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
    env_state, obs = get("env_state"), get("obs")
    if type(env_state) is not np.ndarray or env_state.dtype != reset.dtype or env_state.shape != reset.shape:
        raise CheckpointError(f"checkpoint env_state: expected {_kind(reset)}, got {_kind(env_state)}")
    if type(obs) is not np.ndarray or obs.dtype != _F64 or obs.shape != (spec.observation_width,):
        raise CheckpointError(f"checkpoint obs: expected float64[{spec.observation_width}], got {_kind(obs)}")
    behaviors = _list(get("logged_behaviors"), "logged_behaviors")
    return TrainState(
        config=config,
        step=step,
        streams=streams,
        buffer=buffer,
        env_state=env_state,
        obs=obs,
        episode_return=_number(float, get("episode_return"), "episode_return"),
        episode_len=episode_len,
        last_episode_return=_number(float, get("last_episode_return"), "last_episode_return"),
        last_eval=_number(float, get("last_eval"), "last_eval"),
        population=population,
        logged_champion=_number(int, get("logged_champion"), "logged_champion"),
        logged_behavior=_number(int, get("logged_behavior"), "logged_behavior"),
        policy=policy,
        twin=twin,
        logged_behaviors=tuple(_number(int, b, "logged_behaviors") for b in behaviors),
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
