"""Bit-exact checkpointing of a full training state.

The file is a tagged binary tree: ints are arbitrary-precision (PCG64 states
are 128-bit), floats are raw IEEE doubles, and arrays are dtype + shape + raw
bytes, so load(save(x)) reproduces x exactly. The config rides along as its
canonical text plus digest; resuming against a different config is refused.
"""

from __future__ import annotations

import io
import os
import struct

import numpy as np

from .config import build_config, canonical_text, config_digest, parse_config_text
from .errors import CheckpointError, ConfigError, DataFormatError
from .nncore import AdamState, LayerSpec, NetworkParams
from .population import Member, Population
from .pruning import Mask
from .replay import ReplayBuffer
from .rng import RngStream
from .sac import GaussianPolicy, TwinCriticPopulation
from .training import TrainState
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


def _params_payload(params: NetworkParams) -> dict:
    return {
        "weights": list(params.weights),
        "biases": list(params.biases),
        "specs": [[s.input_width, s.output_width, s.activation] for s in params.layer_specs],
    }


def _params_restore(payload: dict) -> NetworkParams:
    specs = tuple(LayerSpec(int(i), int(o), a) for i, o, a in payload["specs"])
    return NetworkParams([w for w in payload["weights"]], [b for b in payload["biases"]], specs)


def _mask_payload(mask: Mask | None):
    return None if mask is None else {"layers": list(mask.layers)}


def _mask_restore(payload) -> Mask | None:
    return None if payload is None else Mask(list(payload["layers"]))


def _adam_payload(opt: AdamState) -> dict:
    return {
        "m": _params_payload(opt.m),
        "v": _params_payload(opt.v),
        "step_count": opt.step_count,
        "learning_rate": opt.learning_rate,
        "epsilon": opt.epsilon,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
    }


def _adam_restore(payload: dict) -> AdamState:
    return AdamState(
        m=_params_restore(payload["m"]),
        v=_params_restore(payload["v"]),
        step_count=int(payload["step_count"]),
        learning_rate=float(payload["learning_rate"]),
        epsilon=float(payload["epsilon"]),
        beta1=float(payload["beta1"]),
        beta2=float(payload["beta2"]),
    )


def _member_payload(member: Member) -> dict:
    return {
        "params": _params_payload(member.params),
        "mask": _mask_payload(member.mask),
        "optimizer": _adam_payload(member.optimizer),
        "cumulated_loss": member.cumulated_loss,
        "sparsity": member.sparsity,
        "lineage_id": member.lineage_id,
        "mask_target": member.mask_target,
        "target_params": None if member.target_params is None else _params_payload(member.target_params),
        "target_mask": _mask_payload(member.target_mask),
    }


def _member_restore(payload: dict) -> Member:
    return Member(
        params=_params_restore(payload["params"]),
        mask=_mask_restore(payload["mask"]),
        optimizer=_adam_restore(payload["optimizer"]),
        cumulated_loss=float(payload["cumulated_loss"]),
        sparsity=float(payload["sparsity"]),
        lineage_id=int(payload["lineage_id"]),
        mask_target=float(payload["mask_target"]),
        target_params=None
        if payload["target_params"] is None
        else _params_restore(payload["target_params"]),
        target_mask=_mask_restore(payload["target_mask"]),
    )


def _population_payload(pop: Population | None):
    if pop is None:
        return None
    return {
        "members": [_member_payload(m) for m in pop.members],
        "target_params": None if pop.target_params is None else _params_payload(pop.target_params),
        "target_mask": _mask_payload(pop.target_mask),
        "champion_index": pop.champion_index,
        "next_lineage_id": pop.next_lineage_id,
    }


def _population_restore(payload) -> Population | None:
    if payload is None:
        return None
    return Population(
        members=[_member_restore(m) for m in payload["members"]],
        target_params=None
        if payload["target_params"] is None
        else _params_restore(payload["target_params"]),
        target_mask=_mask_restore(payload["target_mask"]),
        champion_index=int(payload["champion_index"]),
        next_lineage_id=int(payload["next_lineage_id"]),
    )


def state_to_payload(state: TrainState) -> dict:
    config = state.config
    payload = {
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
        "population": _population_payload(state.population),
        "policy": None,
        "twin": None,
    }
    if state.policy is not None:
        payload["policy"] = {
            "params": _params_payload(state.policy.params),
            "mask": _mask_payload(state.policy.mask),
            "optimizer": _adam_payload(state.policy.optimizer),
            "action_dim": state.policy.action_dim,
            "action_low": state.policy.action_low,
            "action_high": state.policy.action_high,
        }
    if state.twin is not None:
        payload["twin"] = {
            "sides": [_population_payload(side) for side in state.twin.sides],
            "tau": state.twin.tau,
            "alpha": state.twin.alpha,
            "prune_period": state.twin.prune_period,
        }
    return payload


def payload_to_state(payload: dict, *, adopt_buffer: bool = False) -> TrainState:
    """Rebuild a TrainState. The replay buffer copies the payload's arrays
    unless adopt_buffer is set, as for a payload that was just decoded and has
    no other user."""
    config = build_config(parse_config_text(payload["config_text"]))
    if config_digest(config) != payload["config_digest"]:
        raise CheckpointError("checkpoint config text does not match its stored digest")
    spec = make_env(config.env).spec
    try:
        buffer = ReplayBuffer.from_state_dict(
            payload["buffer"], config.buffer_capacity, spec.observation_width, spec.action_space, copy=not adopt_buffer
        )
    except ConfigError as err:
        raise CheckpointError(f"checkpoint replay buffer does not fit this config: {err}") from err
    streams = {}
    for label, bitgen_state in payload["streams"].items():
        stream = RngStream(config.seed, label)
        stream.set_state(bitgen_state)
        streams[label] = stream
    policy = None
    if payload["policy"] is not None:
        p = payload["policy"]
        policy = GaussianPolicy(
            params=_params_restore(p["params"]),
            mask=_mask_restore(p["mask"]),
            optimizer=_adam_restore(p["optimizer"]),
            action_dim=int(p["action_dim"]),
            action_low=float(p["action_low"]),
            action_high=float(p["action_high"]),
        )
    twin = None
    if payload["twin"] is not None:
        tw = payload["twin"]
        sides = [_population_restore(side) for side in tw["sides"]]
        twin = TwinCriticPopulation(
            sides=(sides[0], sides[1]),
            tau=float(tw["tau"]),
            alpha=float(tw["alpha"]),
            prune_period=int(tw["prune_period"]),
        )
    return TrainState(
        config=config,
        step=int(payload["step"]),
        streams=streams,
        buffer=buffer,
        env_state=payload["env_state"],
        obs=payload["obs"],
        episode_return=float(payload["episode_return"]),
        episode_len=int(payload["episode_len"]),
        last_episode_return=float(payload["last_episode_return"]),
        last_eval=float(payload["last_eval"]),
        population=_population_restore(payload["population"]),
        logged_champion=int(payload["logged_champion"]),
        logged_behavior=int(payload["logged_behavior"]),
        policy=policy,
        twin=twin,
        logged_behaviors=tuple(payload["logged_behaviors"]),
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
