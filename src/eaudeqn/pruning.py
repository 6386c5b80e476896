"""Binary weight masks, magnitude pruning, and the two sparsity schedules.

Masks mirror the weight matrices of one network; bias vectors carry no mask.
Magnitude pruning is applied per layer: each weight matrix is pruned to the
target fraction independently, which keeps high global sparsity from wiping
out the small output layer. Zero counts use round-half-up of target * count,
and magnitude ties break toward the lowest flat index, so masks are fully
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleExhaustedError
from .nncore import NetworkParams
from .rng import RngStream


@dataclass
class Mask:
    """Per-layer 0/1 matrices matching one network's weight shapes (or a
    stack's, with the same leading (K,) axis)."""

    layers: list[np.ndarray]

    def copy(self) -> "Mask":
        return Mask([m.copy() for m in self.layers])

    def row(self, k: int) -> "Mask":
        """Mask k of a stack, as views into the stack's arrays."""
        return Mask([m[k] for m in self.layers])


def mask_of_ones(params: NetworkParams) -> Mask:
    return Mask([np.ones_like(w) for w in params.weights])


def masks_equal(a: Mask, b: Mask) -> bool:
    return len(a.layers) == len(b.layers) and all(
        np.array_equal(x, y) for x, y in zip(a.layers, b.layers)
    )


def sparsity_of(mask: Mask) -> float:
    """Fraction of zero entries over all maskable positions."""
    zeros = sum(int((layer == 0.0).sum()) for layer in mask.layers)
    total = sum(layer.size for layer in mask.layers)
    return zeros / total


def _zero_count(target: float, count: int) -> int:
    # round-half-up, not banker's rounding
    return int(math.floor(target * count + 0.5))


def magnitude_mask(params: NetworkParams, target_sparsity: float) -> Mask:
    """Mask dropping the lowest-|w| weights of each layer at the target fraction.

    Per layer, exactly round(target * count) entries are zeroed; ties on |w|
    break toward the lowest flat index (stable sort).
    """
    if not (0.0 <= target_sparsity <= 1.0):
        raise ConfigError(f"target sparsity must lie in [0, 1], got {target_sparsity}")
    if not params.all_finite():
        raise ConfigError("cannot prune non-finite parameters")
    layers = []
    for w in params.weights:
        k = _zero_count(target_sparsity, w.size)
        flat = np.ones(w.size)
        if k > 0:
            order = np.argsort(np.abs(w).ravel(), kind="stable")
            flat[order[:k]] = 0.0
        layers.append(flat.reshape(w.shape))
    return Mask(layers)


def apply_mask(params: NetworkParams, mask: Mask) -> NetworkParams:
    """Element-wise product on weights; biases untouched."""
    if len(mask.layers) != len(params.weights):
        raise ConfigError("mask layer count does not match network")
    for i, (w, m) in enumerate(zip(params.weights, mask.layers)):
        if w.shape != m.shape:
            raise ConfigError(f"layer {i}: mask shape {m.shape} != weight shape {w.shape}")
    return NetworkParams(
        [w * m for w, m in zip(params.weights, mask.layers)],
        [b.copy() for b in params.biases],
        params.layer_specs,
    )


@dataclass(frozen=True)
class PolyPruneConfig:
    """Hand-designed polynomial sparsity schedule.

    Sparsity ramps from 0 at t_start to final_sparsity at t_end with exponent
    steepness, then stays flat through t_final. The mask is recomputed from
    weight magnitudes every pruning_period steps (or at every target update
    when sync_to_target_updates is set) and is constant between events.
    """

    final_sparsity: float = 0.95
    exponent: float = 3.0
    t_start: int = 0
    t_end: int = 1
    t_final: int = 1
    pruning_period: int = 1
    sync_to_target_updates: bool = False

    def validate(self) -> None:
        if not (0.0 <= self.final_sparsity < 1.0):
            raise ConfigError("final_sparsity must lie in [0, 1)")
        if self.exponent < 1.0:
            raise ConfigError("exponent must be >= 1")
        if not (0 <= self.t_start < self.t_end <= self.t_final):
            raise ConfigError("need 0 <= t_start < t_end <= t_final")
        if self.pruning_period < 1:
            raise ConfigError("pruning_period must be positive")


def poly_schedule(t: int, cfg: PolyPruneConfig) -> float:
    """s_F * (1 - (1 - clip((t - t_start)/(t_end - t_start), 0, 1))^n)."""
    progress = (t - cfg.t_start) / (cfg.t_end - cfg.t_start)
    clipped = min(max(progress, 0.0), 1.0)
    return cfg.final_sparsity * (1.0 - (1.0 - clipped) ** cfg.exponent)


@dataclass(frozen=True)
class EauDeConfig:
    """Constants of the adaptive sparsity sampler and population selection."""

    u_max: float = 3.0
    s_max: float = 0.01
    population_size: int = 5
    tournament_size: int = 3
    t_final: int = 1

    def validate(self) -> None:
        if self.u_max < 0.0:
            raise ConfigError("u_max must be a positive real (0 disables injection)")
        if not (0.0 < self.s_max <= 1.0):
            raise ConfigError("s_max must lie in (0, 1]")
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if not (1 <= self.tournament_size <= self.population_size):
            raise ConfigError("need 1 <= tournament_size <= population_size")
        if self.t_final < 1:
            raise ConfigError("t_final must be a positive step count")


def sample_sparsity(s_t: float, t: int, t_next: int, cfg: EauDeConfig, rng: RngStream) -> float:
    """Sample the next sparsity level on the line toward (t_final, 1).

    Draws U ~ Uniform(0, u_max) and returns
        s_t + min((1 - s_t)/(t_final - t) * (t_next - t) * U, (1 - s_t) * s_max),
    which always lies in [s_t, 1). Past the horizon the schedule is exhausted
    and the caller freezes sparsity instead.
    """
    if not (0.0 <= s_t < 1.0):
        raise ConfigError(f"current sparsity must lie in [0, 1), got {s_t}")
    if t >= cfg.t_final:
        raise ScheduleExhaustedError(f"step {t} is at or past the horizon {cfg.t_final}")
    if not (t < t_next <= cfg.t_final):
        raise ConfigError(f"need t < t_next <= t_final, got t={t}, t_next={t_next}")
    u = float(rng.uniform(0.0, cfg.u_max))
    linear = (1.0 - s_t) / (cfg.t_final - t) * (t_next - t) * u
    cap = (1.0 - s_t) * cfg.s_max
    result = s_t + min(linear, cap)
    if result >= 1.0:  # only reachable at s_max == 1 exactly
        result = math.nextafter(1.0, 0.0)
    return result
