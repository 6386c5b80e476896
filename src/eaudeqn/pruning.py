"""Binary weight masks, magnitude pruning, and the two sparsity schedules.

A mask covers the weight matrices of one network (or a stack's): one float64
buffer laid out like the network buffer's weight prefix (see nncore), so
masking is one multiply; bias vectors carry no mask. Magnitude pruning is
applied per layer: each weight matrix is pruned to the target fraction
independently, which keeps high global sparsity from wiping out the small
output layer. Zero counts use round-half-up of target * count, and magnitude
ties break toward the lowest flat index, so masks are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleExhaustedError
from .nncore import Layout, LayerViews, NetworkParams, check_mask, layer_views, layout, pack
from .rng import RngStream


@dataclass(init=False)
class Mask:
    """0/1 entries over one network's weights in one float64 buffer, `flat`:
    (W,), or (K, W) for a stack, laid out like the network's weight prefix.

    `layers` are per-layer views into the buffer, built on first use, shaped
    like the weight matrices (with the stack's leading (K,) axis). The
    constructor copies per-layer arrays into a new buffer; `like` wraps a
    buffer without copying.
    """

    layers: list[np.ndarray]

    def __init__(self, layers):
        lay = layout(tuple(tuple(np.shape(m)[-2:]) for m in layers))
        self._wrap(pack(layers, lay.weight_shapes), lay)

    def _wrap(self, flat: np.ndarray, lay: Layout) -> "Mask":
        self.flat, self.layout, self._layers = flat, lay, None
        return self

    @classmethod
    def of(cls, flat: np.ndarray, lay: Layout) -> "Mask":
        """The mask with this layout around the buffer `flat` (not copied)."""
        return object.__new__(cls)._wrap(flat, lay)

    def like(self, flat: np.ndarray) -> "Mask":
        """A mask of this one's shape around `flat` (not copied)."""
        return Mask.of(flat, self.layout)

    @property
    def layers(self) -> LayerViews:
        if self._layers is None:
            self._layers = layer_views(self.flat, self.layout.weight_slices, self.layout.weight_shapes)
        return self._layers

    def copy(self) -> "Mask":
        return self.like(self.flat.copy())

    def row(self, k: int) -> "Mask":
        """Mask k of a stack, as a view into the stack's buffer."""
        return self.like(self.flat[k])


def mask_of_ones(params: NetworkParams) -> Mask:
    lay = params.layout
    return Mask.of(np.ones(params.flat.shape[:-1] + (lay.n_weights,)), lay)


def masks_equal(a: Mask, b: Mask) -> bool:
    return a.layout.weight_shapes == b.layout.weight_shapes and np.array_equal(a.flat, b.flat)


def sparsity_of(mask: Mask):
    """Fraction of zero entries over all maskable positions; a stack's is (K,)."""
    fraction = np.count_nonzero(mask.flat == 0.0, axis=-1) / mask.layout.n_weights
    return fraction if np.ndim(fraction) else float(fraction)


def magnitude_mask(params: NetworkParams, target_sparsity) -> Mask:
    """Mask dropping the lowest-|w| weights of each layer at the target fraction.

    Per layer, exactly round(target * count) entries are zeroed; ties on |w|
    break toward the lowest flat index (stable sort). A stack takes one target
    for every row or a (K,) array of per-row targets, and each row's mask is
    the one its network alone would get.
    """
    targets = np.asarray(target_sparsity, dtype=np.float64)
    if not ((0.0 <= targets) & (targets <= 1.0)).all():
        raise ConfigError(f"target sparsity must lie in [0, 1], got {target_sparsity}")
    if not params.all_finite():
        raise ConfigError("cannot prune non-finite parameters")
    lay = params.layout
    lead = params.flat.shape[:-1]
    flat = np.empty(lead + (lay.n_weights,))
    for sl in lay.weight_slices:
        rows = np.abs(params.flat[..., sl]).reshape(-1, sl.stop - sl.start)  # one row per network
        # round-half-up, not banker's rounding
        zeros = np.floor(targets * rows.shape[1] + 0.5)
        order = np.argsort(rows, axis=1, kind="stable")
        keep = np.arange(rows.shape[1]) >= zeros[..., None]  # by rank, then scattered to its position
        scattered = np.empty_like(rows)
        np.put_along_axis(scattered, order, np.broadcast_to(keep, rows.shape), axis=1)
        flat[..., sl] = scattered.reshape(lead + (rows.shape[1],))
    return Mask.of(flat, lay)


def apply_mask(params: NetworkParams, mask: Mask) -> NetworkParams:
    """Element-wise product on weights, one multiply over the buffer's weight
    prefix; biases untouched."""
    check_mask(params, mask)
    flat = params.flat.copy()
    flat[..., : params.layout.n_weights] *= mask.flat
    return params.like(flat)


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
