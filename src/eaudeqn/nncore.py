"""Dense feed-forward networks with manual backpropagation and Adam.

A network's parameters live in one contiguous float64 buffer,
NetworkParams.flat: every layer's (out, in) weight matrix, row-major, then
every layer's (out,) bias vector. A binary mask (pruning.Mask) is one buffer
laid out like that weight prefix, so masking is one multiply over the prefix;
biases are never masked. Every forward/backward call takes a mask: the
effective weight is w * mask, and gradients at masked positions are hard
zeros, so pruned weights are exact training fixed points under a fresh
optimizer. NetworkParams.weights and .biases (and Mask.layers) are per-layer
views into the buffer, built on first use.

The same containers and kernels also hold a stack of K networks of one shape:
the buffer is then (K, P), a mask's (K, W), the layer views carry the leading
(K,) axis, and Adam keeps one step count per network as a (K,) array.
forward, td_loss_and_grad, backprop_from_output and adam_step run all K at
once with batched matmuls over a shared input batch; each row gives exactly
the bits its network alone would give, so a stacked pass equals K separate
passes. Adam, the mask multiply and copies are each one array operation on
the whole buffer.

The kernels return new parameter/state values and never mutate their inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError

if TYPE_CHECKING:  # pragma: no cover
    from .pruning import Mask
    from .rng import RngStream

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class LayerSpec:
    input_width: int
    output_width: int
    activation: str = "relu"


def validate_layer_specs(layer_specs: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    """Check widths and chaining; returns the specs as a tuple."""
    specs = tuple(layer_specs)
    if not specs:
        raise ConfigError("network needs at least one layer")
    for i, spec in enumerate(specs):
        if spec.input_width < 1 or spec.output_width < 1:
            raise ConfigError(f"layer {i}: widths must be >= 1, got {spec}")
        if spec.activation not in ACTIVATIONS:
            raise ConfigError(f"layer {i}: unknown activation {spec.activation!r}")
        if i > 0 and specs[i - 1].output_width != spec.input_width:
            raise ConfigError(
                f"layer {i}: input width {spec.input_width} does not chain with "
                f"previous output width {specs[i - 1].output_width}"
            )
    return specs


def mlp_layer_specs(widths: Sequence[int], output_activation: str = "identity") -> tuple[LayerSpec, ...]:
    """ReLU MLP specs from a width chain like [4, 32, 32, 2]."""
    if len(widths) < 2:
        raise ConfigError("width chain needs at least input and output")
    specs = []
    for i in range(len(widths) - 1):
        act = output_activation if i == len(widths) - 2 else "relu"
        specs.append(LayerSpec(int(widths[i]), int(widths[i + 1]), act))
    return validate_layer_specs(specs)


class Layout(NamedTuple):
    """Where each layer of a network sits in its buffer."""

    weight_shapes: tuple[tuple[int, int], ...]
    bias_shapes: tuple[tuple[int], ...]
    weight_slices: tuple[slice, ...]
    bias_slices: tuple[slice, ...]
    n_weights: int  # W: the weight prefix, which a mask's buffer mirrors
    size: int  # P: weights, then biases


@functools.cache
def layout(weight_shapes: tuple[tuple[int, int], ...]) -> Layout:
    """The buffer layout of a network with these (out, in) weight shapes."""
    sizes = [o * i for o, i in weight_shapes] + [o for o, _ in weight_shapes]
    bounds = [0, *itertools.accumulate(sizes)]
    slices = tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    n = len(weight_shapes)
    biases = tuple((o,) for o, _ in weight_shapes)
    return Layout(tuple(weight_shapes), biases, slices[:n], slices[n:], bounds[n], bounds[-1])


def spec_layout(layer_specs: tuple[LayerSpec, ...]) -> Layout:
    return layout(tuple((s.output_width, s.input_width) for s in layer_specs))


class LayerViews(list):
    """Per-layer views into a buffer; assigning a layer writes into the buffer."""

    def __setitem__(self, i, value):
        list.__getitem__(self, i)[...] = value


def layer_views(flat: np.ndarray, slices, shapes) -> LayerViews:
    """Views of a (P,) or (K, P) buffer's slices in their layers' shapes. A
    buffer is contiguous along its last axis, so every reshape is a view."""
    if flat.ndim == 1:
        return LayerViews([flat[sl].reshape(shape) for sl, shape in zip(slices, shapes)])
    k = len(flat)
    return LayerViews([flat[:, sl].reshape((k, *shape)) for sl, shape in zip(slices, shapes)])


def pack(arrays, shapes) -> np.ndarray:
    """A new float64 buffer holding per-layer arrays one after another. Every
    array has its layer's shape after the same leading stack axes, if any."""
    if len(arrays) != len(shapes):
        raise ConfigError(f"got {len(arrays)} arrays for {len(shapes)} layers")
    lead = np.shape(arrays[0])[: np.ndim(arrays[0]) - len(shapes[0])]
    for i, (arr, shape) in enumerate(zip(arrays, shapes)):
        if np.shape(arr) != lead + shape:
            raise ConfigError(f"layer {i}: array shape {np.shape(arr)} != {lead + shape}")
    rows = [np.reshape(arr, lead + (math.prod(shape),)) for arr, shape in zip(arrays, shapes)]
    return np.concatenate(rows, axis=-1, dtype=np.float64)


@dataclass(init=False)
class NetworkParams:
    """A network's weights and biases in one float64 buffer, `flat`: (P,),
    or (K, P) for a stack (see the module docstring for the layout).

    `weights` and `biases` are per-layer views into the buffer, built on
    first use; writing into a view, or assigning a layer, writes the buffer.
    The constructor copies per-layer arrays into a new buffer; `like` wraps a
    buffer without copying. Doubles as the gradient container.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    layer_specs: tuple[LayerSpec, ...]

    def __init__(self, weights, biases, layer_specs):
        specs = tuple(layer_specs)
        lay = spec_layout(specs)
        if len(biases) != len(weights):
            raise ConfigError(f"got {len(weights)} weight and {len(biases)} bias arrays")
        self._wrap(pack([*weights, *biases], lay.weight_shapes + lay.bias_shapes), specs, lay)

    @classmethod
    def of(cls, flat: np.ndarray, layer_specs) -> "NetworkParams":
        """The network with these specs around the buffer `flat` (not copied)."""
        specs = tuple(layer_specs)
        return object.__new__(cls)._wrap(flat, specs, spec_layout(specs))

    def _wrap(self, flat: np.ndarray, specs, lay: Layout) -> "NetworkParams":
        self.flat, self.layer_specs, self.layout = flat, specs, lay
        self._weights = self._biases = None
        return self

    def like(self, flat: np.ndarray) -> "NetworkParams":
        """A network of this one's shape around `flat` (not copied)."""
        return object.__new__(NetworkParams)._wrap(flat, self.layer_specs, self.layout)

    @property
    def weights(self) -> LayerViews:
        if self._weights is None:
            self._weights = layer_views(self.flat, self.layout.weight_slices, self.layout.weight_shapes)
        return self._weights

    @property
    def biases(self) -> LayerViews:
        if self._biases is None:  # a bias slice already has its layer's shape
            self._biases = LayerViews([self.flat[..., sl] for sl in self.layout.bias_slices])
        return self._biases

    def copy(self) -> "NetworkParams":
        return self.like(self.flat.copy())

    def row(self, k: int) -> "NetworkParams":
        """Network k of a stack, as a view into the stack's buffer."""
        return self.like(self.flat[k])

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def zeros_like_params(params: NetworkParams) -> NetworkParams:
    return params.like(np.zeros_like(params.flat))


def params_equal(a: NetworkParams, b: NetworkParams) -> bool:
    return a.layout.weight_shapes == b.layout.weight_shapes and np.array_equal(a.flat, b.flat)


def init_network(layer_specs: Sequence[LayerSpec], rng: "RngStream") -> NetworkParams:
    """Fan-in/fan-out scaled uniform weights, zero biases.

    bound = sqrt(6 / (fan_in + fan_out)); fully determined by the stream.
    """
    specs = validate_layer_specs(layer_specs)
    params = NetworkParams.of(np.zeros(spec_layout(specs).size), specs)
    for spec, w in zip(specs, params.weights):
        bound = math.sqrt(6.0 / (spec.input_width + spec.output_width))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The activation's derivative (not called for identity, whose is 1)."""
    if name == "relu":
        return z > 0.0  # a multiply casts it to exact 1.0 / 0.0
    return 1.0 - a * a  # tanh


def check_mask(params: NetworkParams, mask: "Mask") -> None:
    """Refuse a mask that does not cover exactly the network's weights."""
    if mask.layout is params.layout and mask.flat.shape[:-1] == params.flat.shape[:-1]:
        return
    if len(mask.layout.weight_shapes) != len(params.layout.weight_shapes):
        raise ConfigError("mask layer count does not match network")
    for i, (w, m) in enumerate(zip(params.weights, mask.layers)):
        if w.shape != m.shape:
            raise ConfigError(f"layer {i}: mask shape {m.shape} != weight shape {w.shape}")


def _effective_weights(params: NetworkParams, mask: "Mask", x: np.ndarray) -> LayerViews:
    """Check the input and the mask; the effective weights w * mask, made
    with one multiply over the weight prefix, as per-layer views."""
    if x.ndim < 2 and params.flat.ndim == 2:
        raise ConfigError("a stack of networks takes a batch of inputs, not a single vector")
    if x.shape[-1] != params.layer_specs[0].input_width:
        raise ConfigError(
            f"input width {x.shape[-1]} != network input width {params.layer_specs[0].input_width}"
        )
    check_mask(params, mask)
    lay = params.layout
    return layer_views(params.flat[..., : lay.n_weights] * mask.flat, lay.weight_slices, lay.weight_shapes)


def _preact(a: np.ndarray, w_eff: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ w_eff.T + b; a stack's (K, out) biases broadcast over the batch rows."""
    z = a @ w_eff.swapaxes(-1, -2)
    # in place: a broadcast add into a new (K, batch, out) array costs more
    z += b[:, None, :] if b.ndim == 2 else b
    return z


def forward(params: NetworkParams, mask: "Mask", x) -> np.ndarray:
    """Network output with effective weights w * mask. Biases are never masked.

    Accepts a single input vector or a batch (rows are samples). A stack takes
    a batch only: it maps the batch through each of its K networks and
    returns (K, batch, out).
    """
    a = np.asarray(x, dtype=np.float64)
    effective, biases = _effective_weights(params, mask, a), params.biases
    for i, spec in enumerate(params.layer_specs):
        a = _activate(spec.activation, _preact(a, effective[i], biases[i]))
    return a


def _forward_cache(params: NetworkParams, mask: "Mask", x: np.ndarray):
    """Forward pass keeping activations, pre-activations, and masked weights."""
    effective, biases = _effective_weights(params, mask, x), params.biases
    activations = [x]
    preacts = []
    a = x
    for i, spec in enumerate(params.layer_specs):
        z = _preact(a, effective[i], biases[i])
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite pre-activation in layer {i}", layer_index=i)
        a = _activate(spec.activation, z)
        preacts.append(z)
        activations.append(a)
    return activations, preacts, effective


def backprop_from_output(
    params: NetworkParams,
    mask: "Mask",
    activations: list[np.ndarray],
    preacts: list[np.ndarray],
    dout: np.ndarray,
    effective: list[np.ndarray],
    *,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[NetworkParams | None, np.ndarray | None]:
    """Reverse pass from a gradient w.r.t. the network output.

    Returns (parameter gradients, gradient w.r.t. the input batch); either
    is None, and not computed, when its flag is off. The parameter gradients
    are one buffer, hard-zeroed at masked weights by one multiply. For a
    stack, dout is (K, batch, out) and every gradient carries the leading
    (K,) axis.
    """
    grad = params.like(np.empty(params.flat.shape)) if param_grads else None
    delta = dout
    for i in reversed(range(len(params.layer_specs))):
        spec = params.layer_specs[i]
        dz = delta
        if spec.activation != "identity":
            dz = delta * _activate_grad(spec.activation, preacts[i], activations[i + 1])
        if param_grads:  # straight into the gradient buffer's layer views
            np.matmul(dz.swapaxes(-1, -2), activations[i], out=grad.weights[i])
            np.add.reduce(dz, axis=-2, out=grad.biases[i])  # dz.sum(axis=-2)
        if i or input_grad:
            delta = dz @ effective[i]
    if param_grads:
        grad.flat[..., : params.layout.n_weights] *= mask.flat
    return grad, (delta if input_grad else None)


def td_loss_and_grad(
    params: NetworkParams,
    mask: "Mask",
    batch_inputs,
    batch_action_indices,
    batch_targets,
) -> tuple[float, NetworkParams]:
    """Summed squared TD error over the batch and its parameter gradient.

    loss = sum_j (target_j - Q(s_j)[a_j])^2, restricted to the selected
    action outputs. Gradient entries at masked-out weights are exactly zero.
    A stack scores the one batch with each network: the loss is then a (K,)
    array and the gradient is stacked.
    """
    x = np.atleast_2d(np.asarray(batch_inputs, dtype=np.float64))
    actions = np.asarray(batch_action_indices, dtype=np.int64)
    targets = np.asarray(batch_targets, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigError("batch must be nonempty")
    if not np.isfinite(targets).all():
        raise NonFiniteError("non-finite targets")
    activations, preacts, effective = _forward_cache(params, mask, x)
    out = activations[-1]
    rows = np.arange(x.shape[0])
    # contiguous rows: a strided dot product rounds differently
    residual = np.ascontiguousarray(out[..., rows, actions] - targets)
    # one dot product per network: the BLAS call of `residual @ residual`
    loss = (residual[..., None, :] @ residual[..., :, None])[..., 0, 0]
    dout = np.zeros_like(out)
    dout[..., rows, actions] = 2.0 * residual
    grad, _ = backprop_from_output(params, mask, activations, preacts, dout, effective, input_grad=False)
    return (float(loss) if loss.ndim == 0 else loss), grad


def backward(params, mask, batch_inputs, batch_action_indices, batch_targets) -> NetworkParams:
    """Gradient of the summed squared TD error (see td_loss_and_grad)."""
    return td_loss_and_grad(params, mask, batch_inputs, batch_action_indices, batch_targets)[1]


@dataclass
class AdamState:
    """Adam accumulators plus hyperparameters; the moments are laid out like
    the parameters.

    For a stack of networks, step_count is a (K,) int array: one count per
    network, since a reset network restarts its bias correction.
    """

    m: NetworkParams
    v: NetworkParams
    step_count: int
    learning_rate: float
    epsilon: float
    beta1: float = 0.9
    beta2: float = 0.999


def init_adam_state(
    params: NetworkParams,
    learning_rate: float,
    epsilon: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> AdamState:
    if learning_rate <= 0 or epsilon <= 0:
        raise ConfigError("learning_rate and epsilon must be positive")
    if not (0 < beta1 < 1 and 0 < beta2 < 1):
        raise ConfigError("beta1 and beta2 must lie in (0, 1)")
    return AdamState(
        m=zeros_like_params(params),
        v=zeros_like_params(params),
        step_count=0,
        learning_rate=float(learning_rate),
        epsilon=float(epsilon),
        beta1=float(beta1),
        beta2=float(beta2),
    )


def adam_step(
    params: NetworkParams, grad: NetworkParams, state: AdamState
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update: p -= lr * m_hat / (sqrt(v_hat) + eps).

    Positions whose gradient is zero with zero accumulated moments (all
    masked-out weights under a fresh optimizer) are left bit-identical. The
    whole buffer, or a stack's, is updated at once, each row with its own
    step count.
    """
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    # Bias corrections use Python's pow, so a stack row gets the bits of a lone
    # network. When every row is at the same step they are plain floats;
    # otherwise (K, 1) per-row values broadcast over each row's buffer.
    steps = np.ravel(t).tolist()
    uniform = len(set(steps)) == 1
    if uniform:
        bc1, bc2 = 1.0 - b1 ** steps[0], 1.0 - b2 ** steps[0]
    else:
        bc1 = np.array([[1.0 - b1**s] for s in steps])
        bc2 = np.array([[1.0 - b2**s] for s in steps])
    g = grad.flat
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g^2, each into a
    # fresh array; the operand order differs from the formula only where IEEE
    # arithmetic commutes
    m = np.multiply(state.m.flat, b1)
    m += (1.0 - b1) * g
    v = np.multiply(g, g)
    v *= 1.0 - b2
    v += b2 * state.v.flat
    if uniform and bc1 == 1.0:  # b1**t has fallen below 2**-53, and m / 1.0 is m
        step = np.multiply(m, state.learning_rate)
    else:
        step = np.divide(m, bc1)
        step *= state.learning_rate
    den = np.divide(v, bc2)
    np.sqrt(den, out=den)
    den += state.epsilon
    step /= den
    new_params = params.like(np.subtract(params.flat, step, out=step))
    new_state = AdamState(
        state.m.like(m), state.v.like(v), t, state.learning_rate, state.epsilon, b1, b2
    )
    return new_params, new_state


def reset_optimizer(state: AdamState) -> AdamState:
    """Zero both moment accumulators and the step count; keep hyperparameters."""
    return replace(
        state,
        m=zeros_like_params(state.m),
        v=zeros_like_params(state.v),
        step_count=0,
    )
