"""Dense feed-forward networks with manual backpropagation and Adam.

Every network is an MLP: ReLU hidden layers and a linear output layer, so a
layer's position fixes its activation (Layout.relu) and a LayerSpec holds only
widths. A network's parameters live in one contiguous float64 buffer,
NetworkParams.flat: every layer's (out, in) weight matrix, row-major, then
every layer's (out,) bias vector. A binary mask (pruning.Mask) is one buffer
laid out like that weight prefix, so masking is one multiply over the prefix;
biases are never masked. Every forward and reverse pass takes a mask: the
effective weight is w * mask, and gradients at masked positions are hard
zeros, so pruned weights are exact training fixed points under a fresh
optimizer. NetworkParams.weights and .biases (and Mask.layers) are per-layer
views into the buffer, built on first use.

The same containers and kernels also hold a stack of K networks of one shape:
the buffer is then (K, P), a mask's (K, W), the layer views carry the leading
(K,) axis, and Adam keeps one step count per network as a (K,) array.
td_loss_and_grad, backprop_from_output and adam_step run all K at once with
batched matmuls over a shared input batch; each row gives exactly the bits
its network alone would give, so a stacked pass equals K separate passes.
Adam, the mask multiply and copies are each one array operation on the whole
buffer. forward and Frozen take one network: every network a run only maps
inputs through (an acting row, the actor, a critic's soft target, the shared
DQN target) is a single one.

The kernels return new parameter/state values and never mutate their inputs.
td_loss_and_grad takes an optional Workspace: the scratch arrays of one
(layout, stack rows, batch) shape, filled with `out=` instead of allocated per
call. It holds the effective weights, each layer's activations, each hidden
layer's ReLU derivative (which the reverse pass overwrites with its deltas and
dz), the output gradient and the unmasked parameter gradient. Nothing the
kernel returns aliases a workspace: the loss and gradient are fresh arrays.
Without one it builds a throwaway workspace, so there is one code path. A
Frozen network holds the effective weights of one network that many forward
passes read unchanged (the shared DQN target between target updates), beside
the params and mask it was built from.
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


@dataclass(frozen=True)
class LayerSpec:
    input_width: int
    output_width: int


def validate_layer_specs(layer_specs: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    """Check widths and chaining; returns the specs as a tuple."""
    specs = tuple(layer_specs)
    if not specs:
        raise ConfigError("network needs at least one layer")
    for i, spec in enumerate(specs):
        if spec.input_width < 1 or spec.output_width < 1:
            raise ConfigError(f"layer {i}: widths must be >= 1, got {spec}")
        if i > 0 and specs[i - 1].output_width != spec.input_width:
            raise ConfigError(
                f"layer {i}: input width {spec.input_width} does not chain with "
                f"previous output width {specs[i - 1].output_width}"
            )
    return specs


def mlp_layer_specs(widths: Sequence[int]) -> tuple[LayerSpec, ...]:
    """The layer specs of a width chain like [4, 32, 32, 2]."""
    if len(widths) < 2:
        raise ConfigError("width chain needs at least input and output")
    return validate_layer_specs([LayerSpec(int(i), int(o)) for i, o in zip(widths, widths[1:])])


class Layout(NamedTuple):
    """Where each layer of a network sits in its buffer, and whether it goes
    through a ReLU: every layer but the last does, and the last is linear."""

    weight_shapes: tuple[tuple[int, int], ...]
    bias_shapes: tuple[tuple[int], ...]
    weight_slices: tuple[slice, ...]
    bias_slices: tuple[slice, ...]
    n_weights: int  # W: the weight prefix, which a mask's buffer mirrors
    size: int  # P: weights, then biases
    relu: tuple[bool, ...]


@functools.cache
def layout(weight_shapes: tuple[tuple[int, int], ...]) -> Layout:
    """The buffer layout of a network with these (out, in) weight shapes."""
    sizes = [o * i for o, i in weight_shapes] + [o for o, _ in weight_shapes]
    bounds = [0, *itertools.accumulate(sizes)]
    slices = tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    n = len(weight_shapes)
    biases = tuple((o,) for o, _ in weight_shapes)
    relu = (True,) * (n - 1) + (False,)
    return Layout(tuple(weight_shapes), biases, slices[:n], slices[n:], bounds[n], bounds[-1], relu)


def spec_layout(layer_specs: tuple[LayerSpec, ...]) -> Layout:
    return layout(tuple((s.output_width, s.input_width) for s in layer_specs))


class LayerViews(list):
    """Per-layer views into a buffer; assigning a layer writes into the buffer."""

    def __setitem__(self, i, value):
        list.__getitem__(self, i)[...] = value


def layer_views(flat: np.ndarray, slices, shapes) -> LayerViews:
    """Views of a (P,) or (K, P) buffer's slices in their layers' shapes. A
    buffer is contiguous along its last axis, so every reshape is a view."""
    return LayerViews([flat[..., sl].reshape(flat.shape[:-1] + shape) for sl, shape in zip(slices, shapes)])


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


def check_mask(params: NetworkParams, mask: "Mask") -> None:
    """Refuse a mask that does not cover exactly the network's weights."""
    if mask.layout is params.layout and mask.flat.shape[:-1] == params.flat.shape[:-1]:
        return
    if len(mask.layout.weight_shapes) != len(params.layout.weight_shapes):
        raise ConfigError("mask layer count does not match network")
    for i, (w, m) in enumerate(zip(params.weights, mask.layers)):
        if w.shape != m.shape:
            raise ConfigError(f"layer {i}: mask shape {m.shape} != weight shape {w.shape}")


def _check_input(params: NetworkParams, mask: "Mask", x: np.ndarray) -> None:
    """Refuse an input the network cannot take, or a mask that does not fit it."""
    if x.shape[-1] != params.layer_specs[0].input_width:
        raise ConfigError(
            f"input width {x.shape[-1]} != network input width {params.layer_specs[0].input_width}"
        )
    check_mask(params, mask)


def _all_finite(a: np.ndarray, flags: np.ndarray | None = None) -> bool:
    """Whether every entry of `a` is finite (counting is faster than .all())."""
    return np.count_nonzero(np.isfinite(a, out=flags)) == a.size


def _layer(a: np.ndarray, w_t: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """a @ w_t + b in a fresh array, through a ReLU if `relu` (a hidden layer)."""
    z = a @ w_t
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def forward(params: NetworkParams, mask: "Mask", x) -> np.ndarray:
    """One network's output with effective weights w * mask. Biases are never
    masked.

    Accepts a single input vector or a batch (rows are samples). A stack is
    refused: a run maps inputs through single networks only, and trains a
    stack through td_loss_and_grad.
    """
    if params.flat.ndim != 1:
        raise ConfigError(f"forward takes one network, got a stack of {len(params.flat)}")
    a = np.asarray(x, dtype=np.float64)
    _check_input(params, mask, a)
    lay, flat = params.layout, params.flat
    effective = flat[: lay.n_weights] * mask.flat  # one multiply over the weight prefix
    for w, shape, b, relu in zip(lay.weight_slices, lay.weight_shapes, lay.bias_slices, lay.relu):
        a = _layer(a, effective[w].reshape(shape).T, flat[b], relu)
    return a


class Frozen:
    """One network made ready for many forward passes: per layer, its
    transposed effective weights (views into one buffer, w * mask made with
    one multiply), its biases and whether it is a hidden (ReLU) layer, built
    once. Calling it maps inputs exactly as forward(params, mask, x) does,
    without redoing that work (the shared DQN target, frozen once per target
    update). It keeps the params and mask it was built from.

    The biases are views of the network's buffer: freeze a network that is
    replaced, not written in place, while the frozen copy is in use.
    """

    __slots__ = ("params", "mask", "layers", "input_width")

    def __init__(self, params: NetworkParams, mask: "Mask"):
        if params.flat.ndim != 1:
            raise ConfigError(f"Frozen takes one network, got a stack of {len(params.flat)}")
        check_mask(params, mask)
        self.params, self.mask = params, mask
        lay, flat = params.layout, params.flat
        effective = flat[: lay.n_weights] * mask.flat
        self.layers = [
            (effective[w].reshape(shape).T, flat[b], relu)
            for w, shape, b, relu in zip(lay.weight_slices, lay.weight_shapes, lay.bias_slices, lay.relu)
        ]
        self.input_width = params.layer_specs[0].input_width

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.input_width:
            raise ConfigError(f"input width {x.shape[-1]} != network input width {self.input_width}")
        for layer in self.layers:
            x = _layer(x, *layer)
        return x


class Workspace:
    """Scratch arrays for the TD pass of one network or stack.

    Shaped on first use for a (layout, stack rows, batch), and reshaped only
    if that changes. It holds the effective weights w * mask (one buffer and
    its per-layer views); per layer, the activations (the pre-activations
    first, activated in place, and in the reverse pass the delta w.r.t. them);
    per hidden layer, the ReLU's derivative (computed in the forward pass, and
    in the reverse pass the dz it multiplies into); the output gradient
    `dout`; and the parameter gradient before it is masked into a fresh
    buffer. The kernels fill them with `out=`, and nothing they return
    aliases a workspace, so a run keeps one per concurrent pass and reuses it
    every step. A kernel given none builds a throwaway one.
    """

    def __init__(self):
        self.key = None

    def fit(self, params: NetworkParams, batch: int) -> "Workspace":
        key = (params.layout, params.flat.shape[:-1], batch)
        if key != self.key:
            self._build(*key)
        return self

    def _build(self, lay: Layout, lead: tuple, batch: int) -> None:
        self.key = (lay, lead, batch)
        self.effective = np.empty(lead + (lay.n_weights,))
        self.weights = layer_views(self.effective, lay.weight_slices, lay.weight_shapes)
        self.weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self.x = None  # the input batch of the last forward pass
        self.outputs = [np.empty(lead + (batch,) + shape) for shape in lay.bias_shapes]
        self.derivs = [np.empty(a.shape) for a in self.outputs[:-1]]  # the hidden layers' ReLU derivatives
        self.finite = [np.empty(a.shape, dtype=bool) for a in self.outputs]
        self.dout = np.empty(self.outputs[-1].shape)
        self.rows = np.arange(batch)
        self._grad = None

    def grad(self) -> tuple[np.ndarray, LayerViews, list[np.ndarray]]:
        """The parameter gradient buffer with its weight and bias views."""
        if self._grad is None:
            lay, lead, _ = self.key
            flat = np.empty(lead + (lay.size,))
            self._grad = flat, layer_views(flat, lay.weight_slices, lay.weight_shapes), [
                flat[..., sl] for sl in lay.bias_slices
            ]
        return self._grad


def _forward_cache(params: NetworkParams, mask: "Mask", x: np.ndarray, workspace: Workspace | None = None) -> Workspace:
    """Forward pass over a batch keeping what the reverse pass reads (masked
    weights, activations, the hidden layers' ReLU derivatives) in the workspace."""
    _check_input(params, mask, x)
    ws = (Workspace() if workspace is None else workspace).fit(params, x.shape[0])
    lay, flat = params.layout, params.flat
    np.multiply(flat[..., : lay.n_weights], mask.flat, out=ws.effective)
    stacked = flat.ndim == 2
    ws.x = a = x
    for i, b in enumerate(lay.bias_slices):
        z = np.matmul(a, ws.weights_t[i], out=ws.outputs[i])
        z += flat[:, None, b] if stacked else flat[b]
        if not _all_finite(z, ws.finite[i]):
            raise NonFiniteError(f"non-finite pre-activation in layer {i}", layer_index=i)
        if lay.relu[i]:  # derivative 1.0 / 0.0 as floats: a float multiply is faster than a cast
            np.greater(z, 0.0, out=ws.derivs[i])
            np.maximum(z, 0.0, out=z)
        a = z
    return ws


def backprop_from_output(
    params: NetworkParams,
    mask: "Mask",
    ws: Workspace,
    dout: np.ndarray,
    *,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[NetworkParams | None, np.ndarray | None]:
    """Reverse pass from a gradient w.r.t. the network output, through the
    forward pass that `_forward_cache` kept in `ws` (which it overwrites).

    Returns (parameter gradients, gradient w.r.t. the input batch), both
    fresh arrays; either is None, and not computed, when its flag is off. The
    parameter gradients are one buffer, hard-zeroed at masked weights by one
    multiply. For a stack, dout is (K, batch, out) and every gradient carries
    the leading (K,) axis.
    """
    if param_grads:
        flat, grad_weights, grad_biases = ws.grad()
    dz = dout  # the output layer is linear
    for i in reversed(range(len(ws.outputs))):
        a_in = ws.outputs[i - 1] if i else ws.x
        if param_grads:
            np.matmul(dz.swapaxes(-1, -2), a_in, out=grad_weights[i])
            np.add.reduce(dz, axis=-2, out=grad_biases[i])  # dz.sum(axis=-2)
        if i:  # layer i-1's activations are read for the last time above
            delta = np.matmul(dz, ws.weights[i], out=a_in)
            dz = np.multiply(delta, ws.derivs[i - 1], out=ws.derivs[i - 1])
        elif input_grad:
            delta = dz @ ws.weights[0]
    grad = None
    if param_grads:  # masked weights, then biases, into a fresh buffer
        n = params.layout.n_weights
        grad = params.like(np.empty(flat.shape))
        np.multiply(flat[..., :n], mask.flat, out=grad.flat[..., :n])
        grad.flat[..., n:] = flat[..., n:]
    return grad, (delta if input_grad else None)


def td_loss_and_grad(
    params: NetworkParams,
    mask: "Mask",
    batch_inputs,
    batch_action_indices,
    batch_targets,
    workspace: Workspace | None = None,
) -> tuple[float, NetworkParams]:
    """Summed squared TD error over the batch and its parameter gradient.

    loss = sum_j (target_j - Q(s_j)[a_j])^2, restricted to the selected
    action outputs. Gradient entries at masked-out weights are exactly zero.
    A stack scores the one batch with each network: the loss is then a (K,)
    array and the gradient is stacked. Scratch arrays come from `workspace`
    (a throwaway one when None); the loss and gradient never alias it.
    """
    x = np.atleast_2d(np.asarray(batch_inputs, dtype=np.float64))
    actions = np.asarray(batch_action_indices, dtype=np.int64)
    targets = np.asarray(batch_targets, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigError("batch must be nonempty")
    if not _all_finite(targets):
        raise NonFiniteError("non-finite targets")
    ws = _forward_cache(params, mask, x, workspace)
    rows = ws.rows
    # contiguous rows: a strided dot product rounds differently
    residual = np.ascontiguousarray(ws.outputs[-1][..., rows, actions] - targets)
    # one dot product per network: the BLAS call of `residual @ residual`
    loss = (residual[..., None, :] @ residual[..., :, None])[..., 0, 0]
    dout = ws.dout
    dout.fill(0.0)
    dout[..., rows, actions] = 2.0 * residual
    grad, _ = backprop_from_output(params, mask, ws, dout, input_grad=False)
    return (float(loss) if loss.ndim == 0 else loss), grad


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


def init_adam_state(params: NetworkParams, learning_rate: float, epsilon: float) -> AdamState:
    """A fresh optimizer with the default betas."""
    if learning_rate <= 0 or epsilon <= 0:
        raise ConfigError("learning_rate and epsilon must be positive")
    return AdamState(zeros_like_params(params), zeros_like_params(params), 0, float(learning_rate), float(epsilon))


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
