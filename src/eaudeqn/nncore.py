"""Dense feed-forward networks with manual backpropagation and Adam.

Weights are stored per layer as (out, in) matrices; biases as (out,) vectors.
Every forward/backward call takes a binary mask over the weight matrices
(biases are never masked): the effective weight is w * mask, and gradients at
masked positions are hard zeros, so pruned weights are exact training fixed
points under a fresh optimizer.

The same containers and kernels also hold a stack of K networks of one shape:
weights (K, out, in), biases (K, out), masks (K, out, in) and an Adam step
count per network as a (K,) array. forward, td_loss_and_grad,
backprop_from_output and adam_step run all K at once with batched matmuls
over a shared input batch; each row gives exactly the bits its network alone
would give, so a stacked pass equals K separate passes.

The kernels return new parameter/state values and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

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


@dataclass
class NetworkParams:
    """Per-layer weight matrices and bias vectors.

    Doubles as the gradient container: gradients returned by backward() have
    the same shape and type.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    layer_specs: tuple[LayerSpec, ...]

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.layer_specs,
        )

    def row(self, k: int) -> "NetworkParams":
        """Network k of a stack, as views into the stack's arrays."""
        return NetworkParams([w[k] for w in self.weights], [b[k] for b in self.biases], self.layer_specs)

    def n_layers(self) -> int:
        return len(self.weights)

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )


def zeros_like_params(params: NetworkParams) -> NetworkParams:
    return NetworkParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        params.layer_specs,
    )


def params_equal(a: NetworkParams, b: NetworkParams) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.biases, b.biases)
    )


def init_network(layer_specs: Sequence[LayerSpec], rng: "RngStream") -> NetworkParams:
    """Fan-in/fan-out scaled uniform weights, zero biases.

    bound = sqrt(6 / (fan_in + fan_out)); fully determined by the stream.
    """
    specs = validate_layer_specs(layer_specs)
    weights, biases = [], []
    for spec in specs:
        bound = math.sqrt(6.0 / (spec.input_width + spec.output_width))
        weights.append(rng.uniform(-bound, bound, size=(spec.output_width, spec.input_width)))
        biases.append(np.zeros(spec.output_width))
    return NetworkParams(weights, biases, specs)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def _check_shapes(params: NetworkParams, mask: "Mask", x: np.ndarray) -> None:
    if x.ndim < 2 and params.weights[0].ndim == 3:
        raise ConfigError("a stack of networks takes a batch of inputs, not a single vector")
    if x.shape[-1] != params.layer_specs[0].input_width:
        raise ConfigError(
            f"input width {x.shape[-1]} != network input width {params.layer_specs[0].input_width}"
        )
    for i, (w, m) in enumerate(zip(params.weights, mask.layers)):
        if w.shape != m.shape:
            raise ConfigError(f"layer {i}: mask shape {m.shape} != weight shape {w.shape}")


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
    _check_shapes(params, mask, a)
    for i, spec in enumerate(params.layer_specs):
        z = _preact(a, params.weights[i] * mask.layers[i], params.biases[i])
        a = _activate(spec.activation, z)
    return a


def _forward_cache(params: NetworkParams, mask: "Mask", x: np.ndarray):
    """Forward pass keeping activations, pre-activations, and masked weights."""
    _check_shapes(params, mask, x)
    activations = [x]
    preacts = []
    effective = []
    a = x
    for i, spec in enumerate(params.layer_specs):
        w_eff = params.weights[i] * mask.layers[i]
        z = _preact(a, w_eff, params.biases[i])
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite pre-activation in layer {i}", layer_index=i)
        a = _activate(spec.activation, z)
        preacts.append(z)
        activations.append(a)
        effective.append(w_eff)
    return activations, preacts, effective


def backprop_from_output(
    params: NetworkParams,
    mask: "Mask",
    activations: list[np.ndarray],
    preacts: list[np.ndarray],
    dout: np.ndarray,
    effective: list[np.ndarray],
) -> tuple[NetworkParams, np.ndarray]:
    """Reverse pass from a gradient w.r.t. the network output.

    Returns (parameter gradients, gradient w.r.t. the input batch). Weight
    gradients are hard-zeroed at masked positions. For a stack, dout is
    (K, batch, out) and every gradient carries the leading (K,) axis.
    """
    n = params.n_layers()
    grad_w: list = [None] * n
    grad_b: list = [None] * n
    delta = dout
    for i in reversed(range(n)):
        spec = params.layer_specs[i]
        dz = delta * _activate_grad(spec.activation, preacts[i], activations[i + 1])
        grad_w[i] = (dz.swapaxes(-1, -2) @ activations[i]) * mask.layers[i]
        grad_b[i] = dz.sum(axis=-2)
        delta = dz @ effective[i]
    return NetworkParams(grad_w, grad_b, params.layer_specs), delta


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
    grad, _ = backprop_from_output(params, mask, activations, preacts, dout, effective)
    return (float(loss) if loss.ndim == 0 else loss), grad


def backward(params, mask, batch_inputs, batch_action_indices, batch_targets) -> NetworkParams:
    """Gradient of the summed squared TD error (see td_loss_and_grad)."""
    return td_loss_and_grad(params, mask, batch_inputs, batch_action_indices, batch_targets)[1]


@dataclass
class AdamState:
    """Adam accumulators plus hyperparameters; shapes mirror the parameters.

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
    masked-out weights under a fresh optimizer) are left bit-identical. A
    stack is updated in one pass, each row with its own step count.
    """
    t = state.step_count + 1
    # Bias corrections use Python's pow, so a stack row gets the bits of a lone
    # network. When every row is at the same step they are plain floats;
    # otherwise per-row values broadcast over each row's entries.
    steps = np.ravel(t).tolist()
    if len(set(steps)) == 1:
        bc_w = bc_b = (1.0 - state.beta1 ** steps[0], 1.0 - state.beta2 ** steps[0])
    else:
        bc1 = np.array([1.0 - state.beta1 ** s for s in steps])
        bc2 = np.array([1.0 - state.beta2 ** s for s in steps])
        bc_w = (bc1[:, None, None], bc2[:, None, None])
        bc_b = (bc1[:, None], bc2[:, None])
    n = params.n_layers()
    pw: list = [None] * n
    pb: list = [None] * n
    mw: list = [None] * n
    mb: list = [None] * n
    vw: list = [None] * n
    vb: list = [None] * n

    def _update(p, g, m, v, bc):
        m2 = state.beta1 * m + (1.0 - state.beta1) * g
        v2 = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        step = state.learning_rate * (m2 / bc[0]) / (np.sqrt(v2 / bc[1]) + state.epsilon)
        return p - step, m2, v2

    for i in range(n):
        pw[i], mw[i], vw[i] = _update(
            params.weights[i], grad.weights[i], state.m.weights[i], state.v.weights[i], bc_w
        )
        pb[i], mb[i], vb[i] = _update(
            params.biases[i], grad.biases[i], state.m.biases[i], state.v.biases[i], bc_b
        )
    new_state = replace(
        state,
        m=NetworkParams(mw, mb, params.layer_specs),
        v=NetworkParams(vw, vb, params.layer_specs),
        step_count=t,
    )
    return NetworkParams(pw, pb, params.layer_specs), new_state


def reset_optimizer(state: AdamState) -> AdamState:
    """Zero both moment accumulators and the step count; keep hyperparameters."""
    return replace(
        state,
        m=zeros_like_params(state.m),
        v=zeros_like_params(state.v),
        step_count=0,
    )
