"""Finite-difference gradient oracle shared by unit and acceptance tests.

The oracle only touches forward(); the analytic path under test is
td_loss_and_grad(). Cases have the shape every run builds: 1-3 layers, ReLU
hidden layers and a linear output. ReLU makes the loss non-differentiable on
a measure-zero set, so sampled check cases are rejected while any hidden
pre-activation sits within the probe step of a kink; rejected trials are
re-drawn deterministically.
"""

import numpy as np

from eaudeqn.nncore import NetworkParams, forward, mlp_layer_specs, zeros_like_params
from eaudeqn.pruning import magnitude_mask, mask_of_ones
from eaudeqn.rng import RngStream


def td_loss_only(params, mask, x, actions, targets):
    out = np.atleast_2d(forward(params, mask, x))
    rows = np.arange(len(actions))
    resid = out[rows, actions] - targets
    return float(resid @ resid)


def finite_difference_grad(params, mask, x, actions, targets, h=1e-5):
    """Central differences of the TD loss, coordinate by coordinate."""
    work = params.copy()
    grad = zeros_like_params(params)
    for p_arrs, g_arrs in ((work.weights, grad.weights), (work.biases, grad.biases)):
        for p_arr, g_arr in zip(p_arrs, g_arrs):
            flat_p = p_arr.ravel()
            flat_g = g_arr.ravel()
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + h
                up = td_loss_only(work, mask, x, actions, targets)
                flat_p[j] = orig - h
                down = td_loss_only(work, mask, x, actions, targets)
                flat_p[j] = orig
                flat_g[j] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(grad, fd_grad):
    """Sup-norm error relative to the largest finite-difference magnitude."""
    scale = 1e-12
    for arrs in (fd_grad.weights, fd_grad.biases):
        for f in arrs:
            if f.size:
                scale = max(scale, float(np.max(np.abs(f))))
    worst = 0.0
    for g_arrs, f_arrs in ((grad.weights, fd_grad.weights), (grad.biases, fd_grad.biases)):
        for g, f in zip(g_arrs, f_arrs):
            if g.size:
                worst = max(worst, float(np.max(np.abs(g - f))) / scale)
    return worst


def _random_net(rng, widths):
    specs = mlp_layer_specs(widths)
    weights = [rng.normal(scale=0.8, size=(s.output_width, s.input_width)) for s in specs]
    biases = [rng.normal(scale=0.5, size=s.output_width) for s in specs]
    return NetworkParams(weights, biases, specs)


def _kink_free(params, mask, x, margin):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    for w, b, m in list(zip(params.weights, params.biases, mask.layers))[:-1]:  # the hidden (ReLU) layers
        z = a @ (w * m).T + b
        if np.min(np.abs(z)) < margin:
            return False
        a = np.maximum(z, 0.0)
    return True


def sample_fd_case(trial, batch=4, max_layers=3, max_width=8, with_mask=False, h=1e-5):
    """Deterministic random (net, mask, batch) with no pre-activation near a kink."""
    for attempt in range(1000):
        rng = RngStream(trial * 1009 + attempt, "gradcheck/case")
        n_layers = int(rng.integers(1, max_layers + 1))
        widths = [int(rng.integers(2, max_width + 1)) for _ in range(n_layers + 1)]
        net = _random_net(rng, widths)
        if with_mask:
            mask = magnitude_mask(net, float(rng.uniform(0.0, 0.5)))
        else:
            mask = mask_of_ones(net)
        x = rng.normal(size=(batch, widths[0]))
        actions = rng.integers(0, widths[-1], size=batch)
        targets = rng.normal(size=batch)
        if _kink_free(net, mask, x, margin=50.0 * h):
            return net, mask, x, actions, targets
    raise AssertionError("could not sample a kink-free gradient-check case")
