"""Soft actor-critic on top of the population machinery.

The actor is a tanh-squashed Gaussian: the network emits per-dimension
(mean, log_std), log_std is clamped to [-20, 2], and the sample
u = mean + std * noise is squashed to the action bounds with
a = center + half_range * tanh(u). Log-probabilities include the tanh
change of variables, computed with the stable identity
log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u)).

Critics are two independent populations of K members; each member carries
its own Polyak-averaged target, stacked with the rest of its population so
one critic update covers all K members of a side. Member cumulated losses
are exponential moving averages here (rate tau), not sums. Only critics are
ever pruned; the actor stays dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .nncore import (
    AdamState,
    NetworkParams,
    adam_step,
    backprop_from_output,
    forward,
    _forward_cache,
)
from .population import (
    Member,
    Network,
    Population,
    member_gradient_step,
    sample_behavior_index,
    select_target,
    selection_event,
)
from .pruning import EauDeConfig, Mask, apply_mask  # noqa: F401  (perfbench traces the sac.apply_mask binding)
from .replay import Batch
from .rng import RngStream

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class GaussianPolicy:
    """Actor network plus the action box it squashes into."""

    params: NetworkParams
    mask: Mask
    optimizer: AdamState
    action_dim: int
    action_low: float
    action_high: float

    @property
    def center(self) -> float:
        return 0.5 * (self.action_high + self.action_low)

    @property
    def half_range(self) -> float:
        return 0.5 * (self.action_high - self.action_low)


@dataclass
class TwinCriticPopulation:
    """Two critic populations with per-member EMA losses and soft targets."""

    sides: tuple[Population, Population]
    tau: float
    alpha: float
    prune_period: int

    @property
    def k(self) -> int:
        return self.sides[0].k


def _policy_heads(policy: GaussianPolicy, states: np.ndarray):
    out = forward(policy.params, policy.mask, states)
    d = policy.action_dim
    mean = out[..., :d]
    raw_log_std = out[..., d:]
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    return mean, log_std, raw_log_std


def _log_one_minus_tanh_sq(u: np.ndarray) -> np.ndarray:
    return 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def _log_prob(policy: GaussianPolicy, z: np.ndarray, log_std: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-sample log pi(a|s) of a = center + half_range * tanh(u), where
    u = mean + exp(log_std) * z: Gaussian density plus the tanh correction."""
    return (
        -0.5 * z**2
        - log_std
        - _HALF_LOG_2PI
        - math.log(policy.half_range)
        - _log_one_minus_tanh_sq(u)
    ).sum(axis=-1)


def sample_action(policy: GaussianPolicy, states, noise) -> tuple[np.ndarray, np.ndarray]:
    """Reparameterized tanh-Gaussian sample and its log-probability.

    states: (B, obs) or (obs,); noise: standard normal of shape (B, dim).
    Returns (actions within bounds, per-sample log pi(a|s)).
    """
    states2d = np.atleast_2d(np.asarray(states, dtype=np.float64))
    mean, log_std, _ = _policy_heads(policy, states2d)
    std = np.exp(log_std)
    u = mean + std * noise
    th = np.tanh(u)
    actions = policy.center + policy.half_range * th
    return actions, _log_prob(policy, noise, log_std, u)


def draw_action(policy: GaussianPolicy, state, rng: RngStream) -> tuple[np.ndarray, float]:
    """Single-state stochastic action for the interaction loop."""
    noise = rng.normal(size=(1, policy.action_dim))
    actions, log_prob = sample_action(policy, state, noise)
    return actions[0], float(log_prob[0])


def mean_action(policy: GaussianPolicy, state) -> np.ndarray:
    """Deterministic evaluation action: squashed mean, no noise."""
    states2d = np.atleast_2d(np.asarray(state, dtype=np.float64))
    mean, _, _ = _policy_heads(policy, states2d)
    return (policy.center + policy.half_range * np.tanh(mean))[0]


def action_log_prob(policy: GaussianPolicy, state, actions) -> np.ndarray:
    """log pi(a|s) for given in-bounds actions (used by the density check)."""
    states2d = np.atleast_2d(np.asarray(state, dtype=np.float64))
    acts = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    mean, log_std, _ = _policy_heads(policy, np.broadcast_to(states2d, (acts.shape[0], states2d.shape[1])))
    std = np.exp(log_std)
    unit = np.clip((acts - policy.center) / policy.half_range, -1.0 + 1e-12, 1.0 - 1e-12)
    u = np.arctanh(unit)
    return _log_prob(policy, (u - mean) / std, log_std, u)


def critic_inputs(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)


def critic_value(critic: Member | Network, states, actions) -> np.ndarray:
    out = forward(critic.params, critic.mask, critic_inputs(states, actions))
    return out[:, 0]


def sac_critic_targets(
    twin: TwinCriticPopulation, policy: GaussianPolicy, batch: Batch, gamma: float, rng: RngStream
) -> np.ndarray:
    """Shared critic target: r + gamma*(1-done)*(min_i Q_target_i(s',a') - alpha*log pi(a'|s')).

    a' is sampled from the current policy at the next states; both champion
    target critics evaluate the same a'.
    """
    noise = rng.normal(size=(batch.next_states.shape[0], policy.action_dim))
    next_actions, log_prob = sample_action(policy, batch.next_states, noise)
    q_values = []
    for side in twin.sides:
        champion = side.target_network(side.champion_index)
        q_values.append(critic_value(champion, batch.next_states, next_actions))
    q_min = np.minimum(q_values[0], q_values[1])
    return batch.rewards + gamma * (1.0 - batch.dones) * (q_min - twin.alpha * log_prob)


def soft_update(target_params: NetworkParams, online_params: NetworkParams, tau: float) -> NetworkParams:
    """Element-wise convex combination tau*online + (1-tau)*target."""
    return NetworkParams(
        [tau * w + (1.0 - tau) * t for t, w in zip(target_params.weights, online_params.weights)],
        [tau * b + (1.0 - tau) * t for t, b in zip(target_params.biases, online_params.biases)],
        online_params.layer_specs,
    )


def ema_loss_update(loss_ema: float, batch_loss: float, tau: float) -> float:
    """(1 - tau) * L + tau * batch_loss."""
    if not (0.0 < tau <= 1.0):
        raise ConfigError("tau must lie in (0, 1]")
    return (1.0 - tau) * loss_ema + tau * batch_loss


def train_critic_member(member: Member, inputs: np.ndarray, targets: np.ndarray, tau: float) -> tuple[Member, float]:
    """One masked TD step on a scalar-output critic, its soft-target update,
    and the EMA loss bookkeeping. Takes one member or a side's stack (one step
    for every row, with a (K,) loss)."""
    zeros = np.zeros(inputs.shape[0], dtype=np.int64)
    stepped, loss = member_gradient_step(member, inputs, zeros, targets)
    updated = replace(
        stepped,
        target_params=soft_update(member.target_params, stepped.params, tau),
        cumulated_loss=ema_loss_update(member.cumulated_loss, loss, tau),
    )
    return updated, loss


def actor_objective_and_grad(
    policy: GaussianPolicy,
    critic_a: Member | Network,
    critic_b: Member | Network,
    states: np.ndarray,
    alpha: float,
    noise: np.ndarray,
) -> tuple[float, NetworkParams]:
    """Summed actor objective J = sum_j [min_i Q_i(s, a) - alpha*log pi(a|s)]
    under the reparameterization a = squash(mean + std*noise), and dJ/dphi.

    The critics are frozen; the gradient flows through the sampled action and
    the entropy term only.
    """
    states2d = np.atleast_2d(np.asarray(states, dtype=np.float64))
    b = states2d.shape[0]
    d = policy.action_dim

    activations, preacts, eff = _forward_cache(policy.params, policy.mask, states2d)
    out = activations[-1]
    mean = out[:, :d]
    raw_log_std = out[:, d:]
    inside = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    u = mean + std * noise
    th = np.tanh(u)
    actions = policy.center + policy.half_range * th
    log_prob = _log_prob(policy, noise, log_std, u)

    inputs = critic_inputs(states2d, actions)
    acts_a, pre_a, eff_a = _forward_cache(critic_a.params, critic_a.mask, inputs)
    acts_b, pre_b, eff_b = _forward_cache(critic_b.params, critic_b.mask, inputs)
    q_a = acts_a[-1][:, 0]
    q_b = acts_b[-1][:, 0]
    take_a = (q_a <= q_b).astype(np.float64)
    q_min = np.minimum(q_a, q_b)
    objective = float(np.sum(q_min - alpha * log_prob))

    # dJ/da routed through whichever critic attains the minimum per sample
    obs_w = states2d.shape[1]
    _, din_a = backprop_from_output(critic_a.params, critic_a.mask, acts_a, pre_a, take_a[:, None], eff_a)
    _, din_b = backprop_from_output(critic_b.params, critic_b.mask, acts_b, pre_b, (1.0 - take_a)[:, None], eff_b)
    d_actions = (din_a + din_b)[:, obs_w:]

    # d log pi / du = 2*tanh(u); da/du = half_range * (1 - tanh(u)^2)
    d_u = d_actions * policy.half_range * (1.0 - th**2) - alpha * 2.0 * th
    d_mean = d_u
    d_log_std = d_u * (std * noise) + alpha  # +alpha from the -log_std entropy term
    d_log_std = d_log_std * inside  # clamp blocks the gradient at the rails
    dout = np.concatenate([d_mean, d_log_std], axis=1)
    grad, _ = backprop_from_output(policy.params, policy.mask, activations, preacts, dout, eff)
    return objective, grad


def sac_actor_update(
    policy: GaussianPolicy, twin: TwinCriticPopulation, batch: Batch, alpha: float, rng: RngStream
) -> tuple[GaussianPolicy, tuple[int, int]]:
    """One gradient-ascent step on the actor objective.

    Behavior critics are drawn per side from the inverse-EMA-loss
    distribution; the reparameterization noise comes from the same stream.
    Critics are untouched.
    """
    behavior = tuple(sample_behavior_index(side.losses(), rng) for side in twin.sides)
    critic_a = twin.sides[0].network(behavior[0])
    critic_b = twin.sides[1].network(behavior[1])
    noise = rng.normal(size=(batch.states.shape[0], policy.action_dim))
    _, grad = actor_objective_and_grad(policy, critic_a, critic_b, batch.states, alpha, noise)
    # ascent: descend on -J
    neg = NetworkParams([-w for w in grad.weights], [-b for b in grad.biases], grad.layer_specs)
    new_params, new_opt = adam_step(policy.params, neg, policy.optimizer)
    return replace(policy, params=new_params, optimizer=new_opt), behavior


def eaudesac_prune_event(
    twin: TwinCriticPopulation, t: int, t_next: int, cfg: EauDeConfig, rng: RngStream
) -> tuple[TwinCriticPopulation, list[dict]]:
    """One selection event per critic side, around its lowest-EMA-loss
    member; returns each side's log entry, tagged with its critic index."""
    sides, records = [], []
    for i, side in enumerate(twin.sides):
        side, record = selection_event(side, select_target(side.losses()), t, t_next, cfg, rng)
        sides.append(side)
        records.append({"critic": i, **record})
    return replace(twin, sides=(sides[0], sides[1])), records
