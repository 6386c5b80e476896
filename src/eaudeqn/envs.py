"""Desk-scale environments with exact dynamics, plus tabular oracles.

All environments are stateless objects: reset() returns an initial internal
state, step() maps (state, action) to (next_state, reward, done) with a
Python float reward, observe() turns a state into the network-facing
observation, and contains() tells whether an array of reset()'s shape is a
state. done is true termination only; horizon truncation is handled by the
caller and never signals done, so bootstrapping is cut only at real
terminals.

Tabular environments (chain, gridworld) expose their exact transition model
for the value-iteration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import RngStream


@dataclass(frozen=True)
class DiscreteSpace:
    count: int


@dataclass(frozen=True)
class BoxSpace:
    dimension: int
    low: float
    high: float


@dataclass(frozen=True)
class EnvSpec:
    id: str
    observation_width: int
    action_space: DiscreteSpace | BoxSpace
    horizon: int
    discount: float
    random_baseline: float
    reference_score: float


@dataclass
class Transition:
    """One interaction record: (s, a, r, s', done)."""

    state: np.ndarray
    action: int | np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


class ChainEnv:
    """10 states in a row; reward 1 only for entering the terminal right end.

    Deterministic: start at state 0, action 0 moves left (wall-clamped),
    action 1 moves right; entering state 9 ends the episode. Observations are
    one-hot. Under the optimal policy an episode takes exactly 9 steps.
    """

    N = 10

    def __init__(self):
        # random_baseline measured by a 10k-episode uniform-policy rollout
        # (see tests), reference_score is the optimal raw return.
        self.spec = EnvSpec(
            id="chain",
            observation_width=self.N,
            action_space=DiscreteSpace(2),
            horizon=100,
            discount=0.99,
            random_baseline=0.674,
            reference_score=1.0,
        )

    def reset(self, rng: RngStream) -> np.ndarray:
        return np.array([0.0])

    def step(self, state, action, rng: RngStream):
        s = int(state[0])
        if action not in (0, 1):
            raise ConfigError(f"chain action must be 0 or 1, got {action}")
        if action == 1:
            nxt = s + 1
        else:
            nxt = max(s - 1, 0)
        reward = 1.0 if nxt == self.N - 1 else 0.0
        done = nxt == self.N - 1
        return np.array([float(nxt)]), reward, done

    def observe(self, state) -> np.ndarray:
        obs = np.zeros(self.N)
        obs[int(state[0])] = 1.0
        return obs

    def contains(self, state) -> bool:
        return all(x in range(self.N) for x in state)

    # -- tabular model ------------------------------------------------------

    def n_states(self) -> int:
        return self.N

    def tabular_model(self):
        S, A = self.N, 2
        next_idx = np.zeros((S, A), dtype=np.int64)
        reward = np.zeros((S, A))
        terminal = np.zeros(S, dtype=bool)
        terminal[self.N - 1] = True
        for s in range(S):
            next_idx[s, 0] = max(s - 1, 0)
            next_idx[s, 1] = min(s + 1, self.N - 1)
            reward[s, 1] = 1.0 if s + 1 == self.N - 1 else 0.0
        return next_idx, reward, terminal

    def state_index(self, state) -> int:
        return int(state[0])


class GridworldEnv:
    """5x5 grid, start (0,0), terminal goal (4,4) with reward 1.

    Deterministic moves (0=up, 1=down, 2=left, 3=right) clamp at the walls.
    Observations are one-hot over the 25 cells.
    """

    SIZE = 5

    def __init__(self):
        self.spec = EnvSpec(
            id="gridworld",
            observation_width=self.SIZE * self.SIZE,
            action_space=DiscreteSpace(4),
            horizon=100,
            discount=0.99,
            random_baseline=0.607,
            reference_score=1.0,
        )

    def reset(self, rng: RngStream) -> np.ndarray:
        return np.array([0.0, 0.0])

    def _move(self, r, c, action):
        if action == 0:
            r -= 1
        elif action == 1:
            r += 1
        elif action == 2:
            c -= 1
        elif action == 3:
            c += 1
        else:
            raise ConfigError(f"gridworld action must be in 0..3, got {action}")
        r = min(max(r, 0), self.SIZE - 1)
        c = min(max(c, 0), self.SIZE - 1)
        return r, c

    def step(self, state, action, rng: RngStream):
        r, c = int(state[0]), int(state[1])
        nr, nc = self._move(r, c, action)
        at_goal = (nr, nc) == (self.SIZE - 1, self.SIZE - 1)
        return np.array([float(nr), float(nc)]), (1.0 if at_goal else 0.0), at_goal

    def observe(self, state) -> np.ndarray:
        obs = np.zeros(self.SIZE * self.SIZE)
        obs[int(state[0]) * self.SIZE + int(state[1])] = 1.0
        return obs

    def contains(self, state) -> bool:
        return all(x in range(self.SIZE) for x in state)

    def n_states(self) -> int:
        return self.SIZE * self.SIZE

    def tabular_model(self):
        S, A = self.n_states(), 4
        next_idx = np.zeros((S, A), dtype=np.int64)
        reward = np.zeros((S, A))
        terminal = np.zeros(S, dtype=bool)
        goal = S - 1
        terminal[goal] = True
        for s in range(S):
            r, c = divmod(s, self.SIZE)
            for a in range(A):
                nr, nc = self._move(r, c, a)
                nxt = nr * self.SIZE + nc
                next_idx[s, a] = nxt
                reward[s, a] = 1.0 if (nxt == goal and s != goal) else 0.0
        return next_idx, reward, terminal

    def state_index(self, state) -> int:
        return int(state[0]) * self.SIZE + int(state[1])


class CartPoleEnv:
    """Cart-pole balancing with the standard constants and Euler integration.

    gravity 9.8, cart mass 1.0, pole mass 0.1, pole half-length 0.5, force
    magnitude 10, dt 0.02. Terminates when |pole angle| > 12 degrees or
    |cart position| > 2.4; reward 1 per step.
    """

    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    HALF_LENGTH = 0.5
    FORCE = 10.0
    DT = 0.02
    ANGLE_LIMIT = 12.0 * math.pi / 180.0
    POSITION_LIMIT = 2.4

    def __init__(self):
        self.spec = EnvSpec(
            id="cartpole",
            observation_width=4,
            action_space=DiscreteSpace(2),
            horizon=200,
            discount=0.99,
            random_baseline=22.3,
            reference_score=200.0,
        )

    def reset(self, rng: RngStream) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=4)

    def step(self, state, action, rng: RngStream):
        if action not in (0, 1):
            raise ConfigError(f"cartpole action must be 0 or 1, got {action}")
        x, x_dot, theta, theta_dot = state.tolist()  # Python floats: the same IEEE arithmetic, faster
        force = self.FORCE if action == 1 else -self.FORCE
        total_mass = self.MASS_CART + self.MASS_POLE
        pole_mass_length = self.MASS_POLE * self.HALF_LENGTH
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        temp = (force + pole_mass_length * theta_dot**2 * sin_t) / total_mass
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.MASS_POLE * cos_t**2 / total_mass)
        )
        x_acc = temp - pole_mass_length * theta_acc * cos_t / total_mass
        x = x + self.DT * x_dot
        x_dot = x_dot + self.DT * x_acc
        theta = theta + self.DT * theta_dot
        theta_dot = theta_dot + self.DT * theta_acc
        nxt = np.array([x, x_dot, theta, theta_dot])
        done = abs(theta) > self.ANGLE_LIMIT or abs(x) > self.POSITION_LIMIT
        return nxt, 1.0, done

    def observe(self, state) -> np.ndarray:
        return np.asarray(state, dtype=np.float64).copy()

    def contains(self, state) -> bool:
        return bool(np.isfinite(state).all())


class PendulumEnv:
    """Torque-controlled pendulum swing-up; never terminates.

    gravity 10, mass 1, length 1, dt 0.05, torque clipped to [-2, 2],
    angular velocity clipped to [-8, 8]. Reward is
    -(theta^2 + 0.1 * theta_dot^2 + 0.001 * torque^2) with theta wrapped to
    [-pi, pi], so it is always <= 0. Observed as (cos theta, sin theta,
    theta_dot).
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0

    def __init__(self):
        self.spec = EnvSpec(
            id="pendulum",
            observation_width=3,
            action_space=BoxSpace(1, -2.0, 2.0),
            horizon=200,
            discount=0.99,
            random_baseline=-1240.0,
            reference_score=-150.0,
        )

    def reset(self, rng: RngStream) -> np.ndarray:
        theta = float(rng.uniform(-math.pi, math.pi))
        theta_dot = float(rng.uniform(-1.0, 1.0))
        return np.array([theta, theta_dot])

    def step(self, state, action, rng: RngStream):
        theta, theta_dot = state
        torque = float(np.clip(np.asarray(action).reshape(-1)[0], -self.MAX_TORQUE, self.MAX_TORQUE))
        wrapped = _angle_normalize(theta)
        reward = -(wrapped**2 + 0.1 * theta_dot**2 + 0.001 * torque**2)
        theta_dot = theta_dot + (
            3.0 * self.GRAVITY / (2.0 * self.LENGTH) * math.sin(theta)
            + 3.0 / (self.MASS * self.LENGTH**2) * torque
        ) * self.DT
        theta_dot = float(np.clip(theta_dot, -self.MAX_SPEED, self.MAX_SPEED))
        theta = theta + theta_dot * self.DT
        return np.array([theta, theta_dot]), float(reward), False

    def observe(self, state) -> np.ndarray:
        theta, theta_dot = state
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def contains(self, state) -> bool:
        return bool(np.isfinite(state).all())


def _angle_normalize(theta: float) -> float:
    return ((theta + math.pi) % (2.0 * math.pi)) - math.pi


ENV_IDS = ("chain", "gridworld", "cartpole", "pendulum")


def make_env(env_id: str):
    if env_id == "chain":
        return ChainEnv()
    if env_id == "gridworld":
        return GridworldEnv()
    if env_id == "cartpole":
        return CartPoleEnv()
    if env_id == "pendulum":
        return PendulumEnv()
    raise ConfigError(f"unknown env id {env_id!r}; known: {ENV_IDS}")


def value_iteration(env, gamma: float, tolerance: float = 1e-10) -> np.ndarray:
    """Optimal Q-table for a tabular env, Bellman residual below tolerance.

    Terminal states are absorbing with zero reward, so their rows stay zero.
    """
    if not hasattr(env, "tabular_model"):
        raise ConfigError(f"value_iteration supports tabular envs only, not {env.spec.id!r}")
    next_idx, reward, terminal = env.tabular_model()
    q = np.zeros_like(reward)
    while True:
        v_next = q.max(axis=1)
        v_next = np.where(terminal, 0.0, v_next)
        q_new = reward + gamma * v_next[next_idx]
        q_new[terminal, :] = 0.0
        delta = float(np.max(np.abs(q_new - q)))
        q = q_new
        if delta < tolerance:
            return q


def greedy_policy(q_table: np.ndarray) -> np.ndarray:
    return q_table.argmax(axis=1)


def policy_matches_oracle(q_table: np.ndarray, greedy_actions, atol: float = 1e-9) -> bool:
    """True when each greedy action attains the VI-optimal value of its state.

    At terminal states all actions are optimal (rows are zero), so any action
    passes there; on non-terminal states with a unique optimum this is exact
    equality of argmaxes.
    """
    actions = np.asarray(greedy_actions, dtype=np.int64)
    best = q_table.max(axis=1)
    chosen = q_table[np.arange(q_table.shape[0]), actions]
    return bool(np.all(chosen >= best - atol))


def normalized_return(raw: float, spec: EnvSpec) -> float:
    """(raw - random_baseline) / (reference_score - random_baseline)."""
    denom = spec.reference_score - spec.random_baseline
    if denom == 0.0:
        raise ConfigError(f"degenerate normalization baselines for {spec.id!r}")
    return (raw - spec.random_baseline) / denom


def uniform_policy_return(env, episodes: int, rng: RngStream) -> float:
    """Monte-Carlo mean raw return of the uniform-random policy."""
    space = env.spec.action_space
    total = 0.0
    for _ in range(episodes):
        state = env.reset(rng)
        ep_return = 0.0
        for _ in range(env.spec.horizon):
            if isinstance(space, DiscreteSpace):
                action = int(rng.integers(space.count))
            else:
                action = rng.uniform(space.low, space.high, size=space.dimension)
            state, reward, done = env.step(state, action, rng)
            ep_return += reward
            if done:
                break
        total += ep_return
    return total / episodes


def tabular_greedy_return(env, q_table: np.ndarray, rng: RngStream, discounted: bool = False) -> float:
    """Raw (or discounted) return of one greedy rollout from the start state."""
    state = env.reset(rng)
    total = 0.0
    scale = 1.0
    for _ in range(env.spec.horizon):
        action = int(q_table[env.state_index(state)].argmax())
        state, reward, done = env.step(state, action, rng)
        total += scale * reward
        if discounted:
            scale *= env.spec.discount
        if done:
            break
    return total
