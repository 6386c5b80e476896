"""Experiment orchestration: the step frame, logging, and resumable state.

One run is driven by an ExperimentConfig and a single 64-bit seed. Every
consumer of randomness owns a named RngStream, so the trajectory is
reproducible bit-for-bit, a population's stacked update can fan out over
threads in row chunks without changing results, and a run resumed from a
checkpoint continues exactly where the uninterrupted run would have been.

All six algorithms run through one step frame (_run). Per environment step:
act, env step, replay push and episode bookkeeping; once the warmup is
filled, the family's learning; the family's selection events; scheduled
(PolyPrune) pruning; evaluation; logging. A family supplies act, learn,
events, the greedy agent for evaluation, and what is logged. Value-based
(_ValueBased): one shared-target pass every gradient_period steps, and every
target_period steps the target-update event (target selection, then the
selection event, then loss resets). Actor-critic (_ActorCritic): UTD critic
passes plus one actor update per step, and an EauDe prune event (one
selection event per critic side) every prune_period steps. Both families
build their populations with _fresh_population and select through
population.selection_event; a scheduled prune is one call per stack.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import ExperimentConfig, config_digest, network_widths, validate_config
from .dqn import act_epsilon_greedy, distillqn_update, epsilon_at, td_targets, train_member
from .envs import Transition, make_env
from .errors import CheckpointError, ConfigError, NonFiniteError
from .nncore import Frozen, NetworkParams, Workspace, init_adam_state, init_network, mlp_layer_specs
from .population import (
    Member,
    Population,
    concat_stacks,
    member_digest,
    sample_behavior_index,
    select_target,
    selection_event,
    split_stack,
)
from .pruning import Mask, mask_of_ones
from .replay import ReplayBuffer
from .rng import RngStream
from .rundir import LogRecord, RunLog
from .sac import (
    GaussianPolicy,
    TwinCriticPopulation,
    critic_inputs,
    draw_action,
    eaudesac_prune_event,
    mean_action,
    sac_actor_update,
    sac_critic_targets,
    train_critic_member,
)

VALUE_STREAMS = ("env", "explore", "behavior", "replay", "selection", "eval")
SAC_STREAMS = ("env", "policy", "target", "actor", "replay", "selection", "eval")


class NumericAbortError(RuntimeError):
    """A non-finite loss appeared; carries the state for the checkpoint dump."""

    def __init__(self, cause: Exception, state: "TrainState", log: "RunLog"):
        super().__init__(f"numeric abort at step {state.step}: {cause}")
        self.cause = cause
        self.state = state
        self.log = log


def mask_digest(mask: Mask) -> str:
    return hashlib.sha256(mask.flat.tobytes()).hexdigest()  # the layers' bytes, in order


@dataclass
class TrainState:
    """Everything needed to continue a run exactly where it stopped."""

    config: ExperimentConfig
    step: int
    streams: dict[str, RngStream]
    buffer: ReplayBuffer
    env_state: np.ndarray
    obs: np.ndarray
    episode_return: float
    episode_len: int
    last_episode_return: float
    last_eval: float
    population: Population | None = None
    logged_champion: int = 0
    logged_behavior: int = 0
    policy: GaussianPolicy | None = None
    twin: TwinCriticPopulation | None = None
    logged_behaviors: tuple[int, int] = (0, 0)


def _make_streams(seed: int, names) -> dict[str, RngStream]:
    return {name: RngStream(seed, name) for name in names}


def init_state(config: ExperimentConfig) -> TrainState:
    validate_config(config)
    env = make_env(config.env)
    widths = network_widths(config)
    if config.is_sac:
        streams = _make_streams(config.seed, SAC_STREAMS)
        actor_params = init_network(
            mlp_layer_specs(widths["actor"]), RngStream(config.seed, "actor/init")
        )
        policy = GaussianPolicy(
            params=actor_params,
            mask=mask_of_ones(actor_params),
            optimizer=init_adam_state(actor_params, config.learning_rate, config.adam_epsilon),
            action_dim=env.spec.action_space.dimension,
            action_low=env.spec.action_space.low,
            action_high=env.spec.action_space.high,
        )
        sides = [_fresh_population(config, widths["critic"], f"critic/{i}/member", soft_targets=True) for i in range(2)]
        twin = TwinCriticPopulation(sides=(sides[0], sides[1]))
        population = None
    else:
        streams = _make_streams(config.seed, VALUE_STREAMS)
        population = _fresh_population(config, widths["q"], "member", soft_targets=False)
        twin = None
        policy = None
    env_state = env.reset(streams["env"])
    return TrainState(
        config=config,
        step=0,
        streams=streams,
        buffer=ReplayBuffer(config.buffer_capacity, env.spec.observation_width, env.spec.action_space),
        env_state=env_state,
        obs=env.observe(env_state),
        episode_return=0.0,
        episode_len=0,
        last_episode_return=float("nan"),
        last_eval=float("nan"),
        population=population,
        policy=policy,
        twin=twin,
    )


def _fresh_population(config: ExperimentConfig, widths, label: str, soft_targets: bool) -> Population:
    """K freshly initialized networks as one stack, network j drawn from
    stream "<label>/<j>/init", each dense, with a fresh optimizer and lineage
    j. With soft_targets every member gets its own soft target, a copy of its
    network (critics); otherwise the population holds one shared target, a
    frozen copy of network 0."""
    specs = mlp_layer_specs(widths)
    k = config.population_size
    params = NetworkParams.of(
        np.stack([init_network(specs, RngStream(config.seed, f"{label}/{j}/init")).flat for j in range(k)]), specs
    )
    mask = mask_of_ones(params)
    optimizer = replace(
        init_adam_state(params, config.learning_rate, config.adam_epsilon), step_count=np.zeros(k, dtype=np.int64)
    )
    stack = Member(
        params=params,
        mask=mask,
        optimizer=optimizer,
        cumulated_loss=np.zeros(k),
        sparsity=np.zeros(k),
        lineage_id=np.arange(k),
        mask_target=np.zeros(k),
        target_params=params.copy() if soft_targets else None,
    )
    target = None if soft_targets else Frozen(params.row(0).copy(), mask.row(0).copy())
    return Population(stack, target, 0, k)


def evaluate_policy(agent, env, episodes: int, rng: RngStream) -> float:
    """Mean raw (undiscounted) return over greedy or mean-action rollouts."""
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    total = 0.0
    for _ in range(episodes):
        state = env.reset(rng)
        obs = env.observe(state)
        ep_return = 0.0
        for _ in range(env.spec.horizon):
            if isinstance(agent, GaussianPolicy):
                action = mean_action(agent, obs)
            else:
                action = act_epsilon_greedy(agent, obs, 0.0, rng)
            state, reward, done = env.step(state, action, rng)
            obs = env.observe(state)
            ep_return += reward
            if done:
                break
        total += ep_return
    return total / episodes


def run_training(
    config: ExperimentConfig,
    *,
    resume: TrainState | None = None,
    until_step: int | None = None,
    threads: int = 1,
    clock=None,
) -> tuple[RunLog, TrainState]:
    """Execute (or continue) one run; returns the log and the final state.

    `clock` supplies the wallclock_s column (default: time.perf_counter);
    tests inject a deterministic clock so CSV comparisons are byte-exact.
    `threads` > 1 runs each population update as up to that many row chunks
    on a thread pool; the results are the same bits. On a non-finite loss the
    run raises NumericAbortError carrying the state.
    """
    validate_config(config)
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if resume is not None:
        if config_digest(resume.config) != config_digest(config):
            raise CheckpointError("checkpoint config digest does not match this config")
        state = resume
    else:
        state = init_state(config)
    stop = config.total_steps if until_step is None else min(until_step, config.total_steps)
    log = RunLog(config)
    clock = clock if clock is not None else time.perf_counter
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    # a workspace per concurrent pass, made at the first learning step and
    # dropped with the run
    train = partial(_train_stacks, pool=pool, threads=threads, workspaces=defaultdict(Workspace))
    family = (_ActorCritic if config.is_sac else _ValueBased)(config, train)
    try:
        _run(config, state, log, stop, family, clock)
    except NonFiniteError as err:
        raise NumericAbortError(err, state, log) from err
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return log, state


def _train_stacks(populations, step, *, pool, threads: int, workspaces) -> None:
    """Replace each population's stack with step(stack, workspace), one
    stacked pass each.

    With a pool, each stack is cut into up to `threads` contiguous row chunks
    that run concurrently through the same step and are joined in row order.
    Rows never interact and share no random streams, so the result does not
    depend on the chunking or the scheduling. Without a pool the passes run
    one after another through one workspace, `workspaces[0, 0]`; with one,
    each (population i, chunk j) pass has its own, `workspaces[i, j]`, so
    concurrent passes share no scratch arrays.
    """
    if pool is None:
        for pop in populations:
            pop.stack = step(pop.stack, workspaces[0, 0])
        return
    pending = [
        [pool.submit(step, chunk, workspaces[i, j]) for j, chunk in enumerate(split_stack(pop.stack, threads))]
        for i, pop in enumerate(populations)
    ]
    for pop, futures in zip(populations, pending):
        pop.stack = concat_stacks([f.result() for f in futures])


def _run(config, state: TrainState, log: RunLog, stop: int, family, clock) -> None:
    """The step frame shared by all six algorithms; `family` supplies the rest."""
    env = make_env(config.env)
    streams = state.streams
    pp = config.polyprune
    t0 = clock()
    while state.step < stop:
        t = state.step + 1
        state.step = t

        action = family.act(state, t)
        next_state, reward, done = env.step(state.env_state, action, streams["env"])
        next_obs = env.observe(next_state)
        state.buffer.push(Transition(state.obs, action, reward, next_obs, done))
        state.episode_return += reward
        state.episode_len += 1
        if done or state.episode_len >= env.spec.horizon:
            state.last_episode_return = state.episode_return
            state.episode_return = 0.0
            state.episode_len = 0
            state.env_state = env.reset(streams["env"])
            state.obs = env.observe(state.env_state)
        else:
            state.env_state = next_state
            state.obs = next_obs

        if t > config.warmup:
            family.learn(state, t)

        event = family.events(state, t, log)
        # period-triggered pruning; fires after any coinciding target copy so
        # that a period synchronized with the target period is the same
        # algorithm as the target-synced path
        if pp is not None and not pp.sync_to_target_updates and t % pp.pruning_period == 0:
            event = True
            for i, side in enumerate(family.sides(state)):
                _prune(side, pp, t, log, **({"critic": i} if config.is_sac else {}))

        if t % config.eval_period == 0:
            state.last_eval = evaluate_policy(family.greedy(state), env, config.eval_episodes, streams["eval"])

        if t % config.log_period == 0 or event:
            champions, behaviors = family.logged(state)
            sides = family.sides(state)
            log.records.append(
                LogRecord(
                    step=t,
                    wallclock_s=clock() - t0,
                    episode_return=state.last_episode_return,
                    eval_return=state.last_eval,
                    champions=champions,
                    behaviors=behaviors,
                    sparsities=tuple(tuple(side.stack.sparsity.tolist()) for side in sides),
                    losses=tuple(tuple(side.losses()) for side in sides),
                )
            )


def _prune(pop: Population, pp, t: int, log: RunLog, **tag) -> None:
    """Scheduled magnitude pruning of every member (and its soft target)."""
    pop.stack = stack = distillqn_update(pop.stack, pp, t)
    log.events.append(
        {
            "step": t,
            "kind": "prune",
            **tag,
            "target": float(stack.mask_target[0]),
            "realized": float(stack.sparsity[0]),
            "mask_digest": mask_digest(stack.mask.row(0)),
        }
    )


@dataclass
class _ValueBased:
    """dqn, polyprune_dqn, eaude_dqn: epsilon-greedy acting, one shared-target
    pass every gradient_period steps, and a target-update event every
    target_period steps (target selection, then exploitation, exploration and
    loss resets)."""

    config: ExperimentConfig
    train: Callable  # _train_stacks bound to the run's pool and workspaces

    def act(self, state: TrainState, t: int) -> int:
        config, pop = self.config, state.population
        if config.eaude is not None:
            bidx = sample_behavior_index(pop.losses(), state.streams["behavior"])
        else:
            bidx = 0
        state.logged_behavior = bidx
        eps = epsilon_at(t, config.epsilon_start, config.epsilon_end, config.epsilon_decay_steps)
        return act_epsilon_greedy(pop.network(bidx), state.obs, eps, state.streams["explore"])

    def learn(self, state: TrainState, t: int) -> None:
        config, pop = self.config, state.population
        if t % config.gradient_period != 0:
            return
        batch = state.buffer.sample_batch(config.batch_size, state.streams["replay"])
        targets = td_targets(pop.target, batch, config.discount)
        self.train([pop], lambda s, ws: train_member(s, batch, targets, ws)[0])

    def events(self, state: TrainState, t: int, log: RunLog) -> bool:
        config, pop = self.config, state.population
        if t % config.target_period != 0:
            return False
        is_eaude = config.eaude is not None
        psi = select_target(pop.losses()) if is_eaude else 0
        champion = pop.network(psi)
        pop.target = Frozen(champion.params.copy(), champion.mask.copy())
        state.logged_champion = psi
        log.events.append(
            {
                "step": t,
                "kind": "target_update",
                "champion": psi,
                "member_digests": [member_digest(m) for m in pop.members],
            }
        )
        pp = config.polyprune
        if pp is not None and pp.sync_to_target_updates:
            _prune(pop, pp, t, log)
        if is_eaude:
            t_next = min(t + config.target_period, config.eaude.t_final)
            state.population, record = selection_event(pop, psi, t, t_next, config.eaude, state.streams["selection"])
            log.events.append({"step": t, "kind": "exploitation", "selection": record.pop("selection")})
            log.events.append({"step": t, "kind": "exploration", **record})
        else:
            # monitoring losses mirror the population reset for comparability
            pop.stack = replace(pop.stack, cumulated_loss=np.zeros(pop.k))
        log.events.append({"step": t, "kind": "loss_reset"})
        return True

    def greedy(self, state: TrainState):
        pop = state.population
        return pop.network(pop.champion_index)

    def sides(self, state: TrainState) -> tuple[Population, ...]:
        return (state.population,)

    def logged(self, state: TrainState) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (state.logged_champion,), (state.logged_behavior,)


@dataclass
class _ActorCritic:
    """sac, polyprune_sac, eaude_sac: stochastic-policy acting, utd critic
    passes plus one actor update per step, and an EauDe prune event every
    prune_period steps."""

    config: ExperimentConfig
    train: Callable  # _train_stacks bound to the run's pool and workspaces

    def act(self, state: TrainState, t: int) -> np.ndarray:
        action, _ = draw_action(state.policy, state.obs, state.streams["policy"])
        return action

    def learn(self, state: TrainState, t: int) -> None:
        config, twin, streams = self.config, state.twin, state.streams
        for _ in range(config.utd):
            batch = state.buffer.sample_batch(config.batch_size, streams["replay"])
            targets = sac_critic_targets(twin, state.policy, batch, config.discount, config.alpha, streams["target"])
            inputs = critic_inputs(batch.states, batch.actions)
            self.train(twin.sides, lambda s, ws: train_critic_member(s, inputs, targets, config.tau, ws)[0])
            for side in twin.sides:
                side.champion_index = select_target(side.losses())
        state.policy, state.logged_behaviors = sac_actor_update(
            state.policy, twin, batch, config.alpha, streams["actor"]
        )

    def events(self, state: TrainState, t: int, log: RunLog) -> bool:
        config = self.config
        if config.eaude is None or t % config.prune_period != 0:
            return False
        t_next = min(t + config.prune_period, config.eaude.t_final)
        state.twin, records = eaudesac_prune_event(state.twin, t, t_next, config.eaude, state.streams["selection"])
        log.events.extend({"step": t, "kind": "sac_prune", **record} for record in records)
        return True

    def greedy(self, state: TrainState):
        return state.policy

    def sides(self, state: TrainState) -> tuple[Population, ...]:
        return state.twin.sides

    def logged(self, state: TrainState) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(side.champion_index for side in state.twin.sides), tuple(state.logged_behaviors)
