"""Experiment configuration: desk-scale defaults, file parsing, validation.

Config files are flat key/value text with dotted section names:

    algorithm = eaude_dqn
    env = chain
    seed = 0
    run.total_steps = 20000
    eaude.population = 5

Unknown keys are errors so typos in schedule constants cannot slip through.
Defaults depend on (algorithm, env); schedule horizons derive from
run.total_steps unless set explicitly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .envs import BoxSpace, DiscreteSpace, make_env
from .errors import ConfigError
from .pruning import EauDeConfig, PolyPruneConfig

ALGORITHMS = ("dqn", "polyprune_dqn", "eaude_dqn", "sac", "polyprune_sac", "eaude_sac")
VALUE_BASED = ("dqn", "polyprune_dqn", "eaude_dqn")
SAC_FAMILY = ("sac", "polyprune_sac", "eaude_sac")


@dataclass
class ExperimentConfig:
    algorithm: str
    env: str
    seed: int
    total_steps: int
    gradient_period: int
    target_period: int
    utd: int
    batch_size: int
    buffer_capacity: int
    warmup: int
    epsilon_start: float
    epsilon_end: float
    epsilon_decay_steps: int
    hidden_widths: tuple[int, ...]
    learning_rate: float
    adam_epsilon: float
    discount: float
    tau: float
    prune_period: int
    alpha: float
    eval_period: int
    eval_episodes: int
    log_period: int
    random_baseline: float
    reference_score: float
    polyprune: PolyPruneConfig | None = None
    eaude: EauDeConfig | None = None

    @property
    def population_size(self) -> int:
        return self.eaude.population_size if self.eaude is not None else 1

    @property
    def is_sac(self) -> bool:
        return self.algorithm in SAC_FAMILY


_DEFAULT_TOTALS = {"chain": 20_000, "gridworld": 20_000, "cartpole": 100_000, "pendulum": 50_000}

# key -> (parser tag, short help)
_KEYS = {
    "algorithm": "str",
    "env": "str",
    "seed": "int",
    "run.total_steps": "int",
    "run.gradient_period": "int",
    "run.target_period": "int",
    "run.utd": "int",
    "run.batch_size": "int",
    "run.discount": "float",
    "replay.capacity": "int",
    "replay.warmup": "int",
    "epsilon.start": "float",
    "epsilon.end": "float",
    "epsilon.decay_steps": "int",
    "network.hidden_widths": "intlist",
    "optim.learning_rate": "float",
    "optim.adam_epsilon": "float",
    "sac.tau": "float",
    "sac.prune_period": "int",
    "sac.alpha": "float",
    "polyprune.final_sparsity": "float",
    "polyprune.exponent": "float",
    "polyprune.t_start": "int",
    "polyprune.t_end": "int",
    "polyprune.period": "int",
    "polyprune.sync_to_target_updates": "bool",
    "eaude.u_max": "float",
    "eaude.s_max": "float",
    "eaude.population": "int",
    "eaude.tournament": "int",
    "eval.period": "int",
    "eval.episodes": "int",
    "log.period": "int",
    "normalize.random_baseline": "float",
    "normalize.reference_score": "float",
}


def _parse_value(key: str, raw: str):
    kind = _KEYS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "intlist":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind}") from None


def parse_config_text(text: str) -> dict:
    """Parse the flat key/value format into an override mapping."""
    overrides: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, raw)
    return overrides


def build_config(overrides: dict) -> ExperimentConfig:
    """Desk-scale defaults for (algorithm, env), overridden by the mapping."""
    algorithm = overrides.get("algorithm", "dqn")
    env_id = overrides.get("env", "chain")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    env = make_env(env_id)
    spec = env.spec

    total = int(overrides.get("run.total_steps", _DEFAULT_TOTALS[env_id]))
    small_env = env_id in ("chain", "gridworld")
    target_period = int(overrides.get("run.target_period", 500 if small_env else 1_000))
    prune_period = int(overrides.get("sac.prune_period", 250))

    polyprune = None
    if algorithm in ("polyprune_dqn", "polyprune_sac"):
        default_period = target_period if algorithm == "polyprune_dqn" else prune_period
        polyprune = PolyPruneConfig(
            final_sparsity=float(overrides.get("polyprune.final_sparsity", 0.95)),
            exponent=float(overrides.get("polyprune.exponent", 3.0)),
            t_start=int(overrides.get("polyprune.t_start", round(0.2 * total))),
            t_end=int(overrides.get("polyprune.t_end", round(0.8 * total))),
            t_final=total,
            pruning_period=int(overrides.get("polyprune.period", default_period)),
            sync_to_target_updates=bool(overrides.get("polyprune.sync_to_target_updates", False)),
        )

    eaude = None
    if algorithm in ("eaude_dqn", "eaude_sac"):
        eaude = EauDeConfig(
            u_max=float(overrides.get("eaude.u_max", 3.0)),
            s_max=float(overrides.get("eaude.s_max", 0.01)),
            population_size=int(overrides.get("eaude.population", 5)),
            tournament_size=int(overrides.get("eaude.tournament", 3)),
            t_final=total,
        )

    config = ExperimentConfig(
        algorithm=algorithm,
        env=env_id,
        seed=int(overrides.get("seed", 0)),
        total_steps=total,
        gradient_period=int(overrides.get("run.gradient_period", 1)),
        target_period=target_period,
        utd=int(overrides.get("run.utd", 1)),
        batch_size=int(overrides.get("run.batch_size", 32)),
        buffer_capacity=int(overrides.get("replay.capacity", 10_000 if small_env else (20_000 if env_id == "cartpole" else 50_000))),
        warmup=int(overrides.get("replay.warmup", 500 if small_env else 1_000)),
        epsilon_start=float(overrides.get("epsilon.start", 1.0)),
        epsilon_end=float(overrides.get("epsilon.end", 0.01)),
        epsilon_decay_steps=int(overrides.get("epsilon.decay_steps", 10_000 if small_env else 20_000)),
        hidden_widths=tuple(
            overrides.get("network.hidden_widths", (48, 48) if spec_is_sac(algorithm) else (32, 32))
        ),
        learning_rate=float(
            overrides.get("optim.learning_rate", 2e-3 if spec_is_sac(algorithm) else 1e-3)
        ),
        adam_epsilon=float(overrides.get("optim.adam_epsilon", 1.5e-4)),
        discount=float(overrides.get("run.discount", spec.discount)),
        tau=float(overrides.get("sac.tau", 0.005)),
        prune_period=prune_period,
        alpha=float(overrides.get("sac.alpha", 0.2)),
        eval_period=int(overrides.get("eval.period", 1_000 if small_env else (2_000 if env_id == "cartpole" else 2_500))),
        eval_episodes=int(overrides.get("eval.episodes", 5 if env_id != "pendulum" else 3)),
        log_period=int(overrides.get("log.period", 100)),
        random_baseline=float(overrides.get("normalize.random_baseline", spec.random_baseline)),
        reference_score=float(overrides.get("normalize.reference_score", spec.reference_score)),
        polyprune=polyprune,
        eaude=eaude,
    )
    validate_config(config)
    return config


def spec_is_sac(algorithm: str) -> bool:
    return algorithm in SAC_FAMILY


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        overrides = parse_config_text(fh.read())
    if seed is not None:
        overrides["seed"] = int(seed)
    return build_config(overrides)


def validate_config(config: ExperimentConfig) -> None:
    problems = []
    env = make_env(config.env)
    discrete = isinstance(env.spec.action_space, DiscreteSpace)
    if config.is_sac and discrete:
        problems.append(f"{config.algorithm} needs a continuous action space; {config.env} is discrete")
    if not config.is_sac and not discrete:
        problems.append(f"{config.algorithm} needs a discrete action space; {config.env} is continuous")
    for name in ("total_steps", "gradient_period", "target_period", "utd", "batch_size",
                 "buffer_capacity", "eval_period", "eval_episodes", "log_period", "prune_period"):
        if getattr(config, name) < 1:
            problems.append(f"{name} must be positive")
    if config.warmup < 0:
        problems.append("warmup must be non-negative")
    if config.warmup > config.buffer_capacity:
        problems.append("warmup cannot exceed buffer capacity")
    if config.total_steps < config.warmup:
        problems.append("total_steps must be at least the warmup size")
    if not (0.0 <= config.epsilon_end <= config.epsilon_start <= 1.0):
        problems.append("need 0 <= epsilon_end <= epsilon_start <= 1")
    if any(w < 1 for w in config.hidden_widths) or not config.hidden_widths:
        problems.append("hidden widths must be positive and nonempty")
    if config.learning_rate <= 0 or config.adam_epsilon <= 0:
        problems.append("learning rate and adam epsilon must be positive")
    if not (0.0 < config.discount < 1.0):
        problems.append("discount must lie in (0, 1)")
    if not (0.0 < config.tau <= 1.0):
        problems.append("tau must lie in (0, 1]")
    if config.random_baseline == config.reference_score:
        problems.append("normalization baselines must differ")
    if config.polyprune is not None:
        try:
            config.polyprune.validate()
        except ConfigError as err:
            problems.append(str(err))
        if config.is_sac and config.polyprune.sync_to_target_updates:
            problems.append(f"{config.algorithm} has no target updates to sync pruning to")
    if config.eaude is not None:
        try:
            config.eaude.validate()
        except ConfigError as err:
            problems.append(str(err))
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))


def canonical_text(config: ExperimentConfig) -> str:
    """Deterministic full rendering of the config, one key per line."""
    lines = {
        "algorithm": config.algorithm,
        "env": config.env,
        "seed": config.seed,
        "run.total_steps": config.total_steps,
        "run.gradient_period": config.gradient_period,
        "run.target_period": config.target_period,
        "run.utd": config.utd,
        "run.batch_size": config.batch_size,
        "run.discount": repr(config.discount),
        "replay.capacity": config.buffer_capacity,
        "replay.warmup": config.warmup,
        "epsilon.start": repr(config.epsilon_start),
        "epsilon.end": repr(config.epsilon_end),
        "epsilon.decay_steps": config.epsilon_decay_steps,
        "network.hidden_widths": ",".join(str(w) for w in config.hidden_widths),
        "optim.learning_rate": repr(config.learning_rate),
        "optim.adam_epsilon": repr(config.adam_epsilon),
        "sac.tau": repr(config.tau),
        "sac.prune_period": config.prune_period,
        "sac.alpha": repr(config.alpha),
        "eval.period": config.eval_period,
        "eval.episodes": config.eval_episodes,
        "log.period": config.log_period,
        "normalize.random_baseline": repr(config.random_baseline),
        "normalize.reference_score": repr(config.reference_score),
    }
    if config.polyprune is not None:
        pp = config.polyprune
        lines.update(
            {
                "polyprune.final_sparsity": repr(pp.final_sparsity),
                "polyprune.exponent": repr(pp.exponent),
                "polyprune.t_start": pp.t_start,
                "polyprune.t_end": pp.t_end,
                "polyprune.period": pp.pruning_period,
                "polyprune.sync_to_target_updates": "true" if pp.sync_to_target_updates else "false",
            }
        )
    if config.eaude is not None:
        ea = config.eaude
        lines.update(
            {
                "eaude.u_max": repr(ea.u_max),
                "eaude.s_max": repr(ea.s_max),
                "eaude.population": ea.population_size,
                "eaude.tournament": ea.tournament_size,
            }
        )
    return "\n".join(f"{key} = {lines[key]}" for key in sorted(lines)) + "\n"


def config_digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()


def network_widths(config: ExperimentConfig) -> dict[str, tuple[int, ...]]:
    """Input/output widths per network role, derived from the env."""
    spec = make_env(config.env).spec
    if config.is_sac:
        assert isinstance(spec.action_space, BoxSpace)
        dim = spec.action_space.dimension
        return {
            "actor": (spec.observation_width, *config.hidden_widths, 2 * dim),
            "critic": (spec.observation_width + dim, *config.hidden_widths, 1),
        }
    assert isinstance(spec.action_space, DiscreteSpace)
    return {"q": (spec.observation_width, *config.hidden_widths, spec.action_space.count)}
