"""Experiment configuration: desk-scale defaults, file parsing, validation.

Config files are flat key/value text with dotted section names:

    algorithm = eaude_dqn
    env = chain
    seed = 0
    run.total_steps = 20000
    eaude.population = 5

Unknown keys are errors so typos in schedule constants cannot slip through.
Defaults depend on (algorithm, env); schedule horizons derive from
run.total_steps unless set explicitly. Each key, with its field, value kind
and default, is listed once, in _KEYS; parsing, build_config and
canonical_text all read that table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .envs import BoxSpace, DiscreteSpace, make_env
from .errors import ConfigError
from .pruning import EauDeConfig, PolyPruneConfig

ALGORITHMS = ("dqn", "polyprune_dqn", "eaude_dqn", "sac", "polyprune_sac", "eaude_sac")
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


def _per_env(small: object, cartpole: object, pendulum: object):
    """A default that depends on the env; chain and gridworld are the small ones."""
    return lambda fields, spec: {"cartpole": cartpole, "pendulum": pendulum}.get(fields["env"], small)


def _per_family(sac: object, value_based: object):
    return lambda fields, spec: sac if fields["algorithm"] in SAC_FAMILY else value_based


# key -> (field, kind, default). A "polyprune." or "eaude." key sets a field
# of that section's dataclass, which only the algorithms of that name have;
# every other key sets a field of ExperimentConfig. A callable default gets
# the fields resolved so far (keys resolve in this order) and the env spec.
_KEYS = {
    "algorithm": ("algorithm", "str", "dqn"),
    "env": ("env", "str", "chain"),
    "seed": ("seed", "int", 0),
    "run.total_steps": ("total_steps", "int", _per_env(20_000, 100_000, 50_000)),
    "run.gradient_period": ("gradient_period", "int", 1),
    "run.target_period": ("target_period", "int", _per_env(500, 1_000, 1_000)),
    "run.utd": ("utd", "int", 1),
    "run.batch_size": ("batch_size", "int", 32),
    "run.discount": ("discount", "float", lambda fields, spec: spec.discount),
    "replay.capacity": ("buffer_capacity", "int", _per_env(10_000, 20_000, 50_000)),
    "replay.warmup": ("warmup", "int", _per_env(500, 1_000, 1_000)),
    "epsilon.start": ("epsilon_start", "float", 1.0),
    "epsilon.end": ("epsilon_end", "float", 0.01),
    "epsilon.decay_steps": ("epsilon_decay_steps", "int", _per_env(10_000, 20_000, 20_000)),
    "network.hidden_widths": ("hidden_widths", "intlist", _per_family((48, 48), (32, 32))),
    "optim.learning_rate": ("learning_rate", "float", _per_family(2e-3, 1e-3)),
    "optim.adam_epsilon": ("adam_epsilon", "float", 1.5e-4),
    "sac.tau": ("tau", "float", 0.005),
    "sac.prune_period": ("prune_period", "int", 250),
    "sac.alpha": ("alpha", "float", 0.2),
    "polyprune.final_sparsity": ("final_sparsity", "float", 0.95),
    "polyprune.exponent": ("exponent", "float", 3.0),
    "polyprune.t_start": ("t_start", "int", lambda fields, spec: round(0.2 * fields["total_steps"])),
    "polyprune.t_end": ("t_end", "int", lambda fields, spec: round(0.8 * fields["total_steps"])),
    "polyprune.period": (
        "pruning_period",
        "int",
        lambda fields, spec: fields["prune_period" if fields["algorithm"] in SAC_FAMILY else "target_period"],
    ),
    "polyprune.sync_to_target_updates": ("sync_to_target_updates", "bool", False),
    "eaude.u_max": ("u_max", "float", 3.0),
    "eaude.s_max": ("s_max", "float", 0.01),
    "eaude.population": ("population_size", "int", 5),
    "eaude.tournament": ("tournament_size", "int", 3),
    "eval.period": ("eval_period", "int", _per_env(1_000, 2_000, 2_500)),
    "eval.episodes": ("eval_episodes", "int", _per_env(5, 5, 3)),
    "log.period": ("log_period", "int", 100),
    "normalize.random_baseline": ("random_baseline", "float", lambda fields, spec: spec.random_baseline),
    "normalize.reference_score": ("reference_score", "float", lambda fields, spec: spec.reference_score),
}
# section -> (its dataclass, the algorithms that have it)
_SECTIONS = {
    "polyprune": (PolyPruneConfig, ("polyprune_dqn", "polyprune_sac")),
    "eaude": (EauDeConfig, ("eaude_dqn", "eaude_sac")),
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# kind -> (parse config text, coerce a mapping's value or a default, render as text)
_KINDS = {
    "str": (str, None, str),
    "int": (int, int, str),
    "float": (float, float, repr),
    "bool": (lambda raw: _BOOLS[raw.lower()], bool, lambda flag: "true" if flag else "false"),
    "intlist": (
        lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
        tuple,
        lambda widths: ",".join(str(w) for w in widths),
    ),
}
# (key, section or None, field, kind, default)
_ROWS = [(key, key.partition(".")[0] if key.partition(".")[0] in _SECTIONS else None, *row)
         for key, row in _KEYS.items()]
_CANONICAL_ROWS = sorted(_ROWS)


def _parse_value(key: str, raw: str):
    kind = _KEYS[key][1]
    raw = raw.strip()
    try:
        return _KINDS[kind][0](raw)
    except (KeyError, ValueError):
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
    fields: dict = {}
    sections: dict = {name: {} for name in _SECTIONS}
    spec = None  # set once env resolves, before any callable default
    for key, section, name, kind, default in _ROWS:
        if section is not None and fields["algorithm"] not in _SECTIONS[section][1]:
            continue  # a section the algorithm does not have ignores its keys
        if key in overrides:
            value = overrides[key]
        else:
            value = default(fields, spec) if callable(default) else default
        if kind != "str":  # a "str" value passes as given
            value = _KINDS[kind][1](value)
        (fields if section is None else sections[section])[name] = value
        if name == "algorithm" and value not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {value!r}; known: {ALGORITHMS}")
        if name == "env":
            spec = make_env(value).spec
    for name, (cls, algorithms) in _SECTIONS.items():
        fields[name] = cls(**sections[name], t_final=fields["total_steps"]) if fields["algorithm"] in algorithms else None
    config = ExperimentConfig(**fields)
    validate_config(config)
    return config


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and build the config file at path; every ConfigError names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        overrides = parse_config_text(data.decode("utf-8"))
        if seed is not None:
            overrides["seed"] = int(seed)
        return build_config(overrides)
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"{path}: line {lineno}: byte {err.start} is not UTF-8") from None
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


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
    """Deterministic full rendering of the config, one key per line, sorted."""
    lines = []
    for key, section, name, kind, _ in _CANONICAL_ROWS:
        owner = config if section is None else getattr(config, section)
        if owner is not None:
            lines.append(f"{key} = {_KINDS[kind][2](getattr(owner, name))}\n")
    return "".join(lines)


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
