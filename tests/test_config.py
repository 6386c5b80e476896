import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaudeqn.config import (
    build_config,
    canonical_text,
    config_digest,
    load_config,
    network_widths,
    parse_config_text,
)
from eaudeqn.errors import ConfigError


def test_defaults_for_chain_dqn():
    cfg = build_config({"algorithm": "dqn", "env": "chain"})
    assert cfg.total_steps == 20_000
    assert cfg.target_period == 500
    assert cfg.gradient_period == 1
    assert cfg.batch_size == 32
    assert cfg.buffer_capacity == 10_000
    assert cfg.warmup == 500
    assert cfg.hidden_widths == (32, 32)
    assert cfg.polyprune is None and cfg.eaude is None
    assert network_widths(cfg) == {"q": (10, 32, 32, 2)}


def test_defaults_for_eaude_follow_population_constants():
    cfg = build_config({"algorithm": "eaude_dqn", "env": "chain"})
    assert cfg.eaude.u_max == 3.0
    assert cfg.eaude.s_max == 0.01
    assert cfg.eaude.population_size == 5
    assert cfg.eaude.tournament_size == 3
    assert cfg.eaude.t_final == cfg.total_steps


def test_polyprune_horizons_track_total_steps():
    cfg = build_config({"algorithm": "polyprune_dqn", "env": "chain", "run.total_steps": 10_000})
    assert cfg.polyprune.t_start == 2_000
    assert cfg.polyprune.t_end == 8_000
    assert cfg.polyprune.t_final == 10_000
    assert cfg.polyprune.final_sparsity == 0.95
    assert cfg.polyprune.exponent == 3.0


def test_sac_defaults_on_pendulum():
    cfg = build_config({"algorithm": "eaude_sac", "env": "pendulum"})
    assert cfg.total_steps == 50_000
    assert cfg.prune_period == 250
    assert cfg.tau == 0.005
    assert cfg.utd == 1
    assert cfg.alpha == 0.2
    widths = network_widths(cfg)
    assert widths["actor"] == (3, 48, 48, 2)
    assert widths["critic"] == (4, 48, 48, 1)


VALUE_PAIRS = [(a, e) for a in ("dqn", "polyprune_dqn", "eaude_dqn") for e in ("chain", "gridworld", "cartpole")]
SAC_PAIRS = [(a, "pendulum") for a in ("sac", "polyprune_sac", "eaude_sac")]
_counts = st.integers(1, 10_000)
_unit = st.floats(0.001, 0.999)
# every config key but algorithm and env, with values that validate on any
# valid (algorithm, env) pair; section keys only count where the section is
OVERRIDES = {
    "seed": st.integers(0, 2**63 - 1),
    "run.total_steps": st.integers(1_000, 10**6),
    "run.gradient_period": _counts,
    "run.target_period": _counts,
    "run.utd": _counts,
    "run.batch_size": _counts,
    "run.discount": _unit,
    "replay.capacity": st.integers(1_000, 10**6),
    "replay.warmup": st.integers(0, 1_000),
    "epsilon.start": st.floats(0.5, 1.0),
    "epsilon.end": st.floats(0.0, 0.5),
    "epsilon.decay_steps": _counts,
    "network.hidden_widths": st.lists(st.integers(1, 64), min_size=1, max_size=3).map(tuple),
    "optim.learning_rate": st.floats(1e-8, 1.0),
    "optim.adam_epsilon": st.floats(1e-12, 1.0),
    "sac.tau": _unit,
    "sac.prune_period": _counts,
    "sac.alpha": st.floats(0.0, 10.0),
    "polyprune.final_sparsity": st.floats(0.0, 0.99),
    "polyprune.exponent": st.floats(1.0, 10.0),
    "polyprune.t_start": st.integers(0, 500),
    "polyprune.t_end": st.integers(501, 1_000),
    "polyprune.period": _counts,
    "polyprune.sync_to_target_updates": st.booleans(),
    "eaude.u_max": st.floats(0.0, 100.0),
    "eaude.s_max": st.floats(1e-6, 1.0),
    "eaude.population": st.integers(5, 12),
    "eaude.tournament": st.integers(1, 5),
    "eval.period": _counts,
    "eval.episodes": _counts,
    "log.period": _counts,
    "normalize.random_baseline": st.floats(-1e3, 0.0),
    "normalize.reference_score": st.floats(1.0, 1e3),
}


@st.composite
def configs(draw):
    algorithm, env = draw(st.sampled_from(VALUE_PAIRS + SAC_PAIRS))
    overrides = draw(st.fixed_dictionaries({"algorithm": st.just(algorithm), "env": st.just(env)}, optional=OVERRIDES))
    # set as pairs, else a default end may precede the start, or a drawn
    # reference score equal the env's default random baseline
    for pair in (("polyprune.t_start", "polyprune.t_end"), ("normalize.random_baseline", "normalize.reference_score")):
        if any(key in overrides for key in pair):
            for key in pair:
                overrides.setdefault(key, draw(OVERRIDES[key]))
    if algorithm == "polyprune_sac":  # it has no target updates to sync to
        overrides.pop("polyprune.sync_to_target_updates", None)
    return build_config(overrides)


@given(configs())
@settings(max_examples=300, deadline=None)
def test_parse_text_round_trip(cfg):
    text = canonical_text(cfg)
    assert build_config(parse_config_text(text)) == cfg
    sections = {"polyprune": cfg.polyprune, "eaude": cfg.eaude}
    listed = [line.partition(" = ")[0] for line in text.splitlines()]
    expected = {"algorithm", "env"} | {
        key for key in OVERRIDES if sections.get(key.partition(".")[0], cfg) is not None
    }
    assert listed == sorted(expected)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("algorithm = dqn\nrun.total_stepz = 100\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_skips_comments_and_blanks():
    overrides = parse_config_text("# a comment\n\nseed = 3\n  env = gridworld \n")
    assert overrides == {"seed": 3, "env": "gridworld"}


def test_algorithm_env_compatibility():
    with pytest.raises(ConfigError, match="continuous"):
        build_config({"algorithm": "sac", "env": "chain"})
    with pytest.raises(ConfigError, match="discrete"):
        build_config({"algorithm": "dqn", "env": "pendulum"})


def test_validation_catches_bad_invariants():
    with pytest.raises(ConfigError, match="warmup"):
        build_config({"algorithm": "dqn", "env": "chain", "replay.warmup": 99_999})
    with pytest.raises(ConfigError, match="total_steps"):
        build_config({"algorithm": "dqn", "env": "chain", "run.total_steps": 100, "replay.warmup": 200})
    with pytest.raises(ConfigError):
        build_config({"algorithm": "dqn", "env": "chain", "epsilon.end": 2.0})
    with pytest.raises(ConfigError):
        build_config({"algorithm": "eaude_dqn", "env": "chain", "eaude.tournament": 9})


def test_sync_to_target_updates_is_value_based_only():
    sync = {"polyprune.sync_to_target_updates": True}
    with pytest.raises(ConfigError, match="no target updates"):
        build_config({"algorithm": "polyprune_sac", "env": "pendulum", **sync})
    assert build_config({"algorithm": "polyprune_dqn", "env": "chain", **sync}).polyprune.sync_to_target_updates


def test_unparseable_value_is_an_error():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("run.total_steps = soon\n")


def test_load_config_with_seed_override(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("algorithm = dqn\nenv = chain\nseed = 1\n", encoding="utf-8")
    cfg = load_config(path, seed=42)
    assert cfg.seed == 42


@pytest.mark.parametrize(
    "text, says",
    [
        (b"algorithm = dqn\nrun.total_stepz = 100\n", "line 2: unknown key 'run.total_stepz'"),
        (b"algorithm = sac\nenv = chain\n", "invalid config: sac needs a continuous action space"),
        (b"algorithm = dqn\nenv = \xffchain\n", "line 2: byte 22 is not UTF-8"),
    ],
)
def test_load_config_errors_name_the_file(tmp_path, text, says):
    path = tmp_path / "cfg.txt"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: {says}")


def test_digest_changes_with_any_field():
    a = build_config({"algorithm": "dqn", "env": "chain", "seed": 1})
    b = build_config({"algorithm": "dqn", "env": "chain", "seed": 2})
    c = build_config({"algorithm": "dqn", "env": "chain", "seed": 1, "run.batch_size": 64})
    assert config_digest(a) != config_digest(b)
    assert config_digest(a) != config_digest(c)
