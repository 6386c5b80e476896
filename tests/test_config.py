import pytest

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


def test_parse_text_round_trip():
    cfg = build_config({"algorithm": "eaude_dqn", "env": "gridworld", "seed": 7})
    text = canonical_text(cfg)
    rebuilt = build_config(parse_config_text(text))
    assert canonical_text(rebuilt) == text
    assert config_digest(rebuilt) == config_digest(cfg)


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


def test_digest_changes_with_any_field():
    a = build_config({"algorithm": "dqn", "env": "chain", "seed": 1})
    b = build_config({"algorithm": "dqn", "env": "chain", "seed": 2})
    c = build_config({"algorithm": "dqn", "env": "chain", "seed": 1, "run.batch_size": 64})
    assert config_digest(a) != config_digest(b)
    assert config_digest(a) != config_digest(c)
