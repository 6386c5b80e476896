"""Sparse value-based RL training engine: dense baselines, hand-scheduled
pruning, and adaptive population-based pruning, on desk-scale environments."""

from .config import ExperimentConfig, build_config, load_config, parse_config_text
from .rundir import RunLog
from .training import TrainState, evaluate_policy, run_training

__all__ = [
    "ExperimentConfig",
    "RunLog",
    "TrainState",
    "build_config",
    "evaluate_policy",
    "load_config",
    "parse_config_text",
    "run_training",
]
