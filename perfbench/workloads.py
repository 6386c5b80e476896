"""The benchmark's workloads: one training run each, as config overrides.

Every workload is a closed loop of environment steps driven by
`run_training`. The seed given on the command line becomes the config seed;
everything else is fixed here. `tiny` variants keep the same structure (same
algorithm, env, event kinds and a wrapped buffer on cart-pole) at a length the
self-tests can afford.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    tiny_overrides: dict
    why: str

    def config_overrides(self, seed: int, tiny: bool = False) -> dict:
        return dict(self.tiny_overrides if tiny else self.overrides, seed=int(seed))


_PENDULUM = {
    "algorithm": "eaude_sac",
    "env": "pendulum",
    "run.total_steps": 2500,
    "sac.prune_period": 250,
    "replay.capacity": 50_000,
    "replay.warmup": 1000,
    "eaude.population": 5,
    "eaude.tournament": 3,
    "eaude.s_max": 0.01,
    "eaude.u_max": 3.0,
    "eval.period": 2500,
    "eval.episodes": 3,
}
_PENDULUM_TINY = dict(
    _PENDULUM,
    **{"run.total_steps": 300, "sac.prune_period": 100, "replay.warmup": 100,
       "eval.period": 300, "eval.episodes": 1},
)

_CARTPOLE = {
    "algorithm": "polyprune_dqn",
    "env": "cartpole",
    "run.total_steps": 25_000,
    "run.target_period": 1000,
    "replay.capacity": 20_000,
    "replay.warmup": 1000,
    "polyprune.final_sparsity": 0.95,
    "polyprune.exponent": 3.0,
    "polyprune.t_start": 5000,
    "polyprune.t_end": 20_000,
    "polyprune.period": 1000,
    "eval.period": 5000,
    "eval.episodes": 2,
}
_CARTPOLE_TINY = dict(
    _CARTPOLE,
    **{"run.total_steps": 600, "run.target_period": 100, "replay.capacity": 400,
       "replay.warmup": 100, "polyprune.t_start": 100, "polyprune.t_end": 500,
       "polyprune.period": 100, "eval.period": 300, "eval.episodes": 1},
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pendulum-eaude_sac", _PENDULUM, _PENDULUM_TINY,
            "two K=5 critic sides with soft targets, actor updates and prune events every 250 steps",
        ),
        Workload(
            "cartpole-polyprune_dqn", _CARTPOLE, _CARTPOLE_TINY,
            "K=1 scheduled pruning; the 20k buffer wraps, so replay and env steps carry the cost",
        ),
    )
}
