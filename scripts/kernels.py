"""Time the nncore kernels and the member steps of two source trees in one process.

    python3 scripts/kernels.py --base DIR --change DIR --out FILE

Each tree's `src/eaudeqn` is copied into a temporary directory and imported
under its own name (`eaudeqn_base`, `eaudeqn_change`). For each perfbench
workload, both trees train the workload's config from
seed SEED to 200 steps past its replay warmup, so masks, Adam moments and the
replay buffer are those of a run, and then time each kernel on that state at
the shapes the run calls it with:

- `forward/act`: one observation through the acting network (cart-pole: the
  Q row; pendulum: the actor, as a 1-row batch);
- `forward/target`: a batch of next states through the target network
  (cart-pole: the shared target; pendulum: a critic's soft target);
- `td_loss_and_grad` and `adam_step` on the population stack (pendulum: one
  critic side), `train_member` (cart-pole) or `train_critic_member`
  (pendulum) on the same stack;
- pendulum only, on the same critic side: `magnitude_mask` of the whole stack
  at its members' own targets (a prune event masks only the duplicates'
  rows), `exploration` of a fixed selection with two duplicates, and
  `selection_event` around the lowest-loss member, at the trained step with
  the next prune event as the horizon. Their draws come from one stream per
  tree, so both trees draw the same values.

A tree whose TD pass takes a workspace (`nncore.Workspace`) is timed with one
kept across calls, as a run keeps it. Each figure is the minimum over REPEATS
repeats of the mean time of CALLS calls in µs, the trees alternating from
repeat to repeat. Seed and counts are fixed so that every kernel file is
measured the same way. FILE gets the figures as JSON; a table goes to stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from pairs import revision

ROOT = Path(__file__).resolve().parent.parent
SEED, CALLS, REPEATS = 11, 300, 7
ORDERS = (("base", "change"), ("change", "base"))  # repeat i runs ORDERS[i % 2]
MODULES = ("config", "training", "nncore", "dqn", "sac", "rng", "population", "pruning")


def load_tree(tree: Path, name: str, tmp: Path):
    """Import tree/src/eaudeqn as package `name` from a copy in tmp."""
    shutil.copytree(tree / "src" / "eaudeqn", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def kernel_calls(tree: dict) -> dict:
    """Kernel name -> (shape label, zero-argument call) on the tree's trained state."""
    mod, state, config = tree["modules"], tree["state"], tree["config"]
    nncore = mod["nncore"]
    ws = (nncore.Workspace(),) if hasattr(nncore, "Workspace") else ()
    batch = state.buffer.sample_batch(config.batch_size, mod["rng"].RngStream(config.seed, "kernels"))
    targets = batch.rewards.astype(float)
    n = config.batch_size
    if state.population is not None:
        pop = state.population
        stack, row = pop.stack, pop.network(0)
        obs, k = state.obs, pop.k
        grad = nncore.td_loss_and_grad(stack.params, stack.mask, batch.states, batch.actions, targets)[1]
        return {
            "forward/act": ("1 x 4-32-32-2", lambda: nncore.forward(row.params, row.mask, obs)),
            "forward/target": (f"{n} x 4-32-32-2",
                               lambda: nncore.forward(pop.target_params, pop.target_mask, batch.next_states)),
            "td_loss_and_grad": (f"K={k}, {n} x 4-32-32-2", lambda: nncore.td_loss_and_grad(
                stack.params, stack.mask, batch.states, batch.actions, targets, *ws)),
            "adam_step": (f"K={k}, 4-32-32-2", lambda: nncore.adam_step(stack.params, grad, stack.optimizer)),
            "train_member": (f"K={k}, {n} x 4-32-32-2", lambda: mod["dqn"].train_member(stack, batch, targets, *ws)),
        }
    sac, policy, side = mod["sac"], state.policy, state.twin.sides[0]
    stack, target = side.stack, side.target_network(0)
    inputs = sac.critic_inputs(batch.states, batch.actions)
    zeros = [0] * n
    obs = state.obs[None, :]
    grad = nncore.td_loss_and_grad(stack.params, stack.mask, inputs, zeros, targets)[1]
    critic = "4-48-48-1"
    population, rng = mod["population"], mod["rng"].RngStream(config.seed, "kernels/selection")
    cfg, t = config.eaude, state.step
    t_next = min(t + config.prune_period, cfg.t_final)
    champion = population.select_target(side.losses())
    selection = [0, 0, 1, 1, 2]  # slots 1 and 3 are duplicates
    return {
        "forward/act": ("1 x 3-48-48-2 (actor)", lambda: nncore.forward(policy.params, policy.mask, obs)),
        "forward/target": (f"{n} x {critic}", lambda: nncore.forward(target.params, target.mask, inputs)),
        "td_loss_and_grad": (f"K={side.k}, {n} x {critic}", lambda: nncore.td_loss_and_grad(
            stack.params, stack.mask, inputs, zeros, targets, *ws)),
        "adam_step": (f"K={side.k}, {critic}", lambda: nncore.adam_step(stack.params, grad, stack.optimizer)),
        "train_critic_member": (f"K={side.k}, {n} x {critic}",
                                lambda: sac.train_critic_member(stack, inputs, targets, config.tau, *ws)),
        "magnitude_mask": (f"K={side.k}, {critic}",
                           lambda: mod["pruning"].magnitude_mask(stack.params, stack.mask_target)),
        "exploration": (f"K={side.k}, {critic}, 2 duplicates",
                        lambda: population.exploration(side, selection, t, t_next, cfg, rng)),
        "selection_event": (f"K={side.k}, {critic}",
                            lambda: population.selection_event(side, champion, t, t_next, cfg, rng)),
    }


def time_kernels(trees: dict) -> dict:
    """Per kernel: the shape, and each tree's min-of-repeats mean µs per call."""
    table = {label: kernel_calls(tree) for label, tree in trees.items()}
    best = {label: dict.fromkeys(table[label], float("inf")) for label in trees}
    for i in range(REPEATS):
        for label in ORDERS[i % 2]:
            for name, (_, fn) in table[label].items():
                fn()  # the first call may shape a workspace
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    fn()
                best[label][name] = min(best[label][name], (time.perf_counter() - t0) / CALLS * 1e6)
    return {
        name: {
            "shape": shape,
            "base_us": round(best["base"][name], 2),
            "change_us": round(best["change"][name], 2),
            "ratio": round(best["base"][name] / best["change"][name], 3),
        }
        for name, (shape, _) in table["change"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    result = {
        "script": "python3 scripts/kernels.py",
        "host": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "base": revision(args.base.resolve()),
        "change": revision(args.change.resolve()),
        "seed": SEED,
        "calls": CALLS,
        "repeats": REPEATS,
        "unit": "us per call, min over repeats of the mean of calls",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = {label: load_tree(tree.resolve(), f"eaudeqn_{label}", Path(tmp))
                    for label, tree in (("base", args.base), ("change", args.change))}
        for name, workload in WORKLOADS.items():
            overrides = workload.config_overrides(seed=SEED)
            trees = {}
            for label, pkg in packages.items():
                modules = {m: importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES}
                config = modules["config"].build_config(overrides)
                _, state = modules["training"].run_training(config, until_step=config.warmup + 200)
                trees[label] = {"modules": modules, "config": config, "state": state}
            result["workloads"][name] = time_kernels(trees)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, kernels in result["workloads"].items():
        print(name)
        for kernel, row in kernels.items():
            print(f"  {kernel:20s} {row['shape']:28s} base {row['base_us']:8.2f} us  "
                  f"change {row['change_us']:8.2f} us  x{row['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
