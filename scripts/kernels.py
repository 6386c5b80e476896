"""Time the nncore kernels and the member steps of two source trees, each in processes of its own.

    python3 scripts/kernels.py --base DIR --change DIR --out FILE

Each tree's `src/eaudeqn` is copied into a temporary directory, under paths
of one length. Each of REPEATS repeats starts one fresh Python process per
tree, the trees alternating which one's process runs first (the base first in
the first repeat). A process imports its tree's copy and, for each perfbench
workload, trains the workload's config from seed SEED to 200 steps past its
replay warmup, so masks, Adam moments and the replay buffer are those of a
run, and then times each kernel on that state at the shapes the run calls it
with:

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

A process of its own keeps one tree's arrays out of the other's heap: with
both trees timed in one process, the tree trained second read 0.77-0.86x on
the K=5 kernels that allocate stack-sized arrays against a copy of itself.
With paths of one length, the two trees' processes differ only in the code
they import.

A tree whose TD pass takes a workspace (`nncore.Workspace`) is timed with one
kept across calls, as a run keeps it. A process times every kernel in each of
ROUNDS rounds, each time as the mean of CALLS calls after one untimed call,
and keeps its fastest round. Each figure is the median over the REPEATS
processes of its tree, in µs: the host's speed drifts from process to
process, and taking each tree's fastest process instead read one kernel at
0.90x in an A/A run. Seed and counts are fixed so that every kernel file is
measured the same way. FILE gets the figures as JSON, with the process layout
under `layout`; a table goes to stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import revision

ROOT = Path(__file__).resolve().parent.parent
SEED, CALLS, ROUNDS, REPEATS = 11, 300, 3, 10
ORDERS = (("base", "change"), ("change", "base"))  # repeat i runs ORDERS[i % 2]
MODULES = ("config", "training", "nncore", "dqn", "sac", "rng", "population", "pruning")
LAYOUT = (f"each tree's package copied under a path of one length; a fresh process per tree and repeat trains "
          f"its own state and times every kernel in {ROUNDS} rounds, keeping the fastest; the tree whose process "
          f"runs first alternates from repeat to repeat, the base first in the first")


def kernel_calls(mod: dict, config, state) -> dict:
    """Kernel name -> (shape label, zero-argument call) on a tree's trained state."""
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


def measure(tree: str) -> dict:
    """Run in a process of the tree's own: per workload and kernel, the shape
    and the mean µs per call on the tree's trained state."""
    tree = Path(tree)
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    mod = {m: importlib.import_module(f"eaudeqn.{m}") for m in MODULES}
    if Path(mod["config"].__file__).parent != tree / "src" / "eaudeqn":
        raise SystemExit(f"imported {mod['config'].__file__}, not the tree's package")
    out = {}
    for name, workload in WORKLOADS.items():
        config = mod["config"].build_config(workload.config_overrides(seed=SEED))
        _, state = mod["training"].run_training(config, until_step=config.warmup + 200)
        calls = kernel_calls(mod, config, state)
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(ROUNDS):
            for kernel, (_, fn) in calls.items():
                fn()  # the first call may shape a workspace
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    fn()
                best[kernel] = min(best[kernel], (time.perf_counter() - t0) / CALLS * 1e6)
        out[name] = {kernel: (shape, best[kernel]) for kernel, (shape, _) in calls.items()}
    return out


def measure_in_own_process(tree: Path) -> dict:
    """measure(tree) in a fresh interpreter that imports nothing from PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    code = "import json, sys, kernels; print(json.dumps(kernels.measure(sys.argv[1])))"
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(tree)], cwd=Path(__file__).parent, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def time_kernels(trees: dict) -> dict:
    """Per workload and kernel: the shape, and each tree's median over its processes of their µs per call."""
    runs = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for i, (label, tree) in enumerate(trees.items()):  # paths of one length: /tmp/.../0 and /tmp/.../1
            copies[label] = Path(tmp, str(i))
            shutil.copytree(tree / "src" / "eaudeqn", copies[label] / "src" / "eaudeqn",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(REPEATS):
            for label in ORDERS[i % 2]:
                runs[label].append(measure_in_own_process(copies[label]))
    out = {}
    for workload, kernels in runs["change"][0].items():
        out[workload] = {}
        for kernel, (shape, _) in kernels.items():
            base, change = (statistics.median(run[workload][kernel][1] for run in runs[label])
                            for label in ("base", "change"))
            out[workload][kernel] = {"shape": shape, "base_us": round(base, 2), "change_us": round(change, 2),
                                     "ratio": round(base / change, 3)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    result = {
        "script": "python3 scripts/kernels.py",
        "host": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "base": revision(trees["base"]),
        "change": revision(trees["change"]),
        "seed": SEED,
        "calls": CALLS,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "layout": LAYOUT,
        "unit": "us per call: the median over a tree's processes of each one's fastest round's mean of calls",
        "workloads": time_kernels(trees),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, kernels in result["workloads"].items():
        print(name)
        for kernel, row in kernels.items():
            print(f"  {kernel:20s} {row['shape']:28s} base {row['base_us']:8.2f} us  "
                  f"change {row['change_us']:8.2f} us  x{row['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
