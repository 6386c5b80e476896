"""Span recording around the package's functions, installed from outside.

`Tracer.install()` replaces every binding of a traced function in every
loaded `eaudeqn` module (the defining module and each `from .x import f`
copy) with a wrapper that records one span per call: id, parent span id,
thread, name, start and end (perf_counter_ns) and self time, i.e. the
duration minus the part covered by traced children on the same thread.
Spans stay in memory until `write()` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# module -> functions traced under "<module>.<function>"
FUNCTIONS = {
    "nncore": ("forward", "td_loss_and_grad", "adam_step"),
    "pruning": ("apply_mask", "magnitude_mask"),
    "population": ("sample_behavior_index", "exploitation", "exploration", "member_digest"),
    "dqn": ("act_epsilon_greedy", "td_targets", "train_member", "distillqn_update"),
    "sac": (
        "draw_action",
        "sac_critic_targets",
        "train_critic_member",
        "soft_update",
        "sac_actor_update",
        "eaudesac_prune_event",
    ),
    "training": ("evaluate_policy", "run_training"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}
# module -> (classes, methods); every class's methods share one span name
METHODS = {
    "replay": (("ReplayBuffer",), ("push", "sample_batch")),
    "envs": (("ChainEnv", "GridworldEnv", "CartPoleEnv", "PendulumEnv"), ("step", "observe")),
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{meth}" for mod, (_, meths) in METHODS.items() for meth in meths]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [next(ids), 0]  # span id, time covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, threading.get_ident(), name, start, end, end - start - frame[1]))

        traced.__traced_original__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every binding of the traced functions; returns the bindings."""
        importlib.import_module("eaudeqn.checkpoint")  # imports every module it drives
        package = [m for n, m in list(sys.modules.items()) if n == "eaudeqn" or n.startswith("eaudeqn.")]
        bound = []
        for mod_name, fn_names in FUNCTIONS.items():
            module = sys.modules[f"eaudeqn.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            bound.append(f"{holder.__name__}.{attr}")
        for mod_name, (class_names, meth_names) in METHODS.items():
            module = sys.modules[f"eaudeqn.{mod_name}"]
            for class_name in class_names:
                cls = getattr(module, class_name)
                for meth in meth_names:
                    setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", cls.__dict__[meth]))
                    bound.append(f"{module.__name__}.{class_name}.{meth}")
        return bound

    def summary(self) -> dict:
        """Per span name: call count, total self time (s), median duration (us)."""
        durations: dict[str, list[int]] = {name: [] for name in span_names()}
        self_ns = dict.fromkeys(durations, 0)
        for _, _, _, name, start, end, own in self.spans:
            durations[name].append(end - start)
            self_ns[name] += own
        return {
            name: {
                "calls": len(durs),
                "self_s": self_ns[name] / 1e9,
                "us_per_call": statistics.median(durs) / 1e3 if durs else 0.0,
            }
            for name, durs in durations.items()
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,thread,name,start_ns,end_ns,self_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")
