"""Checks on a run's outputs, on determinism and on the numeric kernels.

Each check returns a list of failure messages (empty when it passes). The
expected values are computed here, apart from the program, or are properties
the method must have; nothing is compared with a stored copy of an earlier
output.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Evaluation-return bounds from the env definitions (reward per step, horizon):
# chain pays 1 once, on entering the terminal state; cart-pole pays 1 per step
# for at most 200 steps and at least one; pendulum pays
# -(theta^2 + 0.1 theta_dot^2 + 0.001 torque^2) with |theta| <= pi,
# |theta_dot| <= 8 and |torque| <= 2, for 200 steps.
EVAL_BOUNDS = {
    "chain": (0.0, 1.0),
    "cartpole": (1.0, 200.0),
    "pendulum": (-200.0 * (math.pi**2 + 6.4 + 0.004), 0.0),
}
CEILING_SLACK = 1e-12  # rounding room on 1 - (1 - s_max)^E


# -- run outputs ----------------------------------------------------------------


def parse_log(csv_text: str) -> tuple[list[str], list[list[str]]]:
    lines = csv_text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_events(jsonl_text: str) -> list[dict]:
    return [json.loads(line) for line in jsonl_text.splitlines() if line]


def networks(state):
    """(label, params, mask) for every masked network in a training state."""
    if state.population is not None:
        pop = state.population
        for k, m in enumerate(pop.members):
            yield f"member {k}", m.params, m.mask
        yield "shared target", pop.target_params, pop.target_mask
    if state.twin is not None:
        for i, side in enumerate(state.twin.sides):
            for k, m in enumerate(side.members):
                yield f"critic {i} member {k}", m.params, m.mask
                yield f"critic {i} member {k} soft target", m.target_params, m.target_mask
                yield f"critic {i} member {k} soft target (online mask)", m.target_params, m.mask
    if state.policy is not None:
        yield "actor", state.policy.params, state.policy.mask


def members(state):
    """(side label, member) for every online member."""
    if state.population is not None:
        for k, m in enumerate(state.population.members):
            yield f"member {k}", m
    if state.twin is not None:
        for i, side in enumerate(state.twin.sides):
            for k, m in enumerate(side.members):
                yield f"critic {i} member {k}", m


def masked_weight_failures(state) -> list[str]:
    """Masks are 0/1 and every weight is exactly 0 where its mask is 0."""
    failures = []
    for label, params, mask in networks(state):
        for i, (w, m) in enumerate(zip(params.weights, mask.layers)):
            if not np.all((m == 0.0) | (m == 1.0)):
                failures.append(f"{label} layer {i}: mask holds values other than 0 and 1")
            stray = int(np.count_nonzero(w[m == 0.0]))
            if stray:
                failures.append(f"{label} layer {i}: {stray} non-zero weight(s) under a 0 mask entry")
    return failures


def zero_share(mask) -> float:
    zeros = sum(int(np.count_nonzero(layer == 0.0)) for layer in mask.layers)
    return zeros / sum(layer.size for layer in mask.layers)


def sparsity_failures(state, header: list[str], rows: list[list[str]]) -> list[str]:
    """Reported sparsity equals the share of mask zeros, in the state and the last log row."""
    failures = []
    counted = {}
    for label, m in members(state):
        counted[label] = zero_share(m.mask)
        if m.sparsity != counted[label]:
            failures.append(f"{label}: reported sparsity {m.sparsity!r} != counted {counted[label]!r}")
    last = dict(zip(header, rows[-1])) if rows else {}
    k = state.config.population_size
    prefixes = ("c1_", "c2_") if state.twin is not None else ("",)
    for p, prefix in enumerate(prefixes):
        for j in range(k):
            label = f"critic {p} member {j}" if state.twin is not None else f"member {j}"
            logged = float(last.get(f"{prefix}sparsity_{j + 1}", "nan"))
            if logged != counted[label]:
                failures.append(f"{label}: last log row sparsity {logged!r} != counted {counted[label]!r}")
    return failures


def lineage_failures(events: list[dict]) -> list[str]:
    """Every duplicate is at least as sparse as its source."""
    failures = []
    for e in events:
        for r in e.get("records", ()):
            if r["duplicated"] and r["sparsity"] < r["source_sparsity"]:
                failures.append(
                    f"step {e['step']} slot {r['slot']}: duplicate sparsity {r['sparsity']!r} "
                    f"< source sparsity {r['source_sparsity']!r}"
                )
    return failures


def ceiling_failures(state, events: list[dict], s_max: float) -> list[str]:
    """mask_target <= 1 - (1 - s_max)^E after E selection events."""
    failures = []
    if state.twin is not None:
        counts = [sum(1 for e in events if e["kind"] == "sac_prune" and e["critic"] == i) for i in (0, 1)]
        groups = [(f"critic {i}", side.members, counts[i]) for i, side in enumerate(state.twin.sides)]
    else:
        n = sum(1 for e in events if e["kind"] == "exploration")
        groups = [("population", state.population.members, n)]
    for label, group, n_events in groups:
        ceiling = 1.0 - (1.0 - s_max) ** n_events
        for k, m in enumerate(group):
            if m.mask_target > ceiling + CEILING_SLACK:
                failures.append(
                    f"{label} member {k}: mask_target {m.mask_target!r} above the ceiling "
                    f"{ceiling!r} after {n_events} events"
                )
    return failures


def poly_sparsity(t: int, overrides: dict) -> float:
    """s_F * (1 - (1 - clip((t - t_start) / (t_end - t_start), 0, 1))^exponent)."""
    s_f = overrides["polyprune.final_sparsity"]
    t0, t1 = overrides["polyprune.t_start"], overrides["polyprune.t_end"]
    progress = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
    return s_f * (1.0 - (1.0 - progress) ** overrides["polyprune.exponent"])


def schedule_failures(state, events: list[dict], overrides: dict) -> list[str]:
    """Prune targets follow the schedule; the final mask has round-half-up zero counts."""
    failures = []
    prunes = [e for e in events if e["kind"] == "prune"]
    for e in prunes:
        expected = poly_sparsity(e["step"], overrides)
        if abs(e["target"] - expected) > 1e-12:
            failures.append(f"step {e['step']}: prune target {e['target']!r} != schedule {expected!r}")
    if not prunes:
        return failures + ["no prune event in the run"]
    s = poly_sparsity(prunes[-1]["step"], overrides)
    mask = state.population.members[0].mask
    for i, layer in enumerate(mask.layers):
        zeros = int(np.count_nonzero(layer == 0.0))
        expected = math.floor(s * layer.size + 0.5)
        if zeros != expected:
            failures.append(f"layer {i}: {zeros} zeros, schedule gives floor({s!r} * {layer.size} + 0.5) = {expected}")
    return failures


def count_failures(state, rows: list[list[str]], events: list[dict], overrides: dict) -> list[str]:
    total = overrides["run.total_steps"]
    failures = []
    last_step = int(rows[-1][0]) if rows else None
    if last_step != total:
        failures.append(f"last log step {last_step} != total_steps {total}")
    if state.buffer.insert_count != total:
        failures.append(f"buffer insert_count {state.buffer.insert_count} != total_steps {total}")
    kinds = [e["kind"] for e in events]
    expected = {}
    if state.twin is None:
        expected["target_update"] = total // overrides["run.target_period"]
    if overrides["algorithm"] == "eaude_sac":
        expected["sac_prune"] = 2 * (total // overrides["sac.prune_period"])
    if "polyprune.period" in overrides:
        expected["prune"] = total // overrides["polyprune.period"]
    for kind, n in expected.items():
        if kinds.count(kind) != n:
            failures.append(f"{kinds.count(kind)} {kind} events, expected {n}")
    return failures


def eval_failures(env_id: str, header: list[str], rows: list[list[str]]) -> list[str]:
    lo, hi = EVAL_BOUNDS[env_id]
    col = header.index("eval_return")
    values = [float(r[col]) for r in rows if r[col] != "nan"]
    if not values:
        return ["no evaluation in the run"]
    return [f"eval_return {v!r} outside [{lo!r}, {hi!r}]" for v in values if not lo <= v <= hi]


def output_failures(state, csv_text: str, events_text: str, overrides: dict) -> list[str]:
    """Every output check that applies to the run's algorithm."""
    header, rows = parse_log(csv_text)
    events = parse_events(events_text)
    failures = masked_weight_failures(state) + sparsity_failures(state, header, rows)
    if state.config.eaude is not None:
        failures += lineage_failures(events)
        failures += ceiling_failures(state, events, overrides["eaude.s_max"])
    if state.config.polyprune is not None:
        failures += schedule_failures(state, events, overrides)
    failures += count_failures(state, rows, events, overrides)
    failures += eval_failures(state.config.env, header, rows)
    return failures


# -- selection diagnostics --------------------------------------------------------


def selection_stats(events: list[dict]) -> dict:
    """Duplicates made, and events won by a fresh duplicate of the previous event."""
    made = wins = 0
    fresh: dict = {}  # critic (or None) -> {slot: duplicated} at the previous event
    for e in events:
        if e["kind"] == "target_update":
            wins += bool(fresh.get(None, {}).get(e["champion"]))
        if e["kind"] in ("exploration", "sac_prune"):
            side = e.get("critic")
            if e["kind"] == "sac_prune":
                wins += bool(fresh.get(side, {}).get(e["selection"][0]))
            fresh[side] = {r["slot"]: r["duplicated"] for r in e["records"]}
            made += sum(r["duplicated"] for r in e["records"])
    return {"duplicates_made": made, "duplicate_wins": wins}


def champion_sparsity(state) -> float:
    if state.twin is not None:
        return sum(s.members[s.champion_index].sparsity for s in state.twin.sides) / 2.0
    return state.population.members[state.population.champion_index].sparsity


# -- determinism ------------------------------------------------------------------


def without_wallclock(csv_text: str) -> list[list[str]]:
    header, rows = parse_log(csv_text)
    col = header.index("wallclock_s")
    return [r[:col] + r[col + 1 :] for r in [header] + rows]


def same_run_failures(label: str, csv_a: str, events_a: str, csv_b: str, events_b: str) -> list[str]:
    failures = []
    if without_wallclock(csv_a) != without_wallclock(csv_b):
        failures.append(f"{label}: log.csv differs (wallclock_s ignored)")
    if events_a != events_b:
        failures.append(f"{label}: events.jsonl differs")
    return failures


def member_digests(events_text: str) -> list[list[str]]:
    return [e["member_digests"] for e in parse_events(events_text) if e["kind"] == "target_update"]


def digest_failures(label: str, events_a: str, events_b: str) -> list[str]:
    a, b = member_digests(events_a), member_digests(events_b)
    if not a or a != b:
        return [f"{label}: member digests differ ({len(a)} and {len(b)} target updates)"]
    return []


def checkpoint_failures(path) -> list[str]:
    """Re-encoding the loaded checkpoint reproduces the file byte for byte."""
    from eaudeqn import checkpoint

    blob = path.read_bytes()
    again = checkpoint.encode_payload(checkpoint.state_to_payload(checkpoint.load_checkpoint(path)))
    return [] if again == blob else [f"{path.name}: re-encoded checkpoint differs from the file"]


# -- kernels ----------------------------------------------------------------------


def _random_network(widths, rng, masked_share=0.3):
    from eaudeqn.nncore import NetworkParams, mlp_layer_specs
    from eaudeqn.pruning import Mask

    specs = mlp_layer_specs(widths)
    weights = [rng.normal(0.0, 1.0 / math.sqrt(s.input_width), (s.output_width, s.input_width)) for s in specs]
    biases = [rng.normal(0.0, 0.1, s.output_width) for s in specs]
    layers = [(rng.random(w.shape) >= masked_share).astype(np.float64) for w in weights]
    for m in layers:
        m.flat[0] = 0.0  # every layer has a masked position
    return NetworkParams(weights, biases, specs), Mask(layers)


def _reference_preacts(weights, biases, masks, x):
    """Pre-activations of the ReLU MLP with identity output, w * mask weights."""
    zs, a = [], x
    for i, (w, b, m) in enumerate(zip(weights, biases, masks)):
        z = a @ (w * m).T + b
        zs.append(z)
        a = z if i == len(weights) - 1 else np.maximum(z, 0.0)
    return zs


def _reference_loss(weights, biases, masks, x, actions, targets) -> float:
    out = _reference_preacts(weights, biases, masks, x)[-1]
    residual = out[np.arange(len(actions)), actions] - targets
    return float(residual @ residual)


def td_gradient_failures(widths, rng, batch: int = 8, h: float = 1e-6) -> list[str]:
    """nncore.td_loss_and_grad against central differences of a reference loss."""
    from eaudeqn import nncore

    label = f"td_loss_and_grad {'-'.join(map(str, widths))}"
    # redraw until no hidden pre-activation sits near a ReLU kink, where the
    # loss is not differentiable and central differences are meaningless
    for _ in range(100):
        params, mask = _random_network(widths, rng)
        x = rng.normal(0.0, 1.0, (batch, widths[0]))
        zs = _reference_preacts(params.weights, params.biases, mask.layers, x)
        if all(np.min(np.abs(z)) > 1e-4 for z in zs[:-1]):
            break
    else:
        return [f"{label}: no kink-free draw in 100 tries"]
    actions = rng.integers(0, widths[-1], batch)
    targets = rng.normal(0.0, 1.0, batch)
    loss, grad = nncore.td_loss_and_grad(params, mask, x, actions, targets)
    failures = []
    ref = _reference_loss(params.weights, params.biases, mask.layers, x, actions, targets)
    if abs(loss - ref) > 1e-10 * max(1.0, abs(ref)):
        failures.append(f"{label}: loss {loss!r} != reference {ref!r}")
    worst = 0.0
    for group, grads in ((params.weights, grad.weights), (params.biases, grad.biases)):
        for i, (p, g) in enumerate(zip(group, grads)):
            free = mask.layers[i] != 0.0 if group is params.weights else np.ones(p.shape, bool)
            if group is params.weights and np.any(g[~free] != 0.0):
                failures.append(f"{label} layer {i}: non-zero gradient at a masked weight")
            flat = p.reshape(-1)
            for j in np.flatnonzero(free):
                orig = flat[j]
                flat[j] = orig + h
                up = _reference_loss(params.weights, params.biases, mask.layers, x, actions, targets)
                flat[j] = orig - h
                down = _reference_loss(params.weights, params.biases, mask.layers, x, actions, targets)
                flat[j] = orig
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(g.reshape(-1)[j] - fd) / (1.0 + abs(fd)))
    if worst > 1e-6:
        failures.append(f"{label}: gradient differs from central differences by {worst:.3g}")
    return failures


def adam_failures(widths, rng) -> list[str]:
    """nncore.adam_step against an Adam update written here."""
    from eaudeqn import nncore

    label = f"adam_step {'-'.join(map(str, widths))}"
    params, mask = _random_network(widths, rng)
    grad, _ = _random_network(widths, rng)
    m, _ = _random_network(widths, rng)
    v, _ = _random_network(widths, rng)
    v = nncore.NetworkParams([x * x for x in v.weights], [x * x for x in v.biases], v.layer_specs)
    for arrs in (grad.weights, m.weights, v.weights):
        for a, keep in zip(arrs, mask.layers):
            a *= keep  # masked positions: zero gradient and zero moments
    lr, eps, b1, b2 = 1e-3, 1.5e-4, 0.9, 0.999
    steps = int(rng.integers(0, 50))
    state = nncore.AdamState(m=m, v=v, step_count=steps, learning_rate=lr, epsilon=eps, beta1=b1, beta2=b2)
    new_params, new_state = nncore.adam_step(params, grad, state)
    t = steps + 1
    failures = [] if new_state.step_count == t else [f"{label}: step_count {new_state.step_count} != {t}"]
    for kind in ("weights", "biases"):
        for i, (p, g, m1, v1) in enumerate(zip(*(getattr(x, kind) for x in (params, grad, m, v)))):
            m2 = b1 * m1 + (1.0 - b1) * g
            v2 = b2 * v1 + (1.0 - b2) * g * g
            p2 = p - lr * (m2 / (1.0 - b1**t)) / (np.sqrt(v2 / (1.0 - b2**t)) + eps)
            for what, got, want in (
                ("params", getattr(new_params, kind)[i], p2),
                ("first moment", getattr(new_state.m, kind)[i], m2),
                ("second moment", getattr(new_state.v, kind)[i], v2),
            ):
                if not np.allclose(got, want, rtol=1e-12, atol=1e-15):
                    failures.append(f"{label} {kind} {i}: {what} differ from the reference update")
            if kind == "weights" and np.any(getattr(new_params, kind)[i][mask.layers[i] == 0.0] != p[mask.layers[i] == 0.0]):
                failures.append(f"{label} layer {i}: a masked weight moved under zero gradient and moments")
    return failures


def kernel_failures(config, rng) -> list[str]:
    """Gradient and Adam checks at every network shape the workload trains."""
    from eaudeqn.config import network_widths

    failures = []
    for role, widths in network_widths(config).items():
        if role != "actor":  # the actor is trained by its own objective, not the TD loss
            failures += td_gradient_failures(widths, rng)
        failures += adam_failures(widths, rng)
    return failures
