"""The one-buffer layout of networks, masks and Adam moments.

Layer views and the buffer alias both ways, every stack the training loop
produces stays backed by its buffers, and the stacked Adam step over the
buffer gives the bits of the per-layer update it replaced.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from eaudeqn.checkpoint import decode_payload, encode_payload, payload_to_state, state_to_payload
from eaudeqn.config import build_config
from eaudeqn.dqn import distillqn_update
from eaudeqn.nncore import AdamState, NetworkParams, adam_step, init_network, mlp_layer_specs
from eaudeqn.population import concat_stacks, evolve, exploration, member_gradient_step, split_stack
from eaudeqn.pruning import EauDeConfig, Mask, PolyPruneConfig, magnitude_mask
from eaudeqn.rng import RngStream
from eaudeqn.training import init_state

widths_st = st.lists(st.integers(1, 6), min_size=2, max_size=4)


def _buffers(member):
    opt = member.optimizer
    nets = [member.params, opt.m, opt.v, member.target_params]
    return [n for n in nets if n is not None], [m for m in (member.mask, member.target_mask) if m is not None]


def _assert_buffer_backed(member):
    """Every layer view of every network and mask of a stack lies in its buffer."""
    nets, masks = _buffers(member)
    for net in nets:
        assert net.flat.shape[-1] == net.layout.size
        for view in [*net.weights, *net.biases]:
            assert np.shares_memory(view, net.flat)
    for mask in masks:
        assert mask.flat.shape[-1] == mask.layout.n_weights
        for view in mask.layers:
            assert np.shares_memory(view, mask.flat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), widths=widths_st, k=st.integers(0, 3))
def test_layer_views_and_buffer_alias_both_ways(seed, widths, k):
    specs = mlp_layer_specs(widths)
    rng = np.random.default_rng(seed)
    lead = (k,) if k else ()
    weights = [rng.normal(size=lead + (s.output_width, s.input_width)) for s in specs]
    biases = [rng.normal(size=lead + (s.output_width,)) for s in specs]
    net = NetworkParams(weights, biases, specs)
    mask = Mask([np.ones_like(w) for w in weights])
    # the constructors copy, weights first and then biases
    assert not any(np.shares_memory(a, net.flat) for a in weights + biases)
    expected = np.concatenate([a.reshape(lead + (-1,)) for a in weights + biases], axis=-1)
    assert np.array_equal(net.flat, expected)

    last = len(specs) - 1
    net.weights[last][..., 0, 0] = 7.0  # a view write reaches the buffer
    assert np.array_equal(net.flat[..., net.layout.weight_slices[last]][..., 0], np.full(lead, 7.0))
    net.flat[..., -1] = -3.0  # a buffer write reaches the view
    assert np.array_equal(net.biases[last][..., -1], np.full(lead, -3.0))
    mask.layers[0] = 0.0  # assigning a layer writes the buffer
    first = mask.layout.weight_slices[0]
    assert not mask.flat[..., first].any() and mask.flat[..., first.stop:].all()

    for a, b in ((net, net.copy()), (mask, mask.copy())):
        assert np.array_equal(a.flat, b.flat) and not np.shares_memory(a.flat, b.flat)
    if k:
        row = net.row(k - 1)
        assert np.shares_memory(row.flat, net.flat) and np.array_equal(row.weights[0], net.weights[0][k - 1])


def test_training_stacks_stay_buffer_backed(tmp_path):
    overrides = {"algorithm": "eaude_sac", "env": "pendulum", "seed": 5, "run.total_steps": 300, "replay.warmup": 100,
                 "sac.prune_period": 100, "eaude.population": 3, "eaude.tournament": 2}
    state = init_state(build_config(overrides))
    sides = state.twin.sides
    for side in sides:
        _assert_buffer_backed(side.stack)
    side = sides[0]

    rng = RngStream(5, "flat/batch")
    x, targets = rng.normal(size=(8, 4)), rng.normal(size=8)
    stepped, _ = member_gradient_step(side.stack, x, np.zeros(8, dtype=np.int64), targets)
    _assert_buffer_backed(stepped)

    schedule = PolyPruneConfig(final_sparsity=0.5, exponent=1.0, t_start=0, t_end=1, t_final=1)
    pruned = distillqn_update(stepped, schedule, 1)
    _assert_buffer_backed(pruned)

    pop = evolve(side, stack=pruned, champion_index=0, next_lineage_id=3)
    explored, _ = exploration(pop, [0, 0, 1], 10, 20, EauDeConfig(population_size=3, tournament_size=2, t_final=100),
                              RngStream(5, "flat/selection"))
    _assert_buffer_backed(explored.stack)
    assert np.shares_memory(explored.members[1].params.weights[0], explored.stack.params.flat)

    chunks = split_stack(explored.stack, 2)
    for chunk in chunks:
        _assert_buffer_backed(chunk)
        assert np.shares_memory(chunk.params.flat, explored.stack.params.flat)
    _assert_buffer_backed(concat_stacks(chunks))

    restored = payload_to_state(decode_payload(encode_payload(state_to_payload(state))))
    for side, before in zip(restored.twin.sides, state.twin.sides):
        _assert_buffer_backed(side.stack)
        for a, b in zip(sum(_buffers(side.stack), []), sum(_buffers(before.stack), [])):
            assert np.array_equal(a.flat, b.flat)


def _reference_adam(params, grad, m, v, steps, lr, eps, b1, b2):
    """The per-layer Adam update, one (K,) row of step counts, written out."""
    t = steps + 1
    bc1 = np.array([1.0 - b1 ** int(s) for s in t])
    bc2 = np.array([1.0 - b2 ** int(s) for s in t])
    out = {}
    for kind in ("weights", "biases"):
        shape = (-1, 1, 1) if kind == "weights" else (-1, 1)
        out[kind] = []
        for p, g, m1, v1 in zip(*(getattr(x, kind) for x in (params, grad, m, v))):
            m2 = b1 * m1 + (1.0 - b1) * g
            v2 = b2 * v1 + (1.0 - b2) * (g * g)
            step = lr * (m2 / bc1.reshape(shape)) / (np.sqrt(v2 / bc2.reshape(shape)) + eps)
            out[kind].append((p - step, m2, v2))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    widths=widths_st,
    steps=st.lists(st.integers(0, 40) | st.integers(340, 2000), min_size=1, max_size=4),
    same_step=st.booleans(),
)
def test_stacked_adam_equals_the_per_layer_update(seed, widths, steps, same_step):
    specs = mlp_layer_specs(widths)
    rng = np.random.default_rng(seed)
    k = len(steps)
    counts = np.array([steps[0]] * k if same_step else steps)

    def draw(scale=1.0):
        return NetworkParams(
            [rng.normal(scale=scale, size=(k, s.output_width, s.input_width)) for s in specs],
            [rng.normal(scale=scale, size=(k, s.output_width)) for s in specs],
            specs,
        )

    params, grad, m, v = draw(), draw(), draw(0.1), draw(0.1)
    v = v.like(v.flat * v.flat)
    before = [x.flat.copy() for x in (params, grad, m, v)]
    lr, eps, b1, b2 = 1e-3, 1.5e-4, 0.9, 0.999
    new_params, new_state = adam_step(params, grad, AdamState(m, v, counts, lr, eps, b1, b2))

    assert all(np.array_equal(x.flat, y) for x, y in zip((params, grad, m, v), before))  # inputs untouched
    assert np.array_equal(new_state.step_count, counts + 1)
    ref = _reference_adam(params, grad, m, v, counts, lr, eps, b1, b2)
    for kind in ("weights", "biases"):
        for i, (p2, m2, v2) in enumerate(ref[kind]):
            for got, want in ((new_params, p2), (new_state.m, m2), (new_state.v, v2)):
                assert getattr(got, kind)[i].tobytes() == np.ascontiguousarray(want).tobytes()
    # each row equals that network's own update
    for row in range(k):
        alone = AdamState(m.row(row), v.row(row), int(counts[row]), lr, eps, b1, b2)
        p1, s1 = adam_step(params.row(row), grad.row(row), alone)
        assert p1.flat.tobytes() == new_params.flat[row].tobytes()
        assert s1.m.flat.tobytes() == new_state.m.flat[row].tobytes()


def test_magnitude_mask_and_init_network_fill_buffers():
    net = init_network(mlp_layer_specs([3, 4, 2]), RngStream(0, "flat/init"))
    mask = magnitude_mask(net, 0.5)
    assert net.flat.shape == (net.layout.size,) and mask.flat.shape == (net.layout.n_weights,)
    assert mask.layout is net.layout
