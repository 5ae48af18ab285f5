"""Network layers, attention blocks, forward pass, and parameter files."""

import ast
import hashlib
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from defreg.config import PipelineConfig, scnet_config
from defreg.consistency import CorrespondenceSet, LocalConsistency, local_consistency
from defreg.defgraph import build_graph
from defreg.errors import FileFormatError, NumericalError, ValidationError
from defreg.scnet import model as model_module
from defreg.scnet.layers import (
    GroupNorm,
    LeakyRelu,
    Linear,
    bind_params,
    param_slots,
    sigmoid,
    softmax_backward,
    softmax_rows,
)
from defreg.scnet.model import (
    _GROUP_ENTRIES,
    ForwardState,
    ScNetConfig,
    ScNetModel,
    ScaUnit,
    aggregate,
    backward_through,
    classify,
    _forward,
    _node_groups,
    encode_input,
    run_forward,
)
from defreg.scnet.params_io import load_params, save_params
from defreg.synth import SceneSpec, generate_scene

MICRO = dict(feature_dim=8, num_blocks=1, units_per_block=1, num_groups=1)

# Largest |score| gap between a loaded (float32) model and a float64 model
# holding the same quantized values; measured at about 2.8e-7.
FLOAT32_SCORE_TOL = 1e-5


def _micro_model(seed=0, **overrides):
    cfg = dict(MICRO)
    cfg.update(overrides)
    return ScNetModel(ScNetConfig(seed=seed, **cfg))


def _loaded(model, tmp_path):
    """A fresh model of the same architecture loaded from model's parameter file."""
    path = tmp_path / "loaded.params"
    save_params(path, model)
    fresh = ScNetModel(model.config)
    load_params(path, fresh)
    return fresh


def _widened(model):
    """A float64 model holding exactly model's parameter values."""
    wide = ScNetModel(model.config)
    wide.values[...] = model.values
    return wide


def _scene(seed=0, n=10, coverage=0.25, assign_k=3, dtype=np.float64):
    """corr, graph and theta, with theta in dtype: the dtype of the model
    that scores it, float64 for a constructed one."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(size=(n, 3)) * 0.4
    tgt = src + rng.normal(scale=0.03, size=src.shape)
    corr = CorrespondenceSet(src, tgt)
    graph = build_graph(src, coverage, assign_k)
    theta = local_consistency(corr, graph, 0.08, dtype=dtype)
    return corr, graph, theta


# ---------------------------------------------------------------- encoding

def test_encode_single_correspondence_centers_to_zero():
    corr = CorrespondenceSet(np.array([[1.0, 2.0, 3.0]]), np.array([[4.0, 5.0, 6.0]]))
    enc = encode_input(corr)
    np.testing.assert_array_equal(enc, [[0.0] * 6 + [0.0] * 6 + [1.0] * 6])


def test_encode_width_is_18():
    corr, _, _ = _scene(1, 7)
    assert encode_input(corr).shape == (7, 18)


def test_encode_sin_cos_slots_at_pi():
    # centered first source coordinate is +/- pi for this pair
    src = np.array([[2 * np.pi, 0, 0], [0.0, 0, 0]])
    corr = CorrespondenceSet(src, np.zeros((2, 3)))
    enc = encode_input(corr)
    assert abs(enc[0, 0] - np.pi) < 1e-12
    assert abs(enc[0, 6] - 1.0) < 1e-12   # sin(pi/2)
    assert abs(enc[0, 12] - 0.0) < 1e-12  # cos(pi/2)
    assert abs(enc[1, 6] + 1.0) < 1e-12


# ----------------------------------------------------------------- layers

def _bound(layer, rng):
    """layer with its slots bound to fresh float64 vectors and initialised
    from rng, drawing in slot order."""
    size = sum(int(np.prod(slot[3])) for slot in param_slots(layer))
    bind_params([layer], np.zeros(size), np.zeros(size), rng)
    return layer


def _params(layer):
    """(name, value, grad) of each of layer's slots, in order."""
    return [(name, getattr(owner, attr), getattr(owner, "g" + attr))
            for name, owner, attr, _, _ in param_slots(layer)]


def _fd_layer_check(layer, x, atol=1e-7):
    """Backward vs central differences for input and every parameter."""
    rng = np.random.default_rng(99)
    wsum = rng.normal(size=layer.forward(x)[0].shape)

    def loss(inp):
        return float((layer.forward(inp)[0] * wsum).sum())

    y, cache = layer.forward(x)
    for _, _, g in _params(layer):
        g[...] = 0.0
    dx = layer.backward(cache, wsum)

    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd[idx] = (loss(xp) - loss(xm)) / (2 * h)
    np.testing.assert_allclose(dx, fd, atol=atol)

    for name, param, grad in _params(layer):
        fd_p = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            hi = loss(x)
            param[idx] = orig - h
            lo = loss(x)
            param[idx] = orig
            fd_p[idx] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(grad, fd_p, atol=atol, err_msg=name)


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(0)
    _fd_layer_check(_bound(Linear(5, 4), rng), rng.normal(size=(6, 5)))


def test_groupnorm_backward_matches_fd():
    rng = np.random.default_rng(1)
    _fd_layer_check(_bound(GroupNorm(8, 2), rng), rng.normal(size=(5, 8)))
    # one group: the attention unit's layer norm
    _fd_layer_check(_bound(GroupNorm(6, 1), rng), np.random.default_rng(2).normal(size=(4, 6)))


def test_leaky_relu_forward_and_backward():
    act = LeakyRelu(0.01)
    x = np.array([[-2.0, 0.5]])
    y, cache = act.forward(x)
    np.testing.assert_array_equal(y, [[-0.02, 0.5]])
    np.testing.assert_array_equal(act.backward(cache, np.ones((1, 2))), [[0.01, 1.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0, 2.0, "subnormal"])
def test_leaky_relu_is_bitwise_the_select(slope, dtype):
    """Both passes equal np.where(x > 0, x, slope * x) bit for bit, signs of
    zeros and NaNs included; at slope 0, +inf stays +inf. The slopes' bits
    lie below 1.0's, far below them (a subnormal in x's dtype) and above
    them (2.0), so the integer factor's step wraps both ways."""
    if slope == "subnormal":
        slope = {np.float32: 1e-45, np.float64: 5e-324}[dtype]
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45])
    x = np.concatenate([special, rng.normal(size=200) * 10.0 ** rng.integers(-30, 30, 200)])
    x = x.astype(dtype)[None, :]
    dy = rng.permutation(x[0])[None, :]
    act = LeakyRelu(slope)
    pos = x > 0
    with np.errstate(invalid="ignore"):  # slope 0 times inf
        y, cache = act.forward(x)
        dx = act.backward(cache, dy)
        pairs = ((y, np.where(pos, x, slope * x)), (dx, np.where(pos, dy, slope * dy)))
    for got, want in pairs:
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert y[0, 2] == np.inf


def test_softmax_rows_and_backward():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5)) * 3
    s = softmax_rows(x.copy())
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    dy = rng.normal(size=s.shape)
    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd[idx] = ((softmax_rows(xp) - softmax_rows(xm)) * dy).sum() / (2 * h)
    np.testing.assert_allclose(softmax_backward(s, dy), fd, atol=1e-7)


def test_softmax_rows_overwrites_and_returns_its_argument():
    x = np.random.default_rng(4).normal(size=(6, 7)) * 3
    e = np.exp(x - x.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    got = softmax_rows(x)
    assert got is x
    np.testing.assert_array_equal(got, want)


def test_sigmoid_extremes_are_stable():
    vals = sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert np.isfinite(vals).all()
    assert vals[1] == 0.5


def test_groupnorm_rejects_single_channel_groups():
    with pytest.raises(ValidationError):
        ScNetConfig(feature_dim=8, num_blocks=1, units_per_block=1, num_groups=4)


# -------------------------------------------------------------- attention

def _unit_oracle(unit, feats, theta, slope=0.01):
    """Independent recomputation of one attention unit with plain numpy."""
    d = unit.dim
    q, k, v = feats @ unit.wq, feats @ unit.wk, feats @ unit.wv
    logits = theta * (q @ k.T) / np.sqrt(d)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    proj = attn @ v @ unit.attn_out.w + unit.attn_out.b

    def layer_norm(ln, x):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + ln.eps) * ln.gamma + ln.beta

    z1 = layer_norm(unit.ln1, feats + proj)
    u1 = z1 @ unit.ff1.w + unit.ff1.b
    h1 = np.where(u1 > 0, u1, slope * u1)
    u2 = h1 @ unit.ff2.w + unit.ff2.b
    return layer_norm(unit.ln2, z1 + u2)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(5)
    unit = _bound(ScaUnit(8, 0.01), rng)
    feats = rng.normal(size=(3, 8))
    theta = rng.uniform(size=(3, 3))
    theta = (theta + theta.T) / 2
    np.testing.assert_allclose(
        unit.forward(feats, [theta])[0], _unit_oracle(unit, feats, theta), atol=1e-10
    )


def test_attention_zero_theta_is_uniform():
    rng = np.random.default_rng(6)
    unit = _bound(ScaUnit(8, 0.01), rng)
    feats = rng.normal(size=(4, 8))
    got = unit.forward(feats, [np.zeros((4, 4))])[0]
    np.testing.assert_allclose(got, _unit_oracle(unit, feats, np.zeros((4, 4))), atol=1e-12)
    # zero logits make every attention row uniform: each row mixes mean(v)
    v = feats @ unit.wv
    mixed_rows = softmax_rows(np.zeros((4, 4))) @ v
    np.testing.assert_allclose(mixed_rows, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)


def test_attention_singleton_block():
    rng = np.random.default_rng(7)
    unit = _bound(ScaUnit(8, 0.01), rng)
    feats = rng.normal(size=(1, 8))
    out = unit.forward(feats, [np.ones((1, 1))])[0]
    assert out.shape == (1, 8)
    np.testing.assert_allclose(out, _unit_oracle(unit, feats, np.ones((1, 1))), atol=1e-12)


def test_unit_backward_matches_fd():
    rng = np.random.default_rng(9)
    unit = _bound(ScaUnit(8, 0.01), rng)
    feats = rng.normal(size=(3, 8))
    theta = np.full((3, 3), 0.5)
    wsum = rng.normal(size=(3, 8))

    def loss(f):
        out, _ = unit.forward(f, [theta])
        return float((out * wsum).sum())

    out, cache = unit.forward(feats, [theta])
    for _, _, g in _params(unit):
        g[...] = 0.0
    dfeats = unit.backward(cache, wsum)
    h = 1e-6
    fd = np.zeros_like(feats)
    for idx in np.ndindex(feats.shape):
        fp = feats.copy(); fp[idx] += h
        fm = feats.copy(); fm[idx] -= h
        fd[idx] = (loss(fp) - loss(fm)) / (2 * h)
    np.testing.assert_allclose(dfeats, fd, atol=1e-6)

    name_to_grad = {n: g for n, _, g in _params(unit)}
    for name, param, _ in _params(unit):
        fd_p = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + h
            hi = loss(feats)
            param[idx] = orig - h
            lo = loss(feats)
            param[idx] = orig
            fd_p[idx] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(name_to_grad[name], fd_p, atol=1e-6, err_msg=name)


def _patches(rng, sizes, dim=8):
    """Feature rows of consecutive patches and a symmetric theta block per patch."""
    thetas = [rng.uniform(size=(m, m)) for m in sizes]
    return rng.normal(size=(sum(sizes), dim)), [(t + t.T) / 2 for t in thetas]


def test_grouped_unit_keeps_patches_apart():
    rng = np.random.default_rng(10)
    unit = _bound(ScaUnit(8, 0.01), rng)
    sizes = (3, 1, 4, 2)
    feats, thetas = _patches(rng, sizes)
    base = unit.forward(feats, thetas)[0]
    bounds = np.cumsum((0,) + sizes)
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        alone = unit.forward(feats[a:b], [thetas[i]])[0]
        np.testing.assert_allclose(base[a:b], alone, rtol=0, atol=1e-12)
        moved = feats.copy()
        moved[a:b] += rng.normal(size=(b - a, 8))
        out = unit.forward(moved, thetas)[0]
        assert not np.array_equal(out[a:b], base[a:b])
        others = np.r_[0:a, b:len(feats)]
        assert out[others].tobytes() == base[others].tobytes()


def test_grouped_unit_backward_matches_fd():
    rng = np.random.default_rng(11)
    unit = _bound(ScaUnit(8, 0.01), rng)
    feats, thetas = _patches(rng, (1, 2, 3))
    wsum = rng.normal(size=feats.shape)

    def loss():
        return float((unit.forward(feats, thetas)[0] * wsum).sum())

    _, cache = unit.forward(feats, thetas)
    for _, _, g in _params(unit):
        g[...] = 0.0
    dfeats = unit.backward(cache, wsum)
    h = 1e-6
    for name, array, grad in [("feats", feats, dfeats)] + _params(unit):
        fd = np.zeros_like(array)
        for idx in np.ndindex(array.shape):
            orig = array[idx]
            array[idx] = orig + h
            hi = loss()
            array[idx] = orig - h
            lo = loss()
            array[idx] = orig
            fd[idx] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-6, err_msg=name)


# -------------------------------------------------------------- aggregate

def test_aggregate_single_node_passthrough():
    src = np.array([[0.0, 0, 0], [0.01, 0, 0]])
    corr = CorrespondenceSet(src, src)
    graph = build_graph(src, 1.0, 6)
    assert graph.num_nodes == 1
    z = np.arange(8.0).reshape(2, 4)
    np.testing.assert_array_equal(aggregate({0: z}, graph), z)


def test_aggregate_identical_features_convexity():
    corr, graph, _ = _scene(11, 20)
    if graph.num_nodes < 2:
        pytest.skip("degenerate sample")
    common = np.arange(4.0)
    node_feats = {
        j: np.tile(common, (graph.node_to_members[j].size, 1))
        for j in range(graph.num_nodes)
        if graph.node_to_members[j].size
    }
    out = aggregate(node_feats, graph)
    np.testing.assert_allclose(out, np.tile(common, (graph.num_points, 1)), atol=1e-12)


def test_aggregate_matches_manual_loop_bitwise():
    corr, graph, theta = _scene(12, 15)
    rng = np.random.default_rng(0)
    node_feats = {
        j: rng.normal(size=(graph.node_to_members[j].size, 5))
        for j in range(graph.num_nodes)
        if graph.node_to_members[j].size
    }
    got = aggregate(node_feats, graph)
    expect = np.zeros((graph.num_points, 5))
    for j in sorted(node_feats):
        for row, i in enumerate(graph.node_to_members[j]):
            alpha = graph.point_weights[i, list(graph.point_to_nodes[i]).index(j)]
            expect[i] += alpha * node_feats[j][row]
    np.testing.assert_array_equal(got, expect)


def test_aggregate_two_node_worked_weights():
    # one point at node 0, one bandwidth from node 1: alpha = (0.6225, 0.3775)
    bw = 0.08
    src = np.array([[0.0, 0, 0], [10 * bw, 0, 0], [0.0, 0, 0]])
    src[2] = [0.0, 0, 0]
    corr = CorrespondenceSet(src, src)
    graph = build_graph(src, bw * 9, 2)  # nodes at index 0 and 1
    assert graph.num_nodes == 2
    za = np.ones((graph.node_to_members[0].size, 2))
    zb = np.full((graph.node_to_members[1].size, 2), 3.0)
    out = aggregate({0: za, 1: zb}, graph)
    w0 = graph.point_weights[0, list(graph.point_to_nodes[0]).index(0)]
    np.testing.assert_allclose(out[0], w0 * 1.0 + (1 - w0) * 3.0, atol=1e-12)


# ------------------------------------------------------------ full forward

def test_forward_scores_in_unit_interval():
    corr, graph, theta = _scene(13, 12)
    model = _micro_model()
    scores = run_forward(model, corr, graph, theta).scores
    assert scores.shape == (12,)
    assert (scores > 0).all() and (scores < 1).all()


def test_forward_composition_oracle():
    corr, graph, theta = _scene(14, 10)
    model = _micro_model(seed=3)
    got = run_forward(model, corr, graph, theta).scores

    feats = encode_input(corr)
    slope = model.config.leaky_slope
    for lin, gn in zip(model.init[0::3], model.init[1::3]):
        y = feats @ lin.w + lin.b
        n, c = y.shape
        g = gn.groups
        yg = y.reshape(n, g, c // g)
        mu = yg.mean(axis=2, keepdims=True)
        var = ((yg - mu) ** 2).mean(axis=2, keepdims=True)
        y = ((yg - mu) / np.sqrt(var + gn.eps)).reshape(n, c) * gn.gamma + gn.beta
        feats = np.where(y > 0, y, slope * y)
    for block in model.blocks:
        node_out = {}
        for j, members in enumerate(graph.node_to_members):
            if members.size == 0:
                continue
            z = feats[members]
            for unit in block:
                z = _unit_oracle(unit, z, theta.blocks[j], slope)
            node_out[j] = z
        feats = aggregate(node_out, graph)
    for lin, gn in zip(model.head[0:-1:3], model.head[1:-1:3]):
        y = feats @ lin.w + lin.b
        n, c = y.shape
        g = gn.groups
        yg = y.reshape(n, g, c // g)
        mu = yg.mean(axis=2, keepdims=True)
        var = ((yg - mu) ** 2).mean(axis=2, keepdims=True)
        y = ((yg - mu) / np.sqrt(var + gn.eps)).reshape(n, c) * gn.gamma + gn.beta
        feats = np.where(y > 0, y, slope * y)
    logits = (feats @ model.head[-1].w + model.head[-1].b)[:, 0]
    expect = 1.0 / (1.0 + np.exp(-logits))
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_forward_zero_parameters_constant_scores():
    corr, graph, theta = _scene(15, 9)
    model = _micro_model()
    model.values[...] = 0.0
    scores = run_forward(model, corr, graph, theta).scores
    np.testing.assert_array_equal(scores, np.full(9, 0.5))


def test_forward_permutation_equivariance():
    corr, graph, theta = _scene(16, 14)
    model = _micro_model(seed=1)
    base = run_forward(model, corr, graph, theta).scores

    # keeping correspondence 0 first keeps FPS's start point, so the
    # permuted graph samples the same nodes in the same order
    rng = np.random.default_rng(4)
    perm = np.concatenate([[0], 1 + rng.permutation(len(corr) - 1)])
    corr_p = CorrespondenceSet(corr.source[perm], corr.target[perm])
    graph_p = build_graph(corr_p.source, 0.25, 3)
    theta_p = local_consistency(corr_p, graph_p, 0.08, dtype=model.dtype)
    got = run_forward(model, corr_p, graph_p, theta_p).scores
    np.testing.assert_allclose(got, base[perm], atol=1e-10)


def test_run_forward_rejects_foreign_graph():
    corr, graph, theta = _scene(17, 8)
    other = CorrespondenceSet(corr.source[:5], corr.target[:5])
    with pytest.raises(ValidationError, match="graph was not built over these"):
        run_forward(_micro_model(), other, graph, theta)


def test_run_forward_rejects_missing_theta_block():
    corr, graph, theta = _scene(18, 8)
    broken = dict(theta.blocks)
    victim = next(iter(broken))
    del broken[victim]
    with pytest.raises(ValidationError, match="missing node"):
        run_forward(_micro_model(), corr, graph, LocalConsistency(broken))


@pytest.mark.parametrize("kind", ["constructed", "loaded"])
def test_run_forward_rejects_theta_in_another_dtype(kind, tmp_path):
    """Blocks are taken in the model's dtype as they are, never cast."""
    model = _micro_model()
    if kind == "loaded":
        model = _loaded(model, tmp_path)
    other = np.dtype(np.float32 if kind == "constructed" else np.float64)
    corr, graph, theta = _scene(18, 8, dtype=other)
    with pytest.raises(ValidationError, match=f"block is {other}, but the model computes in "
                                              f"{model.dtype}"):
        run_forward(model, corr, graph, theta)


def _labeled_scene(seed=3, assign_k=6):
    """The 240-point synthetic scene with its prune graph (coverage 0.08)."""
    _, _, _, corr = generate_scene(SceneSpec(point_count=240, seed=seed))
    return corr, build_graph(corr.source, 0.08, assign_k)


# shapes for the blocks of the first two patches (index 0 and 1), whose
# sizes are m0 and m1: a pair that still sums to the pair's rows, a block
# short of its patch, one past it, and a non-square one
_MISFIT_BLOCKS = {
    "swapped": lambda m0, m1: {0: (m0 - 1, m0 - 1), 1: (m1 + 1, m1 + 1)},
    "short": lambda m0, m1: {0: (m0 - 1, m0 - 1)},
    "long": lambda m0, m1: {0: (m0 + 1, m0 + 1)},
    "non-square": lambda m0, m1: {0: (m0, m0 + 1)},
}


@pytest.mark.parametrize("misfit", sorted(_MISFIT_BLOCKS))
@pytest.mark.parametrize("grouping", ["single-node", "multi-node"])
def test_run_forward_rejects_blocks_that_do_not_fit_their_patches(grouping, misfit,
                                                                  monkeypatch):
    """Every misfit block is named with its node and both sizes before any
    layer runs, also where the sizes still partition the group's rows."""
    corr, graph = _labeled_scene()
    model = ScNetModel(ScNetConfig(feature_dim=32, num_groups=4))
    theta = local_consistency(corr, graph, 0.08, dtype=model.dtype)
    if grouping == "single-node":
        monkeypatch.setattr(model_module, "_GROUP_ENTRIES", 0)
    first = _node_groups(graph, theta, model.dtype, 32)[0]
    assert len(first.thetas) == (1 if grouping == "single-node" else len(graph.patches))

    (j0, c0, _), (j1, c1, _) = graph.patches[:2]
    blocks = dict(theta.blocks)
    for i, shape in _MISFIT_BLOCKS[misfit](c0.size, c1.size).items():
        blocks[(j0, j1)[i]] = np.ones(shape)

    def no_layer(*args):
        raise AssertionError("a layer ran before the blocks were checked")

    monkeypatch.setattr(model_module, "_forward", no_layer)
    with pytest.raises(ValidationError, match=re.escape(
            f"node {j0}'s consistency block is {blocks[j0].shape}, but its patch has "
            f"{c0.size} members")):
        run_forward(model, corr, graph, LocalConsistency(blocks))


def test_run_forward_names_the_node_of_blocks_built_over_another_graph():
    corr, graph = _labeled_scene(1, assign_k=6)
    theta = local_consistency(corr, graph, 0.08, dtype=np.float64)
    _, other = _labeled_scene(1, assign_k=5)
    j, members, _ = other.patches[0]
    size = theta.blocks[j].shape[0]
    assert size != members.size
    with pytest.raises(ValidationError, match=re.escape(
            f"node {j}'s consistency block is ({size}, {size}), but its patch has "
            f"{members.size} members")):
        run_forward(ScNetModel(ScNetConfig(feature_dim=32, num_groups=4)), corr, other, theta)


def _default_model_scene():
    """The full-size model on N = 240 with the prune graph's k = 6 nodes per row."""
    return ScNetModel(ScNetConfig()), _scene(19, 240, coverage=0.08, assign_k=6)


@pytest.mark.parametrize("size", ["micro", "default"])
def test_tape_free_forward_matches_taped_bitwise(size):
    if size == "micro":
        model, (corr, graph, theta) = _micro_model(seed=2), _scene(19, 12)
    else:
        model, (corr, graph, theta) = _default_model_scene()
    free = run_forward(model, corr, graph, theta)
    taped = run_forward(model, corr, graph, theta, keep_tape=True)
    for name in ("features", "scores"):
        assert getattr(free, name).tobytes() == getattr(taped, name).tobytes()
    assert free.tape is None


@pytest.mark.parametrize("kind", ["constructed", "loaded"])
def test_run_forward_blends_like_aggregate_bitwise(kind, tmp_path):
    model = _micro_model(seed=6, num_blocks=2, units_per_block=2)
    if kind == "loaded":
        model = _loaded(model, tmp_path)
    dtype = model.dtype
    corr, graph, theta = _scene(21, 40, assign_k=3, dtype=dtype)
    feats = encode_input(corr).astype(dtype)
    for layer in model.init:
        feats = layer.forward(feats)[0]
    for block in model.blocks:
        node_out = {}
        for j, members in enumerate(graph.node_to_members):
            if members.size:
                z = feats[members]
                for unit in block:
                    z, _ = unit.forward(z, [theta.blocks[j]])
                node_out[j] = z
        feats = aggregate(node_out, graph)
    got = run_forward(model, corr, graph, theta).features
    assert got.dtype == feats.dtype == dtype
    assert got.tobytes() == feats.tobytes()


def test_node_groups_fill_the_budget_in_ascending_node_order():
    model, (corr, graph, theta) = _default_model_scene()
    width = model.config.feature_dim
    groups = _node_groups(graph, theta, np.float64, width)
    assert any(len(g.thetas) > 1 for g in groups) and len(groups) > 1
    nonempty = iter(j for j, m in enumerate(graph.node_to_members) if m.size)
    for g, following in zip(groups, groups[1:] + [None]):
        assert g.bounds[-1] * width <= _GROUP_ENTRIES or len(g.thetas) == 1
        if following is not None:  # greedy: the next node would not have fit
            assert (g.bounds[-1] + following.bounds[1]) * width > _GROUP_ENTRIES
        for a, b, block in zip(g.bounds, g.bounds[1:], g.thetas):
            j = next(nonempty)
            assert block is theta.blocks[j]
            assert g.rows[a:b].tobytes() == graph.node_to_members[j].tobytes()
            mask = graph.point_to_nodes == j
            assert g.alpha[a:b, 0].tobytes() == graph.point_weights[mask].tobytes()
    assert next(nonempty, None) is None
    # several groups blend like every node run alone
    feats = encode_input(corr)
    for layer in model.init:
        feats = layer.forward(feats)[0]
    for block in model.blocks:
        node_out = {}
        for j in theta.blocks:
            z = feats[graph.node_to_members[j]]
            for unit in block:
                z = unit.forward(z, [theta.blocks[j]])[0]
            node_out[j] = z
        feats = aggregate(node_out, graph)
    np.testing.assert_allclose(run_forward(model, corr, graph, theta).features, feats,
                               rtol=1e-12, atol=1e-12)


def test_tape_free_forward_memory_is_bounded(traced_peak):
    model, (corr, graph, theta) = _default_model_scene()
    peaks = {keep_tape: traced_peak(lambda: run_forward(model, corr, graph, theta,
                                                        keep_tape=keep_tape))
             for keep_tape in (False, True)}
    assert peaks[False] < peaks[True] / 10


def test_tape_free_forward_peaks_at_two_feature_arrays_and_one_unit(tmp_path, traced_peak):
    """The prune scene's N = 2000 scored by a loaded default model, theta
    built beforehand: the pass holds a block's input features and their
    blend (N x d each) and one unit's working set on the largest patch of
    R rows: one R x R attention and at most twelve R x d arrays (its input,
    q, k, v, the attention output, z1 and its norm's centred rows, the
    feedforward's hidden rows, mask and output, the second norm's centred
    rows and their squares)."""
    spec = SceneSpec(point_count=2000, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                     inlier_noise_std=0.005, seed=1000)
    corr = generate_scene(spec)[3]
    graph = build_graph(corr.source, 0.08, 6)
    model = _loaded(ScNetModel(ScNetConfig()), tmp_path)
    theta = local_consistency(corr, graph, 0.08)
    peak = traced_peak(lambda: run_forward(model, corr, graph, theta))
    n, d = len(corr), model.config.feature_dim
    rows = max(block.shape[0] for block in theta.blocks.values())
    assert peak <= model.values.itemsize * (2 * n * d + 12 * rows * d + rows * rows) + 1e6


def test_tape_free_forward_drops_each_cache_as_its_layer_returns():
    """Without a caches list, layer 1's cache is gone before layer 2 runs;
    with one, every cache stays alive."""

    class Sentinel:
        pass

    class Stub:
        def __init__(self, log):
            self.log = log

        def forward(self, x):
            self.log.append([ref() is not None for ref in refs])
            sentinel = Sentinel()
            refs.append(weakref.ref(sentinel))
            return x + 1.0, sentinel

    for caches in (None, []):
        refs, log = [], []
        assert _forward([Stub(log), Stub(log), Stub(log)], np.zeros(2), caches)[0] == 3.0
        if caches is None:
            assert log == [[], [False], [False, False]]
        else:
            assert log == [[], [True], [True, True]] and len(caches) == 3
            assert all(ref() is not None for ref in refs)


def test_backward_through_requires_tape():
    corr, graph, theta = _scene(20, 10)
    model = _micro_model()
    state = run_forward(model, corr, graph, theta)
    with pytest.raises(ValidationError, match="holds no tape"):
        backward_through(model, state, np.ones(len(corr)), np.zeros_like(state.features))
    assert not model.grads.any()


def test_model_seed_determinism():
    a = _micro_model(seed=0).values
    b = _micro_model(seed=0).values
    c = _micro_model(seed=1).values
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0


# ---------------------------------------------------------------- classify

def test_classify_simple_threshold():
    np.testing.assert_array_equal(classify([0.9, 0.1], 0.4), [0])


def test_classify_boundary_is_strict():
    np.testing.assert_array_equal(classify([0.4, 0.41], 0.4), [1])


def test_classify_fallback_keeps_top_eight():
    scores = np.full(100, 0.39)
    np.testing.assert_array_equal(classify(scores, 0.4), np.arange(8))


def test_classify_fallback_five_percent():
    scores = np.zeros(400)
    scores[::2] = 0.01
    kept = classify(scores, 0.4)
    assert kept.size == 20  # ceil(5% of 400)
    np.testing.assert_array_equal(kept, np.arange(0, 40, 2))


def test_classify_fallback_small_n():
    kept = classify(np.zeros(3), 0.4)
    np.testing.assert_array_equal(kept, [0, 1, 2])


def test_classify_output_sorted():
    rng = np.random.default_rng(5)
    scores = rng.uniform(size=50)
    kept = classify(scores, 0.4)
    assert (np.diff(kept) > 0).all()
    np.testing.assert_array_equal(kept, np.where(scores > 0.4)[0])


# ---------------------------------------------------------------- file I/O

def test_params_round_trip_quantized(tmp_path):
    model = _micro_model(seed=2)
    path = tmp_path / "m.params"
    save_params(path, model)
    fresh = _micro_model(seed=7)
    assert load_params(path, fresh) is None
    for (_, a, _), (_, b, _) in zip(model.params(), fresh.params()):
        np.testing.assert_array_equal(np.asarray(a, dtype=np.float32).astype(np.float64), b)


def test_params_round_trip_scores_stable(tmp_path):
    corr, graph, theta = _scene(19, 10, dtype=np.float32)
    model = _micro_model(seed=2)
    path = tmp_path / "m.params"
    save_params(path, model)
    load_params(path, model)  # quantize in place
    before = run_forward(model, corr, graph, theta).scores
    fresh = _micro_model(seed=9)
    load_params(path, fresh)
    np.testing.assert_array_equal(run_forward(fresh, corr, graph, theta).scores, before)


@pytest.mark.parametrize("size", ["micro", "default"])
def test_loaded_model_scores_in_float32_within_tolerance(size, tmp_path):
    if size == "micro":
        model, (corr, graph, theta) = _micro_model(seed=2), _scene(19, 12)
    else:
        model, (corr, graph, theta) = _default_model_scene()
    loaded = _loaded(model, tmp_path)
    narrow = run_forward(loaded, corr, graph, local_consistency(corr, graph, 0.08))
    wide = run_forward(_widened(loaded), corr, graph, theta)
    assert (model.dtype, loaded.dtype) == (np.float64, np.float32)
    assert (wide.features.dtype, narrow.features.dtype) == (np.float64, np.float32)
    assert wide.scores.dtype == narrow.scores.dtype == np.float64
    assert np.abs(narrow.scores - wide.scores).max() <= FLOAT32_SCORE_TOL


def test_loaded_params_are_owned_writable_float32(tmp_path):
    values = _loaded(_micro_model(seed=3), tmp_path).values
    assert values.dtype == np.float32 and values.flags.writeable
    # its own buffer: a view of the file's bytes would have a base
    assert values.flags.owndata and values.base is None


@pytest.mark.parametrize("kind", ["constructed", "loaded"])
def test_params_are_views_of_the_flat_vectors_in_order(kind, tmp_path):
    model = _micro_model(seed=3)
    if kind == "loaded":
        model = _loaded(model, tmp_path)
    start, offset = model.values.ctypes.data, 0
    for name, value, grad in model.params():
        assert np.shares_memory(value, model.values), name
        assert value.ctypes.data == start + offset * model.values.itemsize, name
        assert grad.flags.writeable == (kind == "constructed"), name
        if grad.flags.writeable:
            assert np.shares_memory(grad, model.grads), name
            assert grad.ctypes.data - model.grads.ctypes.data == value.ctypes.data - start, name
        offset += value.size
    assert offset == model.values.size == model.grads.size


def test_loading_the_default_model_peaks_within_the_file_and_its_finite_mask(tmp_path,
                                                                             traced_peak):
    """Above an already built model, installing a parameter file holds the
    float32 vector its tensors are read into and the isfinite mask over it
    (a quarter of the file), and no other copy of the file."""
    path = tmp_path / "m.params"
    save_params(path, ScNetModel(ScNetConfig()))
    model = ScNetModel(ScNetConfig())
    peak = traced_peak(lambda: load_params(path, model))
    size = path.stat().st_size
    assert peak <= size + size / 4 + 1e6


@pytest.mark.parametrize("kind, message", [
    ("wrong-magic", "not a parameter file"),
    ("trailing-bytes", f"{64 << 20} unexpected trailing bytes"),
])
def test_a_large_file_is_rejected_from_its_first_bytes(tmp_path, traced_peak, kind, message):
    """Neither a 64 MB file of another kind nor a parameter file followed
    by 64 MB is read whole before it is rejected."""
    path = tmp_path / "big.params"
    if kind == "trailing-bytes":
        save_params(path, _micro_model())
    with open(path, "ab") as fh:
        fh.truncate(fh.tell() + (64 << 20))  # sparse: no page is written
    model = _micro_model()

    def load():
        with pytest.raises(FileFormatError, match=message):
            load_params(path, model)

    assert traced_peak(load) < 1e6


@pytest.mark.parametrize("config, digest", [
    (ScNetConfig(), "64665adf902eadcc189e87dbebc9e9e952405e536d066cfdfc77f65cda9fbb93"),
    (ScNetConfig(seed=1), "53ba8a23b333bfeaa1015b828cb28bfba633f9b730482408be5fc800792060ef"),
    (scnet_config(PipelineConfig(feature_dim=32, num_blocks=1, units_per_block=2, num_groups=2)),
     "d4044eb94079c1e81ade8e394772a7f73db950a30cf074fac2a82b55bf61a7b1"),
], ids=["default-seed-0", "default-seed-1", "readme-32d"])
def test_initial_weights_are_pinned(config, digest):
    """sha256 of the constructed values: every initial weight, drawn from
    the seed in declaration order (init stack, units, head). readme-32d is
    the README quick start's small.json."""
    assert hashlib.sha256(ScNetModel(config).values.tobytes()).hexdigest() == digest


def test_building_the_default_model_peaks_at_its_two_vectors(traced_peak):
    """Layers allocate no parameter or gradient arrays of their own: the
    constructor holds the flat values and grads and one layer's draws."""
    model = ScNetModel(ScNetConfig())
    peak = traced_peak(lambda: ScNetModel(ScNetConfig()))
    assert peak <= model.values.nbytes + model.grads.nbytes + 1e6


def _param_walks_and_binds(node, func=None):
    """(line, enclosing function, kind) for every loop over a .params() call
    ("walk"), every setattr call ("bind") and every method named params
    ("params", with its class as the function) under node."""
    found = []
    for child in ast.iter_child_nodes(node):
        iters = [gen.iter for gen in getattr(child, "generators", [])]  # comprehensions
        if isinstance(child, ast.For):
            iters.append(child.iter)
        if any(isinstance(it, ast.Call) and getattr(it.func, "attr", None) == "params" for it in iters):
            found.append((child.lineno, func, "walk"))
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "setattr":
            found.append((child.lineno, func, "bind"))
        if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef) and child.name == "params":
            found.append((child.lineno, node.name, "params"))
        found += _param_walks_and_binds(
            child, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else func)
    return found


def test_only_the_model_binds_or_walks_parameters():
    """layers.bind_params is the only setattr, so the only place that binds
    parameters; no layer defines params(), only ScNetModel does; and only
    scnet/model.py loops over a .params() call, in the failure-path name
    lookup. Everything else uses the flat vectors whole."""
    src = Path(__file__).resolve().parents[1] / "src" / "defreg"
    allowed = {(Path("scnet", "layers.py"), "bind", "bind_params"),
               (Path("scnet", "model.py"), "params", "ScNetModel"),
               (Path("scnet", "model.py"), "walk", "param_name")}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        for line, func, kind in _param_walks_and_binds(ast.parse(path.read_text(encoding="utf-8"))):
            if (rel, kind, func) not in allowed:
                offenders.append(f"{rel}:{line} {kind} in {func}")
    assert offenders == []


def test_descriptor_mismatch_raises_validation(tmp_path):
    model = _micro_model()
    path = tmp_path / "m.params"
    save_params(path, model)
    other = _micro_model(feature_dim=16)
    with pytest.raises(ValidationError, match="descriptor mismatch"):
        load_params(path, other)


def test_descriptor_pins_architecture_not_seed(tmp_path):
    model = _micro_model()
    path = tmp_path / "m.params"
    save_params(path, model)
    other = _micro_model(seed=9)
    assert load_params(path, other) is None
    for (_, a, _), (_, b, _) in zip(model.params(), other.params()):
        np.testing.assert_array_equal(a.astype(np.float32).astype(np.float64), b)


@pytest.mark.parametrize(
    "cut,fragment",
    [
        (lambda data: data[: len(data) - 40], "truncated at parameter"),
        (lambda data: data[:10], "truncated at header"),
    ],
)
def test_truncated_params_file(tmp_path, cut, fragment):
    model = _micro_model()
    path = tmp_path / "m.params"
    save_params(path, model)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(FileFormatError, match=fragment):
        load_params(path, _micro_model())


def test_non_finite_parameter_rejected(tmp_path):
    model = _micro_model()
    path = tmp_path / "m.params"
    save_params(path, model)
    path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    with pytest.raises(FileFormatError, match="non-finite value in parameter"):
        load_params(path, _micro_model())


def test_trailing_garbage_rejected(tmp_path):
    model = _micro_model()
    path = tmp_path / "m.params"
    save_params(path, model)
    path.write_bytes(path.read_bytes() + b"JUNKJUNK")
    with pytest.raises(FileFormatError, match="8 unexpected trailing bytes"):
        load_params(path, _micro_model())


def test_not_a_parameter_file(tmp_path):
    path = tmp_path / "nope.params"
    path.write_bytes(b"GARBAGE!" * 4)
    with pytest.raises(FileFormatError, match="not a parameter file"):
        load_params(path, _micro_model())


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[: len(data) - 40],
        lambda data: data + b"JUNKJUNK",
        lambda data: data[:-4] + np.float32(np.nan).tobytes(),
        None,  # a file of another architecture, undamaged
    ],
    ids=["truncated", "trailing", "nan", "descriptor"],
)
def test_rejected_file_leaves_model_untouched(tmp_path, damage):
    path = tmp_path / "m.params"
    if damage is None:
        save_params(path, _micro_model(feature_dim=16))
    else:
        save_params(path, _micro_model(seed=1))
        path.write_bytes(damage(path.read_bytes()))
    model = _micro_model(seed=5)
    before = model.values.copy()
    with pytest.raises((FileFormatError, ValidationError)):
        load_params(path, model)
    after = model.values
    assert after.dtype == np.float64
    assert after.tobytes() == before.tobytes()
    assert model.grads.flags.writeable


def test_save_params_refuses_value_beyond_float32(tmp_path):
    path = tmp_path / "m.params"
    model = _micro_model()
    model.head[-1].w[0, 0] = 1e39
    with pytest.raises(NumericalError, match=r"head\.6\.w"):
        save_params(path, model)
    assert not path.exists()
    model.head[-1].w[0, 0] = 3e38
    save_params(path, model)
    loaded = _micro_model(seed=1)
    load_params(path, loaded)
    assert loaded.head[-1].w[0, 0] == np.float32(3e38)
