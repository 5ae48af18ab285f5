"""Embedded-deformation warp fields and the Gauss-Newton registration loop."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from defreg import nicp
from defreg.consistency import CorrespondenceSet
from defreg.defgraph import assign_points, build_graph
from defreg.errors import FileFormatError, NumericalError, ValidationError
from defreg.geometry import PointCloud, exp_so3, project_rotation
from defreg.nicp import (
    SolveResult,
    SolverConfig,
    WarpField,
    jacobian,
    read_warp_field,
    residuals,
    solve,
    write_warp_field,
)
from defreg.synth import SceneSpec, generate_scene


def _single_node_field(node, rotation=None, translation=None):
    graph = build_graph(np.asarray(node, dtype=np.float64).reshape(1, 3), 1.0, 6)
    rot = np.eye(3)[None] if rotation is None else np.asarray(rotation)[None]
    tra = np.zeros((1, 3)) if translation is None else np.asarray(translation, dtype=np.float64)[None]
    return WarpField(graph, rot, tra)


def _grid_cloud(n=5, pitch=0.05):
    ax = np.arange(n) * pitch
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(n * n)], axis=1)
    return PointCloud(pts)


# -------------------------------------------------------------- warp field

def test_identity_field_is_identity_map():
    cloud = _grid_cloud()
    graph = build_graph(cloud, 0.08, 4)
    field = WarpField.identity(graph)
    np.testing.assert_allclose(field.warp(cloud.points), cloud.points, atol=1e-12)


def test_single_node_translation():
    field = _single_node_field([0.2, 0.1, 0.0], translation=[1.0, 0.0, 0.0])
    p = np.array([0.3, 0.4, 0.5])
    np.testing.assert_allclose(field.warp(p)[0], p + [1.0, 0.0, 0.0], atol=1e-12)


def test_single_node_quarter_turn():
    v = np.array([0.2, 0.3, 0.1])
    field = _single_node_field(v, rotation=exp_so3([0.0, 0.0, np.pi / 2]))
    got = field.warp(v + [1.0, 0.0, 0.0])[0]
    np.testing.assert_allclose(got, v + [0.0, 1.0, 0.0], atol=1e-12)


def test_warp_field_validation():
    graph = build_graph(np.zeros((1, 3)), 1.0, 6)
    with pytest.raises(ValidationError, match="count"):
        WarpField(graph, np.eye(3)[None].repeat(2, axis=0), np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="orthonormal"):
        WarpField(graph, (2.0 * np.eye(3))[None], np.zeros((1, 3)))
    with pytest.raises(ValidationError, match="orthonormal"):
        WarpField(graph, np.diag([1.0, 1.0, -1.0])[None], np.zeros((1, 3)))
    with pytest.raises(ValidationError, match="finite"):
        WarpField(graph, np.eye(3)[None], np.full((1, 3), np.nan))


def test_warp_field_validation_checks_every_node():
    graph = build_graph(_grid_cloud(), 0.08, 4)
    rotations = np.tile(np.eye(3), (graph.num_nodes, 1, 1))
    # a drift in one entry of the last node: R^T R moves by about twice it
    rotations[-1] = exp_so3([0.1, 0.2, 0.3])
    rotations[-1, 0, 0] += 1e-8
    with pytest.raises(ValidationError, match="orthonormal"):
        WarpField(graph, rotations, np.zeros((graph.num_nodes, 3)))
    rotations[-1, 0, 0] -= 1e-8 - 1e-10
    WarpField(graph, rotations, np.zeros((graph.num_nodes, 3)))


# -------------------------------------------------------------- residuals

def _micro_instance(seed=0):
    """Two nodes, three correspondences, one edge."""
    rng = np.random.default_rng(seed)
    src = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.15, 0.1, 0.0]])
    tgt = src + rng.normal(scale=0.05, size=src.shape)
    corr = CorrespondenceSet(src, tgt)
    graph = build_graph(src, 0.2, 2)
    assert graph.num_nodes == 2 and graph.edges.shape[0] == 1
    rot = np.stack([exp_so3(rng.normal(scale=0.3, size=3)) for _ in range(2)])
    tra = rng.normal(scale=0.05, size=(2, 3))
    return corr, graph, WarpField(graph, rot, tra)


def test_residuals_zero_for_consistent_identity():
    cloud = _grid_cloud()
    graph = build_graph(cloud, 0.08, 4)
    field = WarpField.identity(graph)
    corr = CorrespondenceSet(cloud.points, cloud.points)
    r = residuals(field, corr, graph.edges, SolverConfig())
    n3 = 3 * len(corr)
    np.testing.assert_allclose(r[:n3], 0.0, atol=1e-12)
    np.testing.assert_allclose(r[n3:], 0.0, atol=1e-12)
    assert r.shape == (n3 + 3 * graph.edges.shape[0],)


def test_residuals_identity_edge_terms_vanish():
    corr, graph, _ = _micro_instance()
    field = WarpField.identity(graph)
    r = residuals(field, corr, graph.edges, SolverConfig())
    np.testing.assert_allclose(r[3 * len(corr):], 0.0, atol=1e-15)


def test_residuals_single_node_worked_value():
    field = _single_node_field([0.1, 0.2, 0.3], translation=[0.1, 0.0, 0.0])
    src = np.array([[0.4, 0.5, 0.6]])
    corr = CorrespondenceSet(src, src)
    r = residuals(field, corr, np.zeros((0, 2), dtype=np.int64), SolverConfig())
    np.testing.assert_allclose(r, [0.5, 0.0, 0.0], atol=1e-12)


def test_residual_norm_decomposes_into_energies():
    corr, graph, field = _micro_instance(3)
    cfg = SolverConfig(lambda_corr=7.0, lambda_reg=0.3)
    r = residuals(field, corr, graph.edges, cfg)
    unit = SolverConfig(lambda_corr=1.0, lambda_reg=1.0)
    ru = residuals(field, corr, graph.edges, unit)
    n3 = 3 * len(corr)
    e_corr = float((ru[:n3] ** 2).sum())
    e_reg = float((ru[n3:] ** 2).sum())
    assert float((r ** 2).sum()) == pytest.approx(7.0 * e_corr + 0.3 * e_reg, rel=1e-12)


# ---------------------------------------------------------------- jacobian

def test_jacobian_single_node_translation_block():
    field = _single_node_field([0.1, 0.2, 0.3])
    src = np.array([[0.4, 0.5, 0.6]])
    corr = CorrespondenceSet(src, src)
    jac = jacobian(field, corr, np.zeros((0, 2), dtype=np.int64), SolverConfig())
    assert jac.shape == (3, 6)
    np.testing.assert_allclose(jac[:, 3:], 5.0 * np.eye(3), atol=1e-12)


def test_jacobian_zero_lever_arm():
    v = np.array([0.1, 0.2, 0.3])
    field = _single_node_field(v)
    corr = CorrespondenceSet(v[None], v[None])
    jac = jacobian(field, corr, np.zeros((0, 2), dtype=np.int64), SolverConfig())
    np.testing.assert_allclose(jac[:, :3], 0.0, atol=1e-12)


def test_jacobian_matches_finite_differences():
    corr, graph, field = _micro_instance(1)
    cfg = SolverConfig(lambda_corr=25.0, lambda_reg=1.0)
    jac = jacobian(field, corr, graph.edges, cfg)

    v = graph.num_nodes
    h = 1e-6

    def perturbed(delta):
        rot = np.stack([exp_so3(delta[3 * j:3 * j + 3]) @ field.rotations[j] for j in range(v)])
        tra = field.translations + delta[3 * v:].reshape(v, 3)
        probe = WarpField(field.graph, rot, tra)
        return residuals(probe, corr, graph.edges, cfg)

    fd = np.zeros_like(jac)
    for col in range(6 * v):
        d = np.zeros(6 * v)
        d[col] = h
        fd[:, col] = (perturbed(d) - perturbed(-d)) / (2 * h)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(jac - fd).max() / scale < 1e-5
    # translation columns are exact: the problem is linear in them
    assert np.abs(jac[:, 3 * v:] - fd[:, 3 * v:]).max() < 1e-9


# ------------------------------------------- block-assembled normal equations

def _bent_instance(seed, assign_k=6, warp=(0.2, 0.05)):
    """A two-lobe scene with a graph of V >= 10 nodes (with edges unless
    assign_k is 1), and a field away from the identity."""
    spec = SceneSpec(point_count=240, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=warp, inlier_ratio=1.0,
                     inlier_noise_std=0.005, seed=seed)
    src, _, _, corr = generate_scene(spec)
    graph = build_graph(src, 0.08, assign_k)
    assert graph.num_nodes >= 10
    assert (graph.edges.shape[0] > 0) == (assign_k > 1)
    rng = np.random.default_rng(seed)
    field = WarpField(graph, exp_so3(rng.normal(scale=0.3, size=(graph.num_nodes, 3))),
                      rng.normal(scale=0.05, size=(graph.num_nodes, 3)))
    return src, corr, graph, field


@pytest.mark.parametrize("assign_k", [6, 1])
def test_block_normal_equations_equal_dense_products(assign_k):
    _, corr, graph, field = _bent_instance(3, assign_k)
    cfg = SolverConfig(lambda_corr=25.0, lambda_reg=0.7)
    problem = nicp._problem(graph, corr, cfg)
    rotation, mixed, gradient = nicp._normal_equations(problem, nicp._evaluate(field, problem))
    v = graph.num_nodes
    a, b = problem.pairs[:, 0], problem.pairs[:, 1]
    dense_rotation, dense_mixed = np.zeros((2, v, 3, v, 3))
    dense_rotation[a, :, b, :] = rotation
    dense_mixed[a, :, b, :] = mixed
    weights = np.zeros((v, v))
    weights[a, b] = problem.pair_weights
    jac = jacobian(field, corr, graph.edges, cfg)
    r = residuals(field, corr, graph.edges, cfg)
    normal = jac.T @ jac
    for block, dense in ((dense_rotation.reshape(3 * v, 3 * v), normal[:3 * v, :3 * v]),
                         (dense_mixed.reshape(3 * v, 3 * v), normal[:3 * v, 3 * v:]),
                         (np.kron(weights, np.eye(3)), normal[3 * v:, 3 * v:]),
                         (gradient, jac.T @ r)):
        assert block.shape == dense.shape
        assert np.abs(block - dense).max() <= 1e-12 * np.abs(dense).max()
    damped = weights + cfg.marquardt * np.eye(v)
    np.testing.assert_allclose(problem.translation_inverse @ damped, np.eye(v), atol=1e-12)


def _far_node_instance(seed, assign_k):
    """`_bent_instance` plus one more node, far from every correspondence
    and on no edge: its rows of J^T J are zero, so only the damping keeps
    the system regular."""
    _, corr, graph, field = _bent_instance(seed, assign_k)
    far = graph.nodes.max(axis=0) + 10.0
    graph = replace(graph, nodes=np.vstack([graph.nodes, far]))
    field = WarpField(graph, np.concatenate([field.rotations, exp_so3([[0.1, 0.2, 0.3]])]),
                      np.vstack([field.translations, [0.1, 0.0, 0.0]]))
    return corr, graph, field


@pytest.mark.parametrize("assign_k", [6, 1])
def test_schur_step_equals_dense_damped_solve(assign_k):
    corr, graph, field = _far_node_instance(4, assign_k)
    cfg = SolverConfig(lambda_corr=25.0, lambda_reg=0.7)
    problem = nicp._problem(graph, corr, cfg)
    assert not (problem.pairs == graph.num_nodes - 1).any()
    jac = jacobian(field, corr, graph.edges, cfg)
    r = residuals(field, corr, graph.edges, cfg)
    want = np.linalg.solve(jac.T @ jac + cfg.marquardt * np.eye(jac.shape[1]), -(jac.T @ r))
    system = nicp._schur_system(problem, nicp._evaluate(field, problem))
    got = nicp._conjugate_gradients(problem, system, cfg.marquardt)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    np.testing.assert_array_equal(got[3 * graph.num_nodes - 3:3 * graph.num_nodes], 0.0)


@pytest.mark.parametrize("far_first", [False, True], ids=["far-last", "far-first"])
@pytest.mark.parametrize("assign_k", [6, 1])
def test_row_sorted_schur_operator_equals_dense_complement(assign_k, far_first):
    corr, graph, field = _far_node_instance(4, assign_k)
    if far_first:  # the far node's empty rows ahead of the others, not after them
        graph = replace(graph, nodes=np.roll(graph.nodes, 1, axis=0), edges=graph.edges + 1,
                        point_to_nodes=graph.point_to_nodes + 1)
        field = WarpField(graph, np.roll(field.rotations, 1, axis=0),
                          np.roll(field.translations, 1, axis=0))
    cfg = SolverConfig(lambda_corr=25.0, lambda_reg=0.7)
    problem = nicp._problem(graph, corr, cfg)
    np.testing.assert_array_equal(problem.pairs[problem.pair_mirrors], problem.pairs[:, ::-1])
    v, mu = graph.num_nodes, 0.37  # the operator's mu is its own, not K's marquardt
    far = 0 if far_first else v - 1
    assert not (problem.pairs == far).any()
    jac = jacobian(field, corr, graph.edges, cfg)
    normal = jac.T @ jac
    rot, mixed = normal[:3 * v, :3 * v], normal[:3 * v, 3 * v:]
    inverse = np.linalg.inv(normal[3 * v:, 3 * v:] + cfg.marquardt * np.eye(3 * v))
    want = rot + mu * np.eye(3 * v) - mixed @ inverse @ mixed.T
    system = nicp._schur_system(problem, nicp._evaluate(field, problem))
    got = np.stack([nicp._schur_product(problem, system, mu, e) for e in np.eye(3 * v)], axis=1)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the far node is on no pair: its rows are empty and give exactly mu x
    rows = slice(3 * far, 3 * far + 3)
    x = np.random.default_rng(0).normal(size=3 * v)
    np.testing.assert_array_equal(nicp._schur_product(problem, system, mu, x)[rows], mu * x[rows])
    np.testing.assert_array_equal(got[rows], mu * np.eye(3 * v)[rows])
    gradient = jac.T @ residuals(field, corr, graph.edges, cfg)
    for mine, dense in ((system.diagonal, np.diagonal(rot)),
                        (system.rhs, mixed @ inverse @ gradient[3 * v:] - gradient[:3 * v])):
        assert np.abs(mine - dense).max() <= 1e-12 * np.abs(dense).max()
    # the step for this mu: rotations damped by mu, translations by marquardt
    damping = np.concatenate([np.full(3 * v, mu), np.full(3 * v, cfg.marquardt)])
    want = np.linalg.solve(normal + np.diag(damping), -gradient)
    got = nicp._conjugate_gradients(problem, system, mu)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_schur_step_sums_rows_only_by_segment_sums():
    """No `np.bincount` in the step's linear solve: the row-sorted segment
    sums of `_row_sums` are its only scatter."""
    tree = ast.parse(Path(nicp.__file__).read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    step = ("_schur_system", "_conjugate_gradients", "_schur_product", "_spread", "_row_sums")
    assert set(step) <= set(functions)
    calls = [f"{name}:{n.lineno}" for name in step for n in ast.walk(functions[name])
             if isinstance(n, ast.Call) and "bincount" in (getattr(n.func, "attr", None),
                                                          getattr(n.func, "id", None))]
    assert calls == []


def _table_pair_moments(graph, corr, cfg):
    """`_problem`'s node-pair sums from one dense (term pairs, 13) table of
    W, m and M, each column summed by bincount: the oracle for the
    column-at-a-time sums. Returns pairs, W_ab, m_ab, M_ab and
    K = (W + marquardt I)^-1 from its Cholesky factor L, as L^-T L^-1."""
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    order, weights = assign_points(corr.source, graph.nodes, graph.assign_k, graph.coverage)
    nodes, v = graph.nodes, graph.num_nodes
    sc, sr = np.sqrt(cfg.lambda_corr), np.sqrt(cfg.lambda_reg)
    u, w = edges[:, 0], edges[:, 1]
    groups = [
        (order, sc * weights, corr.source[:, None, :] - nodes[order]),
        (edges, np.broadcast_to([sr, -sr], edges.shape),
         np.stack([nodes[w] - nodes[u], np.zeros((len(edges), 3))], axis=1)),
    ]
    keys, columns = [], []
    for j, c, q in groups:
        # term a on axis 1, term b on axis 2: c_a c_b, c_a c_b q_a, c_a c_b q_b q_a^T
        cc = (c[:, :, None] * c[:, None, :])[..., None]
        outer = q[:, None, :, :, None] * q[:, :, None, None, :]
        keys.append((v * j[:, :, None] + j[:, None, :]).ravel())
        columns.append(np.concatenate([cc, cc * q[:, :, None, :],
                                       cc * outer.reshape(cc.shape[:3] + (9,))],
                                      axis=-1).reshape(-1, 13))
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    columns = np.concatenate(columns)
    sums = np.stack([np.bincount(inverse, columns[:, i], minlength=len(keys))
                     for i in range(13)], axis=1)
    pairs = np.stack(np.divmod(keys, v), axis=1)
    damped = cfg.marquardt * np.eye(v)
    damped[pairs[:, 0], pairs[:, 1]] += sums[:, 0]
    whitener = np.linalg.inv(np.linalg.cholesky(damped))
    return (pairs, sums[:, 0], sums[:, 1:4], sums[:, 4:].reshape(-1, 3, 3),
            whitener.T @ whitener)


@pytest.mark.parametrize("instance", [
    lambda: _bent_instance(3, 6)[1:3],
    lambda: _bent_instance(3, 1)[1:3],
    lambda: _far_node_instance(4, 6)[:2],
], ids=["edges", "no-edges", "far-node"])
def test_pair_moments_equal_the_dense_table_bitwise(instance):
    corr, graph = instance()
    cfg = SolverConfig(lambda_corr=25.0, lambda_reg=0.7)
    problem = nicp._problem(graph, corr, cfg)
    got = (problem.pairs, problem.pair_weights, problem.pair_levers, problem.pair_moments,
           problem.translation_inverse)
    for name, mine, want in zip(("pairs", "W", "m", "M", "K"), got,
                                _table_pair_moments(graph, corr, cfg)):
        assert mine.shape == want.shape, name
        np.testing.assert_array_equal(mine, want, err_msg=name)


def test_problem_memory_is_linear_in_term_pairs(traced_peak):
    """Set-up holds a few arrays of one entry per term pair (N k^2 of them)
    and a few V x V arrays, never a table of 13 columns per term pair
    (about 10 KB per correspondence at k = 6)."""
    spec = SceneSpec(point_count=5000, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=1.0,
                     inlier_noise_std=0.005, seed=1)
    src, _, _, corr = generate_scene(spec)
    graph = build_graph(src, 0.08, 6)
    n, k, v = len(corr), graph.assign_k, graph.num_nodes
    assert v < 50
    peak = traced_peak(lambda: nicp._problem(graph, corr, SolverConfig()))
    assert peak <= 10 * n * k**2 * 8 + 3 * 9 * v**2 * 8 + 1e6


def test_solve_memory_is_linear_in_node_pairs(traced_peak):
    """A whole solve at V >= 600 stays within the set-up's bound with its
    V^2 term cut to four V x V arrays: the damped translation block, its
    Cholesky factor, that factor's inverse and K. A step holds arrays of
    one entry per node-pair block entry, never a 3V x 3V matrix (nine
    V^2 floats)."""
    spec = SceneSpec(point_count=3000, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=1.0,
                     inlier_noise_std=0.005, seed=1)
    src, _, _, corr = generate_scene(spec)
    graph = build_graph(src, 0.015, 6)
    n, k, v = len(corr), graph.assign_k, graph.num_nodes
    assert v >= 600
    peak = traced_peak(lambda: solve(corr, src, SolverConfig(max_iterations=2), graph=graph))
    assert peak <= 10 * n * k**2 * 8 + 4 * v**2 * 8 + 1e6


def test_solve_factors_the_translation_block_once(monkeypatch):
    calls = []
    for name in ("cholesky", "inv"):
        def counting(a, name=name, original=getattr(np.linalg, name)):
            calls.append((name, np.shape(a)))
            return original(a)
        monkeypatch.setattr(np.linalg, name, counting)

    src, corr, graph, _ = _bent_instance(7)
    result = solve(corr, src, SolverConfig(max_iterations=4), graph=graph)
    assert len(result.cost_trace) > 2
    v = graph.num_nodes
    assert calls == [("cholesky", (v, v)), ("inv", (v, v))]


def _dense_reference_solve(corr, graph, cfg):
    """The solver loop on the dense Jacobian, one node at a time: the
    oracle for `solve`. Returns (cost trace, final field)."""
    v = graph.num_nodes

    def cost(f):
        r = residuals(f, corr, graph.edges, cfg)
        return float(r @ r)

    field = WarpField.identity(graph)
    current = cost(field)
    trace = [current]
    for _ in range(cfg.max_iterations):
        jac = jacobian(field, corr, graph.edges, cfg)
        r = residuals(field, corr, graph.edges, cfg)
        delta = np.linalg.solve(jac.T @ jac + cfg.marquardt * np.eye(6 * v), -(jac.T @ r))
        if np.abs(delta).max() < cfg.step_tolerance:
            break
        rot = np.stack([project_rotation(exp_so3(delta[3 * j:3 * j + 3]) @ field.rotations[j])
                        for j in range(v)])
        candidate = WarpField(graph, rot, field.translations + delta[3 * v:].reshape(v, 3))
        new = cost(candidate)
        if new > current:
            break
        field = candidate
        trace.append(new)
        converged = (current - new) <= cfg.cost_tolerance * current
        current = new
        if converged:
            break
    return trace, field


@pytest.mark.parametrize("assign_k", [6, 1])
def test_solve_matches_dense_reference_loop(assign_k):
    src, corr, graph, _ = _bent_instance(5, assign_k)
    cfg = SolverConfig(max_iterations=8)
    result = solve(corr, src, cfg, graph=graph)
    trace, field = _dense_reference_solve(corr, graph, cfg)
    assert len(result.cost_trace) == len(trace) > 2
    got, want = np.array(result.cost_trace), np.array(trace)
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    np.testing.assert_allclose(result.field.rotations, field.rotations, atol=1e-10)
    np.testing.assert_allclose(result.field.translations, field.translations, atol=1e-10)


def test_solver_never_builds_the_dense_jacobian(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the solver built the dense Jacobian")

    monkeypatch.setattr(nicp, "jacobian", dense)
    src, corr, graph, _ = _bent_instance(6)
    result = solve(corr, src, SolverConfig(max_iterations=3))
    assert len(result.cost_trace) > 1
    solve(corr, src, SolverConfig(max_iterations=1), graph=graph)


def test_solve_assigns_correspondences_once(monkeypatch):
    calls = []
    original = nicp.assign_points

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    src, corr, graph, _ = _bent_instance(7)
    monkeypatch.setattr(nicp, "assign_points", counting)
    result = solve(corr, src, SolverConfig(max_iterations=4), graph=graph)
    assert len(result.cost_trace) > 2
    assert calls == [len(corr)]


@pytest.mark.parametrize("max_iterations,rejected,warp", [
    (10, 0, (0.2, 0.05)),
    (100, 1, (1.2, 0.3)),
], ids=["10-0", "100-1"])
def test_solve_evaluates_each_visited_field_once(monkeypatch, max_iterations, rejected, warp):
    # tolerances of 1e-300 stop the loop only on max_iterations, on an
    # exactly repeated cost or on a rejected candidate. The small warp runs
    # all 10 iterations. Under the large one the linearized step overshoots:
    # after two accepted steps a candidate raises the cost by about 4 %,
    # far above rounding, and is rejected
    costs = []
    original = nicp._evaluate

    def counting(*args):
        at = original(*args)
        costs.append(at.cost)
        return at

    src, corr, graph, _ = _bent_instance(7, warp=warp)
    monkeypatch.setattr(nicp, "_evaluate", counting)
    cfg = SolverConfig(max_iterations=max_iterations, cost_tolerance=1e-300,
                       step_tolerance=1e-300)
    trace = list(solve(corr, src, cfg, graph=graph).cost_trace)
    if not rejected:
        assert len(trace) == max_iterations + 1
    assert len(costs) == len(trace) + rejected
    assert costs[:len(trace)] == trace
    assert all(cost > trace[-1] for cost in costs[len(trace):])


# ------------------------------------------------------------ newton steps

def test_step_at_exact_solution_keeps_field():
    cloud = _grid_cloud()
    graph = build_graph(cloud, 0.08, 4)
    field = WarpField.identity(graph)
    corr = CorrespondenceSet(cloud.points, cloud.points)
    result = solve(corr, cloud, SolverConfig(max_iterations=1), graph=graph)
    updated, cost = result.field, result.cost_trace[-1]
    np.testing.assert_allclose(updated.rotations, field.rotations, atol=1e-12)
    np.testing.assert_allclose(updated.translations, field.translations, atol=1e-12)
    assert cost == pytest.approx(0.0, abs=1e-20)


def test_step_decreases_cost():
    corr, graph, _ = _micro_instance(5)
    field = WarpField.identity(graph)
    cfg = SolverConfig(max_iterations=1)
    before = float((residuals(field, corr, graph.edges, cfg) ** 2).sum())
    after = solve(corr, PointCloud(corr.source), cfg, graph=graph).cost_trace[-1]
    assert after < before


def test_one_step_recovers_pure_translation():
    cloud = _grid_cloud(6, 0.04)
    graph = build_graph(cloud, 0.06, 4)
    shift = np.array([0.05, -0.02, 0.03])
    corr = CorrespondenceSet(cloud.points, cloud.points + shift)
    field = WarpField.identity(graph)
    cfg = SolverConfig(marquardt=1e-9, max_iterations=1)  # translation-only problems are linear
    updated = solve(corr, cloud, cfg, graph=graph).field
    np.testing.assert_allclose(updated.translations, np.tile(shift, (graph.num_nodes, 1)), atol=1e-6)
    np.testing.assert_allclose(updated.rotations, field.rotations, atol=1e-6)


# -------------------------------------------------------------------- solve

def test_solve_consistent_input_stops_immediately():
    cloud = _grid_cloud()
    corr = CorrespondenceSet(cloud.points, cloud.points)
    result = solve(corr, cloud, SolverConfig())
    assert isinstance(result, SolveResult)
    assert len(result.cost_trace) == 1
    np.testing.assert_allclose(result.field.warp(cloud.points), cloud.points, atol=1e-9)


def test_solve_recovers_global_rigid_motion():
    spec = SceneSpec(point_count=300, surface="plane-grid", warp_kind="global-rigid",
                     warp_magnitude=(np.deg2rad(10.0), 0.1), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=2)
    src, _, gt, corr = generate_scene(spec)
    result = solve(corr, src, SolverConfig())
    epe = np.linalg.norm(result.field.warp(src.points) - gt.warp(src.points), axis=1).mean()
    assert epe < 1e-4
    trace = np.array(result.cost_trace)
    assert (np.diff(trace) <= 0).all()
    assert len(trace) - 1 <= 50


def test_solve_two_lobe_bend_fits_correspondences():
    spec = SceneSpec(point_count=240, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.04, 0.008), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=11)
    src, _, _, corr = generate_scene(spec)
    cfg = SolverConfig(lambda_reg=0.02, max_iterations=150,
                       cost_tolerance=1e-12, step_tolerance=1e-10)
    result = solve(corr, src, cfg)
    e_corr = float(((result.field.warp(corr.source) - corr.target) ** 2).sum())
    assert e_corr < 1e-6
    trace = np.array(result.cost_trace)
    assert (np.diff(trace) <= 0).all()


def test_solve_rotations_stay_orthonormal():
    spec = SceneSpec(point_count=150, surface="cylinder", warp_kind="smooth-graph",
                     warp_magnitude=(0.3, 0.06), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=6)
    src, _, _, corr = generate_scene(spec)
    result = solve(corr, src, SolverConfig())
    for rot in result.field.rotations:
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-8
        assert abs(np.linalg.det(rot) - 1.0) < 1e-8


def test_solve_raising_reg_weight_rigidifies_warp():
    # deviation of the recovered warp from its best-fit single rigid motion
    # must fall as the regularizer weight climbs x10, x100
    spec = SceneSpec(point_count=200, surface="two-lobe", warp_kind="articulated-two-part",
                     warp_magnitude=(0.2, 0.04), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=9)
    src, _, _, corr = generate_scene(spec)

    def rigid_deviation(field):
        warped = field.warp(src.points)
        pc = src.points - src.points.mean(axis=0)
        wc = warped - warped.mean(axis=0)
        u, _, vt = np.linalg.svd(pc.T @ wc)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        fit = pc @ rot.T + warped.mean(axis=0)
        return float(np.linalg.norm(warped - fit, axis=1).mean())

    devs = [rigid_deviation(solve(corr, src, SolverConfig(lambda_reg=lam)).field)
            for lam in (1.0, 10.0, 100.0)]
    assert devs[0] > devs[1] > devs[2]


def test_solve_is_equivariant_under_rigid_conjugation():
    spec = SceneSpec(point_count=200, surface="plane-grid", warp_kind="global-rigid",
                     warp_magnitude=(np.deg2rad(10.0), 0.1), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=4)
    src, _, gt, corr = generate_scene(spec)
    cfg = SolverConfig()
    base = solve(corr, src, cfg)
    epe1 = np.linalg.norm(base.field.warp(src.points) - gt.warp(src.points), axis=1).mean()

    q_rot = exp_so3([0.3, -0.5, 0.2])
    q_t = np.array([0.4, -0.1, 0.25])
    src_q = PointCloud(src.points @ q_rot.T + q_t)
    corr_q = CorrespondenceSet(corr.source @ q_rot.T + q_t, corr.target @ q_rot.T + q_t)
    conj = solve(corr_q, src_q, cfg)
    gt_q = gt.warp(src.points) @ q_rot.T + q_t
    epe2 = np.linalg.norm(conj.field.warp(src_q.points) - gt_q, axis=1).mean()
    assert abs(epe1 - epe2) < 1e-6
    moved_base = base.field.warp(src.points) @ q_rot.T + q_t
    assert np.abs(conj.field.warp(src_q.points) - moved_base).max() < 1e-6


def test_solve_breakdown_raises_numerical_error():
    big = 1e200
    pts = np.array([[0.0, 0, 0], [big, 0, 0], [0.0, big, 0]])
    corr = CorrespondenceSet(pts, pts)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=r"breakdown.*iteration"):
        solve(corr, PointCloud(pts), SolverConfig())


def test_solve_rotation_overflow_raises_numerical_error():
    # levers of 1e-6 against residuals of 1e150: the cost is finite, but the
    # nearly undamped step turns the nodes by more than exp_so3 can square
    rng = np.random.default_rng(0)
    src = rng.random((50, 3)) * 1e-6
    corr = CorrespondenceSet(src, src + 1e150 * rng.normal(size=src.shape))
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"non-finite rotation update \(iteration 1\)"):
        solve(corr, PointCloud(src), SolverConfig(marquardt=1e-300))


def test_solve_rank_deficient_translation_block_raises_numerical_error():
    # two nodes, no edges, one correspondence halfway between them: W is
    # lambda_corr / 4 in every entry, exactly singular, and a damping below
    # its rounding leaves W + marquardt I singular too
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    graph = replace(build_graph(pts, 0.05, 2), edges=np.zeros((0, 2), dtype=np.int64))
    x = np.array([[0.05, 0.01, 0.0]])
    with pytest.raises(NumericalError, match=r"not positive definite \(iteration 0\)"):
        solve(CorrespondenceSet(x, x + 0.01), PointCloud(pts), SolverConfig(marquardt=1e-20),
              graph=graph)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(lambda_corr=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(max_iterations=0)


# ------------------------------------------------------------------ file io

def test_warp_field_file_round_trip(tmp_path):
    corr, graph, field = _micro_instance(7)
    path = tmp_path / "warp.txt"
    write_warp_field(path, field)
    back = read_warp_field(path)
    probe = np.array([[0.05, 0.02, 0.01], [0.2, 0.05, 0.0], [0.31, -0.02, 0.04]])
    np.testing.assert_allclose(back.warp(probe), field.warp(probe), atol=1e-12)
    np.testing.assert_allclose(back.rotations, field.rotations, atol=1e-12)
    np.testing.assert_array_equal(back.translations, field.translations)
    np.testing.assert_array_equal(back.graph.nodes, graph.nodes)


def test_warp_field_rewrite_byte_identical(tmp_path):
    # identity rotations: the axis-angle coordinates stored in the file are
    # exactly zero, so the only content is repr'd floats, which parse exactly
    rng = np.random.default_rng(8)
    graph = build_graph(rng.random((12, 3)), 0.4, 3)
    field = WarpField(
        graph,
        np.tile(np.eye(3), (graph.num_nodes, 1, 1)),
        rng.normal(scale=0.05, size=(graph.num_nodes, 3)),
    )
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_warp_field(p1, field)
    write_warp_field(p2, read_warp_field(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty warp-field file"),
        ("warp-field nodes 2 coverage 0.08\n", "bad warp-field header"),
        ("warp-field nodes X coverage 0.08 assign_k 6\n", "bad warp-field header"),
        ("warp-field nodes 2 coverage 0.08 assign_k 6\n" + "0 0 0 0 0 0 0 0 0\n", "node lines"),
        ("warp-field nodes 1 coverage 0.08 assign_k 6\n0 0 0 0 0\n", "fields"),
        ("warp-field nodes 1 coverage 0.08 assign_k 6\n0 0 0 0 0 0 0 0 spam\n", "non-numeric"),
        ("warp-field nodes 1 coverage 0.08 assign_k 6\n0 0 0 0 0 0 0 0 inf\n", "non-finite"),
        ("warp-field nodes 1 coverage nan assign_k 6\n0 0 0 0 0 0 0 0 0\n", "bad.txt:1: non-finite"),
        ("warp-field nodes 1 coverage 0 assign_k 6\n0 0 0 0 0 0 0 0 0\n", "bad.txt:1: node count"),
        ("warp-field nodes 0 coverage 0.08 assign_k 6\n", "bad.txt:1: node count"),
        ("warp-field nodes 1 coverage 0.08 assign_k 6\n0 0 0 0 \xe9 0 0 0 0\n", "bad.txt:2: non-ASCII"),
    ],
)
def test_warp_field_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FileFormatError, match=fragment):
        read_warp_field(path)
