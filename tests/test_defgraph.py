"""Deformation-graph construction: sampling, skinning, assignment, edges,
and the per-node patches the graph derives from its assignment."""

import ast
import re
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg import defgraph
from defreg.defgraph import (
    DeformationGraph,
    assign_points,
    build_graph,
    format_graph_dump,
)
from defreg.errors import NumericalError, ValidationError
from defreg.geometry import PointCloud, furthest_point_sample
from defreg.nicp import WarpField, read_warp_field, write_warp_field
from defreg.synth import SceneSpec, generate_scene

SRC = Path(__file__).resolve().parents[1] / "src" / "defreg"


def _random_cloud(seed=0, n=200, scale=1.0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(0.0, scale, size=(n, 3)))


def test_single_point_cloud():
    graph = build_graph(PointCloud(np.array([[0.3, 0.1, 0.2]])), 0.08, 6)
    assert graph.num_nodes == 1
    assert graph.edges.shape == (0, 2)
    np.testing.assert_array_equal(graph.point_weights, [[1.0]])


def test_two_separated_clusters_no_edge():
    # clusters much farther apart than coverage; assign_k=1 keeps them apart
    a = np.zeros((5, 3)) + np.array([0.0, 0, 0])
    b = np.zeros((5, 3)) + np.array([3.0, 0, 0])
    cloud = PointCloud(np.vstack([a, b]) + 1e-3 * np.arange(10)[:, None])
    graph = build_graph(cloud, 0.5, 1)
    assert graph.num_nodes == 2
    assert graph.edges.shape[0] == 0
    # brute-force nearest-node oracle
    dists = np.linalg.norm(cloud.points[:, None] - graph.nodes[None], axis=2)
    np.testing.assert_array_equal(graph.point_to_nodes[:, 0], dists.argmin(axis=1))


def test_assign_k_two_links_each_point_pair():
    cloud = _random_cloud(1, 80, 0.5)
    graph = build_graph(cloud, 0.1, 2)
    if graph.num_nodes < 2:
        pytest.skip("degenerate sample")
    edge_set = {tuple(e) for e in graph.edges}
    for row in graph.point_to_nodes:
        u, v = sorted(int(j) for j in row)
        if u != v:
            assert (u, v) in edge_set


def test_edges_match_brute_force_co_assignment():
    cloud = _random_cloud(2, 150, 1.0)
    graph = build_graph(cloud, 0.25, 3)
    expect = set()
    for row in graph.point_to_nodes:
        uniq = sorted(set(int(j) for j in row))
        for a in range(len(uniq)):
            for b in range(a + 1, len(uniq)):
                expect.add((uniq[a], uniq[b]))
    got = {tuple(e) for e in graph.edges}
    assert got == expect
    # canonical ordering: u < v, lexicographically sorted, no duplicates
    assert (graph.edges[:, 0] < graph.edges[:, 1]).all()
    as_list = [tuple(e) for e in graph.edges]
    assert as_list == sorted(as_list)


@pytest.mark.parametrize("assign_k", [2, 3, 6])
def test_edges_equal_unique_sorted_node_pairs(assign_k):
    graph = build_graph(_random_cloud(4, 300, 1.0), 0.2, assign_k)
    order = graph.point_to_nodes
    pairs = np.concatenate([order[:, [a, b]] for a, b in combinations(range(order.shape[1]), 2)])
    want = np.unique(np.sort(pairs, axis=1), axis=0)
    assert len(want) > graph.num_nodes
    assert graph.edges.dtype == np.int64
    np.testing.assert_array_equal(graph.edges, want)


def _skin(point, nodes, bandwidth):
    """One point's skinning weights over every node, by node index, from
    assign_points (which returns them in ascending-distance order)."""
    nodes = np.asarray(nodes, dtype=np.float64)
    order, weights = assign_points(np.asarray(point, dtype=np.float64)[None], nodes,
                                   nodes.shape[0], bandwidth)
    by_node = np.empty(nodes.shape[0])
    by_node[order[0]] = weights[0]
    return by_node


def test_skinning_single_node_weight_one():
    np.testing.assert_array_equal(_skin(np.zeros(3), np.array([[1.0, 0, 0]]), 0.08), [1.0])


def test_skinning_equidistant_nodes_split_evenly():
    nodes = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    np.testing.assert_allclose(_skin(np.zeros(3), nodes, 0.3), [0.5, 0.5], atol=1e-12)


def test_skinning_worked_example():
    # distance 0 to first node, one bandwidth to second:
    # exp(0) vs exp(-1/2), normalized
    bw = 0.08
    nodes = np.array([[0.0, 0, 0], [bw, 0, 0]])
    expect_hi = 1.0 / (1.0 + np.exp(-0.5))
    got = _skin(np.zeros(3), nodes, bw)
    np.testing.assert_allclose(got, [expect_hi, 1.0 - expect_hi], atol=1e-12)
    assert abs(got[0] - 0.6225) < 1e-4


def test_skinning_far_point_is_stable():
    # far from every node: raw exponents underflow, the shifted form must not
    nodes = np.array([[0.0, 0, 0], [0.01, 0, 0]])
    w = _skin(np.array([100.0, 0, 0]), nodes, 0.08)
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[1] > w[0]  # the node at x=0.01 is nearer


def test_bandwidth_rescale_keeps_argmax():
    rng = np.random.default_rng(4)
    nodes = rng.uniform(size=(6, 3))
    point = rng.uniform(size=3)
    winners = {int(np.argmax(_skin(point, nodes, bw))) for bw in (0.02, 0.08, 0.5, 3.0)}
    assert len(winners) == 1


def test_assignment_weights_sum_to_one():
    cloud = _random_cloud(6, 300, 1.0)
    graph = build_graph(cloud, 0.2, 6)
    np.testing.assert_allclose(graph.point_weights.sum(axis=1), 1.0, atol=1e-9)
    assert graph.point_weights.min() >= 0.0


def test_assignment_orders_by_distance():
    cloud = _random_cloud(8, 120, 1.0)
    graph = build_graph(cloud, 0.3, 4)
    dists = np.linalg.norm(cloud.points[:, None] - graph.nodes[None], axis=2)
    for i in range(graph.num_points):
        row = graph.point_to_nodes[i]
        got = dists[i, row]
        assert (np.diff(got) >= -1e-12).all()
        assert set(row) == set(np.argsort(dists[i], kind="stable")[: len(row)])


def test_fewer_nodes_than_k_assigns_all():
    cloud = PointCloud(np.array([[0.0, 0, 0], [0.02, 0, 0], [0.04, 0, 0]]))
    graph = build_graph(cloud, 1.0, 6)
    assert graph.num_nodes == 1
    assert graph.point_to_nodes.shape == (3, 1)


def test_transpose_relation():
    cloud = _random_cloud(10, 150, 1.0)
    graph = build_graph(cloud, 0.25, 3)
    for j, members in enumerate(graph.node_to_members):
        for i in members:
            assert j in graph.point_to_nodes[i]
    for i in range(graph.num_points):
        for j in graph.point_to_nodes[i]:
            assert i in graph.node_to_members[j]


def test_patch_weights_align_with_assignment():
    cloud = _random_cloud(12, 90, 1.0)
    graph = build_graph(cloud, 0.3, 3)
    for j, members, alpha in graph.patches:
        assert alpha.shape == members.shape
        for idx, i in enumerate(members):
            col = list(graph.point_to_nodes[i]).index(j)
            assert alpha[idx] == graph.point_weights[i, col]


def _patch_ids(graph):
    return [j for j, _, _ in graph.patches]


@pytest.mark.parametrize("assign_k", [1, 3, 6])
def test_patches_match_assignment_mask(assign_k):
    graph = build_graph(_random_cloud(22, 300, 1.0), 0.2, assign_k)
    owners = [j for j in range(graph.num_nodes) if (graph.point_to_nodes == j).any()]
    assert _patch_ids(graph) == owners
    for j, members, alpha in graph.patches:
        mask = graph.point_to_nodes == j
        assert members.dtype == np.int64
        assert members.tobytes() == np.flatnonzero(mask.any(axis=1)).tobytes()
        assert members.tobytes() == graph.node_to_members[j].tobytes()
        assert alpha.tobytes() == graph.point_weights[mask].tobytes()


def test_node_without_points_has_no_patch(tmp_path):
    graph = build_graph(_random_cloud(24, 150, 1.0), 0.25, 6)
    # one more node, far from every point: it owns none of them
    far = graph.nodes.max(axis=0) + 10.0
    wider = replace(graph, nodes=np.vstack([graph.nodes, far]))
    assert len(wider.node_to_members) == graph.num_nodes + 1
    assert wider.node_to_members[-1].size == 0
    assert _patch_ids(wider) == _patch_ids(graph)
    for (_, m0, a0), (_, m1, a1) in zip(graph.patches, wider.patches):
        assert m0.tobytes() == m1.tobytes() and a0.tobytes() == a1.tobytes()
    # a field read back from a file carries a node-only graph
    rot = np.broadcast_to(np.eye(3), (graph.num_nodes, 3, 3))
    write_warp_field(tmp_path / "warp.txt", WarpField(graph, rot, np.zeros((graph.num_nodes, 3))))
    nodes_only = read_warp_field(tmp_path / "warp.txt").graph
    assert [m.size for m in nodes_only.node_to_members] == [0] * graph.num_nodes
    assert nodes_only.patches == ()


def test_replace_rederives_the_patches():
    graph = build_graph(_random_cloud(26, 120, 1.0), 0.3, 3)
    half = replace(graph, point_to_nodes=graph.point_to_nodes[::2],
                   point_weights=graph.point_weights[::2])
    for j, members, alpha in half.patches:
        assert members.tobytes() == np.flatnonzero((half.point_to_nodes == j).any(axis=1)).tobytes()
        assert alpha.tobytes() == half.point_weights[half.point_to_nodes == j].tobytes()
    assert sum(m.size for m in half.node_to_members) == half.point_to_nodes.size
    with pytest.raises(ValueError):
        replace(graph, node_to_members=graph.node_to_members)


def _patch_derivations(tree, exempt_function=None):
    """Line numbers that read .node_to_members or argsort point_to_nodes,
    outside the named top-level function."""
    exempt = {id(n) for top in tree.body if isinstance(top, ast.FunctionDef)
              and top.name == exempt_function for n in ast.walk(top)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "node_to_members":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "argsort" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)) and any(
                "point_to_nodes" in (getattr(n, "attr", None), getattr(n, "id", None))
                for n in ast.walk(node)):
            lines.append(node.lineno)
    return lines


def test_only_defgraph_derives_node_patches():
    # aggregate, the blend's bitwise oracle, reads node_to_members on purpose
    exempt = {Path("scnet", "model.py"): "aggregate"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == Path("defgraph.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{rel}:{line}" for line in _patch_derivations(tree, exempt.get(rel))]
    assert offenders == []


def test_coverage_property_after_build():
    cloud = _random_cloud(14, 400, 1.0)
    coverage = 0.3
    graph = build_graph(cloud, coverage, 6)
    dists = np.linalg.norm(cloud.points[:, None] - graph.nodes[None], axis=2)
    assert dists.min(axis=1).max() <= coverage + 1e-12


def test_nodes_are_cloud_points():
    cloud = _random_cloud(16, 100, 1.0)
    graph = build_graph(cloud, 0.3, 4)
    is_row = (graph.nodes[:, None] == cloud.points[None]).all(axis=2)
    assert is_row.any(axis=1).all()


def test_build_rejects_bad_parameters():
    cloud = _random_cloud(18, 10, 1.0)
    with pytest.raises(ValidationError):
        build_graph(cloud, 0.0, 6)
    with pytest.raises(ValidationError):
        build_graph(cloud, 0.1, 0)
    # NaN coverage once built a graph whose warp was NaN at every point
    for coverage in (0.0, np.nan):
        with pytest.raises(ValidationError, match="coverage and assign_k must be positive"):
            replace(build_graph(cloud, 0.5, 6), coverage=coverage)


def _two_node_graph(weights):
    """A hand-built graph: one point assigned to two nodes with the given weights."""
    return DeformationGraph(
        nodes=np.array([[0.0, 0, 0], [1.0, 0, 0]]), coverage=0.5, assign_k=2,
        point_to_nodes=np.array([[0, 1]]), point_weights=np.array([weights]),
        edges=np.array([[0, 1]]))


@pytest.mark.parametrize("weights", [[1.0, np.nan], [np.nan, np.nan], [1.25, -0.25], [0.5, 0.6]])
def test_graph_rejects_bad_skinning_weights(weights):
    with pytest.raises(ValidationError, match="skinning weights"):
        _two_node_graph(weights)


def test_assign_points_matches_graph_assignment():
    cloud = _random_cloud(20, 60, 1.0)
    graph = build_graph(cloud, 0.3, 4)
    order, weights = assign_points(cloud.points, graph.nodes, graph.assign_k, graph.coverage)
    np.testing.assert_array_equal(order, graph.point_to_nodes)
    np.testing.assert_array_equal(weights, graph.point_weights)


def _stable_argsort_assignment(points, nodes, assign_k, bandwidth):
    """The reference rule: stable argsort of every row of the full N x V
    squared-distance matrix."""
    d2 = np.sum((points[:, None, :] - nodes[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :min(assign_k, nodes.shape[0])]
    weights = np.exp(-(np.take_along_axis(d2, order, axis=1)
                       - np.take_along_axis(d2, order[:, :1], axis=1))
                     / (2.0 * bandwidth * bandwidth))
    return order, weights / weights.sum(axis=1, keepdims=True)


def test_assign_points_exact_ties_go_to_lower_node_index():
    # the point sits at the center of a square of four nodes: every node is
    # at the same distance, so the two kept are the two lowest indices,
    # whichever candidates the partial selection happened to pick
    nodes = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                      [-1.0, -1.0, 0.0], [5.0, 0.0, 0.0]])
    order, weights = assign_points(np.zeros((1, 3)), nodes[::-1], 2, 1.0)
    np.testing.assert_array_equal(order, [[1, 2]])
    np.testing.assert_array_equal(weights, [[0.5, 0.5]])
    # tie straddling the cut: nodes 3 and 0 tie for the second slot
    nodes = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    order, _ = assign_points(np.zeros((1, 3)), nodes, 2, 1.0)
    np.testing.assert_array_equal(order, [[2, 0]])


@pytest.mark.parametrize("seed", range(6))
def test_assign_points_equals_stable_argsort(seed):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(1, 40))
    if seed % 2:
        # integer grid coordinates: many exact distance ties
        points = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
        nodes = rng.integers(0, 4, size=(v, 3)).astype(np.float64)
    else:
        points, nodes = rng.normal(size=(300, 3)), rng.normal(size=(v, 3))
    for k in (1, 3, 6, v + 2):
        order, weights = assign_points(points, nodes, k, 0.7)
        ref_order, ref_weights = _stable_argsort_assignment(points, nodes, k, 0.7)
        np.testing.assert_array_equal(order, ref_order)
        np.testing.assert_array_equal(weights, ref_weights)


def _two_lobe_cloud(n):
    spec = SceneSpec(point_count=n, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=1.0, inlier_noise_std=0.005, seed=1)
    return generate_scene(spec)[0].points


@pytest.mark.parametrize("case", ["dense", "grid"])
def test_assign_points_is_chunk_invariant(monkeypatch, case):
    """_ASSIGN_CHUNK_ENTRIES bounds both kernels' working set; the result
    does not depend on it."""
    rng = np.random.default_rng(30)
    if case == "dense":
        points, nodes, bandwidth = rng.normal(size=(500, 3)), rng.normal(size=(25, 3)), 0.5
    else:
        points, bandwidth = _two_lobe_cloud(1500), 0.03
        nodes = points[furthest_point_sample(points, bandwidth)]
    whole = assign_points(points, nodes, 6, bandwidth)
    monkeypatch.setattr(defgraph, "_ASSIGN_CHUNK_ENTRIES", 7 * 25)
    chunked = assign_points(points, nodes, 6, bandwidth)
    np.testing.assert_array_equal(whole[0], chunked[0])
    np.testing.assert_array_equal(whole[1], chunked[1])


def test_grid_certifies_nearly_every_point_of_the_graph_cloud():
    """With nodes sampled at the bandwidth, the block of cells around a
    cloud point holds its six nearest nodes for nearly every point, so the
    dense kernel sees only a few rows."""
    points = _two_lobe_cloud(2000)
    nodes = points[furthest_point_sample(points, 0.03)]
    order = np.empty((len(points), 6), dtype=np.int64)
    sel = np.empty((len(points), 6))
    rest = defgraph._grid_nearest_nodes(points, nodes, 6, defgraph._CELL_BANDWIDTHS * 0.03,
                                        order, sel)
    assert rest.size < 0.05 * len(points)
    ref_order, _ = _stable_argsort_assignment(points, nodes, 6, 0.03)
    done = np.setdiff1d(np.arange(len(points)), rest)
    np.testing.assert_array_equal(order[done], ref_order[done])


@st.composite
def _assignment_inputs(draw):
    """(points, nodes, assign_k, bandwidth) over the shapes the grid must
    get right or hand to the dense kernel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sampled", "random", "lattice", "duplicates", "faces", "far",
                                 "wide"]))
    n, v = draw(st.integers(1, 400)), draw(st.integers(1, 400))
    bandwidth = draw(st.sampled_from([0.02, 0.04, 0.08, 0.15, 0.3]))
    points, nodes = rng.random((n, 3)) * [1.0, 1.0, 0.2], rng.random((v, 3)) * [1.0, 1.0, 0.2]
    if kind == "sampled":
        # the graph's own cloud: nodes sampled at the bandwidth
        nodes = points[furthest_point_sample(points, bandwidth)]
    elif kind == "lattice":
        # coordinates on a lattice: many exact distance ties
        points, nodes = (rng.integers(0, 12, size=(m, 3)) / 12.0 for m in (n, v))
    elif kind == "duplicates":
        nodes = nodes[rng.integers(0, v, size=v)]
        points = np.concatenate([points, nodes])[rng.integers(0, n + v, size=n)]
    elif kind == "faces":
        # coordinates on the cell faces of the grid anchored at the lowest node
        cell = defgraph._CELL_BANDWIDTHS * bandwidth
        faces = nodes.min(axis=0) + rng.integers(-2, int(1.0 / cell) + 3, size=(n, 3)) * cell
        points = np.where(rng.random((n, 3)) < 0.6, faces, points)
    elif kind == "far":
        # correspondence sources need not be cloud points: some lie 1e3
        # bandwidths from every node
        away = rng.normal(size=(n, 3))
        away *= 1e3 * bandwidth / np.linalg.norm(away, axis=1, keepdims=True)
        points = np.where(rng.random((n, 1)) < 0.5, points + away, points)
    elif kind == "wide":
        # one node 1e8 bandwidths away: more cells on an axis than the grid spans
        nodes[-1] += 1e8 * bandwidth
    v = len(nodes)
    assign_k = draw(st.sampled_from([1, 3, 6, 6, 6, v, v + 2]))
    # a power of two keeps lattice ties exact. 2**-20 is about 1e-6; from
    # about 2**497 up (1e150) the cells are too wide for the grid
    scale = 2.0 ** draw(st.integers(-20, 500))
    return points * scale, nodes * scale, assign_k, bandwidth * scale


@settings(max_examples=400)
@given(_assignment_inputs())
def test_assign_points_equals_stable_argsort_property(inputs):
    points, nodes, assign_k, bandwidth = inputs
    order, weights = assign_points(points, nodes, assign_k, bandwidth)
    ref_order, ref_weights = _stable_argsort_assignment(points, nodes, assign_k, bandwidth)
    assert order.tobytes() == ref_order.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("cloud, coverage", [("two-lobe", 0.03), ("two-lobe", 0.015),
                                              ("slab", 0.01)])
def test_assign_points_memory_is_linear_in_points(traced_peak, cloud, coverage):
    """One chunk of either kernel plus a few arrays per point and per cell:
    the traced peak grows with N, not with N * V (a dense N x V array of
    distances alone would be 8 * N * V bytes)."""
    n = 10000
    if cloud == "two-lobe":
        points = _two_lobe_cloud(n)
    else:
        points = np.random.default_rng(0).random((n, 3)) * [1.0, 1.0, 0.05]
    nodes = points[furthest_point_sample(points, coverage)]
    v = len(nodes)
    assert v > {0.03: 200, 0.015: 800, 0.01: 5000}[coverage]
    peak = traced_peak(lambda: assign_points(points, nodes, 6, coverage))
    assert peak <= 6 * 8 * defgraph._ASSIGN_CHUNK_ENTRIES + 700 * n


def test_assign_points_memory_at_the_solver_benchmark_size(traced_peak):
    """N = 2000, V = 225: the dense kernel peaked at 8.1 MB here."""
    points = _two_lobe_cloud(2000)
    nodes = points[furthest_point_sample(points, 0.03)]
    assert 200 < len(nodes) < 250
    assert traced_peak(lambda: assign_points(points, nodes, 6, 0.03)) <= 3e6


@pytest.mark.parametrize("bandwidth", [0.0, -0.5, np.nan, 1e-200, 1e-163])
def test_assign_points_rejects_a_bandwidth_without_weights(bandwidth):
    # 2 * bandwidth**2 is 0.0 for bandwidths up to about 1e-162
    with pytest.raises(ValidationError,
                       match=re.escape(f"skinning bandwidth {float(bandwidth)!r} must be")):
        assign_points(np.zeros((2, 3)), np.ones((1, 3)), 6, bandwidth)


def test_warp_field_with_underflowing_coverage_names_the_bandwidth(tmp_path):
    """A warp.txt whose coverage squares to 0 loads, and its warp raises
    rather than returning NaN points."""
    graph = build_graph(_random_cloud(31, 40), 0.3, 4)
    rot = np.broadcast_to(np.eye(3), (graph.num_nodes, 3, 3))
    write_warp_field(tmp_path / "warp.txt", WarpField(graph, rot, np.zeros((graph.num_nodes, 3))))
    text = (tmp_path / "warp.txt").read_text()
    assert " coverage 0.3 " in text
    (tmp_path / "warp.txt").write_text(text.replace(" coverage 0.3 ", " coverage 1e-200 ", 1))
    field = read_warp_field(tmp_path / "warp.txt")
    assert field.graph.coverage == 1e-200
    with pytest.raises(ValidationError, match="node assignment: skinning bandwidth 1e-200"):
        field.warp(graph.nodes)


def test_huge_coverage_builds_one_node_and_overflow_raises():
    # a coverage whose square overflows covers everything with one node
    graph = build_graph(_random_cloud(23, 20), 1e160, 6)
    assert graph.num_nodes == 1
    np.testing.assert_array_equal(graph.point_weights, 1.0)
    # a point whose squared distance to that node overflows has no weights
    with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="point 1's squared distance to its nearest node overflows"):
        build_graph(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]), 1e200, 6)


def test_graph_dump_mentions_every_record():
    cloud = _random_cloud(22, 40, 0.5)
    graph = build_graph(cloud, 0.2, 2)
    dump = format_graph_dump(graph)
    lines = dump.strip().split("\n")
    assert lines[0].startswith("# deformation-graph nodes=")
    assert sum(1 for ln in lines if ln.startswith("node ")) == graph.num_nodes
    assert sum(1 for ln in lines if ln.startswith("assign ")) == graph.num_points
    assert sum(1 for ln in lines if ln.startswith("edge ")) == graph.edges.shape[0]
