"""Pairwise and per-node spatial consistency, plus correspondence CSV I/O."""

import numpy as np
import pytest

from defreg import consistency
from defreg.consistency import (
    CorrespondenceSet,
    local_consistency,
    pairwise_consistency,
    read_corr_csv,
    write_corr_csv,
)
from defreg.defgraph import build_graph
from defreg.errors import FileFormatError, ValidationError
from defreg.geometry import exp_so3
from defreg.synth import SceneSpec, generate_scene


def _pair(x_dist, y_dist):
    ci = (np.zeros(3), np.zeros(3))
    cj = (np.array([x_dist, 0.0, 0.0]), np.array([y_dist, 0.0, 0.0]))
    return ci, cj


def test_pairwise_identical_is_one():
    ci, cj = _pair(0.7, 0.7)
    assert pairwise_consistency(ci, cj, 0.08) == 1.0


def test_pairwise_clamp_boundary():
    ci, cj = _pair(1.0, 1.0 + 0.08)
    assert pairwise_consistency(ci, cj, 0.08) == 0.0
    ci, cj = _pair(1.0, 1.5)
    assert pairwise_consistency(ci, cj, 0.08) == 0.0


def test_pairwise_worked_value():
    ci, cj = _pair(1.00, 1.04)
    assert abs(pairwise_consistency(ci, cj, 0.08) - 0.75) < 1e-12


def test_pairwise_rejects_bad_sigma():
    ci, cj = _pair(1.0, 1.0)
    for sigma_d in (0.0, np.nan):
        with pytest.raises(ValidationError, match="sigma_d must be positive"):
            pairwise_consistency(ci, cj, sigma_d)


def test_local_consistency_rejects_bad_sigma():
    # NaN once passed the check and raised an overflow NumericalError
    src = np.zeros((3, 3)) + np.arange(3)[:, None] * 0.01
    graph = build_graph(src, 0.25, 2)
    for sigma_d in (0.0, -1.0, np.nan):
        with pytest.raises(ValidationError, match="sigma_d must be positive"):
            local_consistency(CorrespondenceSet(src, src), graph, sigma_d)


def test_single_correspondence_single_node():
    corr = CorrespondenceSet(np.array([[0.1, 0.2, 0.3]]), np.array([[0.4, 0.5, 0.6]]))
    graph = build_graph(corr.source, 1.0, 6)
    local = local_consistency(corr, graph, 0.08, dtype=np.float64)
    assert set(local.blocks) == {0}
    assert local.blocks[0].dtype == np.float64
    np.testing.assert_array_equal(local.blocks[0], [[1.0]])


def test_blocks_match_scalar_pairwise_bitwise():
    rng = np.random.default_rng(0)
    src = rng.uniform(size=(12, 3)) * 0.2
    tgt = src + rng.normal(scale=0.05, size=(12, 3))
    corr = CorrespondenceSet(src, tgt)
    graph = build_graph(src, 0.15, 3)
    local = local_consistency(corr, graph, 0.08, dtype=np.float64)
    for j, block in local.blocks.items():
        assert block.dtype == np.float64  # a float32 block would compare in float32
        members = graph.node_to_members[j]
        for a, ia in enumerate(members):
            for b, ib in enumerate(members):
                direct = pairwise_consistency(
                    (src[ia], tgt[ia]), (src[ib], tgt[ib]), 0.08
                )
                assert block[a, b] == direct  # same elementary operations


def test_blocks_are_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    src = rng.uniform(size=(30, 3)) * 0.3
    corr = CorrespondenceSet(src, src + rng.normal(scale=0.02, size=src.shape))
    graph = build_graph(src, 0.2, 4)
    local = local_consistency(corr, graph, 0.08, dtype=np.float64)
    for block in local.blocks.values():
        assert block.dtype == np.float64  # float32 rounding could hide an asymmetry
        np.testing.assert_array_equal(block, block.T)
        np.testing.assert_array_equal(np.diag(block), np.ones(block.shape[0]))
        assert block.min() >= 0.0 and block.max() <= 1.0


def test_rigid_motion_gives_unit_consistency():
    rng = np.random.default_rng(2)
    src = rng.uniform(size=(40, 3))
    rot = exp_so3([0.2, -0.1, 0.4])
    tgt = src @ rot.T + np.array([0.3, -0.2, 0.1])
    corr = CorrespondenceSet(src, tgt)
    graph = build_graph(src, 0.4, 4)
    local = local_consistency(corr, graph, 0.08, dtype=np.float64)
    for block in local.blocks.values():
        assert block.dtype == np.float64  # float32 spacing near 1 is 6e-8, above atol
        np.testing.assert_allclose(block, 1.0, atol=1e-9)


def test_disjoint_nodes_share_no_block():
    # two tight clusters far apart, one node each with assign_k=1
    src = np.vstack([np.zeros((3, 3)), np.full((3, 3), 5.0)]) + 0.01 * np.arange(6)[:, None]
    corr = CorrespondenceSet(src, src)
    graph = build_graph(src, 1.0, 1)
    assert graph.num_nodes == 2
    local = local_consistency(corr, graph, 0.08)
    seen = [set(graph.node_to_members[j]) for j in sorted(local.blocks)]
    assert seen[0] & seen[1] == set()
    assert seen[0] | seen[1] == set(range(6))


def test_empty_node_is_skipped():
    # hand-build a graph whose second node owns no points
    src = np.array([[0.0, 0, 0], [0.01, 0, 0]])
    corr = CorrespondenceSet(src, src)
    graph = build_graph(src, 0.001, 1)
    assert graph.num_nodes == 2
    base = local_consistency(corr, graph, 0.08)
    assert set(base.blocks) == {j for j in range(2) if graph.node_to_members[j].size}


def test_count_mismatch_rejected():
    src = np.zeros((4, 3)) + np.arange(4)[:, None]
    graph = build_graph(src, 0.5, 2)
    corr = CorrespondenceSet(src[:3], src[:3])
    with pytest.raises(ValidationError, match="correspondences"):
        local_consistency(corr, graph, 0.08)


def test_local_consistency_rejects_a_non_float_dtype():
    src = np.zeros((3, 3)) + np.arange(3)[:, None] * 0.01
    corr = CorrespondenceSet(src, src)
    with pytest.raises(ValidationError, match="float32 or float64, not int64"):
        local_consistency(corr, build_graph(src, 0.25, 2), 0.08, dtype=np.int64)


def test_default_blocks_are_float32_and_built_within_their_own_bytes(traced_peak):
    """The prune scene's N = 2000: building theta holds the float32 blocks
    plus a few float64 row chunks, never a float64 block."""
    spec = SceneSpec(point_count=2000, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                     inlier_noise_std=0.005, seed=1000)
    corr = generate_scene(spec)[3]
    graph = build_graph(corr.source, 0.08, 6)
    built = []
    peak = traced_peak(lambda: built.append(local_consistency(corr, graph, 0.08)))
    blocks = built[0].blocks.values()
    assert all(block.dtype == np.float32 for block in blocks)
    assert peak <= 4 * sum(block.size for block in blocks) + 1e6


def _labeled_corr(seed=4, n=9):
    rng = np.random.default_rng(seed)
    src = rng.uniform(size=(n, 3))
    tgt = rng.uniform(size=(n, 3))
    labels = rng.integers(0, 2, size=n)
    scores = rng.uniform(size=n)
    return CorrespondenceSet(src, tgt, labels, scores)


def test_corr_csv_round_trip_with_labels_and_scores(tmp_path):
    corr = _labeled_corr()
    path = tmp_path / "c.csv"
    write_corr_csv(path, corr)
    back = read_corr_csv(path)
    np.testing.assert_array_equal(back.source, corr.source)
    np.testing.assert_array_equal(back.target, corr.target)
    np.testing.assert_array_equal(back.labels, corr.labels)
    np.testing.assert_array_equal(back.scores, corr.scores)


def test_corr_csv_round_trip_bare(tmp_path):
    corr = CorrespondenceSet(np.zeros((2, 3)), np.ones((2, 3)))
    path = tmp_path / "bare.csv"
    write_corr_csv(path, corr)
    back = read_corr_csv(path)
    assert back.labels is None and back.scores is None
    np.testing.assert_array_equal(back.target, corr.target)


def test_corr_csv_rewrite_byte_identical(tmp_path):
    corr = _labeled_corr(7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_corr_csv(p1, corr)
    write_corr_csv(p2, read_corr_csv(p1))
    assert p1.read_bytes() == p2.read_bytes()


_HEADER = "src_x,src_y,src_z,tgt_x,tgt_y,tgt_z"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus,header\n1,2\n", "header"),
        (_HEADER + "\n", "no correspondence rows"),
        (_HEADER + "\n1,2,3,4,5\n", "bad.csv:2: expected 6 fields, got 5"),
        (_HEADER + "\n1,2,3,4,5,spam\n", "bad.csv:2: non-numeric value 'spam'"),
        (_HEADER + "\n1,2,3,4,5,inf\n", "finite"),
        (_HEADER + ",label\n1,2,3,4,5,6,7\n", "label"),
        (_HEADER + ",bogus\n1,2,3,4,5,6,7\n", "unexpected correspondence columns"),
        (_HEADER + "\n1,2,3,4,5,6\n1,2,3,4,5,6\xe9\n", "bad.csv:3: non-ASCII byte"),
    ],
)
def test_corr_csv_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(FileFormatError, match=fragment):
        read_corr_csv(path)


def _chunk_rows(m, entries):
    # the row count of each upper-triangle chunk _block_consistency walks
    rows, a = [], 0
    while a < m:
        w = m - a
        rows.append(max(1, min(w, entries // w)))
        a += rows[-1]
    return rows


@pytest.mark.parametrize("m, dtype, entries, chunks", [
    (100, np.float32, None, "one"),
    (500, np.float32, None, "several"),
    (60, np.float32, 1, "single-row"),
    (500, np.float64, None, "several"),
], ids=["one-chunk", "several-chunks", "single-row-chunks", "float64"])
def test_block_consistency_matches_allocating_formula_bitwise(monkeypatch, m, dtype, entries, chunks):
    """The block built from its upper triangle in row chunks equals the
    (M, M, 3) difference formula in float64, rounded once to dtype, bit for
    bit, and is exactly symmetric."""
    if entries is not None:
        monkeypatch.setattr(consistency, "_CHUNK_ENTRIES", entries)
    rows = _chunk_rows(m, consistency._CHUNK_ENTRIES)
    assert {"one": rows == [m], "several": len(rows) > 1 and max(rows) > 1,
            "single-row": rows == [1] * m}[chunks]
    rng = np.random.default_rng(8)
    src = rng.uniform(-1.0, 1.0, size=(m, 3))
    tgt = src + rng.normal(scale=0.05, size=src.shape)
    sigma_d = 0.08

    def distances(p):
        return np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))

    delta = np.abs(distances(src) - distances(tgt))
    want = np.maximum(0.0, 1.0 - (delta * delta) / (sigma_d * sigma_d)).astype(dtype)
    got = consistency._block_consistency(src, tgt, sigma_d, dtype)
    assert got.dtype == dtype and 0.0 < got.mean() < 1.0
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, got.T)
