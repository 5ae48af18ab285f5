"""Acceptance gate: the eight headline correctness and budget checks.

Each test prints one PASS line with its measured numbers (visible under
pytest -s or on failure) and enforces the stated tolerance and runtime.
"""

import time

import numpy as np
import pytest

from defreg.cli import main
from defreg.consistency import CorrespondenceSet, local_consistency, pairwise_consistency
from defreg.defgraph import build_graph
from defreg.evalmetrics import classification_metrics, registration_metrics
from defreg.geometry import PointCloud, exp_so3
from defreg.nicp import SolverConfig, WarpField, jacobian, residuals, solve
from defreg.scnet.layers import softmax_rows
from defreg.scnet.model import ScNetConfig, ScNetModel, classify, run_forward
from defreg.synth import SceneSpec, generate_scene
from defreg.training import TrainConfig, focal_loss, gradient_check, prepare_scene, train


def test_accept_1_training_gradient_fidelity():
    start = time.perf_counter()
    err = gradient_check(0)
    elapsed = time.perf_counter() - start
    assert err < 1e-4
    assert elapsed < 10.0
    print(f"[1] PASS training gradients: max relative error {err:.3e} "
          f"(< 1e-4) in {elapsed:.2f} s (< 10 s)")


def test_accept_2_solver_jacobian_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    src = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.15, 0.1, 0.0]])
    tgt = src + rng.normal(scale=0.05, size=src.shape)
    corr = CorrespondenceSet(src, tgt)
    graph = build_graph(src, 0.2, 2)
    assert graph.num_nodes == 2 and graph.edges.shape[0] == 1
    rot = np.stack([exp_so3(rng.normal(scale=0.3, size=3)) for _ in range(2)])
    tra = rng.normal(scale=0.05, size=(2, 3))
    field = WarpField(graph, rot, tra)
    cfg = SolverConfig()
    jac = jacobian(field, corr, graph.edges, cfg)

    h = 1e-6

    def perturbed(delta):
        rots = np.stack([exp_so3(delta[3 * j:3 * j + 3]) @ field.rotations[j] for j in range(2)])
        tras = field.translations + delta[6:].reshape(2, 3)
        return residuals(WarpField(graph, rots, tras), corr, graph.edges, cfg)

    fd = np.zeros_like(jac)
    for col in range(12):
        d = np.zeros(12)
        d[col] = h
        fd[:, col] = (perturbed(d) - perturbed(-d)) / (2 * h)
    rel = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
    trans_abs = np.abs(jac[:, 6:] - fd[:, 6:]).max()
    elapsed = time.perf_counter() - start
    assert rel < 1e-5
    assert trans_abs < 1e-9
    assert elapsed < 1.0
    print(f"[2] PASS solver Jacobian: relative error {rel:.3e} (< 1e-5), "
          f"translation columns {trans_abs:.3e} (< 1e-9) in {elapsed:.2f} s (< 1 s)")


def test_accept_3_rigid_recovery():
    start = time.perf_counter()
    spec = SceneSpec(point_count=500, surface="plane-grid", warp_kind="global-rigid",
                     warp_magnitude=(np.deg2rad(10.0), 0.1), inlier_ratio=1.0,
                     inlier_noise_std=0.0, seed=3)
    src, _, gt, corr = generate_scene(spec)
    result = solve(corr, src, SolverConfig())
    epe = registration_metrics(src, result.field, gt).epe
    trace = np.array(result.cost_trace)
    elapsed = time.perf_counter() - start
    assert epe < 1e-4
    assert len(trace) - 1 <= 50
    assert (np.diff(trace) <= 0).all()
    assert elapsed < 5.0
    print(f"[3] PASS rigid recovery: EPE {epe:.3e} m (< 1e-4) in "
          f"{len(trace) - 1} iterations, non-increasing trace, {elapsed:.2f} s (< 5 s)")


def test_accept_4_consistency_oracle():
    # node-assembled blocks must equal the direct pairwise formula bitwise
    spec = SceneSpec(point_count=180, surface="two-lobe", warp_kind="smooth-graph",
                     warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                     inlier_noise_std=0.005, seed=7)
    _, _, _, corr = generate_scene(spec)
    assert len(corr) <= 200
    graph = build_graph(corr.source, 0.08, 6)
    theta = local_consistency(corr, graph, 0.08)
    checked = 0
    for node, block in theta.blocks.items():
        members = graph.node_to_members[node]
        for a in range(members.size):
            for b in range(members.size):
                ia, ib = members[a], members[b]
                direct = pairwise_consistency((corr.source[ia], corr.target[ia]),
                                              (corr.source[ib], corr.target[ib]), 0.08)
                assert block[a, b] == direct
                checked += 1

    # rigid scenes: distance preservation puts every inlier pair at 1
    rigid = SceneSpec(point_count=180, surface="plane-grid", warp_kind="global-rigid",
                      warp_magnitude=(0.3, 0.1), inlier_ratio=0.6,
                      inlier_noise_std=0.0, seed=3)
    _, _, _, rcorr = generate_scene(rigid)
    rgraph = build_graph(rcorr.source, 0.08, 6)
    rtheta = local_consistency(rcorr, rgraph, 0.08)
    worst = 0.0
    for node, block in rtheta.blocks.items():
        members = rgraph.node_to_members[node]
        inl = np.where(rcorr.labels[members] == 1)[0]
        if inl.size:
            worst = max(worst, float(np.abs(block[np.ix_(inl, inl)] - 1.0).max()))
    assert worst < 1e-9
    print(f"[4] PASS consistency oracle: {checked} block entries bitwise-equal to the "
          f"pairwise formula; rigid inlier deviation {worst:.2e} (< 1e-9)")


def test_accept_5_pruning_improves_precision_and_registration():
    start = time.perf_counter()

    def scene_spec(seed):
        return SceneSpec(point_count=240, surface="plane-grid", warp_kind="smooth-graph",
                         warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                         inlier_noise_std=0.005, seed=seed)

    dataset = []
    for seed in range(1000, 1200):
        _, _, _, corr = generate_scene(scene_spec(seed))
        dataset.append(prepare_scene(corr, 0.08, 6, 0.08))

    model = ScNetModel(ScNetConfig(feature_dim=32, num_blocks=1, units_per_block=2,
                                   num_groups=2, seed=0))
    train(model, dataset, TrainConfig(epochs=10, learning_rate=3e-3))

    precision_wins = 0
    epe_wins = 0
    solver = SolverConfig()
    for seed in range(5000, 5030):
        src, _, gt, corr = generate_scene(scene_spec(seed))
        graph = build_graph(corr.source, 0.08, 6)
        theta = local_consistency(corr, graph, 0.08)
        scores = run_forward(model, corr, graph, theta).scores
        keep = classify(scores, 0.4)
        precision, _ = classification_metrics(keep, corr.labels)
        if precision > float(corr.labels.mean()):
            precision_wins += 1
        epe_pruned = registration_metrics(src, solve(corr.take(keep), src, solver).field, gt).epe
        epe_full = registration_metrics(src, solve(corr, src, solver).field, gt).epe
        if epe_pruned < epe_full:
            epe_wins += 1

    elapsed = time.perf_counter() - start
    assert precision_wins >= 27
    assert epe_wins >= 27
    assert elapsed < 900.0
    print(f"[5] PASS pruning direction: precision beats the raw inlier ratio on "
          f"{precision_wins}/30 held-out scenes (>= 27), pruned registration EPE lower on "
          f"{epe_wins}/30 (>= 27), {elapsed:.0f} s (< 900 s)")


def test_accept_6_metric_worked_examples():
    # source points with y = 0 so the constructed 3 cm error is float-exact
    rng = np.random.default_rng(0)
    pts = rng.random((40, 3))
    pts[:, 1] = 0.0
    cloud = PointCloud(pts)
    node = np.zeros((1, 3))

    def field(shift):
        graph = build_graph(node, 1.0, 6)
        return WarpField(graph, np.eye(3)[None], np.asarray(shift, dtype=np.float64)[None])

    perfect = registration_metrics(cloud, field([0.2, 0.0, 0.1]), field([0.2, 0.0, 0.1]))
    assert (perfect.epe, perfect.acc_s, perfect.acc_r, perfect.outlier_ratio) == (0.0, 1.0, 1.0, 0.0)

    relative = registration_metrics(cloud, field([10.0, 0.03, 0.0]), field([10.0, 0.0, 0.0]))
    assert relative.epe == 0.03
    assert (relative.acc_s, relative.acc_r, relative.outlier_ratio) == (1.0, 1.0, 0.0)

    outlier = registration_metrics(cloud, field([0.06, 0.03, 0.0]), field([0.06, 0.0, 0.0]))
    assert outlier.epe == 0.03
    assert (outlier.acc_s, outlier.acc_r, outlier.outlier_ratio) == (0.0, 1.0, 1.0)
    print("[6] PASS metric worked examples: perfect estimate (0, 1, 1, 0); 3 cm error on "
          "10 m motion accepted via the relative branch; 50% relative error flagged as outlier")


def test_accept_7_pipeline_determinism(tmp_path):
    import json

    spec = {"point_count": 60, "surface": "plane-grid", "warp_kind": "smooth-graph",
            "warp_magnitude": [0.2, 0.05], "inlier_ratio": 0.5,
            "inlier_noise_std": 0.005, "seed": 0}
    config = {"feature_dim": 16, "num_blocks": 1, "units_per_block": 1,
              "num_groups": 2, "epochs": 5, "learning_rate": 3e-3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec) + "\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config) + "\n")

    def run(out_dir):
        out_dir.mkdir()
        data = out_dir / "data"
        for i in range(2):
            assert main(["--seed", str(300 + i), "synth", str(spec_path),
                         "--out", str(data / f"scene{i}")]) == 0
        model = out_dir / "model.bin"
        assert main(["--config", str(config_path), "train", "--data", str(data),
                     "--out", str(model)]) == 0
        pruned = out_dir / "pruned.csv"
        assert main(["--config", str(config_path), "prune",
                     "--corr", str(data / "scene0" / "corr.csv"),
                     "--model", str(model), "--out", str(pruned),
                     "--scores", str(out_dir / "scores.csv")]) == 0
        warp = out_dir / "warp.txt"
        assert main(["--config", str(config_path), "register", "--corr", str(pruned),
                     "--source", str(data / "scene0" / "source.ply"), "--out", str(warp),
                     "--warped", str(out_dir / "warped.ply"),
                     "--trace", str(out_dir / "trace.csv")]) == 0
        return out_dir

    a = run(tmp_path / "run-a")
    b = run(tmp_path / "run-b")
    compared = []
    for rel in ("data/scene0/corr.csv", "data/scene1/corr.csv", "model.bin",
                "pruned.csv", "scores.csv", "warp.txt", "trace.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
        compared.append(rel)
    print(f"[7] PASS determinism: {', '.join(compared)} byte-identical across "
          "two independent pipeline runs")


def test_accept_8_degeneracy_suite():
    start = time.perf_counter()

    # focusing exponent 0 reduces the focal loss to plain cross-entropy
    scores = np.linspace(0.02, 0.98, 25)
    for label in (0, 1):
        bce = -label * np.log(scores) - (1 - label) * np.log(1.0 - scores)
        np.testing.assert_allclose(focal_loss(scores, label, 0.0), bce, atol=1e-12)

    # zero axis-angle is the identity rotation
    np.testing.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))

    # skinning weights are a convex combination
    rng = np.random.default_rng(2)
    graph = build_graph(rng.random((120, 3)) * 0.3, 0.08, 6)
    np.testing.assert_allclose(graph.point_weights.sum(axis=1), 1.0, atol=1e-9)

    # a one-element attention row is a certainty
    np.testing.assert_array_equal(softmax_rows(np.array([[3.7]])), [[1.0]])

    # nodes that own no correspondences are skipped, not scored
    src = np.array([[0.0, 0, 0], [0.01, 0, 0]])
    corr = CorrespondenceSet(src, src)
    sparse_graph = build_graph(src, 0.001, 1)
    theta = local_consistency(corr, sparse_graph, 0.08)
    assert set(theta.blocks) == {
        j for j in range(sparse_graph.num_nodes) if sparse_graph.node_to_members[j].size
    }

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[8] PASS degeneracy suite: focal(0) == cross-entropy, identity rotation, "
          f"convex skinning, singleton attention, empty-node skip in {elapsed:.2f} s (< 5 s)")
