"""Synthetic scene generation: surfaces, warps, corruption, bundles."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from defreg.consistency import pairwise_consistency, read_corr_csv
from defreg.errors import FileFormatError, ValidationError, read_document
from defreg.geometry import log_so3
from defreg.nicp import read_warp_field
from defreg.pointcloud_io import read_ply
from defreg.synth import OUTLIER_MIN_RESIDUAL, SceneSpec, generate_scene, write_scene_bundle
from defreg.training import label_correspondences


def _spec(**kw):
    base = dict(point_count=120, surface="plane-grid", warp_kind="smooth-graph",
                warp_magnitude=(0.2, 0.05), inlier_ratio=0.5,
                inlier_noise_std=0.005, seed=0)
    base.update(kw)
    return SceneSpec(**base)


# ------------------------------------------------------------ bookkeeping

def test_inlier_count_is_exact():
    _, _, _, corr = generate_scene(_spec(point_count=100, inlier_ratio=0.5))
    assert int(corr.labels.sum()) == 50
    assert len(corr) == 100


def test_all_inliers_no_noise_are_exact_matches():
    src, target, gt, corr = generate_scene(_spec(inlier_ratio=1.0, inlier_noise_std=0.0))
    assert corr.labels.all()
    np.testing.assert_array_equal(corr.target, gt.warp(corr.source))
    np.testing.assert_array_equal(target.points, gt.warp(src.points))


def test_zero_ratio_gives_only_outliers():
    _, _, _, corr = generate_scene(_spec(inlier_ratio=0.0))
    assert not corr.labels.any()


def test_rigid_warp_keeps_inlier_consistency_at_one():
    # a rigid motion preserves distances, so every inlier pair scores 1
    spec = _spec(warp_kind="global-rigid", warp_magnitude=(0.3, 0.1),
                 inlier_ratio=0.6, inlier_noise_std=0.0, seed=3)
    _, _, _, corr = generate_scene(spec)
    inl = np.where(corr.labels == 1)[0]
    pairs = [(corr.source[i], corr.target[i]) for i in inl]
    scores = [
        pairwise_consistency(pairs[a], pairs[b], 0.08)
        for a in range(0, len(pairs), 7)
        for b in range(a + 1, len(pairs), 7)
    ]
    np.testing.assert_allclose(scores, 1.0, atol=1e-9)


def test_generation_is_bitwise_deterministic():
    spec = _spec(seed=17, inlier_ratio=0.4)
    a = generate_scene(spec)
    b = generate_scene(spec)
    np.testing.assert_array_equal(a[0].points, b[0].points)
    np.testing.assert_array_equal(a[1].points, b[1].points)
    np.testing.assert_array_equal(a[2].rotations, b[2].rotations)
    np.testing.assert_array_equal(a[2].translations, b[2].translations)
    np.testing.assert_array_equal(a[3].target, b[3].target)
    np.testing.assert_array_equal(a[3].labels, b[3].labels)


def test_different_seeds_differ():
    a = generate_scene(_spec(seed=0))
    b = generate_scene(_spec(seed=1))
    assert not np.array_equal(a[3].target, b[3].target)


def test_labels_agree_with_distance_labeling():
    # the injected labels must be recoverable by thresholding residuals
    # under the true warp, for any threshold between the noise ceiling
    # (5 sigma truncation) and the outlier floor
    src, _, gt, corr = generate_scene(_spec(seed=5))
    for tau in (0.026, 0.04, 0.119):
        np.testing.assert_array_equal(label_correspondences(corr, gt, tau), corr.labels)


def test_outliers_keep_minimum_residual():
    for mode in ("uniform-in-bbox", "shuffled-target"):
        spec = _spec(outlier_mode=mode, inlier_ratio=0.3, seed=8)
        _, _, gt, corr = generate_scene(spec)
        out = np.where(corr.labels == 0)[0]
        residual = np.linalg.norm(corr.target[out] - gt.warp(corr.source[out]), axis=1)
        assert residual.min() >= OUTLIER_MIN_RESIDUAL


def test_shuffled_outliers_are_target_points():
    spec = _spec(outlier_mode="shuffled-target", inlier_ratio=0.3, seed=9)
    _, target, _, corr = generate_scene(spec)
    out = np.where(corr.labels == 0)[0]
    for i in out:
        dists = np.linalg.norm(target.points - corr.target[i], axis=1)
        assert dists.min() == 0.0


# --------------------------------------------------------------- surfaces

def test_plane_grid_is_flat_and_bounded():
    src, _, _, _ = generate_scene(_spec(surface="plane-grid", point_count=173))
    pts = src.points
    assert pts.shape == (173, 3)
    np.testing.assert_array_equal(pts[:, 2], 0.0)
    assert pts[:, 0].min() >= -0.25 and pts[:, 0].max() <= 0.25
    assert pts[:, 1].min() >= -0.2 and pts[:, 1].max() <= 0.2


def test_cylinder_radius_and_height():
    src, _, _, _ = generate_scene(_spec(surface="cylinder", point_count=90))
    pts = src.points
    np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 0.1, atol=1e-12)
    assert pts[:, 2].min() >= -0.25 and pts[:, 2].max() <= 0.25


def test_two_lobe_points_sit_on_two_spheres():
    src, _, _, _ = generate_scene(_spec(surface="two-lobe", point_count=101))
    pts = src.points
    left = np.linalg.norm(pts - [-0.15, 0.0, 0.0], axis=1)
    right = np.linalg.norm(pts - [0.15, 0.0, 0.0], axis=1)
    on_sphere = np.minimum(np.abs(left - 0.12), np.abs(right - 0.12))
    np.testing.assert_allclose(on_sphere, 0.0, atol=1e-12)
    assert pts.shape[0] == 101


# ------------------------------------------------------------------ warps

def test_smooth_graph_rotations_bounded_by_magnitude():
    spec = _spec(warp_kind="smooth-graph", warp_magnitude=(0.25, 0.06), seed=2)
    _, _, gt, _ = generate_scene(spec)
    angles = [np.linalg.norm(log_so3(rot)) for rot in gt.rotations]
    assert max(angles) <= 0.25 + 1e-12
    assert np.linalg.norm(gt.translations, axis=1).max() <= 0.06 + 1e-12


def test_articulated_warp_has_two_rigid_parts():
    spec = _spec(surface="two-lobe", warp_kind="articulated-two-part",
                 warp_magnitude=(0.3, 0.05), seed=4)
    _, _, gt, _ = generate_scene(spec)
    distinct = []
    for rot in gt.rotations:
        if not any(np.allclose(rot, seen, atol=1e-12) for seen in distinct):
            distinct.append(rot)
    assert len(distinct) == 2


# ------------------------------------------------------------- validation

@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(point_count=0), "point_count"),
        (dict(surface="torus"), "surface must be one of"),
        (dict(warp_kind="twist"), "warp_kind must be one of"),
        (dict(outlier_mode="gaussian"), "outlier_mode must be one of"),
        (dict(warp_magnitude=(0.1, 0.2, 0.3)), "warp_magnitude"),
        (dict(warp_magnitude=-0.1), "warp_magnitude"),
        (dict(inlier_ratio=1.5), "inlier_ratio"),
        (dict(inlier_noise_std=-1e-3), "inlier_noise_std"),
    ],
)
def test_spec_validation_names_the_field(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        _spec(**kwargs)


def test_scalar_magnitude_expands_to_pair():
    spec = _spec(warp_magnitude=0.1)
    assert spec.warp_magnitude == (0.1, 0.1)


def test_spec_dict_round_trip(tmp_path):
    spec = _spec(seed=12, warp_magnitude=(0.15, 0.02))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(spec)))
    assert read_document(SceneSpec, path, "scene") == spec


def test_spec_rejects_unknown_key(tmp_path):
    data = asdict(_spec())
    data["wobble"] = 3
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="unknown scene key"):
        read_document(SceneSpec, path, "scene")


def test_spec_rejects_duplicate_key(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(_spec(seed=3)))[:-1] + ', "seed": 4}')
    with pytest.raises(ValidationError, match="duplicate scene key: seed$"):
        read_document(SceneSpec, path, "scene")


# ---------------------------------------------------------------- bundles

def test_scene_bundle_round_trip(tmp_path):
    spec = _spec(point_count=80, seed=21)
    src, target, gt, corr = generate_scene(spec)
    out = tmp_path / "scene"
    write_scene_bundle(out, spec, src, target, gt, corr)
    for name in ("source.ply", "target.ply", "corr.csv", "warp.txt", "spec.json"):
        assert (out / name).is_file()
    assert read_document(SceneSpec, out / "spec.json", "scene") == spec
    np.testing.assert_array_equal(read_ply(out / "source.ply").points, src.points)
    np.testing.assert_array_equal(read_ply(out / "target.ply").points, target.points)
    back = read_corr_csv(out / "corr.csv")
    np.testing.assert_array_equal(back.source, corr.source)
    np.testing.assert_array_equal(back.target, corr.target)
    np.testing.assert_array_equal(back.labels, corr.labels)
    warp = read_warp_field(out / "warp.txt")
    np.testing.assert_array_equal(warp.graph.nodes, gt.graph.nodes)
    np.testing.assert_allclose(warp.rotations, gt.rotations, atol=1e-12)
    np.testing.assert_array_equal(warp.translations, gt.translations)


def test_scene_bundle_rejects_bad_spec_json(tmp_path):
    spec = _spec(point_count=30)
    src, target, gt, corr = generate_scene(spec)
    out = tmp_path / "scene"
    write_scene_bundle(out, spec, src, target, gt, corr)
    (out / "spec.json").write_text("{not json")
    with pytest.raises(FileFormatError, match="bad scene file"):
        read_document(SceneSpec, out / "spec.json", "scene")
