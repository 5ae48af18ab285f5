"""Point clouds, rotation helpers and furthest point sampling."""

from itertools import permutations

import numpy as np
import pytest

from defreg.errors import ValidationError
from defreg.geometry import (
    PointCloud,
    exp_so3,
    furthest_point_sample,
    log_so3,
    project_rotation,
    skew,
)


def test_exp_so3_zero_is_identity():
    np.testing.assert_array_equal(exp_so3(np.zeros(3)), np.eye(3))


def test_exp_so3_quarter_turn_about_z():
    rot = exp_so3([0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_exp_so3_half_turn_about_x():
    rot = exp_so3([np.pi, 0.0, 0.0])
    np.testing.assert_allclose(rot @ [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)


def test_exp_so3_is_isometry_on_random_input():
    rng = np.random.default_rng(3)
    for _ in range(50):
        omega = rng.normal(size=3) * rng.uniform(0.0, 4.0)
        rot = exp_so3(omega)
        x = rng.normal(size=3)
        assert abs(np.linalg.norm(rot @ x) - np.linalg.norm(x)) < 1e-9
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_log_exp_round_trip():
    rng = np.random.default_rng(7)
    for scale in (1e-8, 0.1, 1.0, 3.0):
        omega = rng.normal(size=3)
        omega *= scale / np.linalg.norm(omega)
        np.testing.assert_allclose(log_so3(exp_so3(omega)), omega, atol=1e-7)


def test_log_so3_near_pi():
    omega = np.array([0.0, np.pi - 1e-4, 0.0])
    back = log_so3(exp_so3(omega))
    np.testing.assert_allclose(back, omega, atol=1e-6)


def test_exp_log_round_trip_is_exact_up_to_near_pi():
    # the angle comes from atan2, not arccos of the trace, so no digits are
    # lost at small angles or approaching the near-pi branch's cut-off
    rng = np.random.default_rng(12)
    angles = np.concatenate([[1e-7, 1e-4, 0.5, 3.0, np.pi - 1e-2, np.pi - 1e-3],
                             rng.uniform(0.0, np.pi - 1e-3, size=200)])
    for angle in angles:
        axis = rng.normal(size=3)
        rot = exp_so3(angle * axis / np.linalg.norm(axis))
        assert np.abs(exp_so3(log_so3(rot)) - rot).max() < 1e-12, angle


def test_rotation_helpers_on_stacks_match_single_calls():
    rng = np.random.default_rng(13)
    omegas = rng.normal(size=(40, 3)) * rng.choice([0.0, 1e-9, 1e-3, 1.0, 3.0], size=(40, 1))
    mats = rng.normal(size=(40, 3, 3))
    np.testing.assert_array_equal(skew(omegas), np.stack([skew(w) for w in omegas]))
    np.testing.assert_array_equal(exp_so3(omegas), np.stack([exp_so3(w) for w in omegas]))
    stacked = project_rotation(mats)
    np.testing.assert_array_equal(stacked, np.stack([project_rotation(m) for m in mats]))
    assert (np.linalg.det(stacked) > 0).all()


def test_skew_zero_and_cross_product():
    np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))
    np.testing.assert_array_equal(skew([1.0, 0.0, 0.0]) @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        v, w = rng.normal(size=(2, 3))
        np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-12)


def test_project_rotation_restores_orthonormality():
    rng = np.random.default_rng(5)
    rot = exp_so3(rng.normal(size=3))
    drifted = rot + 1e-4 * rng.normal(size=(3, 3))
    fixed = project_rotation(drifted)
    np.testing.assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(fixed) - 1.0) < 1e-12
    assert np.abs(fixed - rot).max() < 1e-3


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValidationError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))


def test_point_cloud_is_immutable():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


@pytest.mark.parametrize("coverage", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_fps_rejects_coverage_that_is_not_finite_positive(coverage):
    cloud = PointCloud(np.random.default_rng(0).random((240, 3)))
    with pytest.raises(ValidationError, match="coverage"):
        furthest_point_sample(cloud, coverage)


def test_fps_single_point():
    assert list(furthest_point_sample(PointCloud(np.zeros((1, 3))), 0.5)) == [0]


def test_fps_hand_traced_line():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
    nodes = furthest_point_sample(cloud, 0.6)
    assert list(nodes) == [0, 2, 1]


def test_fps_stops_when_coverage_met():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(-0.01, 0.01, size=(20, 3)))
    assert list(furthest_point_sample(cloud, 0.5)) == [0]


def test_fps_coverage_property():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(300, 3)))
    coverage = 0.25
    nodes = furthest_point_sample(cloud, coverage)
    node_pts = cloud.points[nodes]
    dists = np.linalg.norm(cloud.points[:, None] - node_pts[None], axis=2)
    assert dists.min(axis=1).max() <= coverage + 1e-12


def test_fps_tie_breaks_to_first_occurrence():
    # both endpoints are equally far from the start; first occurrence wins
    cloud = PointCloud(np.array([[0.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]]))
    nodes = furthest_point_sample(cloud, 0.6)
    assert nodes[1] == 1


def _fps_reference(points, coverage):
    """Furthest point sampling on np.sum's squared distances."""
    selected = [0]
    dist2 = np.sum((points - points[0]) ** 2, axis=1)
    while dist2.max() > coverage * coverage:
        selected.append(int(np.argmax(dist2)))
        dist2 = np.minimum(dist2, np.sum((points - points[selected[-1]]) ** 2, axis=1))
    return selected


def test_fps_selection_matches_summed_reference_with_ties():
    # from the origin, the six orderings of a triple are equidistant, and
    # summing their squares in another order than x, y, z changes which one
    # rounds farthest; a lattice and repeated rows add exact ties and
    # duplicate points, which the first maximum must break
    triples = np.random.default_rng(5).random((30, 3))
    orderings = triples[:, list(permutations(range(3)))].reshape(-1, 3)
    ax = np.arange(6) * 0.1
    lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    points = np.concatenate([np.zeros((1, 3)), orderings, lattice, lattice[::7]])
    for coverage in (0.05, 0.15, 0.6):
        nodes = furthest_point_sample(PointCloud(points), coverage)
        assert list(nodes) == _fps_reference(points, coverage)
