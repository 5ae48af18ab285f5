"""Registration-quality and inlier-classification metrics."""

import numpy as np
import pytest

from defreg.defgraph import build_graph
from defreg.errors import ValidationError
from defreg.evalmetrics import (
    MetricsReport,
    classification_metrics,
    format_metrics_table,
    metrics_from_errors,
    registration_errors,
    registration_metrics,
    write_metrics_csv,
)
from defreg.geometry import PointCloud, exp_so3
from defreg.nicp import WarpField


def _translation_field(node, shift):
    graph = build_graph(np.asarray(node, dtype=np.float64).reshape(1, 3), 1.0, 6)
    return WarpField(graph, np.eye(3)[None], np.asarray(shift, dtype=np.float64)[None])


def _cloud(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, 3)))


# ------------------------------------------------------- registration side

def test_perfect_estimate_scores_perfectly():
    cloud = _cloud()
    gt = _translation_field([0.5, 0.5, 0.5], [0.2, -0.1, 0.05])
    rep = registration_metrics(cloud, gt, gt)
    assert rep.epe == 0.0
    assert rep.acc_s == 1.0
    assert rep.acc_r == 1.0
    assert rep.outlier_ratio == 0.0
    assert rep.point_count == len(cloud.points)


def test_large_motion_small_error_counts_via_relative_branch():
    # 10 m of true motion with a 3 cm estimate error: the absolute strict
    # threshold (2.5 cm) fails but the relative error is 0.3%
    cloud = _cloud(1)
    gt = _translation_field([0.0, 0.0, 0.0], [10.0, 0.0, 0.0])
    est = _translation_field([0.0, 0.0, 0.0], [10.0, 0.03, 0.0])
    rep = registration_metrics(cloud, est, gt)
    assert rep.epe == pytest.approx(0.03, abs=1e-12)
    assert rep.acc_s == 1.0
    assert rep.acc_r == 1.0
    assert rep.outlier_ratio == 0.0


def test_half_relative_error_is_an_outlier():
    # 6 cm of true motion estimated as 3 cm: relative error 50% > 30%
    cloud = _cloud(2)
    gt = _translation_field([0.0, 0.0, 0.0], [0.06, 0.0, 0.0])
    est = _translation_field([0.0, 0.0, 0.0], [0.03, 0.0, 0.0])
    rep = registration_metrics(cloud, est, gt)
    assert rep.epe == pytest.approx(0.03, abs=1e-12)
    assert rep.acc_s == 0.0
    assert rep.acc_r == 1.0  # absolute relaxed branch: 3 cm < 5 cm
    assert rep.outlier_ratio == 1.0


def test_static_points_use_absolute_branch_only():
    cloud = _cloud(3)
    gt = _translation_field([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    est = _translation_field([0.0, 0.0, 0.0], [0.04, 0.0, 0.0])
    rep = registration_metrics(cloud, est, gt)
    # 4 cm error on a motionless point: fails strict, passes relaxed,
    # and is never a relative-error outlier
    assert rep.acc_s == 0.0
    assert rep.acc_r == 1.0
    assert rep.outlier_ratio == 0.0


def test_strict_accuracy_never_exceeds_relaxed():
    rng = np.random.default_rng(4)
    for trial in range(20):
        err = rng.exponential(scale=0.04, size=60)
        motion = rng.exponential(scale=0.2, size=60)
        motion[rng.random(60) < 0.1] = 0.0
        rep = metrics_from_errors(err, motion)
        assert rep.acc_s <= rep.acc_r


def test_epe_invariant_under_common_rigid_motion():
    cloud = _cloud(5)
    v = np.array([0.5, 0.5, 0.5])
    gt_r, gt_t = exp_so3([0.1, 0.2, -0.1]), np.array([0.05, 0.0, 0.02])
    est_r, est_t = exp_so3([0.12, 0.18, -0.09]), np.array([0.06, -0.01, 0.02])
    q_rot, q_t = exp_so3([0.3, -0.5, 0.2]), np.array([0.4, -0.1, 0.25])

    def field(rot, tra):
        graph = build_graph(v.reshape(1, 3), 1.0, 6)
        return WarpField(graph, rot[None], tra[None])

    def moved(rot, tra):
        # single-node field computing q_rot @ W(p) + q_t in the same family
        return field(q_rot @ rot, q_rot @ (v + tra) + q_t - v)

    base = registration_metrics(cloud, field(est_r, est_t), field(gt_r, gt_t))
    conj = registration_metrics(cloud, moved(est_r, est_t), moved(gt_r, gt_t))
    # per-point error distances are preserved, so the mean is too; the
    # relative-error fractions depend on motion magnitudes and may differ
    assert conj.epe == pytest.approx(base.epe, rel=1e-12)


def test_metrics_invariant_under_point_permutation():
    cloud = _cloud(6)
    gt = _translation_field([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    est = _translation_field([0.0, 0.0, 0.0], [0.12, 0.01, 0.0])
    perm = np.random.default_rng(7).permutation(len(cloud.points))
    a = registration_metrics(cloud, est, gt)
    b = registration_metrics(PointCloud(cloud.points[perm]), est, gt)
    assert a == b


def test_registration_errors_rejects_empty_source():
    gt = _translation_field([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    with pytest.raises(ValidationError):
        registration_errors(np.zeros((0, 3)), gt, gt)


def test_metrics_report_validation():
    with pytest.raises(ValidationError):
        MetricsReport(epe=-0.1, acc_s=1.0, acc_r=1.0, outlier_ratio=0.0, point_count=1)
    with pytest.raises(ValidationError):
        MetricsReport(epe=0.0, acc_s=1.5, acc_r=1.0, outlier_ratio=0.0, point_count=1)
    with pytest.raises(ValidationError):
        MetricsReport(epe=0.0, acc_s=1.0, acc_r=1.0, outlier_ratio=0.0, point_count=0)


# ---------------------------------------------------- classification side

def test_exact_prediction_is_perfect():
    labels = np.array([1, 0, 1, 1, 0, 0, 1])
    assert classification_metrics([0, 2, 3, 6], labels) == (1.0, 1.0)


def test_predicting_everything_gives_ratio_precision_full_recall():
    labels = np.array([1] * 6 + [0] * 4)
    precision, recall = classification_metrics(np.arange(10), labels)
    assert precision == pytest.approx(0.6)
    assert recall == 1.0


def test_counting_worked_example():
    # 10 predictions, 8 of them true inliers, 16 true inliers in total
    labels = np.zeros(40, dtype=np.int64)
    labels[:16] = 1
    predicted = np.concatenate([np.arange(8), np.arange(20, 22)])
    assert classification_metrics(predicted, labels) == (0.8, 0.5)


def test_empty_prediction_has_zero_precision():
    labels = np.array([1, 1, 0])
    precision, recall = classification_metrics([], labels)
    assert precision == 0.0
    assert recall == 0.0


def test_no_true_inliers_gives_full_recall():
    labels = np.zeros(5, dtype=np.int64)
    precision, recall = classification_metrics([1, 3], labels)
    assert precision == 0.0
    assert recall == 1.0


def test_classification_input_validation():
    with pytest.raises(ValidationError, match="0/1"):
        classification_metrics([0], np.array([2, 0, 1]))
    with pytest.raises(ValidationError, match="range"):
        classification_metrics([5], np.array([1, 0, 1]))


# ------------------------------------------------------------- reporting

def _sample_rows():
    return [("scene-a", MetricsReport(epe=0.0123, acc_s=0.9, acc_r=1.0, outlier_ratio=0.05,
                                      point_count=200)),
            ("scene-b", MetricsReport(epe=0.0, acc_s=1.0, acc_r=1.0, outlier_ratio=0.0,
                                      point_count=50))]


def test_metrics_csv_contents(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, _sample_rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "scene,point_count,epe,acc_s,acc_r,outlier_ratio"
    first = lines[1].split(",")
    assert first[0] == "scene-a"
    assert int(first[1]) == 200
    assert float(first[2]) == 0.0123
    assert float(first[5]) == 0.05
    assert lines[2] == "scene-b,50,0.0,1.0,1.0,0.0"
    assert len(lines) == 3


def test_metrics_csv_rewrite_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(p1, _sample_rows())
    write_metrics_csv(p2, _sample_rows())
    assert p1.read_bytes() == p2.read_bytes()


def test_metrics_table_formatting():
    text = format_metrics_table(_sample_rows())
    lines = text.splitlines()
    assert lines[0].split() == ["scene", "points", "EPE", "AccS", "AccR", "OR"]
    row_a = lines[1].split()
    assert row_a == ["scene-a", "200", "0.012", "0.900", "1.000", "0.050"]
    row_b = lines[2].split()
    assert row_b[2] == "0.000"  # a perfect estimate displays EPE 0.000
    # columns are aligned: every line is equally wide
    assert len({len(ln) for ln in lines}) == 1
