"""Registration and inlier-classification metrics.

Registration quality compares an estimated warp against the ground
truth on the source points. Per point p with error
e = |W_est(p) - W_gt(p)| and ground-truth motion m = |W_gt(p) - p|:

    EPE   mean of e
    AccS  fraction with e < 0.025 m or e/m < 0.025
    AccR  fraction with e < 0.05 m or e/m < 0.05
    OR    fraction with e/m > 0.30

A point with zero ground-truth motion has no defined relative error: it
can only satisfy the accuracy thresholds through the absolute branch
and is never counted as a relative-error outlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from defreg.errors import ValidationError, format_row, write_lines
from defreg.geometry import _as_points

EPE_STRICT = 0.025
EPE_RELAXED = 0.05
RE_STRICT = 0.025
RE_RELAXED = 0.05
RE_OUTLIER = 0.30

__all__ = [
    "MetricsReport",
    "registration_errors",
    "metrics_from_errors",
    "registration_metrics",
    "classification_metrics",
    "write_metrics_csv",
    "format_metrics_table",
]


@dataclass(frozen=True)
class MetricsReport:
    epe: float
    acc_s: float
    acc_r: float
    outlier_ratio: float
    point_count: int

    def __post_init__(self):
        if self.epe < 0 or self.point_count < 1:
            raise ValidationError("invalid metrics report")
        for frac in (self.acc_s, self.acc_r, self.outlier_ratio):
            if not 0.0 <= frac <= 1.0:
                raise ValidationError("metric fractions must lie in [0, 1]")


def registration_errors(source, est, gt):
    """Per-point (error, ground-truth motion) magnitudes."""
    pts = _as_points(source)
    if pts.shape[0] < 1:
        raise ValidationError("source must contain at least one 3D point")
    warped_est = est.warp(pts)
    warped_gt = gt.warp(pts)
    err = np.sqrt(((warped_est - warped_gt) ** 2).sum(axis=1))
    motion = np.sqrt(((warped_gt - pts) ** 2).sum(axis=1))
    return err, motion


def metrics_from_errors(err: np.ndarray, motion: np.ndarray) -> MetricsReport:
    moving = motion > 0.0
    rel = np.divide(err, motion, out=np.zeros_like(err), where=moving)
    acc_s = (err < EPE_STRICT) | (moving & (rel < RE_STRICT))
    acc_r = (err < EPE_RELAXED) | (moving & (rel < RE_RELAXED))
    outlier = moving & (rel > RE_OUTLIER)
    return MetricsReport(
        epe=float(err.mean()),
        acc_s=float(acc_s.mean()),
        acc_r=float(acc_r.mean()),
        outlier_ratio=float(outlier.mean()),
        point_count=int(err.shape[0]),
    )


def registration_metrics(source, est, gt) -> MetricsReport:
    """Metrics of an estimated warp field against the ground-truth field."""
    err, motion = registration_errors(source, est, gt)
    return metrics_from_errors(err, motion)


def classification_metrics(predicted_inliers, labels):
    """(precision, recall) of a predicted inlier index set against labels.

    An empty prediction has precision 0 by convention; a scene with no
    true inliers has recall 1.
    """
    lab = np.asarray(labels)
    if lab.ndim != 1 or not np.isin(lab, (0, 1)).all():
        raise ValidationError("labels must be a flat 0/1 array")
    pred = np.asarray(predicted_inliers, dtype=np.int64).reshape(-1)
    if pred.size and (pred.min() < 0 or pred.max() >= lab.shape[0]):
        raise ValidationError("predicted index out of range")
    mask = np.zeros(lab.shape[0], dtype=bool)
    mask[pred] = True
    tp = int((mask & (lab == 1)).sum())
    total_pred = int(mask.sum())
    total_true = int((lab == 1).sum())
    precision = tp / total_pred if total_pred else 0.0
    recall = tp / total_true if total_true else 1.0
    return precision, recall


_CSV_COLUMNS = ("scene", "point_count", "epe", "acc_s", "acc_r", "outlier_ratio")


def write_metrics_csv(path, rows) -> None:
    """rows: iterable of (name, MetricsReport)."""
    write_lines(path, [format_row(_CSV_COLUMNS)] + [
        format_row((str(name), rep.point_count,
                    *map(float, (rep.epe, rep.acc_s, rep.acc_r, rep.outlier_ratio))))
        for name, rep in rows
    ])


def format_metrics_table(rows) -> str:
    """Aligned human-readable table of (name, MetricsReport) rows."""
    header = ["scene", "points", "EPE", "AccS", "AccR", "OR"]
    table = [header]
    for name, rep in rows:
        table.append([
            str(name),
            str(rep.point_count),
            f"{rep.epe:.3f}",
            f"{rep.acc_s:.3f}",
            f"{rep.acc_r:.3f}",
            f"{rep.outlier_ratio:.3f}",
        ])
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
