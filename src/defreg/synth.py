"""Synthetic desk-scale scenes with exactly representable ground truth.

Ground-truth warps are drawn from the embedded-deformation family
itself, over a solver-style graph of the source surface, so the solver
model class always contains the truth. The target cloud is the exact
warp of the source; correspondences are corrupted afterwards with a
controlled inlier ratio, truncated Gaussian inlier noise, and outliers
kept at least OUTLIER_MIN_RESIDUAL away from their true match so labels
are never ambiguous.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from defreg.consistency import CorrespondenceSet, write_corr_csv
from defreg.defgraph import build_graph
from defreg.errors import ValidationError, check_fields, nonnegative, write_document
from defreg.geometry import PointCloud, exp_so3
from defreg.nicp import WarpField, write_warp_field
from defreg.pointcloud_io import write_ply

SURFACES = ("plane-grid", "cylinder", "two-lobe")
WARP_KINDS = ("global-rigid", "smooth-graph", "articulated-two-part")
OUTLIER_MODES = ("uniform-in-bbox", "shuffled-target")

# far beyond the largest inlier residual at the default noise (NOISE_TRUNCATION
# x 0.005 m = 0.025 m): outliers can never be mistaken for inliers
OUTLIER_MIN_RESIDUAL = 0.12
NOISE_TRUNCATION = 5.0
_FIELD_WAVELENGTH = 0.4
_MAX_RESAMPLE = 1000

__all__ = [
    "SceneSpec",
    "OUTLIER_MIN_RESIDUAL",
    "generate_scene",
    "write_scene_bundle",
]


@dataclass(frozen=True)
class SceneSpec:
    """Scene recipe; warp_magnitude is (rotation radians, translation meters)
    and also accepts a single scalar used for both."""

    point_count: int = 240
    surface: str = "plane-grid"
    warp_kind: str = "smooth-graph"
    warp_magnitude: tuple = (0.2, 0.05)
    inlier_ratio: float = nonnegative(0.5)
    inlier_noise_std: float = nonnegative(0.005)
    outlier_mode: str = "uniform-in-bbox"
    seed: int = nonnegative(0)

    def __post_init__(self):
        check_fields(self)
        if self.surface not in SURFACES:
            raise ValidationError(f"surface must be one of {', '.join(SURFACES)}")
        if self.warp_kind not in WARP_KINDS:
            raise ValidationError(f"warp_kind must be one of {', '.join(WARP_KINDS)}")
        if self.outlier_mode not in OUTLIER_MODES:
            raise ValidationError(f"outlier_mode must be one of {', '.join(OUTLIER_MODES)}")
        mag = self.warp_magnitude
        if isinstance(mag, Real):
            mag = (mag, mag)
        if not isinstance(mag, (tuple, list)) or len(mag) != 2:
            raise ValidationError("warp_magnitude must be a scalar or (rotation, translation)")
        if any(isinstance(m, bool) or not isinstance(m, Real) or not 0 <= m <= sys.float_info.max
               for m in mag):
            raise ValidationError("warp_magnitude must be nonnegative and finite")
        object.__setattr__(self, "warp_magnitude", tuple(float(m) for m in mag))
        if self.inlier_ratio > 1.0:
            raise ValidationError("inlier_ratio must be in [0, 1]")


def _plane_grid(count: int) -> np.ndarray:
    # roughly 0.5 x 0.4 m desk patch, row-major grid truncated to count
    nx = int(np.ceil(np.sqrt(count * 1.25)))
    ny = int(np.ceil(count / nx))
    xs = np.linspace(-0.25, 0.25, nx)
    ys = np.linspace(-0.2, 0.2, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    return pts[:count]


def _cylinder(count: int) -> np.ndarray:
    # radius 0.1, height 0.5, golden-angle spiral
    radius, height = 0.1, 0.5
    i = np.arange(count)
    angle = i * (np.pi * (3.0 - np.sqrt(5.0)))
    z = -height / 2 + height * (i + 0.5) / count
    return np.stack([radius * np.cos(angle), radius * np.sin(angle), z], axis=1)


def _two_lobe(count: int) -> np.ndarray:
    # two spheres of radius 0.12 centered at x = +-0.15, Fibonacci layout
    radius, offset = 0.12, 0.15
    n_left = (count + 1) // 2
    lobes = []
    for n, cx in ((n_left, -offset), (count - n_left, offset)):
        if n == 0:
            continue
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        ring = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        angle = i * (np.pi * (3.0 - np.sqrt(5.0)))
        pts = radius * np.stack([ring * np.cos(angle), ring * np.sin(angle), z], axis=1)
        pts[:, 0] += cx
        lobes.append(pts)
    return np.concatenate(lobes, axis=0)


_SURFACE_FUNCS = {"plane-grid": _plane_grid, "cylinder": _cylinder, "two-lobe": _two_lobe}


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _exact_rigid_node_transforms(nodes, rotation, shift):
    """Per-node transforms whose blend is exactly p -> R p + T for any
    weights summing to 1: t_j = T + R v_j - v_j."""
    count = nodes.shape[0]
    rotations = np.broadcast_to(rotation, (count, 3, 3)).copy()
    translations = shift + nodes @ rotation.T - nodes
    return rotations, translations


def _global_rigid(nodes, rng, rot_mag, trans_mag):
    rotation = exp_so3(_random_unit(rng) * rot_mag)
    shift = _random_unit(rng) * trans_mag
    return _exact_rigid_node_transforms(nodes, rotation, shift)


def _smooth_graph(nodes, rng, rot_mag, trans_mag):
    """Low-frequency sinusoidal per-node axis-angle and translation
    fields; |omega_j| <= rot_mag and |t_j| <= trans_mag by construction."""
    fields = []
    for amp in (rot_mag, trans_mag):
        dirs = np.stack([_random_unit(rng) for _ in range(3)])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        phase_arg = 2.0 * np.pi * (nodes @ dirs.T) / _FIELD_WAVELENGTH + phases
        fields.append(amp / np.sqrt(3.0) * np.sin(phase_arg))
    omegas, translations = fields
    return exp_so3(omegas), translations


def _articulated(nodes, rng, rot_mag, trans_mag):
    """Two rigid motions split along the widest node-coordinate axis."""
    spread = nodes.max(axis=0) - nodes.min(axis=0)
    axis = int(np.argmax(spread))
    threshold = np.median(nodes[:, axis])
    rotations = np.zeros((nodes.shape[0], 3, 3))
    translations = np.zeros((nodes.shape[0], 3))
    sides = nodes[:, axis] <= threshold
    for side in (True, False):
        rot, tra = _exact_rigid_node_transforms(
            nodes, exp_so3(_random_unit(rng) * rot_mag), _random_unit(rng) * trans_mag
        )
        mask = sides == side
        rotations[mask] = rot[mask]
        translations[mask] = tra[mask]
    return rotations, translations


_WARP_FUNCS = {
    "global-rigid": _global_rigid,
    "smooth-graph": _smooth_graph,
    "articulated-two-part": _articulated,
}


def _truncated_noise(rng: np.random.Generator, std: float) -> np.ndarray:
    if std == 0.0:
        return np.zeros(3)
    for _ in range(_MAX_RESAMPLE):
        n = rng.normal(0.0, std, size=3)
        if np.linalg.norm(n) < NOISE_TRUNCATION * std:
            return n
    raise ValidationError("noise resampling did not converge")


def generate_scene(spec: SceneSpec, coverage: float = 0.08, assign_k: int = 6):
    """Returns (source, target, gt_warp, corr with labels), deterministic
    per spec.seed. target is exactly gt_warp applied to source; one
    correspondence per source point, round(inlier_ratio * N) of them true."""
    source_pts = _SURFACE_FUNCS[spec.surface](spec.point_count)
    rng = np.random.default_rng(spec.seed)
    graph = build_graph(source_pts, coverage, assign_k)
    rot_mag, trans_mag = spec.warp_magnitude
    rotations, translations = _WARP_FUNCS[spec.warp_kind](graph.nodes, rng, rot_mag, trans_mag)
    gt_warp = WarpField(graph, rotations, translations)
    target_pts = gt_warp.warp(source_pts)

    n = spec.point_count
    n_inlier = int(np.rint(spec.inlier_ratio * n))
    labels = np.zeros(n, dtype=np.int8)
    inlier_idx = np.sort(rng.choice(n, size=n_inlier, replace=False))
    labels[inlier_idx] = 1

    corr_target = target_pts.copy()
    for i in inlier_idx:
        corr_target[i] += _truncated_noise(rng, spec.inlier_noise_std)

    outlier_idx = np.where(labels == 0)[0]
    if outlier_idx.size:
        lo = target_pts.min(axis=0)
        hi = target_pts.max(axis=0)
        for i in outlier_idx:
            corr_target[i] = _sample_outlier(rng, spec.outlier_mode, target_pts, target_pts[i], lo, hi)

    corr = CorrespondenceSet(source_pts, corr_target, labels)
    return PointCloud(source_pts), PointCloud(target_pts), gt_warp, corr


def _sample_outlier(rng, mode, target_pts, true_match, lo, hi):
    for _ in range(_MAX_RESAMPLE):
        if mode == "uniform-in-bbox":
            candidate = rng.uniform(lo, hi)
        else:
            candidate = target_pts[int(rng.integers(target_pts.shape[0]))]
        if np.linalg.norm(candidate - true_match) >= OUTLIER_MIN_RESIDUAL:
            return candidate.copy()
    raise ValidationError(
        "cannot place an outlier at least OUTLIER_MIN_RESIDUAL from its true match; "
        "the scene is too small for the requested outlier mode"
    )


def write_scene_bundle(out_dir, spec: SceneSpec, source: PointCloud, target: PointCloud,
                       gt_warp: WarpField, corr: CorrespondenceSet) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_ply(os.path.join(out_dir, "source.ply"), source)
    write_ply(os.path.join(out_dir, "target.ply"), target)
    write_corr_csv(os.path.join(out_dir, "corr.csv"), corr)
    write_warp_field(os.path.join(out_dir, "warp.txt"), gt_warp)
    write_document(os.path.join(out_dir, "spec.json"), asdict(spec))
