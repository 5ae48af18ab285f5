"""Point-cloud primitives and rotation algebra.

Everything downstream (graph construction, the solver, the scene
generator) sits on the handful of operations in this module: axis-angle
exponential/log maps and furthest point sampling with a coverage stop
rule. All distances are Euclidean and all coordinates are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from defreg.errors import ValidationError

__all__ = [
    "PointCloud",
    "skew",
    "exp_so3",
    "log_so3",
    "project_rotation",
    "furthest_point_sample",
]


def _as_points(points) -> np.ndarray:
    """The (N, 3) finite float64 coordinates of a PointCloud or an array."""
    if isinstance(points, PointCloud):
        return points.points
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValidationError(f"expected (N, 3) coordinates, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("non-finite coordinate")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Immutable set of 3D points, shape (N, 3) float64, N >= 1, finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if pts.shape[0] < 1:
            raise ValidationError("point cloud is empty")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: skew(v) @ w == cross(v, w).

    Accepts a stack of vectors, shape (..., 3), and returns (..., 3, 3).
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def exp_so3(omega) -> np.ndarray:
    """Rodrigues exponential map from an axis-angle 3-vector to a rotation.

    Parameters
    ----------
    omega : array_like, shape (3,) or (..., 3)
        Axis-angle vector(s); direction is the rotation axis, norm the
        angle in radians.

    Returns
    -------
    (3, 3) or (..., 3, 3) ndarray
        Orthonormal rotation matrix with determinant +1, one per vector.

    Notes
    -----
    Below ``|omega| < 1e-8`` the two Rodrigues coefficients sin(t)/t and
    (1-cos(t))/t^2 are replaced by their second-order Taylor expansions to
    avoid 0/0. A stack gives, per vector, the same bits as a single call.
    """
    omega = np.asarray(omega, dtype=np.float64)
    theta2 = (omega[..., None, :] @ omega[..., :, None])[..., 0, 0]
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    safe, safe2 = np.where(small, 1.0, theta), np.where(small, 1.0, theta2)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / safe2)
    k = skew(omega)
    return np.eye(3) + a[..., None, None] * k + b[..., None, None] * (k @ k)


def log_so3(rotation) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse of exp_so3).

    The angle is taken in [0, pi]. At theta == pi the axis sign is not
    determined by the matrix; a fixed convention (largest diagonal entry,
    first nonzero component positive) keeps the output deterministic.

    The angle is atan2(sin, cos) with sin = |w| / 2 from the skew part w
    and cos = (tr R - 1) / 2. Unlike arccos of the cosine alone, this keeps
    full precision near 0 and near pi.
    """
    r = np.asarray(rotation, dtype=np.float64)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin2 = np.linalg.norm(w)
    theta = np.arctan2(sin2 / 2.0, (np.trace(r) - 1.0) / 2.0)
    if theta < 1e-8:
        # first-order: R ~ I + skew(w)
        return w / 2.0
    if np.pi - theta < 1e-6:
        # R ~ 2 aa^T - I; pull the axis off the diagonal
        axis2 = np.clip((np.diag(r) + 1.0) / 2.0, 0.0, None)
        k = int(np.argmax(axis2))
        axis = np.zeros(3)
        axis[k] = np.sqrt(axis2[k])
        for i in range(3):
            if i != k:
                axis[i] = r[k, i] / (2.0 * axis[k])
        nz = np.nonzero(np.abs(axis) > 1e-12)[0]
        if nz.size and axis[nz[0]] < 0:
            axis = -axis
        return theta * axis / np.linalg.norm(axis)
    return theta / sin2 * w


def project_rotation(m) -> np.ndarray:
    """Nearest rotation matrix (polar projection via SVD, det forced to +1).

    Accepts a stack of matrices, shape (..., 3, 3), projecting each.
    """
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    flip = np.linalg.det(r) < 0
    if flip.any():
        u = u.copy()
        u[..., -1] = np.where(flip[..., None], -u[..., -1], u[..., -1])
        r = u @ vt
    return r


def furthest_point_sample(cloud, coverage: float) -> np.ndarray:
    """Furthest point sampling until every point is covered.

    Starting from point 0, repeatedly adds the point farthest from
    the selected set, stopping once every point lies within ``coverage``
    of some selected point. Ties in the farthest distance resolve to the
    lowest point index (a convention; any choice satisfies the coverage
    guarantee).

    Returns the selected indices in selection order as an int64 array.
    """
    pts = _as_points(cloud)
    if pts.shape[0] < 1:
        raise ValidationError("empty cloud")
    if not (np.isfinite(coverage) and coverage > 0):  # NaN would never stop the loop
        raise ValidationError(f"coverage must be a finite positive number, got {coverage}")
    # per coordinate, summed x, y, z in order: the bits of np.sum over the
    # last axis, without the (n, 3) temporary
    cols = pts.T.copy()
    selected = [0]
    dist2 = sum((cols[a] - cols[a, 0]) ** 2 for a in range(3))
    cov2 = float(coverage) * float(coverage)  # a float product rounds to inf, where ** raises
    while True:
        far = int(np.argmax(dist2))  # argmax takes the first max: lowest index wins ties
        if dist2[far] <= cov2:
            break
        selected.append(far)
        dist2 = np.minimum(dist2, sum((cols[a] - cols[a, far]) ** 2 for a in range(3)))
    return np.asarray(selected, dtype=np.int64)
