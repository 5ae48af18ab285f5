"""Deformation graphs: node sampling, point assignments, skinning, edges.

A graph is built over whichever cloud the caller hands in. The pruning
pipeline builds it over the correspondences' source endpoints (coverage
sigma_n, k neighbors); the solver builds it over the full source cloud
(coverage sigma_g, k_g neighbors). The Gaussian skinning bandwidth is the
owning graph's coverage radius in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from defreg.errors import NumericalError, ValidationError, format_row
from defreg.geometry import _as_points, furthest_point_sample

__all__ = [
    "DeformationGraph",
    "build_graph",
    "assign_points",
    "format_graph_dump",
]


@dataclass(frozen=True)
class DeformationGraph:
    """Nodes plus the point assignment structure derived from them.

    nodes           (V, 3) node positions, a subset of the build cloud
    coverage        sampling radius, also the skinning bandwidth
    assign_k        requested neighbors per point (effective: min(k, V))
    point_to_nodes  (N, k') node indices per point, ascending distance
    point_weights   (N, k') skinning weights aligned with point_to_nodes
    edges           (E, 2) unordered node pairs (u < v) sharing a point
    node_to_members derived: (V,) tuple of ascending point indices per node (C_j)
    patches         derived: (j, C_j, alpha_j) for each node with members, in
                    ascending j; alpha_j holds C_j's skinning weights alpha_{i,j}
    """

    nodes: np.ndarray
    coverage: float
    assign_k: int
    point_to_nodes: np.ndarray
    point_weights: np.ndarray
    edges: np.ndarray
    node_to_members: tuple = field(init=False)
    patches: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValidationError("nodes must be (V, 3)")
        if not self.coverage > 0 or self.assign_k < 1:
            raise ValidationError("coverage and assign_k must be positive")
        if self.point_to_nodes.shape != self.point_weights.shape:
            raise ValidationError("assignment index/weight shape mismatch")
        if self.point_to_nodes.size:
            if self.point_to_nodes.min() < 0 or self.point_to_nodes.max() >= self.nodes.shape[0]:
                raise ValidationError("assignment references a missing node")
            sums = self.point_weights.sum(axis=1)
            # phrased so that a NaN weight fails both checks
            if not (np.abs(sums - 1.0) <= 1e-9).all() or not (self.point_weights >= 0).all():
                raise ValidationError("skinning weights must be nonnegative and sum to 1")
        # one stable argsort lists the (point, node) pairs by node, then by
        # point: each node's members, ascending, with their skinning weights
        order = np.argsort(self.point_to_nodes, axis=None, kind="stable")
        bounds = np.searchsorted(self.point_to_nodes.ravel()[order], np.arange(self.num_nodes + 1))
        rows = order // self.point_to_nodes.shape[1]
        alpha = self.point_weights.ravel()[order]
        spans = list(zip(bounds, bounds[1:]))
        members = tuple(rows[a:b] for a, b in spans)
        patches = tuple((j, members[j], alpha[a:b]) for j, (a, b) in enumerate(spans) if b > a)
        object.__setattr__(self, "node_to_members", members)
        object.__setattr__(self, "patches", patches)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_points(self) -> int:
        return self.point_to_nodes.shape[0]


def _gauss_weights(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    """Rows of exp(-d^2 / 2s^2) normalized to 1; stabilized by the row min.

    Subtracting the row-min squared distance before exponentiation leaves
    the normalized weights mathematically unchanged and keeps the largest
    exponent at 0, so nothing underflows to an all-zero row.
    """
    scale = 2.0 * bandwidth * bandwidth
    shifted = d2 - d2.min(axis=-1, keepdims=True)
    w = np.exp(-shifted / scale)
    return w / w.sum(axis=-1, keepdims=True)


# Point-node distances held at once by assign_points (8 MB of float64).
_ASSIGN_CHUNK_ENTRIES = 1 << 20


def assign_points(points, node_positions, assign_k: int, bandwidth: float):
    """Assign each point to its nearest nodes with Gaussian weights.

    Returns (indices, weights), both (N, min(assign_k, V)). Indices are
    ascending by distance with ties broken by lower node index.

    Points are processed in chunks of about _ASSIGN_CHUNK_ENTRIES
    point-node distances, so memory stays bounded for large clouds. A point
    whose squared distance to its nearest node overflows has no defined
    weights and raises NumericalError.
    """
    pts = _as_points(points)
    nodes = _as_points(node_positions)
    kk = min(int(assign_k), nodes.shape[0])
    if kk < 1:
        raise ValidationError("assign_k must be >= 1")
    step = max(1, _ASSIGN_CHUNK_ENTRIES // nodes.shape[0])
    order = np.empty((pts.shape[0], kk), dtype=np.int64)
    sel = np.empty((pts.shape[0], kk))
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        order[rows], sel[rows] = _nearest_nodes(pts[rows], nodes, kk)
    far = np.isinf(sel[:, 0])
    if far.any():
        raise NumericalError(f"node assignment: point {int(np.argmax(far))}'s squared "
                             f"distance to its nearest node overflows")
    return order, _gauss_weights(sel, float(bandwidth))


def _nearest_nodes(pts: np.ndarray, nodes: np.ndarray, kk: int):
    """The kk nearest nodes per point and their squared distances.

    argpartition picks kk candidates, which are then sorted by (distance,
    node index). It may pick any of several nodes tied at the kk-th
    distance, so the rows with such a tie fall back to a stable argsort;
    both give exactly what a stable argsort of every row gives.
    """
    # per coordinate, summed x, y, z in order: the bits of np.sum over the
    # last axis, without the (n, V, 3) temporary
    d2 = sum((pts[:, None, a] - nodes[None, :, a]) ** 2 for a in range(3))
    cand = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    order = np.take_along_axis(cand, np.lexsort((cand, cand_d2), axis=1), axis=1)
    tied = np.count_nonzero(d2 <= cand_d2.max(axis=1, keepdims=True), axis=1) > kk
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :kk]
    return order, np.take_along_axis(d2, order, axis=1)


def build_graph(cloud, coverage: float, assign_k: int) -> DeformationGraph:
    """Sample nodes by FPS and assign every point of the cloud to them.

    Nodes are actual points of the cloud, so each node is a member of
    itself and no node ends up with an empty member set. Edges connect
    two nodes whenever some point is assigned to both.
    """
    pts = _as_points(cloud)
    nodes = pts[furthest_point_sample(pts, coverage)]
    order, weights = assign_points(pts, nodes, assign_k, coverage)

    # every pair of a point's nodes, keyed lo * V + hi: unique keys in
    # ascending order are the edges in lexicographic order
    a, b = np.triu_indices(order.shape[1], 1)
    first, second = order[:, a], order[:, b]
    keys = np.unique((np.minimum(first, second) * len(nodes) + np.maximum(first, second)).ravel())
    return DeformationGraph(
        nodes=nodes,
        coverage=float(coverage),
        assign_k=int(assign_k),
        point_to_nodes=order,
        point_weights=weights,
        edges=np.stack(np.divmod(keys, len(nodes)), axis=1),
    )


def format_graph_dump(graph: DeformationGraph) -> str:
    """One-record-per-line text dump for inspection."""
    lines = [
        f"# deformation-graph nodes={graph.num_nodes} coverage={format_row([float(graph.coverage)])} "
        f"assign_k={graph.assign_k} points={graph.num_points} edges={graph.edges.shape[0]}"
    ]
    lines += (format_row(("node", j, *pos), " ") for j, pos in enumerate(graph.nodes))
    for i in range(graph.num_points):
        pairs = (format_row(p, ":") for p in zip(graph.point_to_nodes[i], graph.point_weights[i]))
        lines.append(format_row(("assign", i, *pairs), " "))
    lines += (format_row(("edge", *edge), " ") for edge in graph.edges)
    return "\n".join(lines) + "\n"
