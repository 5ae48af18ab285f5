"""Deformation graphs: node sampling, point assignments, skinning, edges.

A graph is built over whichever cloud the caller hands in. The pruning
pipeline builds it over the correspondences' source endpoints (coverage
sigma_n, k neighbors); the solver builds it over the full source cloud
(coverage sigma_g, k_g neighbors). The Gaussian skinning bandwidth is the
owning graph's coverage radius in both cases.

Every point's k nearest nodes (`assign_points`, also used by the solver
and the warps) are found exactly, without an N x V distance array: the
nodes are bucketed in a uniform grid of cells two bandwidths wide, a
point's candidates are the nodes in the 3 x 3 x 3 cells around it, and
the few rows that block cannot certify go through a dense kernel.
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


# Distances held at once by either assign_points kernel (512 KB of float64).
_ASSIGN_CHUNK_ENTRIES = 1 << 16
# The node grid's cell edge, in skinning bandwidths. A graph sampled at
# coverage s, its bandwidth, has every cloud point within s of a node.
# With cells of 2s the block of cells around a point holds its k nearest
# nodes for nearly every point; cells of 1s certify almost none, and
# cells of 2.5s hold more candidates than they save.
_CELL_BANDWIDTHS = 2.0
# The most cells the grid spans on one axis, which keeps cell keys below 2**61.
_GRID_MAX_CELLS = 1 << 20
# The cell edges the grid takes: their squared face distances stay well
# inside the normal float range, where rounding is relative.
_GRID_CELL_EDGES = (1e-150, 1e150)


def assign_points(points, node_positions, assign_k: int, bandwidth: float):
    """Assign each point to its nearest nodes with Gaussian weights.

    Returns (indices, weights), both (N, min(assign_k, V)). Indices are
    ascending by distance with ties broken by lower node index: each row
    is the first columns of a stable argsort of the point's squared
    distances to every node.

    The nodes are bucketed in a uniform grid of cubic cells of edge
    _CELL_BANDWIDTHS * bandwidth, and a point's candidates are the nodes
    in its cell and the 26 around it (`_grid_nearest_nodes`). The rows
    the grid cannot certify, and every row where it would not pay, go
    through the dense `_nearest_nodes`. Each kernel holds about
    _ASSIGN_CHUNK_ENTRIES distances at once, so memory grows with N and
    not with N * V.

    A bandwidth whose 2 * bandwidth**2 underflows to 0 has no defined
    weights and raises ValidationError. A point whose squared distance to
    its nearest node overflows has none either and raises NumericalError.
    """
    pts = _as_points(points)
    nodes = _as_points(node_positions)
    kk = min(int(assign_k), nodes.shape[0])
    if kk < 1:
        raise ValidationError("assign_k must be >= 1")
    bandwidth = float(bandwidth)
    if not (bandwidth > 0 and 2.0 * bandwidth * bandwidth > 0):
        raise ValidationError(f"node assignment: skinning bandwidth {bandwidth!r} must be "
                              f"positive, with 2 * bandwidth**2 above 0")
    order = np.empty((pts.shape[0], kk), dtype=np.int64)
    sel = np.empty((pts.shape[0], kk))
    rest = _grid_nearest_nodes(pts, nodes, kk, _CELL_BANDWIDTHS * bandwidth, order, sel)
    order[rest], sel[rest] = _nearest_nodes(pts[rest], nodes, kk)
    far = np.isinf(sel[:, 0])
    if far.any():
        raise NumericalError(f"node assignment: point {int(np.argmax(far))}'s squared "
                             f"distance to its nearest node overflows")
    return order, _gauss_weights(sel, bandwidth)


def _squared_distances(pts: np.ndarray, node_coords) -> np.ndarray:
    """Point-node squared distances per coordinate, summed x, y, z in
    order: the bits of np.sum over a last axis of 3, without that
    temporary. node_coords yields the nodes' x, y and z in turn, each
    broadcasting against a column of pts."""
    d2 = None
    for a, coord in enumerate(node_coords):
        diff = np.subtract(pts[:, a, None], coord)
        np.square(diff, out=diff)
        d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        del coord, diff  # before the next coordinate is made
    return d2


def _k_smallest(d2: np.ndarray, ids, kk: int):
    """Each row's kk smallest d2 as (ids, d2), sorted by (d2, id), and
    whether a tie at the kk-th distance straddles the cut, which leaves
    the row's pick undefined. ids holds each entry's node index, ascending
    along the row, or is None when that is the column.
    """
    width = d2.shape[1]
    ranked = np.sort(d2, axis=1)
    kth = ranked[:, kk - 1:kk].copy()
    tied = ranked[:, kk] == kth[:, 0] if width > kk else np.zeros(d2.shape[0], dtype=bool)
    del ranked
    # the kk entries at or below the kk-th distance, in column order
    keep = d2 <= kth
    keep[tied] = np.arange(width) < kk
    picked = np.flatnonzero(keep).reshape(-1, kk)
    # a stable sort by distance keeps equal distances in column, so id, order
    picked_d2 = d2.ravel()[picked]
    perm = np.argsort(picked_d2, axis=1, kind="stable")
    picked = np.take_along_axis(picked, perm, axis=1)
    return (picked % width if ids is None else ids.ravel()[picked],
            np.take_along_axis(picked_d2, perm, axis=1), tied)


def _nearest_nodes(pts: np.ndarray, nodes: np.ndarray, kk: int):
    """The kk nearest nodes per point and their squared distances, from
    every point-node distance, a chunk of rows at a time. A row with a
    tie straddling the cut falls back to a stable argsort, so each row is
    exactly the first kk of a stable argsort of its distances."""
    order = np.empty((pts.shape[0], kk), dtype=np.int64)
    sel = np.empty((pts.shape[0], kk))
    step = max(1, _ASSIGN_CHUNK_ENTRIES // nodes.shape[0])
    for start in range(0, pts.shape[0], step):
        rows = slice(start, start + step)
        d2 = _squared_distances(pts[rows], nodes.T[:, None, :])
        got, got_d2, tied = _k_smallest(d2, None, kk)
        if tied.any():
            got[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :kk]
            got_d2[tied] = np.take_along_axis(d2[tied], got[tied], axis=1)
        order[rows], sel[rows] = got, got_d2
    return order, sel


def _grid_nearest_nodes(pts, nodes, kk, cell, order, sel):
    """Fill the rows of order and sel that a grid of cubic cells of edge
    `cell` certifies, and return the other rows: their indices, or
    slice(None) where the grid is not used.

    A point's candidates are the nodes in the 3 x 3 x 3 block of cells
    around its own. Its row is certified when its kk-th squared distance
    lies below its squared distance to the block's faces, less a margin
    far above rounding, so that every node outside the block is farther;
    and when no tie straddles the cut. The grid is not used when it would
    span too many cells, or when some block holds more than half the
    nodes: there the dense kernel is as fast (measured).
    """
    if not (pts.shape[0] and _GRID_CELL_EDGES[0] <= cell <= _GRID_CELL_EDGES[1]):
        return slice(None)
    lo = nodes.min(axis=0)
    with np.errstate(over="ignore"):
        node_q = (nodes - lo) / cell
        point_q = (pts - lo) / cell
    if not node_q.max() < _GRID_MAX_CELLS:
        return slice(None)
    dims = np.floor(node_q.max(axis=0)) + 1.0
    # a point more than a cell beyond the nodes keeps a cell whose block holds none
    np.clip(point_q, -2.0, dims + 1.0, out=point_q)
    floor_q = np.floor(point_q)

    # keys of cells shifted by 3 on each axis, so that every block cell's is >= 0
    radix = dims.astype(np.int64) + 6
    strides = np.array([radix[1] * radix[2], radix[2], 1])
    point_cells, point_cell = np.unique((floor_q.astype(np.int64) + 3) @ strides,
                                        return_inverse=True)
    node_keys = (node_q.astype(np.int64) + 3) @ strides
    node_order = np.argsort(node_keys, kind="stable")
    sorted_keys = node_keys[node_order]
    # a block's three cells in one (x, y) column have consecutive keys, so
    # its nodes are nine runs of the key-sorted nodes
    offsets = np.array([-1, 0, 1])
    columns = (offsets[:, None] * strides[0] + offsets * strides[1]).ravel()
    column_keys = point_cells[:, None] + columns
    column_keys -= 1
    first = np.searchsorted(sorted_keys, column_keys, "left")
    column_keys += 2
    counts = np.searchsorted(sorted_keys, column_keys, "right")
    counts -= first
    del column_keys
    widths = counts.sum(axis=1)
    width = int(widths.max())
    if 2 * width > nodes.shape[0] or width < kk:
        return slice(None)

    # the squared distance to the block's faces, less 1e-6 cells: over a
    # thousand times the rounding error of two q below _GRID_MAX_CELLS
    frac = point_q - floor_q
    limit = ((np.minimum(frac + 1.0, 2.0 - frac).min(axis=1) - 1e-6) * cell) ** 2
    del point_q, floor_q, frac

    # candidates[c] lists cell c's block nodes in ascending order, padded
    # with a node at infinity (index V). The runs of every cell, end to end,
    # hold `total` entries; entry e of run r is node_order[first[r] + e -
    # (r's start)], and goes to slot e - (its cell's start) of its cell's row.
    first, counts = first.ravel(), counts.ravel()
    total = int(counts.sum())
    entries = np.arange(total)
    source = entries + np.repeat(first - (np.cumsum(counts) - counts), counts)
    entries += np.repeat(np.arange(widths.size) * width - (np.cumsum(widths) - widths), widths)
    candidates = np.full(widths.size * width, nodes.shape[0])
    candidates[entries] = node_order[source]
    del entries, source
    candidates = np.sort(candidates.reshape(-1, width), axis=1)
    padded = np.concatenate([nodes, np.full((1, 3), np.inf)]).T.copy()

    # rows by their block's width, so that each chunk is only as wide as its last row
    by_width = np.argsort(widths[point_cell], kind="stable")
    certified = np.zeros(pts.shape[0], dtype=bool)
    step = max(1, _ASSIGN_CHUNK_ENTRIES // width)
    for start in range(0, pts.shape[0], step):
        rows = by_width[start:start + step]
        blocks = point_cell[rows]
        cand = candidates[blocks, :max(kk, widths[blocks[-1]])]
        d2 = _squared_distances(pts[rows], (padded[a][cand] for a in range(3)))
        got, got_d2, tied = _k_smallest(d2, cand, kk)
        ok = (got_d2[:, -1] < limit[rows]) & ~tied
        rows = rows[ok]
        order[rows], sel[rows] = got[ok], got_d2[ok]
        certified[rows] = True
    return np.flatnonzero(~certified)


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
