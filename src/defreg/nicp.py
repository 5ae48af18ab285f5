"""Embedded-deformation warping and the damped Gauss-Newton solver.

A WarpField blends one rigid transform per graph node into a smooth
warp, W(p) = sum_j a_j (R_j (p - v_j) + v_j + t_j), with skinning
weights computed on the fly from the field's graph. The solver
minimizes

    lambda_corr * sum_i |W(x_i) - y_i|^2
  + lambda_reg  * sum_(u,v) |R_u (v_v - v_u) + v_u + t_u - (v_v + t_v)|^2

by damped Gauss-Newton steps on the stacked per-node axis-angle and
translation increments [w_1..w_V, dt_1..dt_V], linearized at w = 0.

The source points are fixed, so `solve` assigns them to nodes once and
reuses that assignment for every residual and cost. Each step assembles
the 6V x 6V normal equations directly from per-residual Jacobian blocks:
a correspondence touches the 2k block columns of its k nodes, an edge
three. `jacobian` builds the full dense Jacobian and is the reference
the block assembly is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from defreg.consistency import CorrespondenceSet
from defreg.defgraph import DeformationGraph, assign_points, build_graph
from defreg.errors import (FileFormatError, NumericalError, ValidationError, check_fields,
                           parse_rows, positive, read_lines)
from defreg.geometry import PointCloud, _as_points, exp_so3, log_so3, project_rotation, skew

__all__ = [
    "WarpField",
    "SolverConfig",
    "SolveResult",
    "residuals",
    "jacobian",
    "gauss_newton_step",
    "solve",
    "write_warp_field",
    "read_warp_field",
]


@dataclass(frozen=True)
class WarpField:
    """Deformation graph plus one rigid transform per node."""

    graph: DeformationGraph
    rotations: np.ndarray     # (V, 3, 3)
    translations: np.ndarray  # (V, 3)

    def __post_init__(self):
        rot = np.asarray(self.rotations, dtype=np.float64)
        tra = np.asarray(self.translations, dtype=np.float64)
        v = self.graph.num_nodes
        if rot.shape != (v, 3, 3) or tra.shape != (v, 3):
            raise ValidationError("transform count does not match node count")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValidationError("non-finite transform")
        gram = np.einsum("vba,vbc->vac", rot, rot)
        if (np.abs(gram - np.eye(3)) > 1e-9).any() or (np.linalg.det(rot) < 0).any():
            raise ValidationError("rotation is not orthonormal")
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "translations", tra)

    @classmethod
    def identity(cls, graph: DeformationGraph) -> "WarpField":
        v = graph.num_nodes
        return cls(graph, np.broadcast_to(np.eye(3), (v, 3, 3)).copy(), np.zeros((v, 3)))

    def warp(self, points) -> np.ndarray:
        """Evaluate the blended warp at arbitrary points."""
        pts = _as_points(points)
        graph = self.graph
        order, weights = assign_points(pts, graph.nodes, graph.assign_k, graph.coverage)
        return _blend(self, pts, order, weights)


def _blend(field: WarpField, pts: np.ndarray, order: np.ndarray,
           weights: np.ndarray) -> np.ndarray:
    """The warp at points already assigned to nodes (order, weights)."""
    nodes = field.graph.nodes
    out = np.zeros_like(pts)
    for col in range(order.shape[1]):
        j = order[:, col]
        local = np.einsum("nab,nb->na", field.rotations[j], pts - nodes[j])
        out += weights[:, col, None] * (local + nodes[j] + field.translations[j])
    return out


@dataclass(frozen=True)
class SolverConfig:
    lambda_corr: float = positive(25.0)
    lambda_reg: float = positive(1.0)
    marquardt: float = positive(0.01)
    max_iterations: int = 50
    cost_tolerance: float = positive(1e-6)
    step_tolerance: float = positive(1e-6)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SolveResult:
    field: WarpField
    cost_trace: tuple


def _corr_assignment(field: WarpField, corr: CorrespondenceSet):
    graph = field.graph
    return assign_points(corr.source, graph.nodes, graph.assign_k, graph.coverage)


def residuals(field: WarpField, corr: CorrespondenceSet, edges: np.ndarray,
              config: SolverConfig) -> np.ndarray:
    """Stacked residual vector: 3 per correspondence, then 3 per edge."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return _residual_vector(field, corr, edges, config, *_corr_assignment(field, corr))


def _residual_vector(field: WarpField, corr: CorrespondenceSet, edges: np.ndarray,
                     config: SolverConfig, order: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """`residuals` with the correspondences already assigned to nodes."""
    n = len(corr)
    r = np.zeros(3 * n + 3 * edges.shape[0])
    sc = np.sqrt(config.lambda_corr)
    r[: 3 * n] = (sc * (_blend(field, corr.source, order, weights) - corr.target)).ravel()
    if edges.shape[0]:
        u, v = edges[:, 0], edges[:, 1]
        nodes = field.graph.nodes
        sr = np.sqrt(config.lambda_reg)
        bent = np.einsum("eab,eb->ea", field.rotations[u], nodes[v] - nodes[u])
        r[3 * n:] = (sr * (bent + nodes[u] + field.translations[u]
                           - (nodes[v] + field.translations[v]))).ravel()
    return r


def jacobian(field: WarpField, corr: CorrespondenceSet, edges: np.ndarray,
             config: SolverConfig) -> np.ndarray:
    """Dense Jacobian of `residuals` w.r.t. [w_1..w_V, dt_1..dt_V] at w = 0."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = field.graph
    n, e, v = len(corr), edges.shape[0], graph.num_nodes
    jac = np.zeros((3 * n + 3 * e, 6 * v))
    sc = np.sqrt(config.lambda_corr)
    sr = np.sqrt(config.lambda_reg)
    order, weights = _corr_assignment(field, corr)
    rows = 3 * np.arange(n)
    for col in range(order.shape[1]):
        j = order[:, col]
        alpha = weights[:, col]
        lever = np.einsum("nab,nb->na", field.rotations[j], corr.source - graph.nodes[j])
        # d r_corr / d w_j = -sqrt(lc) * alpha * skew(R_j (x - v_j))
        blocks = -sc * alpha[:, None, None] * skew(lever)
        cols = 3 * j
        for a in range(3):
            for b in range(3):
                jac[rows + a, cols + b] = blocks[:, a, b]
            jac[rows + a, 3 * v + cols + a] = sc * alpha
    if e:
        u, w = edges[:, 0], edges[:, 1]
        lever = np.einsum("eab,eb->ea", field.rotations[u], graph.nodes[w] - graph.nodes[u])
        blocks = -sr * skew(lever)
        erows = 3 * n + 3 * np.arange(e)
        for a in range(3):
            for b in range(3):
                jac[erows + a, 3 * u + b] = blocks[:, a, b]
            jac[erows + a, 3 * v + 3 * u + a] = sr
            jac[erows + a, 3 * v + 3 * w + a] = -sr
    return jac


@dataclass(frozen=True)
class _Problem:
    """What stays fixed while a solve iterates: the correspondences'
    assignment to nodes, and the flat positions in the normal equations of
    every entry of each residual's Jacobian-block products."""

    corr: CorrespondenceSet
    edges: np.ndarray
    config: SolverConfig
    order: np.ndarray           # (N, k') node indices per correspondence
    weights: np.ndarray         # (N, k') skinning weights
    normal_index: np.ndarray    # flat index into the 6V x 6V matrix
    gradient_index: np.ndarray  # index into the 6V gradient

    def residuals(self, field: WarpField) -> np.ndarray:
        return _residual_vector(field, self.corr, self.edges, self.config,
                                self.order, self.weights)


def _problem(graph: DeformationGraph, corr: CorrespondenceSet,
             config: SolverConfig) -> _Problem:
    """Assign the correspondences once and lay out the block scatter over
    the graph's own edges.

    Block columns count in units of 3 unknowns: node j's rotation is block
    j, its translation block V + j. A correspondence touches the rotation
    and translation blocks of its k' nodes, an edge (u, w) the rotation of
    u and the translations of u and w.
    """
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    order, weights = assign_points(corr.source, graph.nodes, graph.assign_k, graph.coverage)
    v = graph.num_nodes
    corr_cols = np.concatenate([order, v + order], axis=1)
    edge_cols = np.stack([edges[:, 0], v + edges[:, 0], v + edges[:, 1]], axis=1)
    normal_index, gradient_index = [], []
    for cols in (corr_cols, edge_cols):
        unknowns = (3 * cols[:, :, None] + np.arange(3)).reshape(cols.shape[0], 3 * cols.shape[1])
        normal_index.append((6 * v * unknowns[:, :, None] + unknowns[:, None, :]).ravel())
        gradient_index.append(unknowns.ravel())
    return _Problem(corr, edges, config, order, weights,
                    np.concatenate(normal_index), np.concatenate(gradient_index))


def _jacobian_blocks(field: WarpField, problem: _Problem):
    """Each residual's three rows of `jacobian`, restricted to the block
    columns it touches, in `_problem`'s column order: (N, 3, 6k') for the
    correspondences and (E, 3, 9) for the edges. Every other entry of
    those rows is zero."""
    nodes = field.graph.nodes
    sc = np.sqrt(problem.config.lambda_corr)
    sr = np.sqrt(problem.config.lambda_reg)
    order, alpha = problem.order, problem.weights[:, :, None, None]
    lever = np.einsum("nkab,nkb->nka", field.rotations[order],
                      problem.corr.source[:, None, :] - nodes[order])
    # d r_corr / d w_j = -sqrt(lc) * alpha * skew(R_j (x - v_j)); d / d dt_j = sqrt(lc) * alpha
    corr_blocks = np.concatenate([-sc * alpha * skew(lever), sc * alpha * np.eye(3)], axis=1)
    u, w = problem.edges[:, 0], problem.edges[:, 1]
    lever = np.einsum("eab,eb->ea", field.rotations[u], nodes[w] - nodes[u])
    eye = np.broadcast_to(np.eye(3), lever.shape + (3,))
    edge_blocks = sr * np.stack([-skew(lever), eye, -eye], axis=1)
    # (m, blocks, 3 rows, 3 cols) -> (m, 3 rows, blocks * 3 cols)
    return tuple(b.transpose(0, 2, 1, 3).reshape(b.shape[0], 3, 3 * b.shape[1])
                 for b in (corr_blocks, edge_blocks))


def _normal_equations(field: WarpField, problem: _Problem):
    """J^T J and J^T r at the field, summed from per-residual blocks."""
    r = problem.residuals(field).reshape(-1, 3)
    n = len(problem.corr)
    products, gradients = [], []
    for jac, res in zip(_jacobian_blocks(field, problem), (r[:n], r[n:])):
        products.append(np.matmul(jac.transpose(0, 2, 1), jac).ravel())
        gradients.append(np.einsum("mai,ma->mi", jac, res).ravel())
    size = 6 * field.graph.num_nodes
    normal = np.bincount(problem.normal_index, np.concatenate(products),
                         minlength=size * size).reshape(size, size)
    gradient = np.bincount(problem.gradient_index, np.concatenate(gradients), minlength=size)
    return normal, gradient


def _step_vector(field: WarpField, problem: _Problem) -> np.ndarray:
    normal, gradient = _normal_equations(field, problem)
    normal[np.diag_indices_from(normal)] += problem.config.marquardt
    try:
        delta = np.linalg.solve(normal, -gradient)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("solver breakdown: singular normal equations") from exc
    if not np.isfinite(delta).all():
        raise NumericalError("solver breakdown: non-finite step")
    return delta


def _apply_step(field: WarpField, delta: np.ndarray) -> WarpField:
    if not delta.any():
        return field
    v = field.graph.num_nodes
    omegas = delta[: 3 * v].reshape(v, 3)
    shifts = delta[3 * v:].reshape(v, 3)
    rotations = project_rotation(exp_so3(omegas) @ field.rotations)
    return WarpField(field.graph, rotations, field.translations + shifts)


def _cost(field: WarpField, problem: _Problem) -> float:
    r = problem.residuals(field)
    return float(r @ r)


def gauss_newton_step(field: WarpField, corr: CorrespondenceSet,
                      config: SolverConfig):
    """One damped step on the field's own edges; returns (field, new cost)."""
    if len(corr) < 1:
        raise ValidationError("no correspondences")
    problem = _problem(field.graph, corr, config)
    updated = _apply_step(field, _step_vector(field, problem))
    return updated, _cost(updated, problem)


def solve(corr: CorrespondenceSet, source: PointCloud, config: SolverConfig,
          coverage: float = 0.08, assign_k: int = 6,
          graph: DeformationGraph | None = None) -> SolveResult:
    """Damped Gauss-Newton loop from the identity field.

    Stops on max_iterations, a step below step_tolerance (checked before
    applying, so an already-converged problem records a single cost), a
    relative cost decrease below cost_tolerance, or a cost increase (the
    step is rejected and the previous iterate returned). The cost trace
    over accepted iterates is non-increasing.
    """
    if len(corr) < 1:
        raise ValidationError("no correspondences")
    if graph is None:
        graph = build_graph(source, coverage, assign_k)
    problem = _problem(graph, corr, config)
    field = WarpField.identity(graph)
    cost = _cost(field, problem)
    trace = [cost]
    for _ in range(config.max_iterations):
        try:
            delta = _step_vector(field, problem)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (iteration {len(trace)})") from exc
        if np.abs(delta).max() < config.step_tolerance:
            break
        candidate = _apply_step(field, delta)
        new_cost = _cost(candidate, problem)
        if new_cost > cost:
            break
        field = candidate
        trace.append(new_cost)
        converged = (cost - new_cost) <= config.cost_tolerance * cost
        cost = new_cost
        if converged:
            break
    return SolveResult(field=field, cost_trace=tuple(trace))


def write_warp_field(path, field: WarpField) -> None:
    """Text format: one header line (node count, coverage, assign_k), then
    per node: position, axis-angle rotation, translation."""
    graph = field.graph
    lines = [f"warp-field nodes {graph.num_nodes} coverage {float(graph.coverage)!r} assign_k {graph.assign_k}"]
    for j in range(graph.num_nodes):
        values = np.concatenate(
            [graph.nodes[j], log_so3(field.rotations[j]), field.translations[j]]
        )
        lines.append(" ".join(repr(float(x)) for x in values))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_warp_field(path) -> WarpField:
    """Inverse of write_warp_field; the returned field carries a node-only
    graph (no correspondence assignments, no edges)."""
    rows = ((n, line.split()) for n, line in enumerate(read_lines(path), start=1) if line.strip())
    line, head = next(rows, (0, None))
    if head is None:
        raise FileFormatError(f"{path}: empty warp-field file")
    if len(head) != 7 or head[0] != "warp-field" or head[1] != "nodes" \
            or head[3] != "coverage" or head[5] != "assign_k" \
            or not head[2].isdigit() or not head[6].isdigit():
        raise FileFormatError(f"{path}:{line}: bad warp-field header")
    count, assign_k = int(head[2]), int(head[6])
    coverage = float(parse_rows([(line, head[4:5])], 1, path)[0, 0])
    if count < 1 or assign_k < 1 or coverage <= 0:
        raise FileFormatError(f"{path}:{line}: node count, coverage and assign_k must be positive")
    values = parse_rows(rows, 9, path)
    if len(values) != count:
        raise FileFormatError(f"{path}: expected {count} node lines, found {len(values)}")
    nodes, omegas, translations = (np.ascontiguousarray(values[:, i:i + 3]) for i in (0, 3, 6))
    graph = DeformationGraph(
        nodes=nodes,
        coverage=coverage,
        assign_k=assign_k,
        point_to_nodes=np.zeros((0, min(assign_k, count)), dtype=np.int64),
        point_weights=np.zeros((0, min(assign_k, count))),
        node_to_members=tuple(np.zeros(0, dtype=np.int64) for _ in range(count)),
        edges=np.zeros((0, 2), dtype=np.int64),
        node_indices=np.arange(count, dtype=np.int64),
    )
    return WarpField(graph, exp_so3(omegas), translations)
