"""Embedded-deformation warping and the damped Gauss-Newton solver.

A WarpField blends one rigid transform per graph node into a smooth
warp, W(p) = sum_j a_j (R_j (p - v_j) + v_j + t_j), with skinning
weights computed on the fly from the field's graph. The solver
minimizes

    lambda_corr * sum_i |W(x_i) - y_i|^2
  + lambda_reg  * sum_(u,v) |R_u (v_v - v_u) + v_u + t_u - (v_v + t_v)|^2

by damped Gauss-Newton steps on the stacked per-node axis-angle and
translation increments [w_1..w_V, dt_1..dt_V], linearized at w = 0.

The source points are fixed, so `solve` assigns them to nodes once and,
also once per solve, writes every residual as a table of per-node terms
minus a constant offset and sums node-pair moments of those terms
(`_Problem`). It sums the 13 moment columns one at a time, so set-up
holds a few arrays of one entry per pair of terms sharing a residual
(N k^2 of them, for k nodes per point) and never a table of all 13:
about 2 KB per correspondence at k = 6, plus three arrays of 9 V^2
floats. Each field the loop visits is evaluated once from the table:
its residuals, its cost and its rotated levers, which the next step's
J^T r reuses. Each step assembles J^T J from the moments and the
current rotations, in time linear in the number of node pairs rather
than in correspondences times k^2. The translation block of J^T J does
not depend on the field, so its damped inverse is factored once per
solve too; each step solves only the 3V x 3V Schur complement for the
rotations and back-substitutes for the translations (the reduced system
of bundle adjustment). The Schur complement needs the mixed block
whitened by that factor. Since skew(R m) = R skew(m) R^T, the whitened
lever moments are also computed once per solve, and each step only turns
them by the per-node Kronecker products R_a (x) R_a. `residuals` and
`jacobian` build the full dense residual vector and Jacobian and are the
reference the solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from defreg.consistency import CorrespondenceSet
from defreg.defgraph import DeformationGraph, assign_points, build_graph
from defreg.errors import (FileFormatError, NumericalError, ValidationError, check_fields,
                           format_row, parse_rows, positive, read_lines, write_lines)
from defreg.geometry import PointCloud, _as_points, exp_so3, log_so3, project_rotation, skew

__all__ = [
    "WarpField",
    "SolverConfig",
    "SolveResult",
    "residuals",
    "jacobian",
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
        nodes = self.graph.nodes
        order, weights = assign_points(pts, nodes, self.graph.assign_k, self.graph.coverage)
        out = np.zeros_like(pts)
        for col in range(order.shape[1]):
            j = order[:, col]
            local = np.einsum("nab,nb->na", self.rotations[j], pts - nodes[j])
            out += weights[:, col, None] * (local + nodes[j] + self.translations[j])
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


def residuals(field: WarpField, corr: CorrespondenceSet, edges: np.ndarray,
              config: SolverConfig) -> np.ndarray:
    """Stacked residual vector: 3 per correspondence, then 3 per edge."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    nodes, tra = field.graph.nodes, field.translations
    bent = np.einsum("eab,eb->ea", field.rotations[u], nodes[v] - nodes[u])
    return np.concatenate([
        (np.sqrt(config.lambda_corr) * (field.warp(corr.source) - corr.target)).ravel(),
        (np.sqrt(config.lambda_reg) * (bent + nodes[u] + tra[u] - (nodes[v] + tra[v]))).ravel(),
    ])


def jacobian(field: WarpField, corr: CorrespondenceSet, edges: np.ndarray,
             config: SolverConfig) -> np.ndarray:
    """Dense Jacobian of `residuals` w.r.t. [w_1..w_V, dt_1..dt_V] at w = 0."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    graph = field.graph
    n, e, v = len(corr), edges.shape[0], graph.num_nodes
    jac = np.zeros((3 * n + 3 * e, 6 * v))
    sc = np.sqrt(config.lambda_corr)
    sr = np.sqrt(config.lambda_reg)
    order, weights = assign_points(corr.source, graph.nodes, graph.assign_k, graph.coverage)
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
    """What stays fixed while a solve iterates.

    Every residual is a sum of terms, one per node j it touches, minus a
    constant offset: sum_j c (R_j q + v_j + t_j) - offset. A correspondence
    has one term per assigned node, with c = sqrt(lambda_corr) alpha_j and
    lever q = x - v_j, and the offset sqrt(lambda_corr) y. An edge (u, w)
    has two: c = sqrt(lambda_reg) with q = v_w - v_u at u, and
    c = -sqrt(lambda_reg) with q = 0 at w; its offset is 0. So a term's row
    block of the Jacobian is -c skew(R_j q) in w_j's columns and c I in
    dt_j's.

    For every node pair (a, b) whose terms share a residual, the moments
    W_ab = sum c_a c_b, m_ab = sum c_a c_b q_a and M_ab = sum c_a c_b q_b q_a^T
    fix every block of J^T J up to the current rotations. The translation
    block is W (x) I3, with W the V x V matrix of the W_ab; it does not
    depend on the field at all, so the damped W + marquardt I = L L^T is
    factored here, once. The mixed block B_ab = skew(R_a m_ab) enters each
    step whitened, as G = B (I3 (x) L^-T); with skew(R m) = R skew(m) R^T,
    G[a] = (R_a (x) R_a) H[a] for the field-free whitened lever moments
    H[a, k, l, b'] = sum_b skew(m_ab)[k, l] L^-1[b', b], also computed here.

    Two step buffers are made here too, once per solve, and each step
    overwrites them: `whitened` receives G and `schur` the Schur
    complement, so a step allocates neither 3V x 3V product.
    """

    config: SolverConfig
    offsets: np.ndarray       # (N + E, 3) constant of each residual
    term_rows: np.ndarray     # (T,) residual (3-row group) of each term
    term_nodes: np.ndarray    # (T,) node of each term
    term_coefs: np.ndarray    # (T,) c
    term_levers: np.ndarray   # (T, 3) q
    pairs: np.ndarray         # (P, 2) node pairs (a, b) sharing a residual
    pair_weights: np.ndarray  # (P,) W_ab
    pair_moments: np.ndarray  # (P, 3, 3) M_ab
    whitener: np.ndarray      # (V, V) L^-1, where W + marquardt I = L L^T
    whitened_levers: np.ndarray  # (V, 9, V) H, row k * 3 + l
    whitened: np.ndarray      # (V, 9, V) step buffer for G
    schur: np.ndarray         # (3V, 3V) step buffer for the Schur complement


def _pair_moments(groups, v: int):
    """The node pairs (a, b) whose terms share a residual and their moments
    W_ab (P,), m_ab (P, 3) and M_ab (P, 3, 3), from `groups` of (nodes,
    coefs, levers) shaped (R, K), (R, K) and (R, K, 3), one residual per
    row. Each of the 13 moment columns is built and summed on its own, so
    the working set is a few arrays of one entry per term pair. Every pair
    sums its terms in one fixed order, correspondences then edges, each
    product taken as c_a c_b, c_a c_b q_a[x] or c_a c_b (q_b[x] q_a[y])."""
    # term a on axis 1, term b on axis 2
    keys, inverse = np.unique(np.concatenate([(v * j[:, :, None] + j[:, None, :]).ravel()
                                              for j, _, _ in groups]), return_inverse=True)
    terms = [(c[:, :, None] * c[:, None, :], q) for _, c, q in groups]  # (c_a c_b, q)

    def column(products):
        return np.bincount(inverse, np.concatenate([p.ravel() for p in products]),
                           minlength=len(keys))

    return (np.stack(np.divmod(keys, v), axis=1),
            column(cc for cc, _ in terms),
            np.stack([column(cc * q[:, :, None, x] for cc, q in terms) for x in range(3)], axis=1),
            np.stack([column(cc * (q[:, None, :, x] * q[:, :, None, y]) for cc, q in terms)
                      for x in range(3) for y in range(3)], axis=1).reshape(-1, 3, 3))


def _problem(graph: DeformationGraph, corr: CorrespondenceSet,
             config: SolverConfig) -> _Problem:
    """Assign the correspondences once and sum the node-pair moments."""
    edges = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    order, weights = assign_points(corr.source, graph.nodes, graph.assign_k, graph.coverage)
    nodes, v, n = graph.nodes, graph.num_nodes, len(corr)
    sc, sr = np.sqrt(config.lambda_corr), np.sqrt(config.lambda_reg)
    u, w = edges[:, 0], edges[:, 1]
    # (residuals, terms per residual) arrays: correspondences, then edges
    groups = [
        (order, sc * weights, corr.source[:, None, :] - nodes[order]),
        (edges, np.broadcast_to([sr, -sr], edges.shape),
         np.stack([nodes[w] - nodes[u], np.zeros((len(edges), 3))], axis=1)),
    ]
    pairs, pair_weights, pair_levers, pair_moments = _pair_moments(groups, v)
    damped = config.marquardt * np.eye(v)
    damped[pairs[:, 0], pairs[:, 1]] += pair_weights
    try:
        whitener = np.linalg.inv(np.linalg.cholesky(damped))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("solver breakdown: translation block is not positive definite") from exc
    # the step's G buffer holds the unwhitened lever moments until the first step
    whitened = np.zeros((v, 9, v))
    whitened.reshape(v, 3, 3, v)[pairs[:, 0], :, :, pairs[:, 1]] = skew(pair_levers)
    term_nodes, term_coefs, term_levers = (
        np.concatenate([g[i].reshape(-1, *g[i].shape[2:]) for g in groups]) for i in range(3))
    term_rows = np.concatenate([np.repeat(np.arange(n), order.shape[1]),
                                np.repeat(n + np.arange(len(edges)), 2)])
    offsets = np.concatenate([sc * corr.target, np.zeros((len(edges), 3))])
    return _Problem(config, offsets, term_rows, term_nodes, term_coefs, term_levers, pairs,
                    pair_weights, pair_moments, whitener,
                    (whitened.reshape(9 * v, v) @ whitener.T).reshape(v, 9, v),
                    whitened, np.empty((3 * v, 3 * v)))


class _Iterate(NamedTuple):
    """A field the solver visits, evaluated once."""

    field: WarpField
    residuals: np.ndarray  # (N + E, 3), in `residuals`' order
    cost: float            # the squared norm of the residuals
    levers: np.ndarray     # (T, 3) R_j q of every term


def _evaluate(field: WarpField, problem: _Problem) -> _Iterate:
    """The residuals at the field, summed from the term table."""
    j, c = problem.term_nodes, problem.term_coefs[:, None]
    levers = np.einsum("tij,tj->ti", field.rotations[j], problem.term_levers)
    terms = c * (levers + field.graph.nodes[j] + field.translations[j])
    r = np.stack([np.bincount(problem.term_rows, terms[:, i], minlength=len(problem.offsets))
                  for i in range(3)], axis=1) - problem.offsets
    cost = float(r.ravel() @ r.ravel())
    if not np.isfinite(cost):
        raise NumericalError("solver breakdown: non-finite cost")
    return _Iterate(field, r, cost, levers)


def _normal_equations(problem: _Problem, at: _Iterate):
    """J^T J = [[A, B], [B^T, W (x) I3]] and J^T r at an iterate, from the
    node-pair moments. Returns A's (3, 3) block of every node pair (a, b)
    in `problem.pairs`, A being zero elsewhere; the whitened mixed block
    G = B (I3 (x) L^-T) (3V, 3V), with its translation columns ordered by
    component (x of every node, then y, then z), as the step's
    back-substitution reads them, written into `problem.whitened`, so the
    next call overwrites it; and J^T r (6V,) in `jacobian`'s order."""
    rot = at.field.rotations
    v = len(rot)
    a, b = problem.pairs[:, 0], problem.pairs[:, 1]
    # skew(R_a q_a)^T skew(R_b q_b) = (l_a . l_b) I - l_b l_a^T, summed over the pair
    t = rot[b] @ problem.pair_moments @ rot[a].transpose(0, 2, 1)
    rotation = np.trace(t, axis1=1, axis2=2)[:, None, None] * np.eye(3) - t
    # (R_a (x) R_a)[i * 3 + c, k * 3 + l] = R_a[i, k] R_a[c, l]
    turns = (rot[:, :, None, :, None] * rot[:, None, :, None, :]).reshape(v, 9, 9)
    whitened = np.matmul(turns, problem.whitened_levers, out=problem.whitened).reshape(3 * v, 3 * v)
    r = at.residuals[problem.term_rows]
    # d r / d w_j = -c skew(l), d r / d dt_j = c I
    terms = problem.term_coefs[:, None] * np.concatenate([np.cross(at.levers, r), r], axis=1)
    gradient = np.stack([np.bincount(problem.term_nodes, terms[:, i], minlength=v)
                         for i in range(6)], axis=1)
    return rotation, whitened, np.concatenate([gradient[:, :3].ravel(), gradient[:, 3:].ravel()])


def _step_vector(problem: _Problem, at: _Iterate) -> np.ndarray:
    """The damped step: the rotations from the Schur complement
    S = A + mu I - B (I3 (x) (W + mu I)^-1) B^T, then the translations by
    back-substitution. With W + mu I = L L^T and G = B (I3 (x) L^-T),
    S = A + mu I - G G^T."""
    rotation, whitened, gradient = _normal_equations(problem, at)
    whitener = problem.whitener
    v = len(whitener)
    schur = np.negative(np.matmul(whitened, whitened.T, out=problem.schur), out=problem.schur)
    # the pairs are unique, so this adds each of A's blocks once
    schur.reshape(v, 3, v, 3)[problem.pairs[:, 0], :, problem.pairs[:, 1], :] += rotation
    schur[np.diag_indices_from(schur)] += problem.config.marquardt
    g_w = gradient[: 3 * v]
    g_t = (gradient[3 * v:].reshape(v, 3).T @ whitener.T).ravel()  # (I3 (x) L^-1) J_t^T r
    try:
        omega = np.linalg.solve(schur, whitened @ g_t - g_w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("solver breakdown: singular normal equations") from exc
    shift = (-g_t - whitened.T @ omega).reshape(3, v) @ whitener
    delta = np.concatenate([omega, shift.T.ravel()])
    if not np.isfinite(delta).all():
        raise NumericalError("solver breakdown: non-finite step")
    return delta


def _apply_step(field: WarpField, delta: np.ndarray) -> WarpField:
    if not delta.any():
        return field
    v = field.graph.num_nodes
    omegas = delta[: 3 * v].reshape(v, 3)
    shifts = delta[3 * v:].reshape(v, 3)
    turns = exp_so3(omegas)
    if not np.isfinite(turns).all():
        raise NumericalError("solver breakdown: non-finite rotation update")
    rotations = project_rotation(turns @ field.rotations)
    return WarpField(field.graph, rotations, field.translations + shifts)


def solve(corr: CorrespondenceSet, source: PointCloud, config: SolverConfig,
          coverage: float = 0.08, assign_k: int = 6,
          graph: DeformationGraph | None = None) -> SolveResult:
    """Damped Gauss-Newton loop from the identity field.

    Stops on max_iterations, a step below step_tolerance (checked before
    applying, so an already-converged problem records a single cost), a
    relative cost decrease below cost_tolerance, or a cost increase (the
    step is rejected and the previous iterate returned). The cost trace
    over accepted iterates is non-increasing. Each field the loop visits
    is evaluated once, and an accepted one's residuals feed the next step.
    A non-finite cost, step or rotation update raises NumericalError naming
    the iteration (0 for the initial cost).
    """
    if graph is None:
        graph = build_graph(source, coverage, assign_k)
    trace = []
    try:
        problem = _problem(graph, corr, config)
        at = _evaluate(WarpField.identity(graph), problem)
        trace.append(at.cost)
        for _ in range(config.max_iterations):
            delta = _step_vector(problem, at)
            if np.abs(delta).max() < config.step_tolerance:
                break
            candidate = _evaluate(_apply_step(at.field, delta), problem)
            if candidate.cost > at.cost:
                break
            trace.append(candidate.cost)
            converged = (at.cost - candidate.cost) <= config.cost_tolerance * at.cost
            at = candidate
            if converged:
                break
    except NumericalError as exc:
        raise NumericalError(f"{exc} (iteration {len(trace)})") from exc
    return SolveResult(field=at.field, cost_trace=tuple(trace))


def write_warp_field(path, field: WarpField) -> None:
    """Text format: one header line (node count, coverage, assign_k), then
    per node: position, axis-angle rotation, translation."""
    graph = field.graph
    head = ("warp-field", "nodes", graph.num_nodes, "coverage", float(graph.coverage),
            "assign_k", graph.assign_k)
    write_lines(path, [format_row(head, " ")] + [
        format_row((*graph.nodes[j], *log_so3(field.rotations[j]), *field.translations[j]), " ")
        for j in range(graph.num_nodes)
    ])


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
        edges=np.zeros((0, 2), dtype=np.int64),
    )
    return WarpField(graph, exp_so3(omegas), translations)
