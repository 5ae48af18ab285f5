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
about 2 KB per correspondence at k = 6, plus one V x V array. Each field
the loop visits is evaluated once from the table: its residuals, its
cost and its rotated levers, which the next step's J^T r reuses. Each
step assembles the 3 x 3 blocks of J^T J for every node pair from the
moments and the current rotations, in time linear in the number of node
pairs P rather than in correspondences times k^2. The translation block
of J^T J does not depend on the field, so its damped inverse K is
computed once per solve too; each step solves only the rotations' Schur
complement, by conjugate gradients that apply it from the pair blocks
and K without forming it, and then back-substitutes for the translations
(the reduced system of bundle adjustment). A step stores the blocks'
9P entries sorted by row, as compressed sparse rows, so each product is
one gather and one sum per row segment; it holds arrays of 9P entries
and of 3V, never a 3V x 3V one. A step is built once (`_schur_system`)
and solved for a damping (`_conjugate_gradients`), so that a retry at
another damping would re-run only the solve. `residuals` and `jacobian` build
the full dense residual vector and Jacobian and are the reference the
solver is tested against.
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
    """Stacked residual vector: 3 per correspondence, then 3 per edge.

    An oracle: no pipeline path calls it. Acceptance gate 2 differentiates
    it by finite differences, and the dense reference loop that `solve`
    must match is built on it and `jacobian`."""
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
    """Dense Jacobian of `residuals` w.r.t. [w_1..w_V, dt_1..dt_V] at w = 0.

    An oracle: no pipeline path calls it. Acceptance gate 2 checks it
    against finite differences, and the tests check the solver's node-pair
    blocks and its steps against the dense normal equations built on it."""
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
    fix every block of J^T J up to the current rotations: the rotation
    block A_ab from M_ab, and the mixed block B_ab = skew(R_a m_ab). The
    translation block is W (x) I3, with W the V x V matrix of the W_ab; it
    does not depend on the field at all, so the damped W + marquardt I =
    L L^T is factored here, once, and its inverse K = L^-T L^-1 kept.

    Entry (p, i, j) of the (P, 3, 3) pair blocks of pair p = (a, b) sits at
    row 3a + i and column 3b + j of the 3V x 3V rotation system. A step
    stores each block array's 9P entries in row order, `entry_order`, so
    that every row's entries are one contiguous segment, ordered by column:
    the rotation system in compressed sparse rows. A product with it
    gathers x at `entry_cols` and sums each non-empty segment, which starts
    at `row_starts` and is row `row_ids`; a node on no pair has empty rows.
    `pairs` is symmetric and sorted by (a, b), and `pair_mirrors[p]` is the
    index of (b, a), so B^T's blocks in that layout are B's mirrored and
    transposed.
    """

    offsets: np.ndarray       # (N + E, 3) constant of each residual
    term_rows: np.ndarray     # (T,) residual (3-row group) of each term
    term_nodes: np.ndarray    # (T,) node of each term
    term_coefs: np.ndarray    # (T,) c
    term_levers: np.ndarray   # (T, 3) q
    pairs: np.ndarray         # (P, 2) node pairs (a, b) sharing a residual
    pair_weights: np.ndarray  # (P,) W_ab
    pair_levers: np.ndarray   # (P, 3) m_ab
    pair_moments: np.ndarray  # (P, 3, 3) M_ab
    translation_inverse: np.ndarray  # (V, V) K = (W + marquardt I)^-1
    pair_mirrors: np.ndarray  # (P,) index of (b, a)
    entry_order: np.ndarray   # (9P,) raveled block entries sorted by row 3a + i
    entry_cols: np.ndarray    # (9P,) 3b + j of each, in that order
    row_starts: np.ndarray    # (R,) first entry of each non-empty row
    row_ids: np.ndarray       # (R,) that row's 3a + i


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
    entries = 3 * pairs[:, :, None] + np.arange(3)  # (P, 2, 3): 3a + i and 3b + j
    entry_rows = np.repeat(entries[:, 0], 3, axis=1).ravel()
    entry_order = np.argsort(entry_rows, kind="stable")
    sorted_rows = entry_rows[entry_order]
    row_starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    term_nodes, term_coefs, term_levers = (
        np.concatenate([g[i].reshape(-1, *g[i].shape[2:]) for g in groups]) for i in range(3))
    term_rows = np.concatenate([np.repeat(np.arange(n), order.shape[1]),
                                np.repeat(n + np.arange(len(edges)), 2)])
    offsets = np.concatenate([sc * corr.target, np.zeros((len(edges), 3))])
    mirrors = np.searchsorted(v * pairs[:, 0] + pairs[:, 1], v * pairs[:, 1] + pairs[:, 0])
    return _Problem(offsets, term_rows, term_nodes, term_coefs, term_levers, pairs,
                    pair_weights, pair_levers, pair_moments, whitener.T @ whitener, mirrors,
                    entry_order, np.tile(entries[:, 1], 3).ravel()[entry_order],
                    row_starts, sorted_rows[row_starts])


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
    node-pair moments. Returns the (3, 3) blocks A_ab and B_ab of every
    node pair (a, b) in `problem.pairs`, A and B being zero elsewhere, and
    J^T r (6V,) in `jacobian`'s order."""
    rot = at.field.rotations
    a, b = problem.pairs[:, 0], problem.pairs[:, 1]
    # skew(R_a q_a)^T skew(R_b q_b) = (l_a . l_b) I - l_b l_a^T, summed over the pair;
    # R_a^T is gathered from a contiguous copy, as a strided operand halves matmul's speed
    t = rot[b] @ problem.pair_moments @ np.ascontiguousarray(rot.transpose(0, 2, 1))[a]
    rotation = np.trace(t, axis1=1, axis2=2)[:, None, None] * np.eye(3) - t
    mixed = skew(np.einsum("pij,pj->pi", rot[a], problem.pair_levers))
    r = at.residuals[problem.term_rows]
    # d r / d w_j = -c skew(l), d r / d dt_j = c I
    terms = problem.term_coefs[:, None] * np.concatenate([np.cross(at.levers, r), r], axis=1)
    gradient = np.stack([np.bincount(problem.term_nodes, terms[:, i], minlength=len(rot))
                         for i in range(6)], axis=1)
    return rotation, mixed, np.concatenate([gradient[:, :3].ravel(), gradient[:, 3:].ravel()])


class _System(NamedTuple):
    """One step's rotation system before damping, in `_Problem`'s row order."""

    rotation: np.ndarray  # (9P,) entries of A
    mixed: np.ndarray     # (9P,) entries of B
    mixed_t: np.ndarray   # (9P,) entries of B^T
    diagonal: np.ndarray  # (3V,) A's diagonal
    shift: np.ndarray     # (3V,) K g_t
    rhs: np.ndarray       # (3V,) B K g_t - g_w


def _row_sums(problem: _Problem, entries: np.ndarray) -> np.ndarray:
    """The (3V,) sums of each row's segment of row-ordered entries; an empty
    row sums to 0, which `np.add.reduceat` alone would not give."""
    out = np.zeros(3 * len(problem.translation_inverse))
    out[problem.row_ids] = np.add.reduceat(entries, problem.row_starts)
    return out


def _schur_system(problem: _Problem, at: _Iterate) -> _System:
    """The normal equations at an iterate, laid out for `_conjugate_gradients`."""
    rotation, mixed, gradient = _normal_equations(problem, at)
    if not all(np.isfinite(x).all() for x in (rotation, mixed, gradient)):
        raise NumericalError("solver breakdown: non-finite normal equations")
    order, cols, v = problem.entry_order, problem.entry_cols, len(problem.translation_inverse)
    block_b = mixed.ravel()[order]
    on = problem.pairs[:, 0] == problem.pairs[:, 1]
    diagonal = np.zeros((v, 3))
    diagonal[problem.pairs[on, 0]] = np.diagonal(rotation[on], axis1=1, axis2=2)
    shift = (problem.translation_inverse @ gradient[3 * v:].reshape(v, 3)).ravel()
    return _System(rotation.ravel()[order], block_b,
                   mixed[problem.pair_mirrors].transpose(0, 2, 1).ravel()[order],
                   diagonal.ravel(), shift,
                   _row_sums(problem, block_b * shift[cols]) - gradient[:3 * v])


def _spread(problem: _Problem, system: _System, xc: np.ndarray) -> np.ndarray:
    """K B^T x, from x gathered at the entries' columns."""
    inverse = problem.translation_inverse
    return (inverse @ _row_sums(problem, system.mixed_t * xc).reshape(len(inverse), 3)).ravel()


def _schur_product(problem: _Problem, system: _System, mu: float, x: np.ndarray) -> np.ndarray:
    """S x = (A + mu I - B K B^T) x, with one gather of x for both A and B^T.
    The entry products are formed in place in the two gathered arrays, which
    saves about a tenth of the product's time over fresh temporaries."""
    cols = problem.entry_cols
    xc = x.take(cols)
    u = _spread(problem, system, xc).take(cols)
    xc *= system.rotation
    u *= system.mixed
    xc -= u
    return _row_sums(problem, xc) + mu * x


def _conjugate_gradients(problem: _Problem, system: _System, mu: float) -> np.ndarray:
    """The damped step [omega, t] solving (J^T J + mu I) [omega, t] = -[g_w, g_t],
    with the rotations damped by mu.

    With K = (W + marquardt I)^-1 from `problem`, the rotations solve the
    Schur complement S omega = B K g_t - g_w, S = A + mu I - B K B^T, and
    the translations follow as t = -K (g_t + B^T omega). S is symmetric
    positive definite and never formed: conjugate gradients apply it by
    `_schur_product`, preconditioned by the inverse of the diagonal of
    A + mu I. They stop once the residual is at most 1e-14 of the
    right-hand side's norm, or after 3V iterations; the cost check accepts
    or rejects that iterate as it does any step. A direction of zero or
    negative curvature, which only rounding can give, raises."""
    v = len(problem.translation_inverse)
    preconditioner = 1.0 / (system.diagonal + mu)
    # iterate on rhs / 2^e, an exact scaling to a largest entry below 1, so
    # that |r|^2 cannot overflow however large the coordinates
    exponent = np.frexp(np.abs(system.rhs).max())[1]
    residual = np.ldexp(system.rhs, -exponent)
    bound = 1e-28 * (residual @ residual)  # |r| <= 1e-14 |rhs|
    omega, direction, fit = np.zeros(3 * v), np.zeros(3 * v), np.inf
    for _ in range(3 * v):
        if residual @ residual <= bound:
            break
        z = preconditioner * residual
        fit, previous = residual @ z, fit
        direction = z + (fit / previous) * direction
        product = _schur_product(problem, system, mu, direction)
        curvature = direction @ product
        if not 0.0 < curvature < np.inf:
            raise NumericalError("solver breakdown: singular normal equations")
        length = fit / curvature
        omega += length * direction
        residual -= length * product
    omega = np.ldexp(omega, exponent)
    spread = _spread(problem, system, omega[problem.entry_cols])
    delta = np.concatenate([omega, -(system.shift + spread)])
    if not np.isfinite(delta).all():
        raise NumericalError("solver breakdown: non-finite step")
    return delta


def _apply_step(field: WarpField, delta: np.ndarray) -> WarpField:
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
            delta = _conjugate_gradients(problem, _schur_system(problem, at), config.marquardt)
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
