"""`solve` on degenerate geometry returns a usable field or fails cleanly.

Each example builds a small problem with one degeneracy: duplicate or
collinear source points, a graph of a single node, fewer correspondences
than assign_k, or assign_k = 1 (a graph without edges), at a coordinate
scale between 1e-6 and 1e150. The target is a rigid motion of the source
plus noise, both in proportion to that scale. `solve` must return a finite
field whose cost trace is finite and non-increasing, or raise
ValidationError (exit 2) or NumericalError (exit 3); any other exception
would reach the user as a traceback with exit 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.consistency import CorrespondenceSet
from defreg.errors import NumericalError, ValidationError
from defreg.geometry import PointCloud, exp_so3
from defreg.nicp import SolverConfig, solve

CASES = ("duplicate", "collinear", "single-node", "few-points", "no-edges")


def _problem(case, count, rng):
    """(source points in the unit cube's scale, coverage, assign_k)."""
    points = rng.random((count, 3))
    if case == "duplicate":
        points[count // 2:] = points[0]
    elif case == "collinear":
        points = np.outer(rng.random(count), rng.normal(size=3))
    elif case == "few-points":
        points = points[: count % 5 + 1]
    coverage = 10.0 if case == "single-node" else 0.3
    return points, coverage, 1 if case == "no-edges" else 6


@settings(max_examples=100)
@given(case=st.sampled_from(CASES), count=st.integers(1, 12),
       exponent=st.integers(-6, 150), seed=st.integers(0, 2 ** 16))
def test_solve_on_degenerate_geometry(case, count, exponent, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    points, coverage, assign_k = _problem(case, count, rng)
    source = scale * points
    noise = scale * rng.normal(scale=0.05, size=source.shape)
    target = source @ exp_so3(rng.normal(scale=0.3, size=3)).T + noise
    try:
        with np.errstate(all="ignore"):
            result = solve(CorrespondenceSet(source, target), PointCloud(source),
                           SolverConfig(max_iterations=5), scale * coverage, assign_k)
    except (ValidationError, NumericalError):
        return
    trace = np.asarray(result.cost_trace)
    assert np.isfinite(trace).all()
    assert (np.diff(trace) <= 0).all()
    field = result.field
    assert np.isfinite(field.rotations).all() and np.isfinite(field.translations).all()
    if case == "single-node":
        assert field.graph.num_nodes == 1
    if case == "no-edges":
        assert field.graph.edges.shape[0] == 0
