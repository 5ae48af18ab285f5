"""In-memory span tracer that wraps defreg's public functions from outside.

A span is (name, start, end, parent, root). Spans are recorded only while a
root span is open, so calls made by the benchmark's own output checks or by
code outside a measured region pass straight through. Every wrapped
function or method is restored by `uninstall`.

Self time of a span is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so the children of
a span never overlap and the self times of all spans under a root add up to
the root's duration exactly.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

from defreg.nicp import WarpField
from defreg.scnet.model import ScaUnit
from defreg.training import AdamState

# Harness spans (the roots and the tracer's own bookkeeping) carry this
# prefix; their self time is the "other" remainder of the accounting.
HARNESS_PREFIX = "bench."

# Span names of the two deformation graphs: a graph built in a register
# operation or by the scene generator is a solver graph, any other a pruning
# graph.
_SOLVER_GRAPH_PARENTS = ("bench.register", "synth.generate_scene")


def _unit_gflop(feats, dim: int) -> float:
    """Matmul FLOPs of one attention-unit forward over an (m, d) block:
    Q/K/V, output and two feedforward projections (6 x 2md^2) plus the
    logits and the attention-weighted sum (2 x 2m^2d)."""
    m = feats.shape[0]
    return (12.0 * m * dim * dim + 4.0 * m * m * dim) / 1e9


def _tape_bytes(obj, seen) -> int:
    """nbytes of every distinct array reachable through a forward tape."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_tape_bytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_tape_bytes(item, seen) for item in obj.values())
    slots = getattr(type(obj), "__slots__", ())
    return sum(_tape_bytes(getattr(obj, name), seen) for name in slots if hasattr(obj, name))


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, root]
        self.root_kinds = {}   # root span index -> "setup" or an operation kind
        self.counts = defaultdict(lambda: defaultdict(float))   # root -> name -> sum
        self.peaks = defaultdict(lambda: defaultdict(float))    # root -> name -> max
        self.graphs = defaultdict(list)                         # root -> [(V, E, sizes)]
        self.missing = set()   # wrap targets a later version no longer has
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if self._stack else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = self._open(HARNESS_PREFIX + kind)
        self.root_kinds[index] = kind
        try:
            yield
        finally:
            self._close(index)

    def _ancestor_names(self):
        return [self.spans[i][0] for i in self._stack]

    def _root(self) -> int:
        return self.spans[self._stack[0]][4]

    def count(self, name: str, value: float) -> None:
        self.counts[self._root()][name] += value

    def peak(self, name: str, value: float) -> None:
        peaks = self.peaks[self._root()]
        peaks[name] = max(peaks[name], value)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `name` is a span name or a callable of the open span names that
        returns one. `after(tracer, result, args)` records counters; it runs
        inside a harness span so its cost lands in "other", not in a layer.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            index = tracer._open(name(tracer._ancestor_names()) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                book = tracer._open(HARNESS_PREFIX + "tracer")
                try:
                    after(tracer, result, args)
                finally:
                    tracer._close(book)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read.

        A function imported by name into another module is wrapped under
        each name its callers look up (for example `assign_points` in both
        defgraph and nicp), so every call path records the same span.
        """
        def graph_name(ancestors):
            solver = any(a in _SOLVER_GRAPH_PARENTS for a in ancestors)
            return "defgraph.build_graph_solver" if solver else "defgraph.build_graph_prune"

        def after_unit_forward(tr, result, args):
            unit, feats = args[0], args[1]
            tr.count("scnet.unit_rows", feats.shape[0])
            tr.count("scnet.unit_gflop", _unit_gflop(feats, unit.dim))

        def after_run_forward(tr, state, args):
            tr.peak("scnet.tape_mb", _tape_bytes(state, set()) / 1e6)

        def after_local_consistency(tr, local, args):
            tr.count("consistency.block_entries", sum(b.size for b in local.blocks.values()))

        def after_build_graph(tr, graph, args):
            sizes = [m.size for m in graph.node_to_members]
            tr.graphs[tr._root()].append((graph.num_nodes, graph.edges.shape[0], sizes))

        def after_jacobian(tr, result, args):
            field, corr, edges = args[0], args[1], args[2]
            rows = 3 * len(corr) + 3 * len(edges)
            tr.peak("nicp.jacobian_mb", rows * 6 * field.graph.num_nodes * 8 / 1e6)

        def after_solve(tr, result, args):
            tr.count("nicp.accepted_steps", len(result.cost_trace) - 1)

        scnet_model = "defreg.scnet.model"
        for module in (scnet_model, "defreg.training"):
            self.wrap(module, "run_forward", "scnet.run_forward", after_run_forward)
        self.wrap(scnet_model, "aggregate", "scnet.aggregate")
        self.wrap(scnet_model, "classify", "scnet.classify")
        self.wrap(ScaUnit, "forward", "scnet.unit_forward", after_unit_forward)
        self.wrap(ScaUnit, "backward", "scnet.unit_backward")
        self.wrap("defreg.training", "backward_through", "scnet.backward_through")
        self.wrap("defreg.scnet.params_io", "load_params", "scnet.load_params")
        self.wrap("defreg.scnet.params_io", "save_params", "scnet.save_params")

        self.wrap("defreg.training", "prepare_scene", "training.prepare_scene")
        self.wrap("defreg.training", "train", "training.train")
        self.wrap("defreg.training", "backward", "training.backward")
        self.wrap(AdamState, "update", "training.adam")

        for module in ("defreg.consistency", "defreg.training"):
            self.wrap(module, "local_consistency", "consistency.local_consistency",
                      after_local_consistency)
        self.wrap("defreg.consistency", "read_corr_csv", "consistency.read_corr_csv")
        self.wrap("defreg.consistency", "write_corr_csv", "consistency.write_corr_csv")

        for module in ("defreg.defgraph", "defreg.training", "defreg.nicp", "defreg.synth"):
            self.wrap(module, "build_graph", graph_name, after_build_graph)
        for module in ("defreg.defgraph", "defreg.nicp"):
            self.wrap(module, "assign_points", "defgraph.assign_points")

        self.wrap("defreg.nicp", "solve", "nicp.solve", after_solve)
        self.wrap("defreg.nicp", "residuals", "nicp.residuals")
        self.wrap("defreg.nicp", "jacobian", "nicp.jacobian", after_jacobian)
        self.wrap(WarpField, "warp", "nicp.warp")
        self.wrap("defreg.nicp", "write_warp_field", "nicp.write_warp_field")
        self.wrap("defreg.nicp", "read_warp_field", "nicp.read_warp_field")

        self.wrap("defreg.pointcloud_io", "read_ply", "pointcloud_io.read_ply")
        self.wrap("defreg.evalmetrics", "registration_errors", "evalmetrics.registration_errors")
        self.wrap("defreg.synth", "generate_scene", "synth.generate_scene")
        self.wrap("defreg.synth", "write_scene_bundle", "synth.write_scene_bundle")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self, roots) -> dict:
        """Per-name totals over the spans under the given root indices.

        Returns {"total": name -> inclusive seconds, "self": name -> self
        seconds, "calls": name -> count, "wall": summed root durations}.
        """
        roots = set(roots)
        child_time = defaultdict(float)
        for name, start, end, parent, root in self.spans:
            if parent >= 0 and root in roots:
                child_time[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        wall = 0.0
        for index, (name, start, end, parent, root) in enumerate(self.spans):
            if root not in roots:
                continue
            duration = end - start
            if parent < 0:
                wall += duration
            total[name] += duration
            self_time[name] += duration - child_time[index]
            calls[name] += 1
        return {"total": dict(total), "self": dict(self_time), "calls": dict(calls), "wall": wall}
