"""The three benchmark workloads, driven through defreg's public API.

Each workload makes its inputs from the seed in `setup`, writes them to
files, and then runs cycles of operations on those files. A cycle returns
the timed operations, the quality figures, and a digest of its outputs.
The benchmark checks every operation's output after its timer stops, so
the checks never count as operation time.

Library calls go through module attributes (`consistency.read_corr_csv`,
not a name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from defreg import consistency, defgraph, evalmetrics, nicp, pointcloud_io, synth, training
from defreg.config import PipelineConfig, scnet_config, solver_config, train_config
from defreg.errors import FileFormatError, NumericalError, ValidationError
from defreg.scnet import model as scnet_model
from defreg.scnet import params_io
from defreg.training import AdamState

# Errors an operation may raise on bad data; anything else is a defect of
# the benchmark or the program and ends the run.
OP_ERRORS = (ValidationError, NumericalError, FileFormatError)

# A rotation re-read from warp.txt goes through exp_so3(log_so3(R)); the
# arccos in log_so3 loses digits at small angles (1e-11 seen on real scenes),
# so entries are compared to WarpField's own orthonormality tolerance.
ROTATION_ROUND_TRIP = 1e-9

# The README's small.json.
SMALL_MODEL = dict(feature_dim=32, num_blocks=1, units_per_block=2, num_groups=2,
                   epochs=10, learning_rate=0.003)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def scene_spec(seed: int, point_count: int, inlier_ratio: float) -> synth.SceneSpec:
    return synth.SceneSpec(point_count=point_count, surface="two-lobe", warp_kind="smooth-graph",
                           warp_magnitude=(0.2, 0.05), inlier_ratio=inlier_ratio,
                           inlier_noise_std=0.005, seed=seed)


def write_scene(out_dir: str, spec: synth.SceneSpec, config: PipelineConfig) -> None:
    """What `defreg synth` does: generate one scene and write its bundle."""
    source, target, gt_warp, corr = synth.generate_scene(
        spec, config.solver_coverage, config.solver_assign_k)
    synth.write_scene_bundle(out_dir, spec, source, target, gt_warp, corr)


@dataclass
class Op:
    kind: str
    seconds: float
    failed: bool = False
    reason: str = ""


@dataclass
class Cycle:
    ops: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)   # name -> list of values
    step_seconds: list = field(default_factory=list)
    digest: str = ""
    wall: float = 0.0
    traced: bool = False


class Recorder:
    """Runs the operations of one cycle: times each, checks its output
    outside the timer, and hashes the outputs into the cycle's digest."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.cycle = Cycle()
        self.hash = hashlib.sha256()

    def run(self, kind: str, action, check):
        """Run `action()` timed, then `check(result)`; returns the result or
        None when the operation failed. In a traced cycle the operation is a
        root span of its own, so the check is never traced."""
        start = time.perf_counter()
        try:
            with self.tracer.root(kind):
                result = action()
        except OP_ERRORS as exc:
            self.cycle.ops.append(Op(kind, time.perf_counter() - start, True, repr(exc)))
            self.hash.update(b"failed")
            return None
        seconds = time.perf_counter() - start
        try:
            check(result)
        except (CheckFailed, *OP_ERRORS) as exc:
            self.cycle.ops.append(Op(kind, seconds, True, repr(exc)))
            self.hash.update(b"failed")
            return None
        self.cycle.ops.append(Op(kind, seconds))
        return result

    def skip(self, kind: str, reason: str) -> None:
        self.cycle.ops.append(Op(kind, 0.0, True, reason))

    def quality(self, name: str, value: float) -> None:
        self.cycle.quality.setdefault(name, []).append(float(value))

    def finish(self) -> Cycle:
        self.cycle.digest = self.hash.hexdigest()
        return self.cycle


def timed_steps(action):
    """Run `action()` and time each step of `training.train` inside it, from
    entry to `training.backward` (forward, losses, backward) to the return of
    `AdamState.update`. These two wrappers are the only probes in an
    untraced run. Returns (result, step seconds)."""
    backward, update = training.backward, AdamState.__dict__["update"]
    starts, ends = [], []

    def timed_backward(*args, **kwargs):
        starts.append(time.perf_counter())
        return backward(*args, **kwargs)

    def timed_update(*args, **kwargs):
        result = update(*args, **kwargs)
        ends.append(time.perf_counter())
        return result

    training.backward, AdamState.update = timed_backward, timed_update
    try:
        result = action()
    finally:
        training.backward, AdamState.update = backward, update
    return result, [end - start for start, end in zip(starts, ends)]


# -- the chains shared by the workloads ------------------------------------

def prune_chain(corr_path: str, out_path: str, model, config: PipelineConfig):
    """`defreg prune`: score the correspondences and write the kept ones."""
    corr = consistency.read_corr_csv(corr_path)
    graph = defgraph.build_graph(corr.source, config.prune_coverage, config.prune_assign_k)
    theta = consistency.local_consistency(corr, graph, config.consistency_sigma)
    scores = scnet_model.run_forward(model, corr, graph, theta).scores
    keep = scnet_model.classify(scores, config.score_threshold)
    consistency.write_corr_csv(out_path, replace(corr.take(keep), scores=scores[keep]))
    return corr, scores, keep


def check_prune(out_path: str, result) -> None:
    corr, scores, keep = result
    if not np.isfinite(scores).all() or scores.min() < 0.0 or scores.max() > 1.0:
        raise CheckFailed("scores are not finite values in [0, 1]")
    kept = consistency.read_corr_csv(out_path)
    expected = corr.take(keep)
    same = (np.array_equal(kept.source, expected.source)
            and np.array_equal(kept.target, expected.target)
            and np.array_equal(kept.labels, expected.labels)
            and np.array_equal(kept.scores, scores[keep]))
    if not same:
        raise CheckFailed("kept CSV does not re-read to the rows classify selected")


def register_chain(bundle: str, corr_path: str, out_path: str, config: PipelineConfig):
    """`defreg register --gt`: fit a warp field and measure it against the truth."""
    corr = consistency.read_corr_csv(corr_path)
    source = pointcloud_io.read_ply(os.path.join(bundle, "source.ply"))
    graph = defgraph.build_graph(source, config.solver_coverage, config.solver_assign_k)
    result = nicp.solve(corr, source, solver_config(config), graph=graph)
    nicp.write_warp_field(out_path, result.field)
    gt_field = nicp.read_warp_field(os.path.join(bundle, "warp.txt"))
    err, _ = evalmetrics.registration_errors(source, result.field, gt_field)
    return result, float(err.mean())


def check_register(out_path: str, result) -> None:
    solved, _ = result
    trace = np.asarray(solved.cost_trace)
    if not np.isfinite(trace).all() or (np.diff(trace) > 0.0).any():
        raise CheckFailed("cost trace increases")
    est, back = solved.field, nicp.read_warp_field(out_path)
    same = (back.graph.coverage == est.graph.coverage
            and back.graph.assign_k == est.graph.assign_k
            and np.array_equal(back.graph.nodes, est.graph.nodes)
            and np.array_equal(back.translations, est.translations)
            and np.abs(back.rotations - est.rotations).max() <= ROTATION_ROUND_TRIP)
    if not same:
        raise CheckFailed("warp.txt does not round-trip through read_warp_field")


def train_chain(bundles, model_path: str, config: PipelineConfig):
    """`defreg train`: prepare every scene, train, write the parameter file."""
    dataset = []
    for bundle in bundles:
        corr = consistency.read_corr_csv(os.path.join(bundle, "corr.csv"))
        dataset.append(training.prepare_scene(
            corr, config.prune_coverage, config.prune_assign_k, config.consistency_sigma))
    model = scnet_model.ScNetModel(scnet_config(config))
    log, _ = training.train(model, dataset, train_config(config))
    params_io.save_params(model_path, model)
    return log


def check_train(log) -> None:
    losses = np.array([row[1] for row in log])
    if not np.isfinite(losses).all():
        raise CheckFailed("non-finite epoch loss")
    if len(losses) > 1 and not losses[-1] < losses[0]:
        raise CheckFailed("last epoch's loss is not below the first")


def load_model(path: str, config: PipelineConfig):
    model = scnet_model.ScNetModel(scnet_config(config))
    params_io.load_params(path, model)
    return model


def prune_op(rec: Recorder, bundle: str, get_model, config: PipelineConfig):
    """One timed prune of a bundle's corr.csv; returns the kept CSV's path,
    or None when the operation failed."""
    corr_path, kept_path = os.path.join(bundle, "corr.csv"), os.path.join(bundle, "kept.csv")
    result = rec.run("prune", lambda: prune_chain(corr_path, kept_path, get_model(), config),
                     lambda r: check_prune(kept_path, r))
    if result is None:
        return None
    corr, _, keep = result
    precision, recall = evalmetrics.classification_metrics(keep, corr.labels)
    rec.quality("precision", precision)
    rec.quality("recall", recall)
    rec.hash.update(np.asarray(keep, dtype="<i8").tobytes())
    return kept_path


def register_op(rec: Recorder, bundle: str, corr_path: str, config: PipelineConfig) -> None:
    """One timed register of `corr_path` against the bundle's source cloud."""
    out_path = os.path.join(bundle, "est-warp.txt")
    result = rec.run("register", lambda: register_chain(bundle, corr_path, out_path, config),
                     lambda r: check_register(out_path, r))
    if result is not None:
        rec.quality("epe_m", result[1])
        with open(out_path, "rb") as fh:
            rec.hash.update(fh.read())


# -- workloads ---------------------------------------------------------------

class Workload:
    """One workload: `setup` makes the inputs, `cycle` runs the operations."""

    name = ""
    main_metric = ""      # the table row reported as the end-to-end op_s

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def path(self, *parts) -> str:
        return os.path.join(self.work_dir, *parts)

    def seed_of(self, index: int) -> int:
        return self.seed * 1000 + index

    def setup(self, tracer) -> None:
        """Make the inputs, load the model and warm up; repeatable. The
        warm-up runs outside the traced set-up span, so per-layer set-up
        figures cover input generation and model loading only."""
        if os.path.isdir(self.work_dir):
            shutil.rmtree(self.work_dir)
        os.makedirs(self.work_dir)
        with tracer.root("setup"):
            self.make_inputs()
        rec = Recorder(NO_TRACER)
        self.warm_up(rec)
        if any(op.failed for op in rec.cycle.ops):
            raise RuntimeError(f"warm-up failed: {rec.cycle.ops}")

    def make_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self, rec: Recorder) -> None:
        raise NotImplementedError

    def cycle(self, tracer) -> Cycle:
        raise NotImplementedError


class Prune2k(Workload):
    """One `prune` chain per operation on N = 2000 at 50 % inliers, with the
    default 256-d model from its seeded initialisation."""

    name = "prune-2k"
    main_metric = "prune_s"

    def __init__(self, work_dir, seed, smoke):
        super().__init__(work_dir, seed)
        self.config = PipelineConfig(**(SMALL_MODEL if smoke else {}))
        self.points = 240 if smoke else 2000

    def make_inputs(self) -> None:
        write_scene(self.path("scene"), scene_spec(self.seed_of(0), self.points, 0.5), self.config)
        write_scene(self.path("warm"), scene_spec(self.seed_of(999), 240, 0.5), self.config)
        params_io.save_params(self.path("model.bin"),
                              scnet_model.ScNetModel(scnet_config(self.config)))
        self.model = load_model(self.path("model.bin"), self.config)

    def warm_up(self, rec: Recorder) -> None:
        prune_op(rec, self.path("warm"), lambda: self.model, self.config)

    def cycle(self, tracer) -> Cycle:
        rec = Recorder(tracer)
        prune_op(rec, self.path("scene"), lambda: self.model, self.config)
        return rec.finish()


class Solve225(Workload):
    """One `register` chain per operation: 2000 labelled-inlier
    correspondences, solver graph at coverage 0.03 (V about 225)."""

    name = "solve-225"
    main_metric = "register_s"

    def __init__(self, work_dir, seed, smoke):
        super().__init__(work_dir, seed)
        # Capped at 10 iterations: the default tolerance stops after 13 to 22
        # iterations depending on the seed's warp, which would make the time
        # per operation a property of the seed instead of the code.
        coverage = 0.08 if smoke else 0.03
        self.config = PipelineConfig(solver_coverage=coverage, max_iterations=10)
        self.warm_config = PipelineConfig(max_iterations=10)
        self.points = 240 if smoke else 2000

    def make_inputs(self) -> None:
        # inlier_ratio 1.0: every correspondence is a labelled inlier, which
        # is what an oracle pruner would keep
        scene_config = PipelineConfig()
        write_scene(self.path("scene"), scene_spec(self.seed_of(0), self.points, 1.0), scene_config)
        write_scene(self.path("warm"), scene_spec(self.seed_of(999), 240, 1.0), scene_config)

    def warm_up(self, rec: Recorder) -> None:
        bundle = self.path("warm")
        register_op(rec, bundle, os.path.join(bundle, "corr.csv"), self.warm_config)

    def cycle(self, tracer) -> Cycle:
        rec = Recorder(tracer)
        bundle = self.path("scene")
        register_op(rec, bundle, os.path.join(bundle, "corr.csv"), self.config)
        return rec.finish()


class TrainSmall(Workload):
    """The README quick-start chain: train the small model on 32 scenes of
    N = 240, then prune and register 8 held-out scenes with it."""

    name = "train-small"
    main_metric = "train_step_s"

    def __init__(self, work_dir, seed, smoke):
        super().__init__(work_dir, seed)
        small = dict(SMALL_MODEL, epochs=2) if smoke else SMALL_MODEL
        self.config = PipelineConfig(**small)
        self.points = 120 if smoke else 240
        self.n_train, self.n_held = (4, 2) if smoke else (32, 8)

    def make_inputs(self) -> None:
        for i in range(self.n_train + self.n_held):
            write_scene(self.path("data", f"scene{i:02d}"),
                        scene_spec(self.seed_of(i), self.points, 0.5), self.config)
        write_scene(self.path("warm", "scene"), scene_spec(self.seed_of(999), 120, 0.5), self.config)

    def warm_up(self, rec: Recorder) -> None:
        config = replace(self.config, epochs=1)
        bundle = self.path("warm", "scene")
        model_path = self.path("warm", "model.bin")
        rec.run("train", lambda: train_chain([bundle], model_path, config), lambda log: None)
        self.evaluate(rec, bundle, model_path)

    def evaluate(self, rec: Recorder, bundle: str, model_path: str) -> None:
        """`defreg prune` with the trained model, then `defreg register` on
        what it kept."""
        kept_path = prune_op(rec, bundle, lambda: load_model(model_path, self.config), self.config)
        if kept_path is None:
            rec.skip("register", "its prune failed")
        else:
            register_op(rec, bundle, kept_path, self.config)

    def cycle(self, tracer) -> Cycle:
        rec = Recorder(tracer)
        bundles = [self.path("data", f"scene{i:02d}") for i in range(self.n_train + self.n_held)]
        model_path = self.path("model.bin")
        trained = rec.run("train",
                          lambda: timed_steps(lambda: train_chain(bundles[:self.n_train],
                                                                  model_path, self.config)),
                          lambda r: check_train(r[0]))
        if trained is None:
            for _ in bundles[self.n_train:]:
                rec.skip("prune", "training failed")
                rec.skip("register", "training failed")
            return rec.finish()
        rec.cycle.step_seconds = trained[1]
        with open(model_path, "rb") as fh:
            rec.hash.update(fh.read())
        for bundle in bundles[self.n_train:]:
            self.evaluate(rec, bundle, model_path)
        return rec.finish()


class _NullTracer:
    """Stands in for the tracer in untraced runs and cycles."""

    def installed(self):
        return nullcontext()

    def root(self, kind):
        return nullcontext()


NO_TRACER = _NullTracer()

WORKLOADS = {w.name: w for w in (Prune2k, Solve225, TrainSmall)}
