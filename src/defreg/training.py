"""Labeling, losses, exact gradients, and the seeded training loop.

The classification loss is a binary focal loss on the sigmoid scores
(mean over the scene's correspondences). The auxiliary consistency loss
pushes unit-normalized features of inliers together within each graph
node neighborhood:

    delta(x, y) = [1 - |hhat_x - hhat_y|^2 / sigma_f^2]_+

compared against the target (1 iff both inliers), summed |delta - target|
over every ordered member pair of every nonempty node, scaled by
1 / (|C_j|^2 |V|^2). sigma_f is a model parameter and is trained jointly.
The squared distance is taken in Gram form, max(2 - 2 hhat_x . hhat_y, 0),
so a node costs one |C_j| x |C_j| product instead of a |C_j| x |C_j| x d
difference; its gradient is that of |hhat_x - hhat_y|^2. The diagonal is
not zeroed: hhat_x . hhat_x is 1 only to within rounding, which leaves a
self-pair's d2 at a few 1e-16 instead of 0.

One function, _objective, computes total = cls + loss_lambda * con for
every loss_lambda, with its exact gradients w.r.t. the scores, features
and sigma_f; backward carries them through the network. The step, its
tape-free twin scene_loss and the finite-difference gradient_check all
call it, so the check differences the function the step differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from defreg.consistency import CorrespondenceSet, LocalConsistency, local_consistency
from defreg.defgraph import DeformationGraph, build_graph
from defreg.errors import (NumericalError, ValidationError, check_fields, format_row, nonnegative,
                           write_lines)
from defreg.geometry import exp_so3
from defreg.scnet.model import ScNetConfig, ScNetModel, backward_through, run_forward

SCORE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRADCHECK_STEP = 1e-5  # central-difference step of gradient_check

__all__ = [
    "TrainConfig",
    "TrainScene",
    "AdamState",
    "label_correspondences",
    "focal_loss",
    "backward",
    "prepare_scene",
    "scene_loss",
    "make_check_scene",
    "gradient_check",
    "train",
    "write_loss_log",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    learning_rate: float = nonnegative(1e-4)
    lr_decay_per_epoch: float = nonnegative(0.05)
    weight_decay: float = nonnegative(1e-6)
    focal_gamma: float = nonnegative(2.0)
    loss_lambda: float = nonnegative(1.0)
    seed: int = nonnegative(0)
    augment: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.lr_decay_per_epoch >= 1:
            raise ValidationError("lr_decay_per_epoch must be in [0, 1)")


@dataclass(frozen=True)
class TrainScene:
    """One labeled training example (else ValidationError): correspondences,
    the graph over their source endpoints, and the consistency blocks."""

    corr: CorrespondenceSet
    graph: DeformationGraph
    theta: LocalConsistency

    def __post_init__(self):
        if self.corr.labels is None:
            raise ValidationError("training scene has no labels")


def label_correspondences(corr: CorrespondenceSet, gt_warp, tau_d: float) -> np.ndarray:
    """1 where the residual under the ground-truth warp is strictly below tau_d.

    An oracle: no pipeline path calls it. The tests check the labels that
    `synth.generate_scene` draws against it."""
    if not tau_d > 0:
        raise ValidationError("tau_d must be positive")
    warped = gt_warp.warp(corr.source)
    res = np.sqrt(((warped - corr.target) ** 2).sum(axis=1))
    return (res < tau_d).astype(np.int8)


def focal_loss(score, label, gamma: float):
    """Binary focal loss; scores are clamped into [1e-7, 1 - 1e-7] first.
    gamma = 0 reduces to binary cross-entropy."""
    s = np.clip(np.asarray(score, dtype=np.float64), SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    lab = np.asarray(label, dtype=np.float64)
    loss = -lab * (1.0 - s) ** gamma * np.log(s) - (1.0 - lab) * s ** gamma * np.log(1.0 - s)
    return float(loss) if loss.ndim == 0 else loss


def _focal_mean_grad(scores: np.ndarray, labels: np.ndarray, gamma: float):
    """Mean focal loss over the scene and its gradient w.r.t. raw scores."""
    n = scores.shape[0]
    s = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    lab = labels.astype(np.float64)
    loss = float(np.mean(focal_loss(scores, labels, gamma)))
    dpos = gamma * (1.0 - s) ** (gamma - 1.0) * np.log(s) - (1.0 - s) ** gamma / s
    dneg = -gamma * s ** (gamma - 1.0) * np.log(1.0 - s) + s ** gamma / (1.0 - s)
    ds = (lab * dpos + (1.0 - lab) * dneg) / n
    ds = np.where((scores > SCORE_CLAMP) & (scores < 1.0 - SCORE_CLAMP), ds, 0.0)
    return loss, ds


def _normalize_rows(features: np.ndarray):
    norms = np.sqrt((features ** 2).sum(axis=1, keepdims=True))
    bad = np.where(norms[:, 0] == 0.0)[0]
    if bad.size:
        raise NumericalError(f"degenerate feature: zero-norm row {int(bad[0])}")
    return features / norms, norms


def _consistency_terms(features, graph, labels, sigma_f):
    """Consistency loss and its gradients w.r.t. the features and sigma_f."""
    hhat, norms = _normalize_rows(np.asarray(features, dtype=np.float64))
    lab = np.asarray(labels, dtype=np.float64)
    # np.float64 keeps IEEE overflow semantics: a blown-up sigma_f must yield
    # inf/nan for the caller's divergence check, not raise OverflowError here
    sig = np.float64(sigma_f)
    if not graph.patches:
        raise ValidationError("graph has no populated nodes")
    v_used = len(graph.patches)
    total = 0.0
    dhhat = np.zeros_like(hhat)
    dsigma = 0.0
    for _, members, _ in graph.patches:
        block = hhat[members]
        # |a - b|^2 = 2 - 2 a.b for unit rows, to within a few ulp
        d2 = np.maximum(2.0 - 2.0 * (block @ block.T), 0.0)
        raw = 1.0 - d2 / (sig * sig)
        delta = np.maximum(raw, 0.0)
        target = np.outer(lab[members], lab[members])
        gap = delta - target
        m = members.size
        scale = 1.0 / (m * m * v_used * v_used)
        total += np.abs(gap).sum() * scale
        # d|gap|/ddelta = sign(gap), active only where the hinge is
        w = np.sign(gap) * (raw > 0.0) * scale
        coef = -w / (sig * sig)  # dL/d(d2), symmetric
        dblock = 4.0 * (coef.sum(axis=1)[:, None] * block - coef @ block)
        dhhat[members] += dblock  # a member list never repeats a point
        dsigma += (w * d2).sum() * 2.0 / (sig ** 3)
    dots = (hhat * dhhat).sum(axis=1, keepdims=True)
    dfeatures = (dhhat - hhat * dots) / norms
    return float(total), dfeatures, dsigma


def _objective(model: ScNetModel, batch: TrainScene, gamma: float, loss_lambda: float,
               keep_tape: bool):
    """The forward state, (total, cls, con) with total = cls + loss_lambda *
    con, and total's gradients (dscores, dfeatures, dsigma)."""
    state = run_forward(model, batch.corr, batch.graph, batch.theta, keep_tape=keep_tape)
    labels = batch.corr.labels
    cls, dscores = _focal_mean_grad(state.scores, labels, gamma)
    con, dfeatures, dsigma = _consistency_terms(state.features, batch.graph, labels, model.sigma_f)
    return (state, (cls + loss_lambda * con, cls, con),
            (dscores, loss_lambda * dfeatures, loss_lambda * dsigma))


def backward(model: ScNetModel, batch: TrainScene, gamma: float = 2.0, loss_lambda: float = 1.0):
    """Run forward, populate exact gradients on the model (including
    sigma_f), and return (total, cls, con) loss components."""
    if model.dtype != np.float64:
        raise ValidationError(f"training runs on float64 parameters; this model holds "
                              f"{model.dtype} ones loaded from a parameter file")
    model.grads[...] = 0.0
    state, losses, (dscores, dfeatures, dsigma) = _objective(model, batch, gamma, loss_lambda,
                                                             keep_tape=True)
    model.gsigma_f += dsigma
    backward_through(model, state, dscores, dfeatures)
    return losses


def prepare_scene(corr: CorrespondenceSet, sigma_n: float, assign_k: int,
                  sigma_d: float) -> TrainScene:
    """Build the pruning graph and consistency blocks for a labeled set; the
    blocks are float64, the dtype of the constructed models training runs on."""
    graph = build_graph(corr.source, sigma_n, assign_k)
    theta = local_consistency(corr, graph, sigma_d, np.float64)
    return TrainScene(corr=corr, graph=graph, theta=theta)


def scene_loss(model: ScNetModel, batch: TrainScene, gamma: float = 2.0,
               loss_lambda: float = 1.0):
    """The (total, cls, con) that backward returns, without a tape or any
    change to the model's gradients."""
    return _objective(model, batch, gamma, loss_lambda, keep_tape=False)[1]


def make_check_scene(seed: int = 0):
    """Tiny deterministic scene: 6 correspondences in two clusters 0.4 m
    apart, graph coverage 0.25 so sampling stops at exactly 2 nodes."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
    src = np.concatenate([c + 0.04 * rng.uniform(-1.0, 1.0, (3, 3)) for c in centers])
    tgt = src + 0.05 * rng.uniform(-1.0, 1.0, (6, 3))
    labels = np.array([1, 0, 1, 1, 0, 1], dtype=np.int8)
    corr = CorrespondenceSet(src, tgt, labels)
    return prepare_scene(corr, sigma_n=0.25, assign_k=6, sigma_d=0.08)


def gradient_check(seed: int = 0):
    """Max relative error between analytic and central finite-difference
    gradients of the full loss on a micro model; relative error of one
    component is |a - n| / max(|a|, |n|, 1)."""
    scene = make_check_scene(seed)
    model = ScNetModel(ScNetConfig(feature_dim=16, num_blocks=1, units_per_block=1,
                                   num_groups=2, seed=seed))
    backward(model, scene)
    analytic = model.grads.copy()
    values = model.values  # every layer parameter is a view of it
    numeric = np.zeros_like(analytic)
    for i in range(values.size):
        base = values[i]
        values[i] = base + GRADCHECK_STEP
        hi = scene_loss(model, scene)[0]
        values[i] = base - GRADCHECK_STEP
        lo = scene_loss(model, scene)[0]
        values[i] = base
        numeric[i] = (hi - lo) / (2.0 * GRADCHECK_STEP)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


class AdamState:
    """Adam with decoupled weight decay over one flat parameter vector."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.step = 0

    def update(self, params: np.ndarray, grads: np.ndarray, lr: float, weight_decay: float):
        self.step += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step
        b2c = 1.0 - ADAM_BETA2 ** self.step
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grads
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grads * grads
        params -= lr * ((self.m / b1c) / (np.sqrt(self.v / b2c) + ADAM_EPS) + weight_decay * params)


def _augment_scene(scene: TrainScene, rng: np.random.Generator) -> TrainScene:
    """Random rigid motion of the target side; pairwise target distances
    are preserved, so the cached consistency blocks and labels stay valid."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.deg2rad(10.0))
    shift = rng.normal(0.0, 0.05, size=3)
    rot = exp_so3(axis * angle)
    corr = CorrespondenceSet(
        scene.corr.source,
        scene.corr.target @ rot.T + shift,
        scene.corr.labels,
        scene.corr.scores,
    )
    return TrainScene(corr=corr, graph=scene.graph, theta=scene.theta)


def train(model: ScNetModel, dataset, config: TrainConfig):
    """Seeded training loop, one scene per step, shuffled per epoch.

    Returns (log_rows, adam), adam being the final AdamState; log rows are
    (epoch, mean_loss, mean_cls, mean_con, lr) per epoch. A parameter that
    is not finite in float32 after an epoch raises NumericalError.
    """
    if not dataset:
        raise ValidationError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    adam = AdamState(model.values)
    log = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * (1.0 - config.lr_decay_per_epoch) ** epoch
        order = rng.permutation(len(dataset))
        sums = np.zeros(3)
        for si in order:
            scene = dataset[int(si)]
            if config.augment:
                scene = _augment_scene(scene, rng)
            total, cls, con = backward(model, scene, config.focal_gamma, config.loss_lambda)
            if not np.isfinite(total):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {adam.step + 1}"
                )
            adam.update(model.values, model.grads, lr, config.weight_decay)
            sums += (total, cls, con)
        model.float32_values(f"training diverged at epoch {epoch}: ")
        means = sums / len(dataset)
        log.append((epoch, float(means[0]), float(means[1]), float(means[2]), lr))
    return log, adam


def write_loss_log(path, log_rows) -> None:
    write_lines(path, ["epoch,mean_loss,mean_cls,mean_con,lr"] + [
        format_row((epoch, *map(float, (mean_loss, mean_cls, mean_con, lr))))
        for epoch, mean_loss, mean_cls, mean_con, lr in log_rows
    ])
