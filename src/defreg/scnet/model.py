"""Correspondence classifier: consistency-aware attention over graph nodes.

Data flow for one correspondence set:

  encode_input      6D coordinates -> 18D low-frequency Fourier features
  init MLP          three linear+groupnorm+leakyrelu layers up to width d
  embedding blocks  per graph node: gather member rows, run the node's
                    consistency block through stacked attention units,
                    then add the node's output, weighted by its members'
                    skinning weights, into the block's blended features
                    (ascending node order, so the reduction is bitwise
                    deterministic and equal to aggregate's)
  head              two linear+groupnorm+leakyrelu layers then a linear
                    to one logit and a sigmoid score per correspondence

Attention logits are reweighted by elementwise multiplication with the
node's consistency matrix before the row softmax. A zero consistency
entry therefore contributes logit 0 (uniform weight), not -inf; this is
reweighting, not masking.

The same unit parameters process every node's block (weight sharing), so
caches are returned per call instead of stored on layers. Only a forward
that will be differentiated keeps them: run_forward(..., keep_tape=True)
collects every cache into a tape that backward_through replays in reverse.
Without the tape each cache is dropped once the next layer has consumed
its output, so an inference forward holds one node block's intermediates
at a time instead of a tape that grows with every unit of every node.

The pass computes in the dtype of the model's parameters: float64 for a
constructed model (training and its gradient checks), float32 for one
loaded from a parameter file, which stores float32. The encoded input,
consistency blocks and skinning weights are built in float64 and cast to
that dtype where the pass takes them up; scores are the sigmoid of float64
logits in both cases.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from defreg.consistency import CorrespondenceSet, LocalConsistency
from defreg.defgraph import DeformationGraph, member_weights
from defreg.errors import NumericalError, ValidationError, check_fields, nonnegative
from defreg.scnet.layers import (
    GroupNorm,
    LeakyRelu,
    Linear,
    sigmoid,
    softmax_backward,
    softmax_rows,
)

__all__ = [
    "ScNetConfig",
    "ScNetModel",
    "ScaUnit",
    "encode_input",
    "aggregate",
    "run_forward",
    "backward_through",
    "classify",
]


@dataclass(frozen=True)
class ScNetConfig:
    """Architecture hyperparameters. The defaults are the full-size model;
    tests shrink feature_dim/blocks to keep finite-difference checks fast."""

    feature_dim: int = 256
    init_widths: tuple = (256, 256, 256)
    head_widths: tuple = (128, 64, 1)
    num_blocks: int = 3
    units_per_block: int = 2
    num_groups: int = 8
    leaky_slope: float = nonnegative(0.01)
    seed: int = nonnegative(0)

    def __post_init__(self):
        check_fields(self)
        if self.feature_dim < 2 * self.num_groups:
            raise ValidationError("feature_dim must be at least 2 * num_groups")
        for key in ("init_widths", "head_widths"):
            widths = getattr(self, key)
            if not isinstance(widths, (tuple, list)) or not widths or any(
                    isinstance(w, bool) or not isinstance(w, Integral) or w < 1 for w in widths):
                raise ValidationError(f"{key} must be a non-empty list of integers >= 1")
            object.__setattr__(self, key, tuple(int(w) for w in widths))
        if self.init_widths[-1] != self.feature_dim:
            raise ValidationError("init widths must end at feature_dim")
        if self.head_widths[-1] != 1:
            raise ValidationError("head must end in a single logit")
        for w in self.init_widths + self.head_widths[:-1]:
            if w % self.num_groups != 0:
                raise ValidationError(f"num_groups {self.num_groups} does not divide width {w}")
            # a single-channel group normalizes to a constant and kills gradients
            if w // self.num_groups < 2:
                raise ValidationError(f"num_groups {self.num_groups} leaves width {w} "
                                      "fewer than 2 channels per group")

    def architecture(self) -> dict:
        """Descriptor of everything that determines the function shape (no seed)."""
        desc = asdict(self)
        desc.pop("seed")
        desc["init_widths"] = list(self.init_widths)
        desc["head_widths"] = list(self.head_widths)
        return desc


class ScaUnit:
    """One attention unit: consistency-reweighted self-attention with a
    linear output projection, residual + layer norm, then a two-layer
    feedforward with residual + layer norm."""

    def __init__(self, dim: int, slope: float, rng: np.random.Generator):
        bound = np.sqrt(1.0 / dim)
        self.dim = dim
        # a Python float: an np.float64 scalar would promote a float32 pass to float64
        self.inv_sqrt_d = 1.0 / float(np.sqrt(dim))
        self.wq = rng.uniform(-bound, bound, size=(dim, dim))
        self.wk = rng.uniform(-bound, bound, size=(dim, dim))
        self.wv = rng.uniform(-bound, bound, size=(dim, dim))
        self.gwq = np.zeros_like(self.wq)
        self.gwk = np.zeros_like(self.wk)
        self.gwv = np.zeros_like(self.wv)
        self.attn_out = Linear(dim, dim, rng)
        self.ln1 = GroupNorm(dim, 1)
        self.ff1 = Linear(dim, dim, rng)
        self.ff2 = Linear(dim, dim, rng)
        self.ln2 = GroupNorm(dim, 1)
        self.act = LeakyRelu(slope)

    def forward(self, feats: np.ndarray, theta: np.ndarray):
        if theta.shape != (feats.shape[0], feats.shape[0]):
            raise ValidationError("theta shape does not match feature block")
        q = feats @ self.wq
        k = feats @ self.wk
        v = feats @ self.wv
        logits = theta * (q @ k.T) * self.inv_sqrt_d
        attn = softmax_rows(logits)
        mixed = attn @ v
        proj, c_proj = self.attn_out.forward(mixed)
        z1, c_ln1 = self.ln1.forward(feats + proj)
        u1, c_ff1 = self.ff1.forward(z1)
        h1, c_act = self.act.forward(u1)
        u2, c_ff2 = self.ff2.forward(h1)
        z2, c_ln2 = self.ln2.forward(z1 + u2)
        cache = (feats, theta, q, k, v, attn, c_proj, c_ln1, c_ff1, c_act, c_ff2, c_ln2)
        return z2, cache

    def backward(self, cache, dz2: np.ndarray) -> np.ndarray:
        feats, theta, q, k, v, attn, c_proj, c_ln1, c_ff1, c_act, c_ff2, c_ln2 = cache
        dsum2 = self.ln2.backward(c_ln2, dz2)
        dh1 = self.ff2.backward(c_ff2, dsum2)
        du1 = self.act.backward(c_act, dh1)
        dz1 = self.ff1.backward(c_ff1, du1) + dsum2
        dsum1 = self.ln1.backward(c_ln1, dz1)
        dmixed = self.attn_out.backward(c_proj, dsum1)
        dattn = dmixed @ v.T
        dv = attn.T @ dmixed
        dlogits = softmax_backward(attn, dattn)
        dqk = dlogits * theta * self.inv_sqrt_d
        dq = dqk @ k
        dk = dqk.T @ q
        self.gwq += feats.T @ dq
        self.gwk += feats.T @ dk
        self.gwv += feats.T @ dv
        dfeats = dq @ self.wq.T + dk @ self.wk.T + dv @ self.wv.T + dsum1
        return dfeats

    def params(self):
        items = [("wq", self.wq, self.gwq), ("wk", self.wk, self.gwk), ("wv", self.wv, self.gwv)]
        items += [("attn_out." + n, p, g) for n, p, g in self.attn_out.params()]
        items += [("ln1." + n, p, g) for n, p, g in self.ln1.params()]
        items += [("ff1." + n, p, g) for n, p, g in self.ff1.params()]
        items += [("ff2." + n, p, g) for n, p, g in self.ff2.params()]
        items += [("ln2." + n, p, g) for n, p, g in self.ln2.params()]
        return items


class ScNetModel:
    """Parameter container; all layers in declaration order, plus the
    learnable feature-consistency tolerance sigma_f used by training.
    Constructed parameters are float64; load_params installs float32 ones."""

    ENCODED_WIDTH = 18

    def __init__(self, config: ScNetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.act = LeakyRelu(config.leaky_slope)
        self.init_layers = []
        fan_in = self.ENCODED_WIDTH
        for width in config.init_widths:
            self.init_layers.append((Linear(fan_in, width, rng), GroupNorm(width, config.num_groups)))
            fan_in = width
        self.blocks = [
            [ScaUnit(config.feature_dim, config.leaky_slope, rng) for _ in range(config.units_per_block)]
            for _ in range(config.num_blocks)
        ]
        self.head_layers = []
        fan_in = config.feature_dim
        for width in config.head_widths[:-1]:
            self.head_layers.append((Linear(fan_in, width, rng), GroupNorm(width, config.num_groups)))
            fan_in = width
        self.head_out = Linear(fan_in, 1, rng)
        self.sigma_f = np.array(1.0)
        self.gsigma_f = np.zeros(())

    def _layers(self):
        """(name prefix, layer) for every parameterized layer in declaration order."""
        items = []
        for i, (lin, gn) in enumerate(self.init_layers):
            items += [(f"init.{i}.lin.", lin), (f"init.{i}.gn.", gn)]
        for bi, block in enumerate(self.blocks):
            items += [(f"block.{bi}.unit.{ui}.", unit) for ui, unit in enumerate(block)]
        for i, (lin, gn) in enumerate(self.head_layers):
            items += [(f"head.{i}.lin.", lin), (f"head.{i}.gn.", gn)]
        items.append(("head.out.", self.head_out))
        return items

    def params(self):
        """(name, value, grad) triples in declaration order."""
        items = [(prefix + n, p, g) for prefix, layer in self._layers() for n, p, g in layer.params()]
        items.append(("sigma_f", self.sigma_f, self.gsigma_f))
        return items

    @property
    def dtype(self) -> np.dtype:
        """The dtype run_forward computes in."""
        return self.head_out.w.dtype

    def install_params(self, values) -> None:
        """Replace every parameter array, in params() order, by the given
        array itself (not a copy), so the model takes on its dtype."""
        slots = [(layer, n) for _, layer in self._layers() for n, _, _ in layer.params()]
        slots.append((self, "sigma_f"))
        for (owner, name), value in zip(slots, values, strict=True):
            *path, attr = name.split(".")  # a unit's sublayer parameters are "ln1.gamma" etc.
            for step in path:
                owner = getattr(owner, step)
            setattr(owner, attr, value)

    def zero_grad(self):
        for _, _, grad in self.params():
            grad[...] = 0.0

    def param_vector(self) -> np.ndarray:
        return np.concatenate([p.ravel() for _, p, _ in self.params()])

    def grad_vector(self) -> np.ndarray:
        return np.concatenate([g.ravel() for _, _, g in self.params()])

    def set_param_vector(self, vec: np.ndarray):
        offset = 0
        for _, p, _ in self.params():
            p[...] = vec[offset:offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != vec.size:
            raise ValidationError("parameter vector size mismatch")


def encode_input(corr: CorrespondenceSet) -> np.ndarray:
    """18-wide encoding: centered 6D coordinates plus sin/cos at half frequency."""
    coords = np.concatenate([corr.source, corr.target], axis=1)
    centered = coords - coords.mean(axis=0, keepdims=True)
    return np.concatenate([centered, np.sin(0.5 * centered), np.cos(0.5 * centered)], axis=1)


def aggregate(node_features: dict, graph: DeformationGraph) -> np.ndarray:
    """Blend per-node outputs into per-correspondence rows, h_i = sum_j a_ij z_i^j,
    in the dtype of the node outputs.

    Nodes are reduced in ascending index order; with each correspondence's
    weights summing to 1 over its assigned nodes, the result is a convex
    combination of that correspondence's per-node feature rows. run_forward
    blends each node's output as it is produced in the same order and the
    same operations, so this is its bitwise oracle.
    """
    if not node_features:
        raise ValidationError("no node features to aggregate")
    first = next(iter(node_features.values()))
    out = np.zeros((graph.num_points, first.shape[1]), first.dtype)
    for j in sorted(node_features):
        members = graph.node_to_members[j]
        if members.size == 0:
            continue
        alpha = member_weights(graph, j).astype(first.dtype, copy=False)
        out[members] += alpha[:, None] * node_features[j]
    return out


class ForwardState:
    """Result of one forward pass: the encoded input, the pre-head features
    and the scores. A taped pass also holds the layer caches that
    backward_through consumes; a tape-free one leaves the cache lists empty
    and logit_cache None."""

    __slots__ = ("encoded", "init_caches", "block_states", "features", "head_caches", "logit_cache", "scores")

    def __init__(self):
        self.init_caches = []
        self.block_states = []
        self.head_caches = []
        self.logit_cache = None


def run_forward(model: ScNetModel, corr: CorrespondenceSet, graph: DeformationGraph,
                theta: LocalConsistency, keep_tape: bool = False) -> ForwardState:
    """Full forward pass in the dtype of the model's parameters. With
    keep_tape every layer cache is kept for backward_through; without it the
    caches are dropped as the pass goes. Both run the same operations in the
    same order, so encoded, features and scores are bitwise the same either
    way."""
    if graph.num_points != len(corr):
        raise ValidationError("graph was not built over these correspondences")
    dtype = model.dtype
    nodes = []  # (j, members, skinning weights as a column), ascending j
    for j, members in enumerate(graph.node_to_members):
        if members.size == 0:
            continue
        if j not in theta.blocks:
            raise ValidationError(f"consistency blocks missing node {j}")
        nodes.append((j, members, member_weights(graph, j).astype(dtype, copy=False)[:, None]))
    state = ForwardState()
    state.encoded = encode_input(corr).astype(dtype, copy=False)
    feats = state.encoded
    for lin, gn in model.init_layers:
        y, c_lin = lin.forward(feats)
        y, c_gn = gn.forward(y)
        feats, c_act = model.act.forward(y)
        if keep_tape:
            state.init_caches.append((c_lin, c_gn, c_act))

    for block in model.blocks:
        node_records = []
        blended = np.zeros_like(feats)
        for j, members, alpha in nodes:
            node_theta = theta.blocks[j].astype(dtype, copy=False)
            z = feats[members]
            unit_caches = []
            for unit in block:
                z, cache = unit.forward(z, node_theta)
                if keep_tape:
                    unit_caches.append(cache)
            node_records.append((j, members, unit_caches))
            blended[members] += alpha * z
        if keep_tape:
            state.block_states.append(node_records)
        feats = blended
    state.features = feats

    for lin, gn in model.head_layers:
        y, c_lin = lin.forward(feats)
        y, c_gn = gn.forward(y)
        feats, c_act = model.act.forward(y)
        if keep_tape:
            state.head_caches.append((c_lin, c_gn, c_act))
    logits, logit_cache = model.head_out.forward(feats)
    if keep_tape:
        state.logit_cache = logit_cache
    state.scores = sigmoid(logits[:, 0].astype(np.float64, copy=False))
    return state


def backward_through(model: ScNetModel, graph: DeformationGraph, state: ForwardState,
                     d_scores: np.ndarray, d_features: np.ndarray | None = None) -> None:
    """Accumulate parameter gradients for dL/dscores and (optionally) a
    direct dL/dfeatures term on the pre-head feature matrix. The state
    must come from run_forward(..., keep_tape=True)."""
    if state.logit_cache is None:
        raise ValidationError("forward state holds no tape; run_forward(..., keep_tape=True)")
    s = state.scores
    dlogits = (d_scores * s * (1.0 - s))[:, None]
    dfeats = model.head_out.backward(state.logit_cache, dlogits)
    for (lin, gn), (c_lin, c_gn, c_act) in zip(reversed(model.head_layers), reversed(state.head_caches)):
        dfeats = model.act.backward(c_act, dfeats)
        dfeats = gn.backward(c_gn, dfeats)
        dfeats = lin.backward(c_lin, dfeats)
    if d_features is not None:
        dfeats = dfeats + d_features

    for block, node_records in zip(reversed(model.blocks), reversed(state.block_states)):
        dprev = np.zeros_like(dfeats)
        for j, members, unit_caches in node_records:  # ascending j: fixed reduction order
            alpha = member_weights(graph, j)
            dz = alpha[:, None] * dfeats[members]
            for unit, cache in zip(reversed(block), reversed(unit_caches)):
                dz = unit.backward(cache, dz)
            dprev[members] += dz
        dfeats = dprev

    for (lin, gn), (c_lin, c_gn, c_act) in zip(reversed(model.init_layers), reversed(state.init_caches)):
        dfeats = model.act.backward(c_act, dfeats)
        dfeats = gn.backward(c_gn, dfeats)
        dfeats = lin.backward(c_lin, dfeats)

    for name, _, grad in model.params():
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient in {name}")


def classify(scores, tau_s: float) -> np.ndarray:
    """Indices with score strictly above tau_s; if none qualify, fall back
    to the top max(8, ceil(5% of N)) scores (ties to the lower index)."""
    scores = np.asarray(scores, dtype=np.float64)
    keep = np.where(scores > tau_s)[0]
    if keep.size:
        return keep
    n = scores.shape[0]
    k = min(n, max(8, int(np.ceil(0.05 * n))))
    order = np.argsort(-scores, kind="stable")[:k]
    return np.sort(order)
