"""Correspondence classifier: consistency-aware attention over graph nodes.

Data flow for one correspondence set:

  encode_input      6D coordinates -> 18D low-frequency Fourier features
  init stack        Linear, GroupNorm, LeakyRelu per init width, up to width d
  embedding blocks  per group of consecutive graph.patches: gather the
                    patches' member rows into one stack, run it through the
                    block's attention units, then add each node's output
                    rows, weighted by its members' skinning weights, into
                    the block's blended features node by node (ascending
                    node order, so the reduction is bitwise deterministic
                    and equal to aggregate's)
  head stack        Linear, GroupNorm, LeakyRelu per hidden head width,
                    then a Linear to one logit; the score is its sigmoid

Attention logits are reweighted by elementwise multiplication with the
node's consistency matrix before the row softmax. A zero consistency
entry therefore contributes logit 0 (uniform weight), not -inf; this is
reweighting, not masking. Attention runs per node patch, so it stays
block-diagonal within a group; the projections, norms and feedforward
layers run once on the whole group.

A group closes before the next node would take it past _GROUP_ENTRIES
(rows x feature_dim) entries, and a larger node runs alone. Grouping
saves per-call overhead where blocks are small: at 32-d a whole 240-row
training scene (about 31 nodes of about 46 rows) is one group. The bound
keeps a group's intermediates small where blocks are large: at 256-d a
prune node of a few hundred rows stays alone, and stacking every node of
a 2000-row scene into one call took peak memory from 141 MB to 504 MB and
ran slower.

The init and head stacks are plain lists of layers, and each block is a
list of units; every one of them runs through the same two helpers,
_forward and _backward. The same unit parameters process every node's
block (weight sharing), so caches are returned per call instead of stored
on layers. Only a forward that will be differentiated keeps them:
run_forward(..., keep_tape=True) records every cache in a Tape, together
with each group's members and skinning-weight column as the pass used
them, so backward_through replays it in reverse without the graph.
Without the tape each cache is dropped as soon as its layer returns, so
an inference forward holds one layer's intermediates at a time instead of
a tape that grows with every unit of every group.

The pass computes in the dtype of the model's parameters: float64 for a
constructed model (training and its gradient checks), float32 for one
loaded from a parameter file, which stores float32. local_consistency
builds the consistency blocks in float64 and stores them in that dtype,
so they are rounded once, at build time. _node_groups alone checks the
blocks against the graph, before any layer runs: each patch's block must
be present, in that dtype (never cast) and |C_j| x |C_j|. The encoded
input and skinning weights are built in float64 and cast to that dtype
where the pass takes them up; scores are the sigmoid of float64 logits
in both cases.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate, pairwise

import numpy as np

from defreg.consistency import CorrespondenceSet, LocalConsistency
from defreg.defgraph import DeformationGraph
from defreg.errors import NumericalError, ValidationError, check_fields, nonnegative
from defreg.scnet.layers import (
    GroupNorm,
    LeakyRelu,
    Linear,
    bind_params,
    param_slots,
    sigmoid,
    softmax_backward,
    softmax_rows,
    uniform,
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
    """Architecture hyperparameters, one field per config document key. The
    defaults are the full-size model; tests shrink feature_dim/blocks to keep
    finite-difference checks fast. The init widths (d, d, d) and head widths
    (d // 2, d // 4, 1) follow from d = feature_dim."""

    feature_dim: int = 256
    num_blocks: int = 3
    units_per_block: int = 2
    num_groups: int = 8
    leaky_slope: float = nonnegative(0.01)
    seed: int = nonnegative(0)

    def __post_init__(self):
        check_fields(self)
        g = self.num_groups
        for w in self.init_widths + self.head_widths[:-1]:
            # a single-channel group normalizes to a constant and kills gradients
            if w % g != 0 or w // g < 2:
                raise ValidationError(f"feature_dim {self.feature_dim} has hidden width {w}, "
                                      f"which num_groups {g} does not split into groups "
                                      "of at least 2 channels")

    @property
    def init_widths(self) -> tuple:
        return (self.feature_dim,) * 3

    @property
    def head_widths(self) -> tuple:
        return (self.feature_dim // 2, self.feature_dim // 4, 1)

    def architecture(self) -> dict:
        """Descriptor of everything that determines the function shape (no seed)."""
        desc = asdict(self)
        desc.pop("seed")
        desc.update(init_widths=list(self.init_widths), head_widths=list(self.head_widths))
        return desc


class ScaUnit:
    """One attention unit: consistency-reweighted self-attention within
    each node patch, a linear output projection, residual + layer norm,
    then a two-layer feedforward with residual + layer norm."""

    def __init__(self, dim: int, slope: float):
        self.dim = dim
        # a Python float: an np.float64 scalar would promote a float32 pass to float64
        self.inv_sqrt_d = 1.0 / float(np.sqrt(dim))
        self.slots = [(name, (dim, dim), uniform(dim)) for name in ("wq", "wk", "wv")]
        self.attn_out = Linear(dim, dim)
        self.ln1 = GroupNorm(dim, 1)
        self.ff1 = Linear(dim, dim)
        self.ff2 = Linear(dim, dim)
        self.ln2 = GroupNorm(dim, 1)
        self.act = LeakyRelu(slope)
        self.sublayers = ("attn_out", "ln1", "ff1", "ff2", "ln2")

    def forward(self, feats: np.ndarray, thetas):
        """Run a group of node patches stacked as rows. thetas holds each
        patch's consistency block in row order (as _node_groups checked
        them), and their sizes give the patch spans; attention stays within
        a patch, every other layer runs once on the whole group."""
        spans = list(pairwise(accumulate((theta.shape[0] for theta in thetas), initial=0)))
        q = feats @ self.wq
        k = feats @ self.wk
        v = feats @ self.wv
        mixed = np.empty_like(v)
        attns = []
        for (a, b), theta in zip(spans, thetas):
            logits = q[a:b] @ k[a:b].T
            logits *= theta
            logits *= self.inv_sqrt_d
            attn = softmax_rows(logits)
            np.matmul(attn, v[a:b], out=mixed[a:b])
            attns.append(attn)
        # both residuals are added in place, and each sum is dropped once
        # its norm has read it: no cache holds proj, u1 or u2
        proj, c_proj = self.attn_out.forward(mixed)
        proj += feats
        z1, c_ln1 = self.ln1.forward(proj)
        del proj
        u1, c_ff1 = self.ff1.forward(z1)
        h1, c_act = self.act.forward(u1)
        del u1
        u2, c_ff2 = self.ff2.forward(h1)
        u2 += z1
        z2, c_ln2 = self.ln2.forward(u2)
        del u2
        cache = (feats, spans, thetas, q, k, v, attns, c_proj, c_ln1, c_ff1, c_act, c_ff2, c_ln2)
        return z2, cache

    def backward(self, cache, dz2: np.ndarray) -> np.ndarray:
        feats, spans, thetas, q, k, v, attns, c_proj, c_ln1, c_ff1, c_act, c_ff2, c_ln2 = cache
        dsum2 = self.ln2.backward(c_ln2, dz2)
        dz1 = self.ff1.backward(c_ff1, self.act.backward(c_act, self.ff2.backward(c_ff2, dsum2)))
        dz1 += dsum2
        dsum1 = self.ln1.backward(c_ln1, dz1)
        # each array here spans the group's rows: drop the dead ones early,
        # which keeps a training step's peak memory near the per-node pass's
        del dsum2, dz1
        dmixed = self.attn_out.backward(c_proj, dsum1)
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for (a, b), theta, attn in zip(spans, thetas, attns):
            dlogits = softmax_backward(attn, dmixed[a:b] @ v[a:b].T)
            dqk = dlogits * theta * self.inv_sqrt_d
            np.matmul(attn.T, dmixed[a:b], out=dv[a:b])
            np.matmul(dqk, k[a:b], out=dq[a:b])
            np.matmul(dqk.T, q[a:b], out=dk[a:b])
        del dmixed
        self.gwq += feats.T @ dq
        self.gwk += feats.T @ dk
        self.gwv += feats.T @ dv
        dfeats = dq @ self.wq.T
        dfeats += dk @ self.wk.T
        dfeats += dv @ self.wv.T
        dfeats += dsum1
        return dfeats


def _mlp(fan_in: int, widths, config: ScNetConfig) -> list:
    """Linear, GroupNorm and LeakyRelu for each width, in order."""
    layers = []
    for width in widths:
        layers += [Linear(fan_in, width), GroupNorm(width, config.num_groups),
                   LeakyRelu(config.leaky_slope)]
        fan_in = width
    return layers


class ScNetModel:
    """Parameter container: the init stack, the attention blocks and the
    head stack, each a list of layers in declaration order, plus the
    learnable feature-consistency tolerance sigma_f (the model's own slot).
    It owns two flat vectors sized from the slots; every parameter is a view
    of its slice of values in params() order, its gradient ("g" + name) of
    the same slice of grads. Constructed parameters are float64, drawn in
    place from the seed; load_params installs float32 ones."""

    ENCODED_WIDTH = 18

    def __init__(self, config: ScNetConfig):
        self.config = config
        self.init = _mlp(self.ENCODED_WIDTH, config.init_widths, config)
        self.blocks = [
            [ScaUnit(config.feature_dim, config.leaky_slope) for _ in range(config.units_per_block)]
            for _ in range(config.num_blocks)
        ]
        hidden = config.head_widths[:-1]
        self.head = _mlp(config.feature_dim, hidden, config)
        self.head.append(Linear(hidden[-1], 1))
        self.slots = [("sigma_f", (), 1.0)]
        size = sum(int(np.prod(s[3])) for _, layer in self._layers() for s in param_slots(layer))
        # one buffer for both vectors, so a load_params that replaces them frees it whole
        self.install_params(*np.zeros((2, size)), np.random.default_rng(config.seed))

    def _layers(self):
        """(name prefix, layer) of every slot holder in declaration order,
        ending with the model itself (sigma_f)."""
        layers = [(f"init.{i}.", layer) for i, layer in enumerate(self.init)]
        for bi, block in enumerate(self.blocks):
            layers += [(f"block.{bi}.unit.{ui}.", unit) for ui, unit in enumerate(block)]
        layers += [(f"head.{i}.", layer) for i, layer in enumerate(self.head)]
        return layers + [("", self)]

    def params(self):
        """(name, value, grad) triples in declaration order."""
        return [(name, getattr(owner, attr), getattr(owner, "g" + attr))
                for prefix, layer in self._layers()
                for name, owner, attr, _, _ in param_slots(layer, prefix)]

    @property
    def dtype(self) -> np.dtype:
        """The dtype run_forward computes in."""
        return self.values.dtype

    def install_params(self, values: np.ndarray, grads: np.ndarray, rng=None) -> None:
        """Make values and grads themselves (not copies) the model's two
        vectors, and every parameter and gradient a view of its slice, so
        the model takes on their dtype. With rng, every slice is first
        initialised, drawing in declaration order."""
        bind_params([layer for _, layer in self._layers()], values, grads, rng)
        self.values, self.grads = values, grads

    def param_name(self, index: int) -> str:
        """Name of the parameter holding values[index], for failure messages."""
        names, sizes = zip(*((name, value.size) for name, value, _ in self.params()))
        return names[int(np.searchsorted(np.cumsum(sizes), index, side="right"))]

    def float32_values(self, context: str = "") -> np.ndarray:
        """values as little-endian float32. A value that float32 cannot hold
        raises NumericalError naming its parameter, after context."""
        with np.errstate(over="ignore"):  # an overflow to inf is reported below
            narrow = self.values.astype("<f4", copy=False)
        finite = np.isfinite(narrow)
        if not finite.all():
            raise NumericalError(f"{context}parameter {self.param_name(int(np.argmin(finite)))} "
                                 "has a value that is not finite in float32")
        return narrow


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
    same operations, so this is its bitwise oracle; no pipeline path calls it.
    """
    if not node_features:
        raise ValidationError("no node features to aggregate")
    first = next(iter(node_features.values()))
    out = np.zeros((graph.num_points, first.shape[1]), first.dtype)
    for j in sorted(node_features):
        members = graph.node_to_members[j]
        if members.size == 0:
            continue
        # alpha_ij from the assignment mask, independent of graph.patches
        alpha = (graph.point_weights[members] * (graph.point_to_nodes[members] == j)).sum(axis=1)
        out[members] += alpha.astype(first.dtype, copy=False)[:, None] * node_features[j]
    return out


# A unit call runs on a group of consecutive node patches holding at most
# this many rows x feature_dim entries; a larger node runs alone.
_GROUP_ENTRIES = 1 << 16


@dataclass(slots=True, eq=False)
class _Group:
    """Consecutive graph patches, ascending j, run through each block as
    one stack of their member rows."""

    rows: np.ndarray     # the nodes' member lists, ascending j, concatenated
    alpha: np.ndarray    # skinning weights aligned with rows, as a column
    bounds: list         # node i's rows are rows[bounds[i]:bounds[i + 1]]
    thetas: list         # the nodes' consistency blocks, each |C_j| x |C_j|

    def add_to(self, out: np.ndarray, x: np.ndarray) -> None:
        """out[members] += the node's rows of x, node by node in ascending j
        (a point belongs to several nodes of one group)."""
        for a, b in zip(self.bounds, self.bounds[1:]):
            out[self.rows[a:b]] += x[a:b]


def _node_groups(graph: DeformationGraph, theta: LocalConsistency, dtype, width: int) -> list:
    """The graph's patches in ascending j, split into groups of at most
    _GROUP_ENTRIES rows x width entries; every group holds at least one
    patch. This is where theta meets the graph, before any layer runs:
    each patch's block must be present, in dtype and |C_j| x |C_j|, or
    ValidationError names the node."""
    parts, filled = [], 0  # per group: its patches; the last group's rows
    for j, members, alpha in graph.patches:
        block = theta.blocks.get(j)
        if block is None:
            raise ValidationError(f"consistency blocks missing node {j}")
        if block.dtype != dtype:
            raise ValidationError(f"node {j}'s consistency block is {block.dtype}, but "
                                  f"the model computes in {dtype}; build the blocks with "
                                  "local_consistency(..., dtype=model.dtype)")
        if block.shape != (members.size, members.size):
            raise ValidationError(f"node {j}'s consistency block is {block.shape}, but its patch "
                                  f"has {members.size} members; build the blocks over this graph")
        if not parts or (filled + members.size) * width > _GROUP_ENTRIES:
            parts.append([])
            filled = 0
        parts[-1].append((members, alpha, block))
        filled += members.size
    groups = []
    for part in parts:
        members, alphas, blocks = zip(*part)
        groups.append(_Group(np.concatenate(members),
                             np.concatenate(alphas).astype(dtype, copy=False)[:, None],
                             [0, *accumulate(m.size for m in members)], list(blocks)))
    return groups


@dataclass(slots=True, eq=False)
class Tape:
    """What backward_through replays of one forward pass."""

    init: list    # the init stack's layer caches
    groups: list  # the _Groups of non-empty nodes, ascending j
    blocks: list  # per block, per group: the units' caches
    head: list    # the head stack's layer caches


@dataclass(slots=True, eq=False)
class ForwardState:
    """Result of one forward pass: the pre-head features, the scores, and
    the Tape of a pass run with keep_tape (else None)."""

    features: np.ndarray
    scores: np.ndarray
    tape: Tape | None


def _forward(layers, x, caches, *args):
    """Run x through layers in order, appending each layer's cache to
    caches unless it is None; args go to every layer (a unit's thetas)."""
    for layer in layers:
        x, cache = layer.forward(x, *args)
        if caches is not None:
            caches.append(cache)
        del cache  # without caches, the layer's input and intermediates go now
    return x


def _backward(layers, caches, dy):
    """dL/dx from dL/dy back through layers, accumulating their gradients."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(cache, dy)
    return dy


def run_forward(model: ScNetModel, corr: CorrespondenceSet, graph: DeformationGraph,
                theta: LocalConsistency, keep_tape: bool = False) -> ForwardState:
    """Full forward pass in the dtype of the model's parameters. A theta
    block that is missing, in another dtype or not |C_j| x |C_j| raises
    ValidationError before any layer runs. With keep_tape every layer
    cache is kept for backward_through; without it the caches are dropped
    as the pass goes. Both run the same operations in the same order, so
    features and scores are bitwise the same either way. Non-finite logits
    (a float32 pass overflows on coordinates above about 3e38) raise
    NumericalError."""
    if graph.num_points != len(corr):
        raise ValidationError("graph was not built over these correspondences")
    dtype = model.dtype
    groups = _node_groups(graph, theta, dtype, model.config.feature_dim)
    tape = Tape(init=[], groups=groups, blocks=[], head=[]) if keep_tape else None
    feats = _forward(model.init, encode_input(corr).astype(dtype, copy=False),
                     tape.init if keep_tape else None)
    for block in model.blocks:
        if keep_tape:
            tape.blocks.append([])
        blended = np.zeros_like(feats)
        for group in groups:
            unit_caches = [] if keep_tape else None
            z = _forward(block, feats[group.rows], unit_caches, group.thetas)
            if keep_tape:
                tape.blocks[-1].append(unit_caches)
            group.add_to(blended, group.alpha * z)
        feats = blended
    logits = _forward(model.head, feats, tape.head if keep_tape else None)
    logits = logits[:, 0].astype(np.float64, copy=False)
    if not np.isfinite(logits).all():
        raise NumericalError(f"scoring: non-finite logit for correspondence "
                             f"{int(np.argmin(np.isfinite(logits)))} (the network computes in "
                             f"{dtype}, and coordinates beyond its range overflow)")
    return ForwardState(feats, sigmoid(logits), tape)


def backward_through(model: ScNetModel, state: ForwardState, d_scores: np.ndarray,
                     d_features: np.ndarray) -> None:
    """Accumulate parameter gradients for dL/dscores and a direct
    dL/dfeatures term on the pre-head feature matrix. The state
    must come from run_forward(..., keep_tape=True); its tape holds every
    group's members and skinning weights, so no graph is passed."""
    tape = state.tape
    if tape is None:
        raise ValidationError("forward state holds no tape; run_forward(..., keep_tape=True)")
    s = state.scores
    dfeats = _backward(model.head, tape.head, (d_scores * s * (1.0 - s))[:, None]) + d_features
    for block, group_caches in zip(reversed(model.blocks), reversed(tape.blocks)):
        dprev = np.zeros_like(dfeats)
        for group, unit_caches in zip(tape.groups, group_caches):  # ascending j
            group.add_to(dprev, _backward(block, unit_caches, group.alpha * dfeats[group.rows]))
        dfeats = dprev
    _backward(model.init, tape.init, dfeats)

    finite = np.isfinite(model.grads)
    if not finite.all():
        raise NumericalError(f"non-finite gradient in {model.param_name(int(np.argmin(finite)))}")


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
