"""Spatial consistency of correspondences, pairwise and per graph node.

Two correspondences are consistent when they preserve the distance
between their source points on the target side. Non-rigid motion only
preserves distances locally, so the usable signal is the per-node block
matrix over correspondences sharing a deformation-graph node; pairs that
share no node carry no information and are simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from defreg.defgraph import DeformationGraph
from defreg.errors import (FileFormatError, NumericalError, ValidationError, format_row, parse_rows,
                           read_lines, write_lines)

__all__ = [
    "CorrespondenceSet",
    "LocalConsistency",
    "pairwise_consistency",
    "local_consistency",
    "read_corr_csv",
    "write_corr_csv",
]

CORR_BASE_COLUMNS = ("src_x", "src_y", "src_z", "tgt_x", "tgt_y", "tgt_z")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Paired source/target points with optional labels and scores.

    source, target : (N, 3) float64
    labels         : (N,) int8 in {0, 1}, or None
    scores         : (N,) float64 in [0, 1], or None
    """

    source: np.ndarray
    target: np.ndarray
    labels: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __post_init__(self):
        src = np.asarray(self.source, dtype=np.float64)
        tgt = np.asarray(self.target, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3 or src.shape != tgt.shape:
            raise ValidationError("source/target must both be (N, 3)")
        if src.shape[0] < 1:
            raise ValidationError("empty correspondence set")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ValidationError("non-finite correspondence coordinate")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (src.shape[0],) or not np.isin(lab, (0, 1)).all():
                raise ValidationError("labels must be one 0/1 value per correspondence")
            object.__setattr__(self, "labels", lab.astype(np.int8))
        if self.scores is not None:
            sc = np.asarray(self.scores, dtype=np.float64)
            if sc.shape != (src.shape[0],) or not np.isfinite(sc).all() or sc.min() < 0 or sc.max() > 1:
                raise ValidationError("scores must be one [0,1] value per correspondence")
            object.__setattr__(self, "scores", sc)

    def __len__(self) -> int:
        return self.source.shape[0]

    def take(self, indices) -> "CorrespondenceSet":
        idx = np.asarray(indices, dtype=np.int64)
        return CorrespondenceSet(
            self.source[idx],
            self.target[idx],
            None if self.labels is None else self.labels[idx],
            None if self.scores is None else self.scores[idx],
        )


@dataclass(frozen=True)
class LocalConsistency:
    """Per-node consistency blocks, indexed like node_to_members.

    blocks  dict node index -> (|C_j|, |C_j|) matrix in [0, 1]; one per
            graph patch, so only nodes with a nonempty member set appear;
            all in the dtype of the model that scores them
    """

    blocks: dict


def pairwise_consistency(c_i, c_j, sigma_d: float) -> float:
    """Consistency of two correspondences: [1 - (dd / sigma_d)^2]_+ where
    dd is the difference of their source-side and target-side distances.

    An oracle: no pipeline path calls it. Acceptance gate 4 checks the
    node-assembled blocks against it, one scalar pair at a time."""
    if not sigma_d > 0:
        raise ValidationError("sigma_d must be positive")
    xi, yi = (np.asarray(v, dtype=np.float64) for v in c_i)
    xj, yj = (np.asarray(v, dtype=np.float64) for v in c_j)
    dx = np.sqrt(((xi - xj) ** 2).sum())
    dy = np.sqrt(((yi - yj) ** 2).sum())
    delta = np.abs(dx - dy)
    val = 1.0 - (delta * delta) / (sigma_d * sigma_d)
    return float(np.maximum(0.0, val))


# A consistency block is built from its upper triangle, a chunk of rows at a
# time: each chunk's three float64 working arrays hold at most this many
# entries (one row each when a row alone is longer).
_CHUNK_ENTRIES = 1 << 15


def _pairwise_distances(rows: np.ndarray, p: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> np.ndarray:
    # from each of rows to each of p, per coordinate, summed x, y, z in
    # order: the bits of summing the squares over the last axis, without
    # the (M, M, 3) temporaries
    np.subtract(rows[:, None, 0], p[None, :, 0], out=out)
    out *= out
    for a in (1, 2):
        np.subtract(rows[:, None, a], p[None, :, a], out=scratch)
        scratch *= scratch
        out += scratch
    return np.sqrt(out, out=out)


def _block_consistency(src: np.ndarray, tgt: np.ndarray, sigma_d: float, dtype) -> np.ndarray:
    """[1 - ((dx - dy) / sigma_d)^2]_+ as an (M, M) block in dtype.

    d(i, j) and d(j, i) have the same bits ((x_i - x_j)^2 = (x_j - x_i)^2,
    summed x, y, z in the same order), so only the upper triangle is
    computed: chunks of rows [a, a + n) against columns [a, M), each in
    float64 in place in its source distances, written straight into the
    block and mirrored below its rows. Every step is elementwise, so the
    block is the rounding of the whole float64 one."""
    m = src.shape[0]
    block = np.empty((m, m), dtype)
    buffers = np.empty((3, min(m * m, max(_CHUNK_ENTRIES, m))))
    a = 0
    while a < m:
        w = m - a
        n = max(1, min(w, _CHUNK_ENTRIES // w))
        dx, dy, scratch = buffers[:, :n * w].reshape(3, n, w)
        val = _pairwise_distances(src[a:a + n], src[a:], dx, scratch)
        val -= _pairwise_distances(tgt[a:a + n], tgt[a:], dy, scratch)
        val *= val
        val /= sigma_d * sigma_d
        np.subtract(1.0, val, out=val)
        np.maximum(0.0, val, out=block[a:a + n, a:])
        block[a + n:, a:a + n] = block[a:a + n, a + n:].T
        a += n
    return block


def local_consistency(corr: CorrespondenceSet, graph: DeformationGraph, sigma_d: float,
                      dtype=np.float32) -> LocalConsistency:
    """Per-node consistency blocks over the members of each graph node.

    The graph must have been built over the correspondences' source
    endpoints, so member indices index into ``corr``. Only the graph's
    patches get a block. Each block is computed in float64 over its upper
    triangle, a chunk of rows at a time, mirrored, and stored in dtype:
    float32 for a model loaded from a parameter file, float64 for training.
    Coordinates whose squared distances overflow leave NaN in a block and
    raise NumericalError naming the node.
    """
    if not sigma_d > 0:
        raise ValidationError("sigma_d must be positive")
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValidationError(f"consistency blocks are float32 or float64, not {np.dtype(dtype)}")
    if graph.num_points != len(corr):
        raise ValidationError(
            f"graph covers {graph.num_points} points but there are {len(corr)} correspondences"
        )
    blocks = {}
    for j, members, _ in graph.patches:
        block = _block_consistency(corr.source[members], corr.target[members], float(sigma_d), dtype)
        if np.isnan(block.max()):  # max propagates NaN, and needs no mask
            raise NumericalError(f"local consistency: node {j}'s pairwise distances overflow")
        blocks[j] = block
    return LocalConsistency(blocks=blocks)


def write_corr_csv(path, corr: CorrespondenceSet) -> None:
    """CSV with six coordinate columns, then label and score if present."""
    extras = {k: v for k, v in (("label", corr.labels), ("score", corr.scores)) if v is not None}
    rows = (format_row((*src.tolist(), *tgt.tolist(), *rest))
            for src, tgt, *rest in zip(corr.source, corr.target, *extras.values()))
    write_lines(path, chain([format_row(CORR_BASE_COLUMNS + tuple(extras))], rows))


def read_corr_csv(path) -> CorrespondenceSet:
    """Inverse of write_corr_csv; header row is mandatory."""
    lines = read_lines(path)
    if not lines:
        raise FileFormatError(f"{path}: empty correspondence file")
    header = tuple(lines[0].split(","))
    if header[:6] != CORR_BASE_COLUMNS:
        raise FileFormatError(f"{path}:1: correspondence header must start with "
                              + ",".join(CORR_BASE_COLUMNS))
    extras = header[6:]
    has_label = "label" in extras
    has_score = "score" in extras
    expected = CORR_BASE_COLUMNS + (("label",) if has_label else ()) + (("score",) if has_score else ())
    if header != expected:
        raise FileFormatError(f"{path}:1: unexpected correspondence columns: {','.join(header)}")
    body = [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if not body:
        raise FileFormatError(f"{path}: no correspondence rows")
    values = parse_rows(((n, line.split(",")) for n, line in body), len(header), path)
    coords = np.ascontiguousarray(values[:, :6])
    labels = values[:, 6] if has_label else None
    if has_label:
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            raise FileFormatError(f"{path}:{body[int(np.argmax(bad))][0]}: labels must be 0 or 1")
    scores = np.ascontiguousarray(values[:, -1]) if has_score else None
    return CorrespondenceSet(coords[:, :3], coords[:, 3:], labels, scores)
