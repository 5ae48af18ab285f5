"""ASCII point-cloud file I/O: PLY (element vertex, float x/y/z), and an XYZ text reader.

Readers are strict about finiteness (NaN/Inf coordinates are rejected) and
about the subset of PLY they claim to support: ASCII format, a single
vertex element whose properties include x, y, z. Extra scalar properties
are skipped by column; other elements are refused rather than guessed at.

The PLY writer formats floats with repr (shortest round-trip), so written
files are byte-stable across runs for identical inputs.
"""

from __future__ import annotations

import numpy as np

from defreg.errors import FileFormatError
from defreg.geometry import PointCloud

_PLY_FLOAT_TYPES = {"float", "float32", "double", "float64"}


def _finite_or_raise(arr: np.ndarray, path) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path}: non-finite coordinate")
    return arr


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY vertex cloud."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
        if line != "ply":
            raise FileFormatError(f"{path}: missing 'ply' magic")
        fmt = fh.readline().split()
        if fmt[:2] != ["format", "ascii"]:
            raise FileFormatError(f"{path}: only ASCII PLY is supported")
        count = None
        props = []
        in_vertex = False
        while True:
            line = fh.readline()
            if not line:
                raise FileFormatError(f"{path}: truncated header")
            tokens = line.split()
            if not tokens or tokens[0] == "comment":
                continue
            if tokens[0] == "element":
                if tokens[1] == "vertex":
                    count = int(tokens[2])
                    in_vertex = True
                else:
                    raise FileFormatError(f"{path}: unsupported element '{tokens[1]}'")
            elif tokens[0] == "property":
                if in_vertex:
                    if tokens[1] not in _PLY_FLOAT_TYPES:
                        raise FileFormatError(f"{path}: non-float vertex property '{tokens[-1]}'")
                    props.append(tokens[2])
            elif tokens[0] == "end_header":
                break
            else:
                raise FileFormatError(f"{path}: unexpected header line {tokens[0]!r}")
        if count is None:
            raise FileFormatError(f"{path}: no vertex element")
        try:
            cols = [props.index(axis) for axis in ("x", "y", "z")]
        except ValueError:
            raise FileFormatError(f"{path}: vertex element lacks x/y/z properties") from None
        rows = np.empty((count, 3), dtype=np.float64)
        for i in range(count):
            tokens = fh.readline().split()
            if len(tokens) != len(props):
                raise FileFormatError(f"{path}: vertex row {i} has {len(tokens)} fields, expected {len(props)}")
            rows[i] = [float(tokens[c]) for c in cols]
    return PointCloud(_finite_or_raise(rows, path))


def write_ply(path, cloud: PointCloud) -> None:
    """Write an ASCII PLY vertex cloud (meters)."""
    pts = cloud.points
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write("comment units meters\n")
        fh.write(f"element vertex {pts.shape[0]}\n")
        fh.write("property float x\n")
        fh.write("property float y\n")
        fh.write("property float z\n")
        fh.write("end_header\n")
        for p in pts:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


def read_xyz(path) -> PointCloud:
    """Read whitespace-separated XYZ text; '#' comments and blank lines skipped."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 3:
                raise FileFormatError(f"{path}:{lineno}: expected 3 fields, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: bad float") from None
    if not rows:
        raise FileFormatError(f"{path}: no points")
    return PointCloud(_finite_or_raise(np.asarray(rows, dtype=np.float64), path))
