"""ASCII point-cloud file I/O: PLY (element vertex, float x/y/z), and an XYZ text reader.

Readers accept ASCII text only and are strict about finiteness (NaN/Inf
coordinates are rejected) and about the subset of PLY they claim to
support: ASCII format, a single vertex element whose properties include
x, y, z. Extra scalar properties are skipped by column; other elements
are refused rather than guessed at.

The PLY writer formats floats with repr (shortest round-trip), so written
files are byte-stable across runs for identical inputs.
"""

from __future__ import annotations

from itertools import chain

from defreg.errors import FileFormatError, format_row, parse_rows, read_lines, write_lines
from defreg.geometry import PointCloud

_PLY_FLOAT_TYPES = {"float", "float32", "double", "float64"}


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY vertex cloud."""
    lines = read_lines(path)
    if not lines or lines[0].strip() != "ply":
        raise FileFormatError(f"{path}: missing 'ply' magic")
    if len(lines) < 2 or lines[1].split()[:2] != ["format", "ascii"]:
        raise FileFormatError(f"{path}: only ASCII PLY is supported")
    count = None
    props = []
    for n, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "element":
            if len(tokens) != 3:
                raise FileFormatError(f"{path}:{n}: element line needs a name and a count")
            if tokens[1] != "vertex":
                raise FileFormatError(f"{path}:{n}: unsupported element '{tokens[1]}'")
            if not tokens[2].isdigit():
                raise FileFormatError(f"{path}:{n}: bad vertex count {tokens[2]!r}")
            if int(tokens[2]) == 0:
                raise FileFormatError(f"{path}:{n}: vertex element declares no vertices")
            count = int(tokens[2])
        elif tokens[0] == "property":
            if count is not None:
                if len(tokens) != 3 or tokens[1] not in _PLY_FLOAT_TYPES:
                    raise FileFormatError(f"{path}:{n}: non-float or malformed vertex property "
                                          f"{line.strip()!r}")
                props.append(tokens[2])
        elif tokens[0] == "end_header":
            break
        else:
            raise FileFormatError(f"{path}:{n}: unexpected header line {tokens[0]!r}")
    else:
        raise FileFormatError(f"{path}: truncated header")
    if count is None:
        raise FileFormatError(f"{path}: no vertex element")
    try:
        cols = [props.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise FileFormatError(f"{path}: vertex element lacks x/y/z properties") from None
    body = lines[n:n + count]
    if len(body) < count:
        raise FileFormatError(f"{path}: truncated: {count} vertices declared, {len(body)} present")
    rows = ((i, line.split()) for i, line in enumerate(body, start=n + 1))
    return PointCloud(parse_rows(rows, len(props), path, cols))


def write_ply(path, cloud: PointCloud) -> None:
    """Write an ASCII PLY vertex cloud (meters)."""
    header = ["ply", "format ascii 1.0", "comment units meters", f"element vertex {len(cloud)}",
              "property float x", "property float y", "property float z", "end_header"]
    write_lines(path, chain(header, (format_row(p.tolist(), " ") for p in cloud.points)))


def read_xyz(path) -> PointCloud:
    """Read whitespace-separated XYZ text; '#' comments and blank lines skipped."""
    rows = ((n, line.split()) for n, line in enumerate(read_lines(path), start=1)
            if line.strip() and not line.lstrip().startswith("#"))
    points = parse_rows(rows, 3, path)
    if len(points) == 0:
        raise FileFormatError(f"{path}: no points")
    return PointCloud(points)
