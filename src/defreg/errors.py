"""Exception types shared across the package, the config field checker,
and the helpers every defreg file reader and writer is built on.

The CLI maps these onto exit codes (validation 2, numerical 3, file I/O 4),
so raising the right class matters more than the message text.

Every text file defreg reads goes through `read_lines`, which accepts
ASCII only; numeric rows go through `parse_rows` and JSON documents
through `read_document`. A malformed file therefore always raises
`FileFormatError` (exit 4), with a message that starts with the file's
path and, where the problem sits on one line, its line number:
`path:line: problem`.

Every text file defreg writes goes through `write_lines`, every row
through `format_row` (a float as its repr, which `parse_rows` reads back
bit for bit) and every JSON document through `write_document`, so reruns
on the same inputs write the same bytes.
"""

import json
import sys
from collections import Counter
from dataclasses import field, fields
from numbers import Integral, Real

import numpy as np


class ValidationError(ValueError):
    """Bad input: out-of-range value, wrong shape, inconsistent arguments."""


class NumericalError(ArithmeticError):
    """Computation failed: divergence, solver breakdown, degenerate data."""


class FileFormatError(IOError):
    """A file exists but does not parse as the expected format."""


def positive(default):
    """A config field whose value must be > 0."""
    return field(default=default, metadata={"bound": "positive"})


def nonnegative(default):
    """A config field whose value must be >= 0; on an int field (a seed),
    this replaces the count rule >= 1."""
    return field(default=default, metadata={"bound": "nonnegative"})


def check_fields(config) -> None:
    """Check a config dataclass's bool, int and float fields against their
    annotations and bounds; the error names the offending key.

    Bools are not numbers, floats must be finite, and an int is a count
    (>= 1) unless its field is declared nonnegative.
    """
    for f in fields(config):
        key, value, bound = f.name, getattr(config, f.name), f.metadata.get("bound")
        kind = getattr(f.type, "__name__", f.type)
        if kind == "bool":
            if not isinstance(value, bool):
                raise ValidationError(f"{key} must be true or false")
        elif kind == "int":
            low = 0 if bound == "nonnegative" else 1
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValidationError(f"{key} must be an integer >= {low}")
        elif kind == "float":
            # false for NaN, for infinities and for an int too large for a float
            finite = isinstance(value, Real) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise ValidationError(f"{key} must be a finite number")
            if bound == "positive" and value <= 0:
                raise ValidationError(f"{key} must be positive")
            if bound == "nonnegative" and value < 0:
                raise ValidationError(f"{key} must be nonnegative")


def read_lines(path) -> list:
    """The lines of an ASCII text file, without their line endings."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{line}: non-ASCII byte") from None


def parse_rows(rows, width: int, path, columns=None) -> np.ndarray:
    """Finite float64 array, one row per (line number, fields) pair.

    Each row must hold `width` fields; `columns` picks the ones to parse
    and keep (default: all). Values are parsed by float(), so a written
    repr reads back bit for bit. `rows` may be a generator; it is read
    once, one row at a time.
    """
    keep = range(width) if columns is None else columns
    line_numbers = []

    def values():
        for line, f in rows:
            line_numbers.append(line)
            if len(f) != width:
                raise FileFormatError(f"{path}:{line}: expected {width} fields, got {len(f)}")
            for c in keep:
                try:
                    yield float(f[c])
                except ValueError:
                    raise FileFormatError(f"{path}:{line}: non-numeric value {f[c]!r}") from None

    out = np.fromiter(values(), dtype=np.float64)
    out = out.reshape(len(line_numbers), len(keep))
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise FileFormatError(f"{path}:{line_numbers[int(np.argmax(bad))]}: non-finite value")
    return out


def read_document(cls, path, kind: str):
    """cls(**document) for the JSON object in the file at path, rejecting
    duplicate keys and keys cls has no field for; kind names the document
    in errors."""
    text = "\n".join(read_lines(path))
    duplicates = []

    def unique_keys(pairs):
        duplicates.extend(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: bad {kind} file: {exc.msg}") from None
    except ValueError as exc:  # an integer literal too long to convert
        raise FileFormatError(f"{path}: bad {kind} file: {exc}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: {kind} document must hold a JSON object")
    if duplicates:  # raised here: a ValidationError inside the try would become a FileFormatError
        raise ValidationError(f"{path}: duplicate {kind} key: {duplicates[0]}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"{path}: unknown {kind} key: {unknown[0]}")
    return cls(**data)


def _field(value) -> str:
    if isinstance(value, str):
        return value
    # a float (np.float64 is one) skips the slower Integral check
    if not isinstance(value, float) and isinstance(value, Integral):
        return str(int(value))
    return repr(float(value))


def format_row(values, sep: str = ",") -> str:
    """One line of fields: a float as repr(float(v)), which parse_rows reads
    back bit for bit, an int as its digits and a string unchanged."""
    return sep.join(map(_field, values))


def write_lines(path, lines) -> None:
    """Write an ASCII text file, a newline after each line. lines may be a
    generator; it is consumed one line at a time, so rows stream."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_document(path, data) -> None:
    """Write data as JSON: sorted keys, a 2-space indent, a trailing newline."""
    write_lines(path, [json.dumps(data, indent=2, sort_keys=True)])
