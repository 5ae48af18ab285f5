"""Exception types shared across the package, and the config field checker.

The CLI maps these onto exit codes (validation 2, numerical 3, file I/O 4),
so raising the right class matters more than the message text.
"""

import sys
from dataclasses import field, fields
from numbers import Integral, Real


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


def from_document(cls, data: dict, kind: str):
    """cls(**data) for a parsed JSON document, rejecting keys cls has no field for."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{kind} document must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {kind} key: {unknown[0]}")
    return cls(**data)
