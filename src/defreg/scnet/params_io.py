"""Binary parameter files.

Layout:

    8 bytes   magic b"DEFREGNN"
    u32 LE    format version (1)
    u32 LE    descriptor length in bytes
    ...       descriptor: UTF-8 JSON of the architecture (sorted keys)
    ...       parameter tensors in declaration order, little-endian f32

Nothing follows the last tensor; any byte after it is an error.

The descriptor pins the architecture (widths, block counts, group count,
activation slope), not the init seed: a file may be loaded into any model
instance compiled with the same architecture. Any other descriptor is
rejected: it must equal, byte for byte, the one save_params writes for
the model.

save_params refuses a model with a value that is not finite in float32
before it opens the file, so a failed save leaves any existing file as it
was. load_params checks the whole file before it touches the model, so a
rejected file leaves the model as it was. It installs the stored float32
tensors as the model's parameters (writable copies the model owns), so a
loaded model scores in float32; widening them to float64 would add no
information. Training refuses such a model, so its gradients are read-only
zeros that own no memory, and the constructor's float64 gradient buffers
are freed.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from defreg.errors import FileFormatError, NumericalError, ValidationError
from defreg.scnet.model import ScNetModel

MAGIC = b"DEFREGNN"
FORMAT_VERSION = 1

__all__ = ["save_params", "load_params"]


def _descriptor_bytes(model: ScNetModel) -> bytes:
    return json.dumps(model.config.architecture(), sort_keys=True).encode("utf-8")


def _float32_tensors(model: ScNetModel):
    """(name, little-endian float32 copy) per parameter, one at a time."""
    for name, value, _ in model.params():
        with np.errstate(over="ignore"):  # save_params reports an overflow to inf
            arr = np.ascontiguousarray(value, dtype="<f4")
        yield name, arr


def save_params(path, model: ScNetModel) -> None:
    for name, arr in _float32_tensors(model):
        if not np.isfinite(arr).all():
            raise NumericalError(f"parameter {name} has a value that is not finite in float32")
    desc = _descriptor_bytes(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(desc)))
        fh.write(desc)
        for _, arr in _float32_tensors(model):
            fh.write(arr)


def load_params(path, model: ScNetModel) -> None:
    """Install the file's float32 parameters in the model. The file
    descriptor must match the model's compiled architecture exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0

    def take(nbytes: int, what: str) -> bytes:
        nonlocal offset
        if len(data) - offset < nbytes:
            raise FileFormatError(f"{path}: truncated at {what}")
        offset += nbytes
        return data[offset - nbytes:offset]

    if take(8, "magic") != MAGIC:
        raise FileFormatError(f"{path}: not a parameter file")
    version, desc_len = struct.unpack("<II", take(8, "header"))
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    descriptor, expected = take(desc_len, "descriptor"), _descriptor_bytes(model)
    if descriptor != expected:
        raise ValidationError(f"{path}: architecture descriptor mismatch: file "
                              f"{descriptor.decode('utf-8', 'replace')}, model {expected.decode()}")
    views = [np.frombuffer(take(value.size * 4, f"parameter {name}"), dtype="<f4").reshape(value.shape)
             for name, value, _ in model.params()]
    if offset != len(data):
        raise FileFormatError(f"{path}: {len(data) - offset} unexpected trailing bytes")
    if not all(np.isfinite(view).all() for view in views):
        raise FileFormatError(f"{path}: non-finite value in parameter")
    model.install_params([view.astype(np.float32) for view in views])
