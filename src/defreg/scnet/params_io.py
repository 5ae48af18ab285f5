"""Binary parameter files.

Layout:

    8 bytes   magic b"DEFREGNN"
    u32 LE    format version (1)
    u32 LE    descriptor length in bytes
    ...       descriptor: UTF-8 JSON of the architecture (sorted keys)
    ...       parameter tensors in declaration order, little-endian f32:
              the model's flat parameter vector, values, in float32

Nothing follows the last tensor; any byte after it is an error.

The descriptor pins the architecture (feature_dim, block counts, group
count, activation slope, and the init and head widths ScNetConfig derives
from feature_dim), not the init seed: a file may be loaded into any model
instance compiled with the same architecture. Any other descriptor is
rejected: it must equal, byte for byte, the one save_params writes for
the model.

save_params refuses a model with a value that is not finite in float32
before it opens the file, so a failed save leaves any existing file as it
was. load_params checks the whole file before it touches the model, so a
rejected file leaves the model as it was. It reads the tensor section as
one float32 array and installs one writable copy of it, which the model
owns, as the model's flat parameter vector; install_params rebinds every
layer parameter as a view of it. A loaded model therefore scores in
float32; widening to float64 would add no information. Training refuses
such a model, so its gradients are read-only zeros that own no memory, and
the constructor's float64 buffer, which held both vectors, is freed whole.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from defreg.errors import FileFormatError, ValidationError
from defreg.scnet.model import ScNetModel

MAGIC = b"DEFREGNN"
FORMAT_VERSION = 1

__all__ = ["save_params", "load_params"]


def _descriptor_bytes(model: ScNetModel) -> bytes:
    return json.dumps(model.config.architecture(), sort_keys=True).encode("utf-8")


def save_params(path, model: ScNetModel) -> None:
    tensors = model.float32_values()
    desc = _descriptor_bytes(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(desc)))
        fh.write(desc)
        fh.write(tensors)


def load_params(path, model: ScNetModel) -> None:
    """Install the file's float32 parameters in the model. The file
    descriptor must match the model's compiled architecture exactly."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())  # slices of a memoryview copy no bytes
    offset = 0

    def take(nbytes: int, what: str) -> memoryview:
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
                              f"{bytes(descriptor).decode('utf-8', 'replace')}, model {expected.decode()}")
    size, left = model.values.size, len(data) - offset
    if left < 4 * size:
        raise FileFormatError(f"{path}: truncated at parameter {model.param_name(left // 4)}")
    if left > 4 * size:
        raise FileFormatError(f"{path}: {left - 4 * size} unexpected trailing bytes")
    tensors = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
    if not np.isfinite(tensors).all():
        raise FileFormatError(f"{path}: non-finite value in parameter")
    model.install_params(tensors.astype(np.float32), np.broadcast_to(np.zeros((), np.float32), size))
