"""Binary parameter files.

Layout:

    8 bytes   magic b"DEFREGNN"
    u32 LE    format version (1)
    u32 LE    descriptor length in bytes
    ...       descriptor: UTF-8 JSON of the architecture (sorted keys)
    ...       parameter tensors in declaration order, little-endian f32
    [optional checkpoint section]
    8 bytes   tag b"ADAMSTAT"
    u32 LE    section version (1)
    u64 LE    optimizer step count
    ...       Adam m then v tensors, same order/layout as the parameters

The descriptor pins the architecture (widths, block counts, group count,
activation slope), not the init seed: a file may be loaded into any model
instance compiled with the same architecture. Any other descriptor is
rejected: it must equal, byte for byte, the one save_params writes for
the model.

load_params installs the stored float32 tensors as the model's parameters
(writable copies the model owns), so a loaded model scores in float32;
widening them to float64 would add no information. Training refuses such
a model, so its gradients are read-only zeros that own no memory, and the
constructor's float64 gradient buffers are freed. Optimizer state is
returned widened to float64.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from defreg.errors import FileFormatError, ValidationError
from defreg.scnet.model import ScNetModel

MAGIC = b"DEFREGNN"
OPT_TAG = b"ADAMSTAT"
FORMAT_VERSION = 1

__all__ = ["save_params", "load_params"]


def _descriptor_bytes(model: ScNetModel) -> bytes:
    return json.dumps(model.config.architecture(), sort_keys=True).encode("utf-8")


def save_params(path, model: ScNetModel, optimizer_state: dict | None = None) -> None:
    desc = _descriptor_bytes(model)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(desc)))
        fh.write(desc)
        for _, value, _ in model.params():
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())
        if optimizer_state is not None:
            fh.write(OPT_TAG)
            fh.write(struct.pack("<IQ", 1, int(optimizer_state["step"])))
            for key in ("m", "v"):
                for arr in optimizer_state[key]:
                    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_params(path, model: ScNetModel) -> dict | None:
    """Install the file's float32 parameters in the model; returns optimizer
    state if the file carries a checkpoint section, else None. The file
    descriptor must match the model's compiled architecture exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    params = model.params()
    offset = 0

    def take(nbytes: int, what: str) -> bytes:
        nonlocal offset
        if len(data) - offset < nbytes:
            raise FileFormatError(f"{path}: truncated at {what}")
        offset += nbytes
        return data[offset - nbytes:offset]

    def tensors(what: str) -> list:
        out = [np.frombuffer(take(value.size * 4, f"{what} {name}"), dtype="<f4").reshape(value.shape)
               for name, value, _ in params]
        if not all(np.isfinite(arr).all() for arr in out):
            raise FileFormatError(f"{path}: non-finite value in {what}")
        return out

    if take(8, "magic") != MAGIC:
        raise FileFormatError(f"{path}: not a parameter file")
    version, desc_len = struct.unpack("<II", take(8, "header"))
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    descriptor, expected = take(desc_len, "descriptor"), _descriptor_bytes(model)
    if descriptor != expected:
        raise ValidationError(f"{path}: architecture descriptor mismatch: file "
                              f"{descriptor.decode('utf-8', 'replace')}, model {expected.decode()}")
    model.install_params([arr.astype(np.float32) for arr in tensors("parameter")])
    if offset == len(data):
        return None
    if take(8, "checkpoint tag") != OPT_TAG:
        raise FileFormatError(f"{path}: trailing bytes are not a checkpoint section")
    _, step = struct.unpack("<IQ", take(12, "checkpoint header"))
    state = {"step": step}
    for key in ("m", "v"):
        state[key] = [arr.astype(np.float64) for arr in tensors(f"optimizer state {key}")]
    if offset != len(data):
        raise FileFormatError(f"{path}: {len(data) - offset} unexpected trailing bytes")
    return state
