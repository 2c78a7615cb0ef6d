"""Binary checkpoint files for named tensor collections.

Layout (little-endian throughout): magic "CTXN", version u32, tensor count
u32, then per tensor: name length u32, UTF-8 name, ndim u32, dims u32[],
float32 payload. Tensors keep their insertion order so a load/save round
trip is byte-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import DataFormatError
from .tensor import DiffTensor

MAGIC = b"CTXN"
VERSION = 1


def save_checkpoint(path, tensors: dict) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, t in tensors.items():
            arr = t.data if isinstance(t, DiffTensor) else np.asarray(t)
            arr = np.asarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint into an ordered {name: float32 ndarray} dict."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise DataFormatError(f"checkpoint truncated at byte {off} reading {what}")
        piece = blob[off:off + n]
        off += n
        return piece

    if take(4, "magic") != MAGIC:
        raise DataFormatError(f"bad checkpoint magic at byte 0 in {path}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"tensor name at byte {off - nlen + e.start} "
                                  f"is not UTF-8 in {path}") from None
        (ndim,) = struct.unpack("<I", take(4, "ndim"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        size = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        arr = np.frombuffer(take(4 * size, f"payload of {name!r}"), dtype="<f4")
        out[name] = arr.reshape(dims).copy()
    if off != len(blob):
        raise DataFormatError(f"{len(blob) - off} trailing bytes after last tensor")
    return out
