"""Seed derivation, hashing, value checks and the JSON writer shared across
modules.

All randomness in the package flows through counter-based Philox generators
keyed by 64-bit FNV-1a hashes, so every artifact is a pure function of the
seeds that produced it, independent of execution order.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_bytes(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK
    return h


def fnv1a_str(s: str) -> int:
    return fnv1a_bytes(s.encode("utf-8"))


def check_int(name: str, value) -> None:
    """ValueError unless value is an integer. A bool is not one, and a float
    is not truncated to one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_float(name: str, value) -> None:
    """ValueError unless value is a finite real number. A bool is not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_seed(name: str, value) -> None:
    """ValueError unless value is an integer that `mix64` takes: [0, 2**64)."""
    check_int(name, value)
    if not 0 <= value <= _MASK:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def mix64(*vals: int) -> int:
    """Fold any number of integers into one 64-bit seed."""
    buf = b"".join(int(v).to_bytes(8, "little", signed=False) for v in vals)
    return fnv1a_bytes(buf)


def rng_from(*vals: int) -> np.random.Generator:
    """Philox generator keyed by the hash of the given integers."""
    return np.random.Generator(np.random.Philox(key=[mix64(*vals), 0x5EED]))


def write_json(path, doc) -> None:
    """Write doc to path as JSON with indent 2, sorted keys and a trailing
    newline, making the parent directory first. Every JSON artifact of the
    package goes through here, so all share one format. A NaN or infinity
    raises ValueError: JSON has no such constant."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
                    + "\n")
