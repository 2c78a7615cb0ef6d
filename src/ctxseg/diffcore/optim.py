"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import DiffTensor


@dataclass
class AdamWState:
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(f"betas must lie in (0,1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("eps must be > 0 and weight_decay >= 0")


def adamw_step(params: dict, state: AdamWState) -> None:
    """One decoupled-weight-decay update over every trainable parameter.

    Gradients are read from each parameter's `.grad` (a missing buffer counts
    as zero gradient). The decay term is applied outside the moment estimate:
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        if not p.requires_grad:
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"NaN/Inf gradient for parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"AdamW state for {name!r} has shape {m.shape}, "
                             f"parameter has {p.data.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * p.data
        p.data -= state.lr * update


def zero_grads(params: dict) -> None:
    for p in params.values():
        if isinstance(p, DiffTensor):
            p.zero_grad()
