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
    # the buffers behind the last step's entries of m and v
    _flat: "_FlatMoments | None" = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError(f"betas must lie in (0,1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0 or self.weight_decay < 0:
            raise ValueError("eps must be > 0 and weight_decay >= 0")


class _FlatMoments:
    """Both moments of an ordered set of parameters, each in one flat buffer,
    a buffer for the gathered gradients, which then holds the update, and a
    scratch buffer.

    `m`, `v` and `g` map each name, in the set's order, to its
    shape-preserving view of the moment and gradient buffers. A new set
    starts from the moments already in `state`, and from zero for a name it
    has none for.
    """

    def __init__(self, live: list, state: AdamWState):
        dtype = np.result_type(*(p.data.dtype for _, p in live))
        size = sum(p.data.size for _, p in live)
        self.m_flat, self.v_flat, self.g_flat, self.t_flat = (
            np.zeros(size, dtype) for _ in range(4))
        self.m, self.v, self.g = {}, {}, {}
        start = 0
        for name, p in live:
            part = slice(start, start + p.data.size)
            start = part.stop
            for views, flat in ((self.m, self.m_flat), (self.v, self.v_flat),
                                (self.g, self.g_flat)):
                views[name] = flat[part].reshape(p.data.shape)
            if name in state.m:
                if state.m[name].shape != p.data.shape:
                    raise ShapeError(f"AdamW state for {name!r} has shape "
                                     f"{state.m[name].shape}, parameter has "
                                     f"{p.data.shape}")
                self.m[name][...] = state.m[name]
                self.v[name][...] = state.v[name]

    def serves(self, live: list, state: AdamWState) -> bool:
        """Whether `live` is this set, in this order and these shapes, and
        `state` still holds this set's views."""
        return (len(live) == len(self.m)
                and all(name == own and p.data.shape == self.m[own].shape
                        and state.m.get(name) is self.m[own]
                        and state.v.get(name) is self.v[own]
                        for (name, p), own in zip(live, self.m)))


def adamw_step(params: dict, state: AdamWState) -> None:
    """One decoupled-weight-decay update over every trainable parameter.

    Gradients are read from each parameter's `.grad` (a missing buffer counts
    as zero gradient). The decay term is applied outside the moment estimate:
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    The moments of all trainable parameters live in one flat buffer each;
    `state.m` and `state.v` map each name to its view, and a parameter first
    seen at a later step starts from zero moments. The gradients are gathered
    into one buffer and checked before anything changes: a NaN or Inf raises
    NumericalError naming the first such parameter, and leaves every
    parameter, moment and `step_count` as it was. The update then runs as a
    few whole-buffer operations, the same arithmetic as one parameter at a
    time, and each parameter takes its slice.
    """
    live = [(name, p) for name, p in params.items() if p.requires_grad]
    if not live:
        state.step_count += 1
        return
    flat = state._flat
    if flat is None or not flat.serves(live, state):
        flat = _FlatMoments(live, state)
    g, t = flat.g_flat, flat.t_flat
    np.concatenate([np.zeros(p.data.size, g.dtype) if p.grad is None
                    else p.grad.ravel() for _, p in live], out=g)
    if not np.isfinite(g).all():
        bad = next(name for name, _ in live if not np.isfinite(flat.g[name]).all())
        raise NumericalError(f"NaN/Inf gradient for parameter {bad!r}")

    if state._flat is not flat:
        state._flat = flat
        state.m.update(flat.m)
        state.v.update(flat.v)
    state.step_count += 1
    bc1 = 1.0 - state.beta1 ** state.step_count
    bc2 = 1.0 - state.beta2 ** state.step_count
    m, v = flat.m_flat, flat.v_flat
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=t)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=t)
    v += np.multiply(t, g, out=t)
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += state.eps
    update = np.divide(m, bc1, out=g)
    update /= t
    if state.weight_decay:
        np.concatenate([p.data.ravel() for _, p in live], out=t)
        update += np.multiply(t, state.weight_decay, out=t)
    update *= state.lr
    for name, p in live:
        p.data -= flat.g[name]


def zero_grads(params: dict) -> None:
    for p in params.values():
        if isinstance(p, DiffTensor):
            p.zero_grad()
