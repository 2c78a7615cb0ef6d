"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from ..errors import NumericalError, ShapeError

_BETA1, _BETA2, _EPS, _WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


@dataclass(eq=False)
class AdamWState:
    """The learning rate, and the moments of the parameter set that the first
    step fixes, each in one flat buffer in the set's order."""

    lr: float = 5e-5
    step_count: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)
    # the trainable (name, shape) pairs in order
    layout: list = field(default_factory=list, init=False, repr=False)
    # the gradient buffer, which then holds the update, a scratch buffer, and
    # each parameter's shaped view of the gradient buffer
    _work: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


def adamw_step(params: dict, state: AdamWState) -> None:
    """One decoupled-weight-decay update over every trainable parameter.

    Gradients are read from each parameter's `.grad` (a missing buffer counts
    as zero gradient), so gradients from several `backward` calls add up
    until the step that applies them. The decay term is applied outside the
    moment estimate:
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    The first step fixes the trainable parameters, their order and shapes; a
    later step over any other set raises ShapeError naming the first pair
    that differs. The gradients are gathered into one buffer and checked
    before anything changes: a NaN or Inf raises NumericalError naming the
    first such parameter. Either error leaves every parameter, moment and
    `step_count` as it was, and a rejected first step leaves the state
    unbuilt. The update then runs as a few whole-buffer operations, the same
    arithmetic as one parameter at a time, and each parameter takes its
    slice and has its `.grad` released (set to None), so the next step
    starts from no gradient. A rejected step releases nothing, and a
    parameter that needs no gradient keeps its `.grad`.
    """
    live = [(name, p) for name, p in params.items() if p.requires_grad]
    if not live:
        raise ValueError("adamw_step needs at least one trainable parameter")
    layout = [(name, p.data.shape) for name, p in live]
    if state.m is None:
        dtype = np.result_type(*(p.data.dtype for _, p in live))
        m, v, g, t = (np.zeros(sum(p.data.size for _, p in live), dtype)
                      for _ in range(4))
        bounds = np.cumsum([0] + [p.data.size for _, p in live])
        views = [g[a:b].reshape(shape)
                 for a, b, (_, shape) in zip(bounds, bounds[1:], layout)]
    elif layout != state.layout:
        i, new, old = next((i, new, old) for i, (new, old)
                           in enumerate(zip_longest(layout, state.layout))
                           if new != old)
        raise ShapeError(f"AdamW state holds {old} at position {i}, "
                         f"this step passes {new}")
    else:
        m, v, (g, t, views) = state.m, state.v, state._work
    np.concatenate([np.zeros(p.data.size, g.dtype) if p.grad is None
                    else p.grad.ravel() for _, p in live], out=g)
    if not np.isfinite(g).all():
        bad = next(name for (name, _), part in zip(live, views)
                   if not np.isfinite(part).all())
        raise NumericalError(f"NaN/Inf gradient for parameter {bad!r}")

    if state.m is None:
        state.m, state.v, state.layout, state._work = m, v, layout, (g, t, views)
    state.step_count += 1
    bc1 = 1.0 - _BETA1 ** state.step_count
    bc2 = 1.0 - _BETA2 ** state.step_count
    m *= _BETA1
    m += np.multiply(g, 1.0 - _BETA1, out=t)
    v *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=t)
    v += np.multiply(t, g, out=t)
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += _EPS
    update = np.divide(m, bc1, out=g)
    update /= t
    np.concatenate([p.data.ravel() for _, p in live], out=t)
    update += np.multiply(t, _WEIGHT_DECAY, out=t)
    update *= state.lr
    for (_, p), part in zip(live, views):
        p.data -= part
        p.grad = None
