"""Central finite-difference verification of analytic gradients.

Meant to run in 64-bit verification mode (set_verify(True), as the
`verify64` fixture in conftest.py does); in 32-bit mode the difference
quotient itself is too noisy to certify anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctxseg.diffcore import backward


@dataclass
class CoordCheck:
    param: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class FiniteDiffReport:
    checks: list

    @property
    def max_rel_err(self) -> float:
        return max(c.rel_err for c in self.checks) if self.checks else 0.0

    def worst(self) -> "CoordCheck":
        return max(self.checks, key=lambda c: c.rel_err)


def finite_diff_check(fn, params: dict, eps: float = 1e-5,
                      num_coords: int = 50, rng=None) -> FiniteDiffReport:
    """Compare analytic gradients of `fn()` against central differences.

    `fn` must be a deterministic closure over `params` returning a scalar
    DiffTensor. `num_coords` coordinates are sampled across all trainable
    parameters (all coordinates if there are fewer). Relative error uses
    max(|analytic|, |numeric|, 1e-8) as the denominator.
    """
    rng = rng or np.random.default_rng(0)
    names = [k for k, p in params.items() if p.requires_grad]

    for k in names:
        params[k].grad = None
    loss = fn()
    backward(loss)
    analytic = {k: (params[k].grad.copy() if params[k].grad is not None
                    else np.zeros_like(params[k].data)) for k in names}

    coords = [(k, i) for k in names for i in range(params[k].data.size)]
    if len(coords) > num_coords:
        picks = rng.choice(len(coords), size=num_coords, replace=False)
        coords = [coords[i] for i in picks]

    checks = []
    for name, flat in coords:
        p = params[name]
        idx = np.unravel_index(flat, p.data.shape)
        orig = p.data[idx]
        p.data[idx] = orig + eps
        lo_hi = float(fn().data)
        p.data[idx] = orig - eps
        lo_lo = float(fn().data)
        p.data[idx] = orig
        numeric = (lo_hi - lo_lo) / (2.0 * eps)
        ana = float(analytic[name][idx])
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
        checks.append(CoordCheck(name, idx, ana, numeric, rel))
    return FiniteDiffReport(checks)
