"""Forward primitives and their reverse-mode gradients.

Everything operates on DiffTensor and returns DiffTensor. `conv2d` flattens
the padded NCHW input to (N, C, Hp*Wp), where each kernel tap (di, dj) reads
the same contiguous run shifted by di*Wp + dj. Forward and backward are then
one BLAS matmul per tap, and the backward closure keeps the padded input,
not a column matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import DiffTensor


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} vs {b.data.shape}")

    def back():
        a.accum_grad(out.grad)
        b.accum_grad(out.grad)

    out = DiffTensor._node(a.data + b.data, (a, b), back)
    return out


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} vs {b.data.shape}")

    def back():
        a.accum_grad(out.grad * b.data)
        b.accum_grad(out.grad * a.data)

    out = DiffTensor._node(a.data * b.data, (a, b), back)
    return out


def scale(a: DiffTensor, s: float) -> DiffTensor:
    def back():
        a.accum_grad(out.grad * s)

    out = DiffTensor._node(a.data * s, (a,), back)
    return out


def add_const(a: DiffTensor, c) -> DiffTensor:
    """Add a non-differentiable constant (broadcastable against `a`)."""
    y = a.data + np.asarray(c, dtype=a.data.dtype)
    if y.shape != a.data.shape:
        raise ShapeError(f"add_const: constant {np.shape(c)} broadcasts {a.data.shape} "
                         f"to {y.shape}")

    def back():
        a.accum_grad(out.grad)

    out = DiffTensor._node(y, (a,), back)
    return out


def add_rowvec(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """a (..., m, n) + b (n,) broadcast over every row; both differentiable."""
    if a.data.ndim < 2 or b.data.shape != (a.data.shape[-1],):
        raise ShapeError(f"add_rowvec: {a.data.shape} vs {b.data.shape}")

    def back():
        a.accum_grad(out.grad)
        b.accum_grad(out.grad.reshape(-1, b.data.size).sum(axis=0))

    out = DiffTensor._node(a.data + b.data, (a, b), back)
    return out


def sum_all(a: DiffTensor) -> DiffTensor:
    def back():
        a.accum_grad(np.broadcast_to(out.grad, a.data.shape))

    out = DiffTensor._node(a.data.sum(dtype=a.data.dtype).reshape(()), (a,), back)
    return out


def mean_all(a: DiffTensor) -> DiffTensor:
    return scale(sum_all(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(a: DiffTensor, shape) -> DiffTensor:
    def back():
        a.accum_grad(out.grad.reshape(a.data.shape))

    out = DiffTensor._node(np.ascontiguousarray(a.data.reshape(shape)), (a,), back)
    return out


def transpose2(a: DiffTensor) -> DiffTensor:
    """Swap the last two axes of a matrix or a stack of matrices."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose2 expects a matrix, got {a.data.shape}")
    swapped = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))

    def back():
        a.accum_grad(np.swapaxes(out.grad, -1, -2))

    out = DiffTensor._node(swapped, (a,), back)
    return out


def concat_channels(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Channel concatenation of NCHW tensors, `a` first; gradient splits exactly."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 4 or len(sb) != 4:
        raise ShapeError(f"concat_channels expects NCHW, got {sa} and {sb}")
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ShapeError(f"concat_channels: batch/spatial mismatch {sa} vs {sb}")
    ca = sa[1]

    def back():
        a.accum_grad(out.grad[:, :ca])
        b.accum_grad(out.grad[:, ca:])

    out = DiffTensor._node(np.concatenate([a.data, b.data], axis=1), (a, b), back)
    return out


# ---------------------------------------------------------------------------
# activations

def relu(x: DiffTensor) -> DiffTensor:
    def back():
        x.accum_grad(out.grad * (x.data > 0))

    out = DiffTensor._node(np.maximum(x.data, 0), (x,), back)
    return out


def tanh(x: DiffTensor) -> DiffTensor:
    y = np.tanh(x.data)

    def back():
        x.accum_grad(out.grad * (1.0 - y * y))

    out = DiffTensor._node(y, (x,), back)
    return out


def sigmoid_np(z: np.ndarray) -> np.ndarray:
    # branch form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """(..., m, k) @ (k, n), or (..., m, k) @ (..., k, n) over equal leading axes.

    A 2-D `b` is shared by every matrix of the stack, so its gradient is one
    GEMM over all rows of `a` flattened together.
    """
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2 or (len(sb) > 2 and sb[:-2] != sa[:-2]):
        raise ShapeError(f"matmul expects matrices or equal stacks, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {sa} @ {sb}")

    def back():
        g = out.grad
        if a.requires_grad:
            a.accum_grad(g @ np.swapaxes(b.data, -1, -2))
        if not b.requires_grad:
            return
        if len(sb) == 2:
            b.accum_grad(a.data.reshape(-1, sa[-1]).T @ g.reshape(-1, sb[-1]))
        else:
            b.accum_grad(np.swapaxes(a.data, -1, -2) @ g)

    out = DiffTensor._node(a.data @ b.data, (a, b), back)
    return out


def rowsoftmax(x: DiffTensor) -> DiffTensor:
    """Softmax along the last axis of a matrix or a stack of matrices,
    max-subtracted for stability."""
    if x.data.ndim < 2:
        raise ShapeError(f"rowsoftmax expects a matrix, got {x.data.shape}")
    s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def back():
        g = out.grad
        gx = g - (g * s).sum(axis=-1, keepdims=True)
        gx *= s
        x.accum_grad(gx)

    out = DiffTensor._node(s, (x,), back)
    return out


# ---------------------------------------------------------------------------
# convolution / pooling

def _tap_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, broadcast over b's batch axis. numpy's matmul bypasses BLAS
    when the inner dimension is 1 (the one-channel stem, the one-channel
    head's input gradient), and broadcasting is several times faster there."""
    return a * b if a.shape[-1] == 1 else a @ b


def conv2d(x: DiffTensor, weight: DiffTensor, bias: DiffTensor,
           stride: int = 1, padding: int = 0) -> DiffTensor:
    """2-D cross-correlation over NCHW input with an OIHW kernel.

    Runs one GEMM per kernel tap on the padded input flattened to
    (N, Cin, Hp*Wp): output position p on the padded-width grid reads tap
    (di, dj) at flat index p + di*Wp + dj, so each tap is a contiguous slice.
    The output is always computed densely at stride 1 on that grid; for
    stride > 1 it is then subsampled to every `stride`-th row and column.
    The backward closure holds the padded input and the tap-major kernel,
    nothing the size of a column matrix.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be NCHW, got {x.data.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be OIHW, got {weight.data.shape}")
    n, cin, h, w = x.data.shape
    cout, cin_w, kh, kw = weight.data.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {kh}x{kw}")
    if cin_w != cin:
        raise ShapeError(
            f"conv2d: input has {cin} channels but weight expects {cin_w}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({cout},)")
    if stride < 1 or kh < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/kernel/padding ({stride},{kh},{padding})")
    k = kh
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d: kernel {k} exceeds padded input {h + 2 * padding}")

    hp, wp = h + 2 * padding, w + 2 * padding
    if padding:
        xp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = x.data
    xf = xp.reshape(n, cin, hp * wp)
    # Dense stride-1 rows on the padded-width grid; the last k-1 columns of
    # each row wrap into the next row and are never kept.
    rows = hp - k + 1
    span = rows * wp - (k - 1)
    taps = [(di, dj, di * wp + dj) for di in range(k) for dj in range(k)]
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))   # (k, k, cout, cin)
    yd = np.zeros((n, cout, rows * wp), dtype=xp.dtype)
    for di, dj, off in taps:
        yd[:, :, :span] += _tap_gemm(wt[di, dj], xf[:, :, off:off + span])
    keep = (slice(None), slice(None),
            slice(0, stride * oh, stride), slice(0, stride * ow, stride))
    y = yd.reshape(n, cout, rows, wp)[keep] + bias.data[None, :, None, None]

    def back():
        bias.accum_grad(out.grad.sum(axis=(0, 2, 3)))
        gd = np.zeros((n, cout, rows * wp), dtype=xp.dtype)
        gd.reshape(n, cout, rows, wp)[keep] = out.grad
        ga = gd[:, :, :span]
        gw = np.empty_like(wt)
        gxf = np.zeros_like(xf) if x.requires_grad else None
        for di, dj, off in taps:
            xs = xf[:, :, off:off + span]
            gw[di, dj] = (ga @ xs.transpose(0, 2, 1)).sum(axis=0)
            if gxf is not None:
                gxf[:, :, off:off + span] += _tap_gemm(wt[di, dj].T, ga)
        weight.accum_grad(gw.transpose(2, 3, 0, 1))
        if gxf is not None:
            x.accum_grad(gxf.reshape(n, cin, hp, wp)[:, :, padding:padding + h,
                                                       padding:padding + w])

    out = DiffTensor._node(y, (x, weight, bias), back)
    return out


def maxpool2(x: DiffTensor) -> DiffTensor:
    """2x2 max pooling, stride 2; gradient goes to the first max in each window."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2 input must be NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)      # window in row-major order
    arg = win.argmax(axis=-1)                       # first max wins ties
    y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def back():
        gwin = np.zeros_like(win)
        np.put_along_axis(gwin, arg[..., None], out.grad[..., None], axis=-1)
        gx = gwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        x.accum_grad(gx.reshape(n, c, h, w))

    out = DiffTensor._node(np.ascontiguousarray(y), (x,), back)
    return out


def upconv2(x: DiffTensor, weight: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """Transposed convolution with a 2x2 kernel at stride 2: doubles H and W.

    Weight layout is (C_in, C_out, 2, 2). Stride equals the kernel size, so
    output windows do not overlap and each output pixel has exactly one source.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"upconv2: need NCHW input and IOHW weight, got "
                         f"{x.data.shape} and {weight.data.shape}")
    n, cin, h, w = x.data.shape
    cin_w, cout, kh, kw = weight.data.shape
    if (kh, kw) != (2, 2):
        raise ShapeError(f"upconv2 kernel must be 2x2, got {kh}x{kw}")
    if cin_w != cin:
        raise ShapeError(f"upconv2: input has {cin} channels but weight expects {cin_w}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"upconv2: bias shape {bias.data.shape} != ({cout},)")

    y = np.empty((n, cout, 2 * h, 2 * w), dtype=x.data.dtype)
    for di in range(2):
        for dj in range(2):
            t = np.tensordot(x.data, weight.data[:, :, di, dj], axes=([1], [0]))
            y[:, :, di::2, dj::2] = t.transpose(0, 3, 1, 2) + bias.data[None, :, None, None]

    def back():
        gx = np.zeros_like(x.data) if x.requires_grad else None
        gw = np.zeros_like(weight.data)
        gb = np.zeros(cout, dtype=x.data.dtype)
        for di in range(2):
            for dj in range(2):
                gs = out.grad[:, :, di::2, dj::2]           # (n, cout, h, w)
                gb += gs.sum(axis=(0, 2, 3))
                gw[:, :, di, dj] = np.tensordot(x.data, gs, axes=([0, 2, 3], [0, 2, 3]))
                if gx is not None:
                    gx += np.tensordot(gs, weight.data[:, :, di, dj],
                                       axes=([1], [1])).transpose(0, 3, 1, 2)
        bias.accum_grad(gb)
        weight.accum_grad(gw)
        if gx is not None:
            x.accum_grad(gx)

    out = DiffTensor._node(y, (x, weight, bias), back)
    return out


def batchnorm2d(x: DiffTensor, gamma: DiffTensor, beta: DiffTensor,
                running_mean: DiffTensor, running_var: DiffTensor,
                momentum: float = 0.1, eps: float = 1e-5,
                train: bool = True) -> DiffTensor:
    """Per-channel batch normalization over NCHW.

    Train mode normalizes with batch statistics and updates the running
    buffers in place as running <- (1-momentum)*running + momentum*batch.
    Eval mode reads the running buffers only. Variances are population
    (biased) in both paths.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d input must be NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.data.shape != (c,):
            raise ShapeError(f"batchnorm2d: {name} shape {t.data.shape} != ({c},)")

    if train:
        m = n * h * w
        if m < 2:
            raise ShapeError(
                "batchnorm2d train mode needs at least 2 values per channel "
                f"(got batch*H*W = {m})")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean.data[:] = (1.0 - momentum) * running_mean.data + momentum * mean
        running_var.data[:] = (1.0 - momentum) * running_var.data + momentum * var
    else:
        mean = running_mean.data
        var = running_var.data

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def back():
        go = out.grad
        gamma.accum_grad((go * xhat).sum(axis=(0, 2, 3)))
        beta.accum_grad(go.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        gi = gamma.data[None, :, None, None] * inv[None, :, None, None]
        if train:
            mg = go.mean(axis=(0, 2, 3))[None, :, None, None]
            mgx = (go * xhat).mean(axis=(0, 2, 3))[None, :, None, None]
            x.accum_grad(gi * (go - mg - xhat * mgx))
        else:
            x.accum_grad(gi * go)

    out = DiffTensor._node(y.astype(x.data.dtype, copy=False), (x, gamma, beta), back)
    return out


# ---------------------------------------------------------------------------
# loss

def bce_with_logits(logits: DiffTensor, targets) -> DiffTensor:
    """Mean binary cross-entropy from raw logits, stable for |z| up to ~1e4."""
    t = targets.data if isinstance(targets, DiffTensor) else np.asarray(targets)
    t = t.astype(logits.data.dtype, copy=False)
    if t.shape != logits.data.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.data.shape} vs "
                         f"targets {t.shape}")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("bce_with_logits: targets must be exactly 0 or 1")
    z = logits.data
    # max(z,0) - z*t + log(1+exp(-|z|)) == t*log(1+e^-z) + (1-t)*log(1+e^z)
    per_elem = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    val = per_elem.mean(dtype=z.dtype).reshape(())

    def back():
        logits.accum_grad(out.grad * (sigmoid_np(z) - t) / z.size)

    out = DiffTensor._node(val, (logits,), back)
    return out


def check_finite(t: DiffTensor, what: str = "tensor") -> DiffTensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericalError(f"non-finite values in {what}")
    return t
