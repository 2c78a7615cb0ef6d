"""Forward primitives and their reverse-mode gradients.

Everything operates on DiffTensor and returns DiffTensor. The two
convolutions share one core, `_conv`: it flattens the padded NCHW input to
(N, C, Hp*Wp), where each kernel tap (di, dj) reads the same contiguous run
shifted by di*Wp + dj, so forward and backward are one BLAS matmul per tap
and nothing the size of a column matrix is built. One tap sum, `_tap_sum`,
serves the forward and the input gradient, a gather of the zero-led output
gradient at each tap's negated shift. The graph holds no padded copy: the
weight gradient pads the input again from the arrays its producers hold.
`conv2d` is that conv alone. `conv_bn_relu` is conv -> batch norm -> ReLU
as one graph node. In train mode batch norm normalizes the conv's output in
place. In eval mode it is one per-channel epilogue that `_conv` applies in
place of its bias add, y = relu(S * taps + T) with S = gamma / sqrt(
running_var + eps) and T = beta + (bias - running_mean) * S: three passes
over the output and one buffer. The backward works in place on one masked
copy of the output gradient, which it hands straight to the conv's. `matmul`
adds an optional bias row, so a projection is one node. `attention_gate` is
the pixel side of the text gate as one node, computed item by item and
channel-major, (C, H*W) queries against (rows, H*W) logits, so nothing is
transposed and its softmax reduces across token rows. An item's trailing
run of r token rows equal in key and value (a report's padding) is read as
one row whose logit gains log r, exact in real arithmetic. Its backward
recomputes the projected queries rather than holding them.

The in-place paths and the recomputed values do the same arithmetic in the
same order as allocating and keeping a fresh array for every intermediate,
so their results are bitwise those of that simpler form, kept in
tests/oracles.py as the reference. No backward writes into its output's
gradient or into an array an input holds, and no op's input array may be
changed between its forward and backward, because backward reads it again.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import DiffTensor


# ---------------------------------------------------------------------------
# elementwise arithmetic

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


def sum_all(a: DiffTensor) -> DiffTensor:
    def back():
        a.accum_grad(np.broadcast_to(out.grad, a.data.shape))

    out = DiffTensor._node(a.data.sum(dtype=a.data.dtype).reshape(()), (a,), back)
    return out


def mean_all(a: DiffTensor) -> DiffTensor:
    return scale(sum_all(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# activations

def sigmoid_np(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; 1/(1+e) for z >= 0 and e/(1+e) below are
    # the two branches of the stable form, picked without boolean indexing
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1 / (1 + e), e / (1 + e))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: DiffTensor, b: DiffTensor, bias: DiffTensor | None = None
           ) -> DiffTensor:
    """(..., m, k) @ (k, n): a matrix, or a stack of matrices that share `b`,
    plus the (n,) row `bias` on every row when one is given.

    `b`'s gradient is one GEMM over all rows of `a` flattened together, and
    `bias`'s the column sums of the output gradient over those rows.
    """
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) != 2:
        raise ShapeError(f"matmul expects a matrix or a stack of matrices times "
                         f"one matrix, got {sa} and {sb}")
    if sa[-1] != sb[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {sa} @ {sb}")
    if bias is not None and bias.data.shape != sb[1:]:
        raise ShapeError(f"matmul: bias {bias.data.shape} for {sb[1]} columns")
    y = a.data @ b.data
    if bias is not None:
        y += bias.data

    def back():
        g = out.grad
        if bias is not None:
            bias.accum_grad(g.reshape(-1, sb[1]).sum(axis=0))
        if a.requires_grad:
            a.accum_grad(g @ b.data.T)
        if b.requires_grad:
            b.accum_grad(a.data.reshape(-1, sa[-1]).T @ g.reshape(-1, sb[1]))

    inputs = (a, b) if bias is None else (a, b, bias)
    out = DiffTensor._node(y, inputs, back)
    return out


# ---------------------------------------------------------------------------
# attention

def _kept_rows(k: np.ndarray, v: np.ndarray) -> int:
    """How many rows of one item's (l, c) keys and values the gate reads:
    the trailing run of rows whose key and value both equal the last row's
    (the padding tokens) counts as one row."""
    same = (k[:-1] == k[-1]).all(axis=1) & (v[:-1] == v[-1]).all(axis=1)
    breaks = np.flatnonzero(~same)
    return int(breaks[-1]) + 2 if breaks.size else 1


def attention_gate(q: DiffTensor, wq_w: DiffTensor, wq_b: DiffTensor,
                   keys: DiffTensor, values: DiffTensor) -> DiffTensor:
    """The (n, c, h, w) text gate tanh(V^T softmax_l(K (Wq^T q + bq) / sqrt(c)))
    of NCHW features q against each item's report tokens.

    wq_w (c, c) is an (in, out) query projection with bias wq_b (c,); keys
    and values are (n, l, c), one row per token. The gate works item by
    item, so an item's output depends on that item alone. In each item the
    trailing run of r rows whose key and value both equal the last row's
    (a report's padding) is read as that one row with log r added to its
    logit, which is exact in real arithmetic: a report of T tokens costs
    T + 1 rows, not l. Backward hands each row of the run 1/r of the merged
    row's key and value gradients. A run in keys alone, or in values alone,
    is not merged. Forward and backward keep an item's queries as (c, h*w)
    and its logits as (rows, h*w), so the softmax reduces across the token
    rows over contiguous pixel runs. The graph holds each item's softmax
    weights and the gate, not the projected queries: backward recomputes
    Wq^T q + bq, the same GEMM in the same order, when the keys need their
    gradient. NumericalError if a logit is not finite.
    """
    if q.data.ndim != 4:
        raise ShapeError(f"attention_gate: q must be NCHW, got {q.data.shape}")
    n, c, h, w = q.data.shape
    if wq_w.data.shape != (c, c) or wq_b.data.shape != (c,):
        raise ShapeError(f"attention_gate: query projection {wq_w.data.shape} with "
                         f"bias {wq_b.data.shape} for {c} channels")
    sk = keys.data.shape
    if len(sk) != 3 or sk[0] != n or sk[1] < 1 or sk[2] != c:
        raise ShapeError(f"attention_gate: keys {sk} for queries {q.data.shape}; "
                         f"need ({n}, l >= 1, {c})")
    if values.data.shape != sk:
        raise ShapeError(f"attention_gate: values {values.data.shape} != keys {sk}")
    inv_sqrt_c = 1.0 / math.sqrt(c)
    qf = q.data.reshape(n, c, h * w)

    def project(i):
        qp = wq_w.data.T @ qf[i]                           # (c, h*w)
        qp += wq_b.data[:, None]
        return qp

    weights = []                                           # (rows kept, h*w) each
    gate = np.empty((n, c, h * w), dtype=qf.dtype)
    for i in range(n):
        m = _kept_rows(keys.data[i], values.data[i])
        a = keys.data[i, :m] @ project(i)
        a *= inv_sqrt_c
        if m < sk[1]:
            a[-1] += math.log(sk[1] - m + 1)
        top = a.max(axis=0, keepdims=True)
        # max and min both propagate NaN, so these two see every non-finite logit
        if not (np.isfinite(top).all() and np.isfinite(a.min())):
            raise NumericalError("non-finite values in cross-attention logits")
        a -= top
        np.exp(a, out=a)
        a /= a.sum(axis=0, keepdims=True)                  # attention weights
        np.matmul(values.data[i, :m].T, a, out=gate[i])
        weights.append(a)
    np.tanh(gate, out=gate)

    def spread(dst, g):
        # an item's (l, c) gradient from its (m, c) one: the merged last row's
        # is shared out equally over the run of rows it stands for
        m = len(g)
        dst[:m] = g
        dst[m - 1:] = g[-1] / (len(dst) - m + 1)

    def back():
        gm = gate * gate
        np.subtract(1.0, gm, out=gm)
        gm *= out.grad.reshape(n, c, h * w)
        gqp = np.empty_like(gm)                            # (n, c, h*w)
        gk = np.empty_like(keys.data) if keys.requires_grad else None
        gv = np.empty_like(values.data) if values.requires_grad else None
        for i, a in enumerate(weights):
            m = len(a)
            if gv is not None:
                spread(gv[i], a @ gm[i].T)
            gs = values.data[i, :m] @ gm[i]                # (m, h*w)
            gs -= (gs * a).sum(axis=0, keepdims=True)
            gs *= a
            gs *= inv_sqrt_c                               # d(loss)/d(K qp)
            if gk is not None:
                spread(gk[i], gs @ project(i).T)
            np.matmul(keys.data[i, :m].T, gs, out=gqp[i])
        if gv is not None:
            values.accum_grad(gv)
        if gk is not None:
            keys.accum_grad(gk)
        wq_b.accum_grad(gqp.sum(axis=(0, 2)))
        wq_w.accum_grad((qf @ gqp.transpose(0, 2, 1)).sum(axis=0))
        if q.requires_grad:
            q.accum_grad((wq_w.data @ gqp).reshape(n, c, h, w))

    out = DiffTensor._node(gate.reshape(n, c, h, w), (q, wq_w, wq_b, keys, values),
                           back)
    return out


# ---------------------------------------------------------------------------
# convolution / pooling

def _tap_gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b, broadcast over b's batch axis. numpy's matmul bypasses BLAS
    when the inner dimension is 1 (the one-channel stem, the one-channel
    head's input gradient), and broadcasting is several times faster there."""
    if a.shape[-1] == 1:
        np.multiply(a, b, out=out)
    else:
        np.matmul(a, b, out=out)


def _tap_sum(mats, src: np.ndarray, starts, out: np.ndarray) -> None:
    """out = sum over the taps t, in order, of mats[t] @ src[:, :, s:s + L]
    for s = starts[t] and L = out's last extent. The first tap's GEMM writes
    `out` and every later tap adds through one scratch buffer, the same sums
    in the same order as adding each tap to a zeroed `out`."""
    length = out.shape[-1]
    _tap_gemm(mats[0], src[:, :, starts[0]:starts[0] + length], out)
    if len(starts) > 1:
        scratch = np.empty(out.shape, dtype=out.dtype)
        for m, s in zip(mats[1:], starts[1:]):
            _tap_gemm(m, src[:, :, s:s + length], scratch)
            out += scratch


def _conv(x: DiffTensor, weight: DiffTensor, bias: DiffTensor, op: str,
          skip: DiffTensor | None = None, epilogue=None):
    """Stride-1 cross-correlation of NCHW `x` with an odd k x k OIHW kernel,
    zero-padded by k // 2 so height and width are kept, plus bias. A `skip`
    of x's batch and size is padded into the same buffer, after x's channels.
    An `epilogue`, a pair of per-channel arrays (scale, shift), takes the
    bias add's place: y = scale * taps + shift, where taps is the sum of the
    kernel taps without the bias. The bias is then the caller's to fold
    into shift, and its gradient is still the sum of g.

    Returns (y, taps, back): taps is a view of the tap sum, and back(g)
    accumulates the gradients of x, skip, weight and bias for output
    gradient g (the gradient of taps + bias), and is None when none of them
    needs one.
    Runs one GEMM per kernel tap on the padded input flattened to (N, Cin,
    Hp*Wp): output position p on the padded-width grid reads tap (di, dj) at
    flat index p + di*Wp + dj, so each tap is a contiguous slice, and
    `_tap_sum` adds the taps. The input gradient is the same tap sum run
    backwards, a gather: the output gradient sits on the padded-width grid
    behind (k-1)(Wp+1) zeros, and input position q reads tap (di, dj) at
    q - di*Wp - dj; a tap that falls off the output adds exact zeros. The
    padded input is dropped once the forward taps have run, so `back` holds
    only the tap-major kernel: it pads x.data and skip.data again for the
    weight-gradient taps and frees that buffer before the input gradient's.
    With nothing to pad or append (the 1x1 head) the flat input is x.data
    itself. `op` names the caller in errors.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"{op} input must be NCHW, got {x.data.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"{op} weight must be OIHW, got {weight.data.shape}")
    n, cx, h, w = x.data.shape
    if skip is not None and skip.data.shape[:1] + skip.data.shape[2:] != (n, h, w):
        raise ShapeError(f"{op}: skip {skip.data.shape} does not match input "
                         f"{x.data.shape} in batch or spatial size")
    cin = cx if skip is None else cx + skip.data.shape[1]
    cout, cin_w, kh, kw = weight.data.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"{op} kernel must be square and odd, got {kh}x{kw}")
    if cin_w != cin:
        raise ShapeError(
            f"{op}: input has {cin} channels but weight expects {cin_w}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"{op}: bias shape {bias.data.shape} != ({cout},)")
    k, pad = kh, kh // 2
    hp, wp = h + 2 * pad, w + 2 * pad

    def flat_input():
        # (n, cin, hp*wp): x and skip zero-padded side by side into a fresh
        # buffer, or x.data itself when there is nothing to pad or append
        if not pad and skip is None:
            return x.data.reshape(n, cin, hp * wp)
        xp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
        xp[:, :cx, pad:pad + h, pad:pad + w] = x.data
        if skip is not None:
            xp[:, cx:, pad:pad + h, pad:pad + w] = skip.data
        return xp.reshape(n, cin, hp * wp)

    xf = flat_input()
    # h output rows on the padded-width grid; the last k-1 columns of each
    # row wrap into the next row and are never kept.
    span = h * wp - (k - 1)
    offs = [di * wp + dj for di in range(k) for dj in range(k)]
    # tap-major kernel (k*k, cout, cin), taps in row-major order
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
    wt = wt.reshape(k * k, cout, cin)
    dtype = xf.dtype
    yd = np.empty((n, cout, h * wp), dtype=dtype)
    _tap_sum(wt, xf, offs, yd[:, :, :span])
    taps = yd.reshape(n, cout, h, wp)[:, :, :, :w]
    if epilogue is None:
        y = taps + bias.data[None, :, None, None]
    else:
        scale, shift = epilogue
        y = taps * scale[None, :, None, None]
        y += shift[None, :, None, None]
    input_grad = x.requires_grad or (skip is not None and skip.requires_grad)
    if not (input_grad or weight.requires_grad or bias.requires_grad):
        return y, taps, None
    lead = offs[-1]                                 # (k-1)(wp+1)

    def back(g):
        bias.accum_grad(g.sum(axis=(0, 2, 3)))
        gd = np.zeros((n, cout, lead + hp * wp), dtype=dtype)
        gd[:, :, lead:lead + h * wp].reshape(n, cout, h, wp)[:, :, :, :w] = g
        ga = gd[:, :, lead:lead + span]
        xf = flat_input()
        gw = np.empty_like(wt)
        gw_items = np.empty((n, cout, cin), dtype=dtype)
        for gw_t, off in zip(gw, offs):
            np.matmul(ga, xf[:, :, off:off + span].transpose(0, 2, 1), out=gw_items)
            gw_items.sum(axis=0, out=gw_t)
        weight.accum_grad(gw.reshape(k, k, cout, cin).transpose(2, 3, 0, 1))
        if not input_grad:
            return
        del xf
        gxf = np.empty((n, cin, hp * wp), dtype=dtype)
        _tap_sum(wt.transpose(0, 2, 1), gd, [lead - off for off in offs], gxf)
        gx = gxf.reshape(n, cin, hp, wp)[:, :, pad:pad + h, pad:pad + w]
        x.accum_grad(gx[:, :cx])
        if skip is not None:
            skip.accum_grad(gx[:, cx:])

    return y, taps, back


def conv2d(x: DiffTensor, weight: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """2-D cross-correlation over NCHW input with an odd k x k OIHW kernel,
    at stride 1 with zero padding k // 2, so the output keeps the input's
    height and width. The model calls it only for its 1x1 logit head; every
    other conv is a `conv_bn_relu` sublayer.
    """
    y, _, back = _conv(x, weight, bias, "conv2d")
    out = DiffTensor._node(y, (x, weight, bias), lambda: back(out.grad))
    return out


# Batch-norm running-average momentum and variance epsilon of every
# conv_bn_relu sublayer.
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def conv_bn_relu(x: DiffTensor, weight: DiffTensor, bias: DiffTensor,
                 gamma: DiffTensor, beta: DiffTensor, running_mean: DiffTensor,
                 running_var: DiffTensor, train: bool,
                 skip: DiffTensor | None = None) -> DiffTensor:
    """One U-Net conv sublayer as one graph node: relu(batchnorm(conv2d(x))).

    The conv is `conv2d`'s; a decoder sublayer passes the encoder `skip`,
    which the conv reads as channels after x's. Batch normalization is per
    channel. Train mode normalizes the conv's output with the batch
    statistics and updates the running buffers in place as running <- 0.9 *
    running + 0.1 * batch; variances are population (biased), and eps is
    1e-5. Eval mode reads the running buffers only, as one per-channel
    epilogue on the conv's tap sum: y = relu(S * taps + T), with S =
    gamma / sqrt(running_var + eps) and T = beta + (bias - running_mean) * S,
    whether or not a graph is recorded. Backward masks the output gradient
    where the ReLU clamped, takes it through batch normalization and hands
    the result straight to the conv's gradient; in eval mode it recomputes
    the normalized conv output, (taps + bias - running_mean) / sqrt(
    running_var + eps), from the tap sum the graph keeps.
    """
    channels = weight.data.shape[:1]
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.data.shape != channels:
            raise ShapeError(f"conv_bn_relu: {name} shape {t.data.shape} != {channels}")
    if not train:
        inv = 1.0 / np.sqrt(running_var.data + _BN_EPS)
        scale = gamma.data * inv
        shift = beta.data + (bias.data - running_mean.data) * scale
        y, taps, conv_back = _conv(x, weight, bias, "conv_bn_relu", skip,
                                   (scale, shift))
        np.maximum(y, 0, out=y)

        def back():
            go = out.grad * (out.data > 0)
            if gamma.requires_grad:
                xhat = taps + bias.data[None, :, None, None]
                xhat -= running_mean.data[None, :, None, None]
                xhat *= inv[None, :, None, None]
                gamma.accum_grad((go * xhat).sum(axis=(0, 2, 3)))
            beta.accum_grad(go.sum(axis=(0, 2, 3)))
            if conv_back is not None:
                go *= scale[None, :, None, None]
                conv_back(go)
    else:
        z, _, conv_back = _conv(x, weight, bias, "conv_bn_relu", skip)
        n, c, h, w = z.shape
        m = n * h * w
        if m < 2:
            raise ShapeError(
                "conv_bn_relu train mode needs at least 2 values per channel "
                f"(got batch*H*W = {m})")
        xhat = z                      # normalized in place: z is not read again
        mean = z.mean(axis=(0, 2, 3))
        xhat -= mean[None, :, None, None]
        # numpy's var, bit for bit: the squared deviations from the mean
        # summed and divided by the count; y serves as their scratch
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=(0, 2, 3)) / m
        running_mean.data[:] = ((1.0 - _BN_MOMENTUM) * running_mean.data
                                + _BN_MOMENTUM * mean)
        running_var.data[:] = ((1.0 - _BN_MOMENTUM) * running_var.data
                               + _BN_MOMENTUM * var)
        inv = (1.0 / np.sqrt(var + _BN_EPS))[None, :, None, None]
        xhat *= inv
        np.multiply(gamma.data[None, :, None, None], xhat, out=y)
        y += beta.data[None, :, None, None]
        np.maximum(y, 0, out=y)

        def back():
            # out.grad stays as handed in; everything below works on go
            go = out.grad * (out.data > 0)
            prod = go * xhat
            sum_gx = prod.sum(axis=(0, 2, 3))
            sum_g = go.sum(axis=(0, 2, 3))
            gamma.accum_grad(sum_gx)
            beta.accum_grad(sum_g)
            if conv_back is None:
                return
            # numpy's mean is this sum over the count, bitwise
            go -= (sum_g / m)[None, :, None, None]
            go -= np.multiply(xhat, (sum_gx / m)[None, :, None, None], out=prod)
            go *= gamma.data[None, :, None, None] * inv
            conv_back(go)

    inputs = (x,) if skip is None else (x, skip)
    out = DiffTensor._node(y, (*inputs, weight, bias, gamma, beta), back)
    return out


def maxpool2(x: DiffTensor) -> DiffTensor:
    """2x2 max pooling, stride 2: the elementwise max of x's four strided
    views. Backward routes each window's gradient to its first max in
    row-major order, through a running mask of the windows not yet served."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2 input must be NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    corners = [(i, j) for i in range(2) for j in range(2)]   # row-major
    y = x.data[:, :, 0::2, 0::2].copy()
    for i, j in corners[1:]:
        np.maximum(y, x.data[:, :, i::2, j::2], out=y)

    def back():
        gx = np.empty_like(x.data)                  # the corners tile it
        unserved = np.ones(y.shape, dtype=bool)
        for i, j in corners:
            hit = x.data[:, :, i::2, j::2] == y
            hit &= unserved
            np.multiply(out.grad, hit, out=gx[:, :, i::2, j::2])
            unserved ^= hit
        x.accum_grad(gx)

    out = DiffTensor._node(y, (x,), back)
    return out


def upconv2(x: DiffTensor, weight: DiffTensor, bias: DiffTensor) -> DiffTensor:
    """Transposed convolution with a 2x2 kernel at stride 2: doubles H and W.

    Weight layout is (C_in, C_out, 2, 2). Stride equals the kernel size, so
    each output pixel has exactly one source, and the op is one GEMM per item
    with the kernel as a (C_in, 4*C_out) matrix; backward is one GEMM for the
    weight and one for the input."""
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

    wm = weight.data.reshape(cin, cout * 4)    # column (co, di, dj): corner (di, dj)
    xf = x.data.reshape(n, cin, h * w)
    t = (wm.T @ xf).reshape(n, cout, 2, 2, h, w)
    y = np.empty((n, cout, 2 * h, 2 * w), dtype=x.data.dtype)
    for di, dj in np.ndindex(2, 2):
        np.add(t[:, :, di, dj], bias.data[:, None, None], out=y[:, :, di::2, dj::2])

    def back():
        g = out.grad
        gt = g.reshape(n, cout, h, 2, w, 2).transpose(0, 1, 3, 5, 2, 4)
        gt = gt.reshape(n, cout * 4, h * w)
        bias.accum_grad(g.sum(axis=(0, 2, 3)))
        weight.accum_grad((xf @ gt.transpose(0, 2, 1)).sum(axis=0)
                          .reshape(cin, cout, 2, 2))
        if x.requires_grad:
            x.accum_grad((wm @ gt).reshape(n, cin, h, w))

    out = DiffTensor._node(y, (x, weight, bias), back)
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
