"""Independent naive-loop reference implementations used as test oracles.

Everything here is deliberately written as plain quadruple loops or direct
formula transcriptions, sharing no code with the package under test, except
the `*_reference` ops at the end: vectorized versions of `conv2d`,
`conv_bn_relu`, `attention_gate` and `adamw_step` that allocate and keep a
fresh array for every intermediate, and the boolean-indexed branch form of
`sigmoid_np`. The package computes the same arithmetic in place, or
recomputes what these keep, and tests require its results to equal these bit
for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ctxseg.diffcore import DiffTensor
from ctxseg.errors import NumericalError, ShapeError


def conv2d_loops(x, w, b, stride=1, padding=0):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                acc += (xp[ni, ci, i * stride + di, j * stride + dj]
                                        * w[co, ci, di, dj])
                    out[ni, co, i, j] = acc + b[co]
    return out


def upconv2_loops(x, w, b):
    """Scatter-accumulate transposed convolution, 2x2 kernel, stride 2."""
    n, cin, h, wd = x.shape
    _, cout, _, _ = w.shape
    out = np.zeros((n, cout, 2 * h, 2 * wd), dtype=np.float64)
    for ni in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(wd):
                    for co in range(cout):
                        for di in range(2):
                            for dj in range(2):
                                out[ni, co, 2 * i + di, 2 * j + dj] += (
                                    x[ni, ci, i, j] * w[ci, co, di, dj])
    for co in range(cout):
        out[:, co] += b[co]
    return out


def maxpool2_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j], x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j], x[ni, ci, 2 * i + 1, 2 * j + 1])
    return out


def matmul_loops(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def rowsoftmax_direct(x):
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        e = np.exp(x[i].astype(np.float64))
        out[i] = e / e.sum()
    return out


def batchnorm_train_direct(x, gamma, beta, eps=1e-5):
    out = np.zeros_like(x, dtype=np.float64)
    for c in range(x.shape[1]):
        xc = x[:, c].astype(np.float64)
        mu = xc.mean()
        var = xc.var()
        out[:, c] = gamma[c] * (xc - mu) / np.sqrt(var + eps) + beta[c]
    return out


def dice_counters(a, b):
    """Three-counter brute force over flattened masks."""
    inter = both = 0
    na = nb = 0
    for pa, pb in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        na += int(pa)
        nb += int(pb)
        if pa and pb:
            inter += 1
    both = na + nb
    if both == 0:
        return 1.0
    return 2.0 * inter / both


def cross_attention_direct(q, token_mats, weights, level):
    """The text gate, one item and one pixel at a time, in float64.

    q is (n, c, h, w); token_mats holds one (l, d_e) matrix per item; weights
    maps the model's tensor names to arrays, of which the gate reads
    xattn{level}.{tproj,wq,wk,wv}.{w,b}. A pixel attends over every token.
    """
    p = {f"{part}_{wb}": weights[f"xattn{level}.{part}.{wb}"]
         for part in ("tproj", "wq", "wk", "wv") for wb in ("w", "b")}
    n, c, h, w = q.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    for i in range(n):
        tokens = np.asarray(token_mats[i], dtype=np.float64)
        proj = tokens @ p["tproj_w"] + p["tproj_b"]
        keys = proj @ p["wk_w"] + p["wk_b"]
        values = proj @ p["wv_w"] + p["wv_b"]
        count = tokens.shape[0]
        for y in range(h):
            for x in range(w):
                pixel = q[i, :, y, x].astype(np.float64)
                query = pixel @ p["wq_w"] + p["wq_b"]
                scores = [query @ keys[t] / np.sqrt(c) for t in range(count)]
                top = max(scores)
                weights = [np.exp(s - top) for s in scores]
                total = sum(weights)
                mix = sum(weights[t] / total * values[t] for t in range(count))
                out[i, :, y, x] = np.tanh(mix) * pixel
    return out


def gaussian_blur_loops(img, sigma):
    """Separable Gaussian, axis 0 then axis 1, one tap at a time.

    Taps exp(-x^2 / 2 sigma^2) for |x| <= int(4 sigma + 0.5), normalized; an
    index off the image is reflected about the edge again and again
    (d c b a | a b c d | d c b a) until it lands inside.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = [np.exp(-x * x / (2.0 * sigma * sigma)) for x in range(-radius, radius + 1)]
    total = sum(taps)
    taps = [t / total for t in taps]

    def reflect(j, n):
        while not 0 <= j < n:
            j = -j - 1 if j < 0 else 2 * n - 1 - j
        return j

    def along_rows(a):
        n, m = a.shape
        out = np.zeros((n, m), dtype=np.float64)
        for i in range(n):
            for j in range(m):
                out[i, j] = sum(taps[k] * a[reflect(i + k - radius, n), j]
                                for k in range(2 * radius + 1))
        return out

    return along_rows(along_rows(np.asarray(img, dtype=np.float64)).T).T


def bilinear_loops(img, cy, cx):
    """Bilinear samples with each coordinate first clamped into [0, n-1]."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros(cy.shape, dtype=np.float64)
    for idx in np.ndindex(cy.shape):
        y = min(max(float(cy[idx]), 0.0), h - 1.0)
        x = min(max(float(cx[idx]), 0.0), w - 1.0)
        y0, x0 = int(np.floor(y)), int(np.floor(x))
        y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
        ty, tx = y - y0, x - x0
        out[idx] = ((1 - ty) * ((1 - tx) * img[y0, x0] + tx * img[y0, x1])
                    + ty * ((1 - tx) * img[y1, x0] + tx * img[y1, x1]))
    return out


def nearest_loops(img, cy, cx):
    """img at (floor(cy + 0.5), floor(cx + 0.5)) inside the closed frame
    0 <= c <= n-1 on both axes, and 0 outside it."""
    h, w = img.shape
    out = np.zeros(cy.shape, dtype=img.dtype)
    for idx in np.ndindex(cy.shape):
        y, x = float(cy[idx]), float(cx[idx])
        if 0.0 <= y <= h - 1 and 0.0 <= x <= w - 1:
            out[idx] = img[int(np.floor(y + 0.5)), int(np.floor(x + 0.5))]
    return out


# ---------------------------------------------------------------------------
# vectorized references: one fresh array per intermediate

def _tap_gemm_reference(a, b):
    return a * b if a.shape[-1] == 1 else a @ b


def _conv_reference(x, weight, bias, skip=None, epilogue=None):
    """Stride-1 "same" conv of NCHW x (and skip, as channels after x's) with
    an odd OIHW kernel, one GEMM per tap added into a zeroed output, plus
    bias, or times scale plus shift for an `epilogue` (scale, shift).
    Returns (y, tap_sum, back) as `ctxseg.diffcore.ops._conv` returns its
    (y, taps, back)."""
    n, cx, h, w = x.data.shape
    cin = cx if skip is None else cx + skip.data.shape[1]
    cout, _, k, _ = weight.data.shape
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    if pad or skip is not None:
        xp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
        xp[:, :cx, pad:pad + h, pad:pad + w] = x.data
        if skip is not None:
            xp[:, cx:, pad:pad + h, pad:pad + w] = skip.data
    else:
        xp = x.data
    xf = xp.reshape(n, cin, hp * wp)
    span = h * wp - (k - 1)
    taps = [(di, dj, di * wp + dj) for di in range(k) for dj in range(k)]
    wt = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1))
    yd = np.zeros((n, cout, h * wp), dtype=xp.dtype)
    for di, dj, off in taps:
        yd[:, :, :span] += _tap_gemm_reference(wt[di, dj], xf[:, :, off:off + span])
    tap_sum = yd.reshape(n, cout, h, wp)[:, :, :, :w]
    if epilogue is None:
        y = tap_sum + bias.data[None, :, None, None]
    else:
        scale, shift = epilogue
        y = tap_sum * scale[None, :, None, None] + shift[None, :, None, None]
    input_grad = x.requires_grad or (skip is not None and skip.requires_grad)
    if not (input_grad or weight.requires_grad or bias.requires_grad):
        return y, tap_sum, None

    def back(g):
        bias.accum_grad(g.sum(axis=(0, 2, 3)))
        gd = np.zeros((n, cout, h * wp), dtype=xp.dtype)
        gd.reshape(n, cout, h, wp)[:, :, :, :w] = g
        ga = gd[:, :, :span]
        gw = np.empty_like(wt)
        gxf = np.zeros_like(xf) if input_grad else None
        for di, dj, off in taps:
            xs = xf[:, :, off:off + span]
            gw[di, dj] = (ga @ xs.transpose(0, 2, 1)).sum(axis=0)
            if gxf is not None:
                gxf[:, :, off:off + span] += _tap_gemm_reference(wt[di, dj].T, ga)
        weight.accum_grad(gw.transpose(2, 3, 0, 1))
        if gxf is not None:
            gx = gxf.reshape(n, cin, hp, wp)[:, :, pad:pad + h, pad:pad + w]
            x.accum_grad(gx[:, :cx])
            if skip is not None:
                skip.accum_grad(gx[:, cx:])

    return y, tap_sum, back


def conv2d_reference(x, weight, bias):
    y, _, back = _conv_reference(x, weight, bias)
    out = DiffTensor._node(y, (x, weight, bias), lambda: back(out.grad))
    return out


def conv_bn_relu_reference(x, weight, bias, gamma, beta, running_mean,
                           running_var, train, skip=None):
    """relu(batchnorm(conv(x))) with numpy's mean and var for the batch
    statistics, momentum 0.1 and eps 1e-5. Eval mode is the conv's tap sum
    times S plus T, S = gamma / sqrt(running_var + eps) and T = beta +
    (bias - running_mean) * S; its backward recomputes the normalized conv
    output from the tap sum."""
    if not train:
        inv = 1.0 / np.sqrt(running_var.data + 1e-5)
        s = gamma.data * inv
        t = beta.data + (bias.data - running_mean.data) * s
        y, tap_sum, conv_back = _conv_reference(x, weight, bias, skip, (s, t))
        y = np.maximum(y, 0)

        def back():
            go = out.grad * (out.data > 0)
            c = (None, slice(None), None, None)
            xhat = (tap_sum + bias.data[c] - running_mean.data[c]) * inv[c]
            gamma.accum_grad((go * xhat).sum(axis=(0, 2, 3)))
            beta.accum_grad(go.sum(axis=(0, 2, 3)))
            if conv_back is not None:
                conv_back(s[c] * go)
    else:
        z, _, conv_back = _conv_reference(x, weight, bias, skip)
        n, c, h, w = z.shape
        mean = z.mean(axis=(0, 2, 3))
        var = z.var(axis=(0, 2, 3))
        running_mean.data[:] = 0.9 * running_mean.data + 0.1 * mean
        running_var.data[:] = 0.9 * running_var.data + 0.1 * var
        inv = (1.0 / np.sqrt(var + 1e-5))[None, :, None, None]
        xhat = (z - mean[None, :, None, None]) * inv
        y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
        y = np.maximum(y, 0)

        def back():
            go = out.grad * (out.data > 0)
            sum_gx = (go * xhat).sum(axis=(0, 2, 3))
            sum_g = go.sum(axis=(0, 2, 3))
            gamma.accum_grad(sum_gx)
            beta.accum_grad(sum_g)
            if conv_back is None:
                return
            gi = gamma.data[None, :, None, None] * inv
            m = n * h * w
            mg = (sum_g / m)[None, :, None, None]
            mgx = (sum_gx / m)[None, :, None, None]
            conv_back(gi * (go - mg - xhat * mgx))

    inputs = (x,) if skip is None else (x, skip)
    out = DiffTensor._node(y, (*inputs, weight, bias, gamma, beta), back)
    return out


def attention_gate_reference(q, wq_w, wq_b, keys, values):
    """tanh(V^T softmax_l(K (Wq^T q + bq) / sqrt(c))), channel-major, one item
    at a time. An item's trailing run of r rows that equal its last row in
    both key and value is that one row with log r added to its logit, and
    each row of the run gets 1/r of that row's gradient."""
    n, c, h, w = q.data.shape
    count = keys.data.shape[1]
    inv_sqrt_c = 1.0 / math.sqrt(c)
    qf = q.data.reshape(n, c, h * w)
    items = []
    for i in range(n):
        k, v = keys.data[i], values.data[i]
        m = count
        while (m > 1 and np.array_equal(k[m - 2], k[-1])
               and np.array_equal(v[m - 2], v[-1])):
            m -= 1
        qp = wq_w.data.T @ qf[i] + wq_b.data[:, None]
        a = (k[:m] @ qp) * inv_sqrt_c
        if m < count:
            a[-1] += math.log(count - m + 1)
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite values in cross-attention logits")
        a = np.exp(a - a.max(axis=0, keepdims=True))
        a = a / a.sum(axis=0, keepdims=True)
        items.append((m, qp, a))
    gate = np.tanh(np.stack([values.data[i, :m].T @ a
                             for i, (m, _, a) in enumerate(items)]))

    def spread(g):
        m = g.shape[0]
        return np.concatenate(
            [g[:-1], np.repeat(g[-1:] / (count - m + 1), count - m + 1, axis=0)])

    def back():
        gm = out.grad.reshape(n, c, h * w) * (1.0 - gate * gate)
        gv, gk, gqp = [], [], []
        for i, (m, qp, a) in enumerate(items):
            gv.append(spread(a @ gm[i].T))
            ga = values.data[i, :m] @ gm[i]
            gs = (ga - (ga * a).sum(axis=0, keepdims=True)) * a * inv_sqrt_c
            gk.append(spread(gs @ qp.T))
            gqp.append(keys.data[i, :m].T @ gs)
        gqp = np.stack(gqp)
        values.accum_grad(np.stack(gv))
        keys.accum_grad(np.stack(gk))
        wq_b.accum_grad(gqp.sum(axis=(0, 2)))
        wq_w.accum_grad((qf @ gqp.transpose(0, 2, 1)).sum(axis=0))
        if q.requires_grad:
            q.accum_grad((wq_w.data @ gqp).reshape(n, c, h, w))

    out = DiffTensor._node(gate.reshape(n, c, h, w), (q, wq_w, wq_b, keys, values),
                           back)
    return out


@dataclass
class AdamWReferenceState:
    """The reference's AdamW state: one moment array per name."""
    lr: float
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step_reference(params, state):
    """AdamW one parameter at a time, with the moments in `state.m` and
    `state.v` as one array per name, at betas 0.9 and 0.999, eps 1e-8 and
    weight decay 0.01."""
    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        update = update + weight_decay * p.data
        p.data -= state.lr * update


def sigmoid_reference(z):
    """The logistic in its branch form: boolean masks pick 1 / (1 + exp(-z))
    where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, NaN included."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
