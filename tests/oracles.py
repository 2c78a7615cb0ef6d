"""Independent naive-loop reference implementations used as test oracles.

Everything here is deliberately written as plain quadruple loops or direct
formula transcriptions, sharing no code with the package under test.
"""

import numpy as np


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
