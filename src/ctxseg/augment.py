"""Image and text augmentations with an image-text concordance contract.

Every default transform leaves the truth of the report's side/zone/presence
statements intact: photometric edits touch intensities only, and the warps
are bounded so a mask never migrates across the midline. Horizontal flip is
the deliberate exception; it mirrors pixels while leaving the report alone
and exists only for the concordance-breaking `flip` arm, which
train.paper_arms builds by setting p_hflip to 0.5 (it defaults to 0).

The magnitude bounds are module constants, not policy fields: a larger
shift or rotation can carry a mask across the midline and contradict the
report's side word. The 1000-seed concordance test in tests/test_augment.py
checks them. AugmentPolicy chooses only which augmentations run.

A warp is an inverse map: output pixel (i, j) reads the input at
coordinates (cy, cx). Its two samplers have fixed boundary rules:

- `_bilinear` (the image, and the grid warp's node displacements) weighs
  the corners floor(c) and floor(c) + 1 by 1 - t and 1 - (1 - t), where
  t = c - floor(c), with each corner index clamped into [0, n-1]. That is
  bilinear interpolation with the coordinate clamped into [0, n-1]; clamping
  the indices, not the coordinate, fixes the rounding.
- `_nearest` (the mask) reads index floor(c + 0.5) when 0 <= c <= n-1 on
  both axes, and 0 otherwise. The interval is closed: at n = 6, c = 5.0
  reads index 5 but c = -1e-9 and c = 5.0000001 read 0, and c = 0.5 reads
  index 1.

The elastic warp smooths its random field with `data._blur`, whose
boundary rule the data module states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .data import Sample, _blur
from .errors import RejectedSample
from .util import mix64, rng_from

_SALT_AUG = 0xA06
_SALT_RETRY = 0xA5E7

_PHOTOMETRIC_RANGES = {
    "contrast": (0.8, 1.2),
    "gamma": (0.8, 1.25),
    "brightness": (-0.2, 0.2),
}
_ELASTIC_ALPHA = 2.5
_ELASTIC_SIGMA = 6.0
_GRID_CELLS = 4
_GRID_JITTER = 0.15
_OPTICAL_K_MAX = 0.15
_SSR_SHIFT_MAX = 0.06
_SSR_SCALE = (0.9, 1.1)
_SSR_ROT_MAX = 10.0

DEFAULT_LEXICON = {
    "pneumothorax": ["ptx"],
    "normal": ["unremarkable"],
    "seen": ["identified"],
}

_SENTENCE_RE = re.compile(r"[^.!?]*[.!?]|[^.!?]+$")
_TOKEN_RE = re.compile(r"^(\W*)(.*?)(\W*)$", re.DOTALL)
_WORD_PATTERN = r"(?<![a-z]){}(?![a-z])"   # one whole word, filled in by swap_word


@dataclass
class AugmentPolicy:
    p_photometric: float = 0.3
    p_distort: float = 0.3
    p_ssr: float = 0.5
    p_hflip: float = 0.0
    text_shuffle: bool = False
    text_synonym_p: float = 0.0

    def __post_init__(self):
        for name in ("p_photometric", "p_distort", "p_ssr", "p_hflip",
                     "text_synonym_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")


def hflip(sample: Sample) -> Sample:
    """Mirror image and mask about the vertical axis; report stays as written."""
    return replace(sample,
                   image=np.ascontiguousarray(sample.image[:, ::-1]),
                   mask=np.ascontiguousarray(sample.mask[:, ::-1]))


def photometric(image: np.ndarray, kind: str, magnitude: float) -> np.ndarray:
    """Intensity-only edit of an image in [0,1]; mask and report untouched."""
    if kind not in _PHOTOMETRIC_RANGES:
        raise ValueError(f"unknown photometric kind {kind!r}")
    lo, hi = _PHOTOMETRIC_RANGES[kind]
    if not lo <= magnitude <= hi:
        raise ValueError(f"{kind} magnitude {magnitude} outside [{lo}, {hi}]")
    if kind == "brightness":
        return np.clip(image + np.float32(magnitude), 0.0, 1.0)
    if kind == "contrast":
        mu = image.mean(dtype=np.float64)
        return np.clip(mu + magnitude * (image - mu), 0.0, 1.0).astype(np.float32)
    return np.power(image, np.float32(magnitude))


def _bilinear(img: np.ndarray, cy: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """float64 bilinear samples of img at (cy, cx); see the module docstring."""
    h, w = img.shape
    fy, fx = np.floor(cy), np.floor(cx)
    wy0, wx0 = 1.0 - (cy - fy), 1.0 - (cx - fx)
    wy1, wx1 = 1.0 - wy0, 1.0 - wx0
    y0 = np.clip(fy, 0, h - 1).astype(np.intp)
    y1 = np.clip(fy + 1, 0, h - 1).astype(np.intp)
    x0 = np.clip(fx, 0, w - 1).astype(np.intp)
    x1 = np.clip(fx + 1, 0, w - 1).astype(np.intp)
    return (img[y0, x0] * wy0 * wx0 + img[y0, x1] * wy0 * wx1
            + img[y1, x0] * wy1 * wx0 + img[y1, x1] * wy1 * wx1)


def _nearest(img: np.ndarray, cy: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Nearest samples of img at (cy, cx), 0 outside the closed frame."""
    h, w = img.shape
    inside = (cy >= 0) & (cy <= h - 1) & (cx >= 0) & (cx <= w - 1)
    iy = np.floor(np.where(inside, cy, 0.0) + 0.5).astype(np.intp)
    ix = np.floor(np.where(inside, cx, 0.0) + 0.5).astype(np.intp)
    return np.where(inside, img[iy, ix], 0)


def _warp(sample: Sample, cy: np.ndarray, cx: np.ndarray,
          area_factor: float) -> Sample:
    """Apply one inverse coordinate map to image (bilinear) and mask (nearest).

    Raises RejectedSample when more than 25% of the expected mask mass is
    lost, which at these magnitudes means the mask ran out of frame.
    """
    image = _bilinear(sample.image, cy, cx)
    mask = _nearest(sample.mask, cy, cx)
    before = float(sample.mask.sum())
    if before > 0:
        expected = before * area_factor
        if float(mask.sum()) < 0.75 * expected:
            raise RejectedSample(
                f"warp kept {mask.sum():.0f} of {expected:.0f} expected mask pixels")
    return replace(sample, image=image.astype(np.float32),
                   mask=mask.astype(np.uint8))


def geometric_distort(sample: Sample, kind: str, params: dict, rng) -> Sample:
    """Warp image and mask with one shared displacement; report untouched."""
    s = sample.image.shape[0]
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    area_factor = 1.0

    if kind == "elastic":
        alpha, sigma = params["alpha"], params["sigma"]
        dy = _blur(rng.uniform(-1, 1, (s, s)), sigma) * alpha
        dx = _blur(rng.uniform(-1, 1, (s, s)), sigma) * alpha
        cy, cx = yy + dy, xx + dx
    elif kind == "grid":
        cells, jitter = params["cells"], params["jitter"]
        cell = s / cells
        nodes_y = rng.uniform(-jitter, jitter, (cells + 1, cells + 1)) * cell
        nodes_x = rng.uniform(-jitter, jitter, (cells + 1, cells + 1)) * cell
        node_y, node_x = yy / cell, xx / cell
        dy = _bilinear(nodes_y, node_y, node_x)
        dx = _bilinear(nodes_x, node_y, node_x)
        cy, cx = yy + dy, xx + dx
    elif kind == "optical":
        k = params["k"]
        c = (s - 1) / 2.0
        rn2 = (((xx - c) / c) ** 2 + ((yy - c) / c) ** 2)
        factor = 1.0 + k * rn2
        cy, cx = c + (yy - c) * factor, c + (xx - c) * factor
    elif kind == "ssr":
        sh_x = params["shift_x"] * s
        sh_y = params["shift_y"] * s
        sc = params["scale"]
        th = np.deg2rad(params["rot"])
        c = (s - 1) / 2.0
        py = (yy - c - sh_y) / sc
        px = (xx - c - sh_x) / sc
        cos_t, sin_t = np.cos(-th), np.sin(-th)
        cy = c + px * sin_t + py * cos_t
        cx = c + px * cos_t - py * sin_t
        area_factor = sc * sc
    else:
        raise ValueError(f"unknown distortion kind {kind!r}")

    return _warp(sample, cy, cx, area_factor)


def sentence_shuffle(text: str, rng) -> str:
    """Randomly reorder sentences, keeping each delimiter with its sentence."""
    parts = [p.strip() for p in _SENTENCE_RE.findall(text) if p.strip()]
    if len(parts) < 2:
        return text
    order = rng.permutation(len(parts))
    return " ".join(parts[i] for i in order)


def synonym_replace(text: str, lexicon: dict, p: float, rng) -> str:
    """Swap lexicon terms for a listed synonym, each independently with prob p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"replacement probability {p} outside [0,1]")
    out = []
    for token in text.split():
        pre, core, post = _TOKEN_RE.match(token).groups()
        syns = lexicon.get(core.lower())
        if syns and rng.random() < p:
            token = pre + syns[int(rng.integers(len(syns)))] + post
        out.append(token)
    return " ".join(out)


def swap_word(text: str, src: str, dst: str) -> str:
    """`text` with every whole-word, case-insensitive `src` replaced by `dst`;
    an empty `dst` deletes the word. An empty `src` would match at every
    word boundary, so it raises ValueError."""
    if not src:
        raise ValueError("swap source word is empty")
    return re.sub(_WORD_PATTERN.format(re.escape(src.lower())), dst, text,
                  flags=re.IGNORECASE)


def _augment_once(sample: Sample, policy: AugmentPolicy, seed: int) -> Sample:
    rng = rng_from(seed, _SALT_AUG)
    out = sample
    if rng.random() < policy.p_hflip:
        out = hflip(out)
    if rng.random() < policy.p_photometric:
        kind = ("contrast", "gamma", "brightness")[int(rng.integers(3))]
        mag = rng.uniform(*_PHOTOMETRIC_RANGES[kind])
        out = replace(out, image=photometric(out.image, kind, mag))
    if rng.random() < policy.p_distort:
        kind = ("elastic", "grid", "optical")[int(rng.integers(3))]
        # all three entries are built, so the optical k is drawn whatever the
        # kind; the RNG stream, and every augmented sample, depends on it
        params = {
            "elastic": {"alpha": _ELASTIC_ALPHA, "sigma": _ELASTIC_SIGMA},
            "grid": {"cells": _GRID_CELLS, "jitter": _GRID_JITTER},
            "optical": {"k": rng.uniform(-_OPTICAL_K_MAX, _OPTICAL_K_MAX)},
        }[kind]
        out = geometric_distort(out, kind, params, rng)
    if rng.random() < policy.p_ssr:
        params = {
            "shift_x": rng.uniform(-_SSR_SHIFT_MAX, _SSR_SHIFT_MAX),
            "shift_y": rng.uniform(-_SSR_SHIFT_MAX, _SSR_SHIFT_MAX),
            "scale": rng.uniform(*_SSR_SCALE),
            "rot": rng.uniform(-_SSR_ROT_MAX, _SSR_ROT_MAX),
        }
        out = geometric_distort(out, "ssr", params, rng)
    report = out.report
    if policy.text_shuffle:
        report = sentence_shuffle(report, rng)
    if policy.text_synonym_p > 0:
        report = synonym_replace(report, DEFAULT_LEXICON, policy.text_synonym_p,
                                 rng)
    return replace(out, report=report)


def augment_sample(sample: Sample, policy: AugmentPolicy, seed: int) -> Sample:
    """Full per-sample pipeline, a pure function of (sample, policy, seed).

    A warp that rejects is retried once under a derived seed; a second
    rejection passes the sample through unaugmented.
    """
    for attempt in (seed, mix64(seed, _SALT_RETRY)):
        try:
            return _augment_once(sample, policy, attempt)
        except RejectedSample:
            continue
    return sample
