"""Synthetic text-grounded dataset, PGM file IO, Dice metric, split management.

Each generated sample is a grayscale scene of two mirror-symmetric "lung
field" ellipses over correlated noise, with a crescent-shaped bright target
at a (side, zone) location and a templated report describing it. In ambiguous
mode a visually identical crescent is rendered at the mirrored position but
left out of the mask, so only the report's side word identifies the target.
Sides are image-space: "left" means centroid x <= (S-1)/2 - 1, a pixel or
more left of the axis the twin and hflip mirror about; a centroid less than a
pixel from that axis has no side.

The noise field and the soft shape edges come from `_blur`, a separable
Gaussian in float64: weights exp(-x^2 / 2 sigma^2) for |x| <= int(4 sigma +
0.5), normalized; the `reflect` boundary (d c b a | a b c d | d c b a) for
any radius, including one longer than the image; axis 0, then axis 1. Each
axis is one cached (n, n) matrix with the boundary folded into its columns,
so a blur is two GEMMs. Summing the folded taps first rounds differently
from a tap-by-tap filter, by about 1e-15 relative, which the float32 images
absorb.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ShapeError
from .util import (check_float, check_int, check_seed, mix64, rng_from,
                   write_json)

_SALT_SAMPLE = 0x5A17
_SALT_SPLIT = 0x51DE

FINDING_TEMPLATES = (
    "There is a {size} {side} {zone} pneumothorax.",
    "A {size} {side} {zone} pneumothorax is seen.",
    "Findings show a {size} {side} {zone} pneumothorax.",
)
NEGATIVE_SENTENCES = (
    "No pneumothorax.",
    "No pneumothorax is seen.",
)
DISTRACTOR_SENTENCES = (
    "Heart size is normal.",
    "No rib fracture.",
    "The carina is midline.",
    "No pleural effusion.",
    "Lungs are otherwise clear.",
    "Bony structures are intact.",
)

# crescent radius as a fraction of image size; the large range starts above
# sqrt(2) * median(small) so large areas are at least twice the small median
SMALL_R = (0.070, 0.090)
LARGE_R = (0.115, 0.145)


@dataclass
class SampleAttrs:
    present: bool
    side: str        # left | right | none
    zone: str        # apical | basal | none
    size: str        # small | large | none
    ambiguous: bool


@dataclass
class Sample:
    image: np.ndarray            # (S, S) float32 in [0, 1]
    mask: np.ndarray             # (S, S) uint8 in {0, 1}
    report: str
    attrs: SampleAttrs
    seed: int


@dataclass
class GeneratorConfig:
    image_size: int = 64
    n: int = 1024
    present_fraction: float = 1.0
    ambiguous_fraction: float = 0.75

    def __post_init__(self):
        check_int("image_size", self.image_size)
        check_int("n", self.n)
        if self.image_size < 32:
            raise ValueError(f"image_size must be >= 32, got {self.image_size}")
        if self.image_size % 2:
            # a model of any depth halves the sides at least once
            raise ValueError(f"image_size must be even, got {self.image_size}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("present_fraction", "ambiguous_fraction"):
            v = getattr(self, name)
            check_float(name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")


@dataclass
class SplitSpec:
    """Train/validation/test fractions and the Monte Carlo fold seeds.

    Every rule of a valid split lives in this module: here, the fractions
    rule that `split_indices` also applies (`_check_fractions`) and one or
    more distinct fold seeds; in `split_indices`, the rule that no part of
    the dataset at hand is empty."""
    fractions: tuple = (0.7, 0.15, 0.15)
    fold_seeds: list = field(default_factory=lambda: [101, 102, 103, 104, 105])

    def __post_init__(self):
        self.fractions = tuple(self.fractions)
        for f in self.fractions:
            check_float("fractions entry", f)
        _check_fractions(self.fractions)
        if not self.fold_seeds:
            raise ValueError("fold_seeds needs at least one seed")
        for s in self.fold_seeds:
            check_seed("fold_seeds entry", s)
        if len(set(self.fold_seeds)) < len(self.fold_seeds):
            raise ValueError(f"fold_seeds must be distinct, got {self.fold_seeds}")


@functools.lru_cache(maxsize=64)
def _blur_operator(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix of one blur axis: row i holds the taps around i, each
    folded onto the pixel that the reflect boundary reads for it."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    taps /= taps.sum()
    rows = np.arange(n)
    src = (rows[:, None] + offsets) % (2 * n)    # reflect has period 2n
    src = np.where(src < n, src, 2 * n - 1 - src)
    op = np.zeros((n, n))
    for k, tap in enumerate(taps):
        op[rows, src[:, k]] += tap
    op.flags.writeable = False
    return op


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a square float64 image (see the module docstring)."""
    op = _blur_operator(img.shape[0], float(sigma))
    return op @ img @ op.T


def _disk(xx, yy, cx, cy, r):
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def _crescent(xx, yy, cx, cy, r, bite_sign):
    """Disk minus an offset inner disk; bite_sign picks the bite direction."""
    outer = _disk(xx, yy, cx, cy, r)
    inner = _disk(xx, yy, cx, cy + bite_sign * 0.45 * r, 0.82 * r)
    return outer & ~inner


def generate_sample(seed: int, cfg: GeneratorConfig) -> Sample:
    """Render one sample deterministically from its seed."""
    s = cfg.image_size
    rng = rng_from(seed, _SALT_SAMPLE)
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    noise = _blur(rng.standard_normal((s, s)), s / 16.0)
    noise /= max(np.abs(noise).max(), 1e-12)
    image = 0.45 + 0.06 * noise

    jit_a = rng.uniform(0.95, 1.05)
    jit_b = rng.uniform(0.95, 1.05)
    a, b = 0.17 * s * jit_a, 0.30 * s * jit_b
    cy = 0.52 * s
    # Both lungs sit 0.20*s from (s-1)/2, the axis the twin is mirrored
    # about, so a crescent and its twin sit alike on their lungs.
    lung_cx = {"left": (s - 1) / 2 - 0.20 * s, "right": (s - 1) / 2 + 0.20 * s}
    for cx in lung_cx.values():
        e = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2
        image -= 0.16 * _blur((e <= 1.0).astype(np.float64), 1.0)

    present = rng.random() < cfg.present_fraction
    mask = np.zeros((s, s), dtype=np.uint8)

    if not present:
        attrs = SampleAttrs(False, "none", "none", "none", False)
        sentences = [NEGATIVE_SENTENCES[rng.integers(len(NEGATIVE_SENTENCES))]]
    else:
        side = "left" if rng.random() < 0.5 else "right"
        zone = "apical" if rng.random() < 0.5 else "basal"
        size = "small" if rng.random() < 0.5 else "large"
        ambiguous = rng.random() < cfg.ambiguous_fraction
        lo, hi = SMALL_R if size == "small" else LARGE_R
        r = s * rng.uniform(lo, hi)

        cy_c = cy - 0.72 * b if zone == "apical" else cy + 0.72 * b
        bite = 1.0 if zone == "apical" else -1.0
        cx_c = lung_cx[side]
        target = _crescent(xx, yy, cx_c, cy_c, r, bite)
        image += 0.20 * _blur(target.astype(np.float64), 0.7)
        mask[target] = 1
        if ambiguous:
            mirror_cx = (s - 1) - cx_c
            twin = _crescent(xx, yy, mirror_cx, cy_c, r, bite)
            image += 0.20 * _blur(twin.astype(np.float64), 0.7)
        attrs = SampleAttrs(True, side, zone, size, ambiguous)
        finding = FINDING_TEMPLATES[rng.integers(len(FINDING_TEMPLATES))].format(
            size=size, side=side, zone=zone)
        n_extra = int(rng.integers(1, 4))
        extras = [DISTRACTOR_SENTENCES[i]
                  for i in rng.choice(len(DISTRACTOR_SENTENCES), size=n_extra,
                                      replace=False)]
        sentences = extras
        sentences.insert(int(rng.integers(0, n_extra + 1)), finding)

    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(image=image, mask=mask, report=" ".join(sentences),
                  attrs=attrs, seed=int(seed))


def generate_dataset(cfg: GeneratorConfig, base_seed: int) -> list:
    return [generate_sample(mix64(base_seed, i), cfg) for i in range(cfg.n)]


# ---------------------------------------------------------------------------
# PGM (P5) files

def write_pgm(path, arr: np.ndarray, maxval: int) -> None:
    if maxval == 65535:
        payload = np.ascontiguousarray(arr, dtype=">u2")
    elif maxval == 255:
        payload = np.ascontiguousarray(arr, dtype=np.uint8)
    else:
        raise ValueError(f"unsupported maxval {maxval}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(payload.tobytes())


def read_pgm(path):
    """Read a binary PGM into (ndarray, maxval); 16-bit data is big-endian."""
    with open(path, "rb") as f:
        blob = f.read()

    fields = []
    off = 0
    while len(fields) < 4:
        while off < len(blob) and blob[off:off + 1].isspace():
            off += 1
        if off < len(blob) and blob[off:off + 1] == b"#":
            nl = blob.find(b"\n", off)
            off = len(blob) if nl < 0 else nl + 1
            continue
        start = off
        while off < len(blob) and not blob[off:off + 1].isspace():
            off += 1
        if off == start:
            raise DataFormatError(f"truncated PGM header in {path}")
        fields.append(blob[start:off])
    off += 1  # single whitespace byte separating header from payload

    if fields[0] != b"P5":
        raise DataFormatError(f"{path}: expected P5 magic, got {fields[0]!r}")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric PGM header fields") from None
    if maxval not in (255, 65535):
        raise DataFormatError(f"{path}: unsupported maxval {maxval}")
    dtype = ">u2" if maxval == 65535 else np.uint8
    need = w * h * (2 if maxval == 65535 else 1)
    payload = blob[off:]
    if len(payload) != need:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {need}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return arr, maxval


def encode_image(image: np.ndarray) -> np.ndarray:
    return np.round(image.astype(np.float64) * 65535.0).astype(np.uint16)


def decode_image(raw: np.ndarray) -> np.ndarray:
    return (raw.astype(np.float32) / np.float32(65535.0))


# ---------------------------------------------------------------------------
# dataset directories

def write_dataset(samples, out_dir, meta: dict | None = None) -> None:
    """Lay out images/{id}.pgm, masks/{id}.pgm, manifest.jsonl, meta.json."""
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, smp in enumerate(samples):
        sid = f"{i:06d}"
        write_pgm(out_dir / "images" / f"{sid}.pgm", encode_image(smp.image), 65535)
        write_pgm(out_dir / "masks" / f"{sid}.pgm",
                  (smp.mask.astype(np.uint8) * 255), 255)
        lines.append(json.dumps({
            "id": sid,
            "image": f"images/{sid}.pgm",
            "mask": f"masks/{sid}.pgm",
            "report": smp.report,
            "attrs": asdict(smp.attrs),
            "seed": smp.seed,
        }, sort_keys=True))
    (out_dir / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    write_json(out_dir / "meta.json", meta or {})


def read_dataset(dir_path) -> list:
    """DataFormatError names the manifest line of a malformed file, or of an
    image or mask sized unlike the first image."""
    dir_path = Path(dir_path)
    manifest = dir_path / "manifest.jsonl"
    if not manifest.exists():
        raise DataFormatError(f"no manifest.jsonl under {dir_path}")
    samples = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            attrs = SampleAttrs(**rec["attrs"])
            if not isinstance(rec["report"], str):
                raise DataFormatError(f"manifest line {lineno}: report must be "
                                      f"a string, got {rec['report']!r}")
            raw_img, maxval = read_pgm(dir_path / rec["image"])
            if maxval != 65535:
                raise DataFormatError(f"{rec['image']}: image must be 16-bit")
            raw_mask, _ = read_pgm(dir_path / rec["mask"])
            size = samples[0].image.shape if samples else raw_img.shape
            if raw_img.shape != size or raw_mask.shape != size:
                raise DataFormatError(
                    f"manifest line {lineno}: image {raw_img.shape} and mask "
                    f"{raw_mask.shape} must both match the first image's {size}")
            samples.append(Sample(
                image=decode_image(raw_img),
                mask=(raw_mask > 127).astype(np.uint8),
                report=rec["report"],
                attrs=attrs,
                seed=int(rec["seed"]),
            ))
        except DataFormatError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(f"manifest line {lineno}: {e}") from None
    return samples


# ---------------------------------------------------------------------------
# metric and splits

def dice(pred: np.ndarray, truth: np.ndarray) -> float:
    """2|A∩B| / (|A|+|B|); defined as 1.0 when both masks are empty."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"dice: shapes {pred.shape} vs {truth.shape}")
    p = pred.astype(bool)
    t = truth.astype(bool)
    if not (np.array_equal(pred, p) and np.array_equal(truth, t)):
        raise ValueError("dice: masks must be binary")
    total = int(p.sum()) + int(t.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((p & t).sum()) / total


def _check_fractions(fractions) -> tuple:
    """The fractions as floats; ValueError unless they are three positives
    summing to 1 (a zero fraction empties its part at every n)."""
    f = tuple(float(x) for x in fractions)
    if len(f) != 3 or any(x <= 0 for x in f) or abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be 3 positives summing to 1, got {f}")
    return f


def split_indices(n: int, fractions, fold_seed: int):
    """One random disjoint (train, val, test) partition of range(n).

    ValueError if the fractions break SplitSpec's rule, or leave a part of
    the n samples empty. Part sizes depend on n and the fractions alone, so
    one fold seed's split holds for every fold seed's."""
    f = _check_fractions(fractions)
    perm = rng_from(fold_seed, _SALT_SPLIT).permutation(n).tolist()
    n_tr = round(f[0] * n)
    n_va = round(f[1] * n)
    parts = perm[:n_tr], perm[n_tr:n_tr + n_va], perm[n_tr + n_va:]
    for name, idx in zip(("train", "validation", "test"), parts):
        if not idx:
            raise ValueError(f"split.fractions {tuple(fractions)} leave the "
                             f"{name} part of {n} samples empty")
    return parts


def centroid_side(mask: np.ndarray) -> str | None:
    """Which side of the vertical axis (W-1)/2 holds the mask centroid; the
    axis is the one that the generator and hflip mirror about, so a mask and
    its mirror image never read the same side. None for an empty mask or a
    centroid less than 1 px from the axis: a mask that straddles the axis
    has no side, so a sub-pixel move of it is no side flip."""
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        return None
    offset = xs.mean() - (mask.shape[1] - 1) / 2.0
    if abs(offset) < 1.0:
        return None
    return "left" if offset < 0 else "right"

