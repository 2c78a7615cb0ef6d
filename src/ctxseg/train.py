"""Training loop, cross-validation, ablation battery, probes, and dumps.

A run is a pure function of (config, dataset): shuffling, augmentation, and
initialization all derive from the config seeds, so rerunning a config
reproduces its checkpoint byte for byte. Model selection is best-on-validation
with earlier epochs winning ties; the reported test score always comes from
that checkpoint, never the final epoch.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .augment import AugmentPolicy, augment_sample, swap_word
from .data import (Sample, SplitSpec, centroid_side, dice, split_indices,
                   write_pgm)
from .diffcore import DiffTensor
from .errors import DataFormatError, NumericalError, ShapeError
from .model import (ModelConfig, init_weights, predict_mask, text_gated_forward,
                    unet_forward, weight_shapes)
from .textenc import embed, tokenize
from .util import mix64, rng_from

_SALT_SHUFFLE = 0x54F1

ABLATION_ARMS = ("full", "no_text", "baseline_unet")


@dataclass
class TrainConfig:
    lr: float = 5e-5
    epochs: int = 100
    batch_size: int = 4
    ablation: str = "full"
    threshold: float = 0.5
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    policy: AugmentPolicy = field(default_factory=AugmentPolicy)
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.ablation not in ABLATION_ARMS:
            raise ValueError(f"ablation must be one of {ABLATION_ARMS}, "
                             f"got {self.ablation!r}")


@dataclass
class RunRecord:
    ablation: str
    fold_seed: int
    train_loss: list
    val_dice: list
    best_epoch: int
    test_dice_mean: float
    test_dice_sd: float
    test_scores: list
    checkpoint: str
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class EvalResult:
    mean: float
    sd: float
    scores: list


def _embed_report(text: str, mc: ModelConfig):
    return embed(tokenize(text, mc.max_tokens), mc.d_e, mc.embed_seed)


def _forward_batch(weights, images, reports, cfg: TrainConfig, train: bool,
                   capture: dict | None = None):
    """Logits for (H, W) images and their reports under cfg's ablation arm:
    `baseline_unet` has no text path and takes exactly one report per image;
    `no_text` reads every report as "". On the text arms, an eval-mode
    forward on weights that record no graph may also take one image with k
    reports: the logits are those of k single-report forwards, bitwise, from
    one encoder pass (see text_gated_forward). Any other count mismatch
    raises ShapeError. `capture` collects the attention maps of
    text_gated_forward, so it is only filled on the arms that have
    cross-attention."""
    imgs = np.stack(images)[:, None, :, :]
    if cfg.ablation == "baseline_unet":
        if len(reports) != len(images):
            raise ShapeError(f"baseline_unet takes one report per image, got "
                             f"{len(reports)} for {len(images)}")
        return unet_forward(imgs, weights, cfg.model, train=train)
    if cfg.ablation == "no_text":
        reports = [""] * len(reports)
    embs = [_embed_report(r, cfg.model) for r in reports]
    return text_gated_forward(imgs, embs, weights, cfg.model, train=train,
                              capture=capture)


def _as_weights(src, mc: ModelConfig, ablation: str) -> dict:
    """Inference weights from live weights, a {name: array} dict, or a
    checkpoint path: tensors that share the source's arrays and require no
    gradient, so a forward pass over them records no graph. Names and shapes
    are checked against the model config's; DataFormatError names the first
    mismatch."""
    if isinstance(src, (str, Path)):
        src = dc.load_checkpoint(src)
    arrays = {name: v.data if isinstance(v, DiffTensor) else v
              for name, v in src.items()}
    expected = weight_shapes(mc, with_attention=ablation != "baseline_unet")
    if set(expected) != set(arrays):
        missing = sorted(set(expected) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(expected))[:3]
        raise DataFormatError(
            f"checkpoint does not match model config (missing {missing}, "
            f"unexpected {extra})")
    for name, shape in expected.items():
        if np.shape(arrays[name]) != shape:
            raise DataFormatError(
                f"checkpoint tensor {name!r} has shape {np.shape(arrays[name])}, "
                f"model config expects {shape}")
    return {name: DiffTensor(arr) for name, arr in arrays.items()}


def evaluate(checkpoint, samples, cfg: TrainConfig,
             threshold: float | None = None) -> EvalResult:
    """Eval-mode Dice over samples: mean, population SD, per-sample scores.

    The forward runs `cfg.batch_size` samples at a time, so it holds no more
    activations than a train step. Every eval-mode op works per item, so the
    scores do not depend on the batch size."""
    if not samples:
        raise ValueError("evaluate needs at least one sample")
    thr = cfg.threshold if threshold is None else threshold
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    scores = []
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start:start + cfg.batch_size]
        logits = _forward_batch(weights, [s.image for s in chunk],
                                [s.report for s in chunk], cfg, train=False)
        preds = predict_mask(logits, thr)
        for j, s in enumerate(chunk):
            scores.append(dice(preds[j, 0], s.mask))
    mean = float(np.mean(scores))
    sd = float(np.std(scores))
    return EvalResult(mean=mean, sd=sd, scores=scores)


def _snapshot(weights: dict) -> dict:
    return {k: t.data.copy() for k, t in weights.items()}


def train(cfg: TrainConfig, dataset, out_dir, fold_seed: int | None = None
          ) -> RunRecord:
    """Train one fold: augment, optimize, select on validation, test.

    A split that leaves the train, validation or test part empty raises
    ValueError before the first epoch."""
    fold_seed = cfg.split.fold_seeds[0] if fold_seed is None else fold_seed
    tr_idx, va_idx, te_idx = split_indices(len(dataset), cfg.split.fractions,
                                           fold_seed)
    for part, idx in (("train", tr_idx), ("validation", va_idx), ("test", te_idx)):
        if not idx:
            raise ValueError(
                f"split.fractions {tuple(cfg.split.fractions)} leave the {part} "
                f"part of {len(dataset)} samples empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    use_attn = cfg.ablation != "baseline_unet"
    weights = init_weights(cfg.model, with_attention=use_attn)
    opt = dc.AdamWState(lr=cfg.lr)

    val_samples = [dataset[i] for i in va_idx]
    train_losses, val_dices = [], []
    best_dice, best_epoch, best_state = -1.0, -1, None

    for epoch in range(cfg.epochs):
        order = rng_from(cfg.seed, fold_seed, epoch, _SALT_SHUFFLE).permutation(
            np.asarray(tr_idx))
        losses = []
        for step_start in range(0, len(order), cfg.batch_size):
            batch_idx = order[step_start:step_start + cfg.batch_size]
            batch = [augment_sample(dataset[i], cfg.policy,
                                    mix64(cfg.seed, fold_seed, epoch, int(i)))
                     for i in batch_idx]
            targets = np.stack([s.mask for s in batch]).astype(np.float32)[:, None]
            logits = _forward_batch(weights, [s.image for s in batch],
                                    [s.report for s in batch], cfg, train=True)
            loss = dc.bce_with_logits(logits, targets)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, step "
                    f"{step_start // cfg.batch_size}")
            dc.zero_grads(weights)
            dc.backward(loss)
            dc.adamw_step(weights, opt)
            losses.append(loss_val)
        train_losses.append(float(np.mean(losses)))

        res = evaluate(weights, val_samples, cfg)
        val_dices.append(res.mean)
        if res.mean > best_dice:                # strict: earlier epoch wins ties
            best_dice, best_epoch, best_state = res.mean, epoch, _snapshot(weights)

    ckpt_path = out_dir / "checkpoint.ctxn"
    dc.save_checkpoint(ckpt_path, best_state)

    test = evaluate(str(ckpt_path), [dataset[i] for i in te_idx], cfg)

    record = RunRecord(
        ablation=cfg.ablation,
        fold_seed=int(fold_seed),
        train_loss=train_losses,
        val_dice=val_dices,
        best_epoch=int(best_epoch),
        test_dice_mean=test.mean,
        test_dice_sd=test.sd,
        test_scores=test.scores,
        checkpoint=str(ckpt_path),
        config=asdict(cfg),
    )
    (out_dir / "runrecord.json").write_text(record.to_json() + "\n")
    return record


@dataclass
class CVResult:
    records: list
    mean: float
    sd: float


def cross_validate(cfg: TrainConfig, dataset, out_dir) -> CVResult:
    """One train per fold seed; aggregate mean and SD across fold test means."""
    if len(dataset) < len(cfg.split.fold_seeds) * cfg.batch_size:
        raise ValueError(
            f"dataset of {len(dataset)} too small for "
            f"{len(cfg.split.fold_seeds)} folds at batch size {cfg.batch_size}")
    out_dir = Path(out_dir)
    records = [train(cfg, dataset, out_dir / f"fold{k}", fs)
               for k, fs in enumerate(cfg.split.fold_seeds)]
    means = [r.test_dice_mean for r in records]
    result = CVResult(records=records, mean=float(np.mean(means)),
                      sd=float(np.std(means)))
    (out_dir / "cv.json").write_text(json.dumps({
        "mean": result.mean, "sd": result.sd,
        "folds": [{"fold_seed": r.fold_seed, "dice": r.test_dice_mean,
                   "sd": r.test_dice_sd, "best_epoch": r.best_epoch}
                  for r in records],
    }, indent=2, sort_keys=True) + "\n")
    return result


def paper_arms(cfg: TrainConfig) -> dict:
    """The paper's four ablation arms as {name: TrainConfig}: three model arms
    under cfg's policy, and `flip`, the `full` model trained with the
    concordance-breaking horizontal flip at p_hflip 0.5."""
    return {"full": replace(cfg, ablation="full"),
            "no_text": replace(cfg, ablation="no_text"),
            "flip": replace(cfg, ablation="full",
                            policy=replace(cfg.policy, p_hflip=0.5)),
            "baseline_unet": replace(cfg, ablation="baseline_unet")}


def _run_arm(args):
    name, cfg, dataset, arm_dir = args
    return name, cross_validate(cfg, dataset, arm_dir)


def ablate(arms: dict, dataset, out_dir, jobs: int = 1) -> dict:
    """Cross-validate each {name: TrainConfig} of `arms` into out_dir/<name>.

    The arms must share `split` and `seed`, so the comparison stays paired;
    ValueError otherwise. jobs > 1 runs the arms in spawned workers with one
    BLAS thread each; they import the calling script, so its entry point
    must sit under `if __name__ == "__main__":`. Emits comparison.csv (arm, fold, dice, sd) plus
    comparison.json with per-arm aggregates and Dice deltas against the arm
    named `full` (None without one).
    """
    first = next(iter(arms.values()))
    if any((c.split, c.seed) != (first.split, first.seed) for c in arms.values()):
        raise ValueError("ablate: the arms must share split and seed")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(name, cfg, dataset, out_dir / name) for name, cfg in arms.items()]
    if jobs > 1:
        # A worker loads numpy, and with it OpenBLAS's thread count, from this
        # environment. Forked workers would keep this process's BLAS threads
        # and oversubscribe the cores.
        blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                results = dict(pool.map(_run_arm, tasks))
        finally:
            if blas_threads is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = blas_threads
    else:
        results = dict(map(_run_arm, tasks))

    with open(out_dir / "comparison.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["arm", "fold", "dice", "sd"])
        for arm, cv in results.items():
            for k, rec in enumerate(cv.records):
                writer.writerow([arm, k, f"{rec.test_dice_mean:.6f}",
                                 f"{rec.test_dice_sd:.6f}"])

    summary = {}
    full_mean = results["full"].mean if "full" in results else None
    for arm, cv in results.items():
        summary[arm] = {
            "mean": cv.mean,
            "sd": cv.sd,
            "median": float(statistics.median(
                r.test_dice_mean for r in cv.records)),
            "delta_vs_full": (cv.mean - full_mean
                              if full_mean is not None else None),
        }
    (out_dir / "comparison.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"summary": summary, "results": results}


# ---------------------------------------------------------------------------
# probes

def word_swap_probe(checkpoint, samples, swaps, cfg: TrainConfig) -> dict:
    """Re-predict each sample with single words swapped in its report.

    For every (src, dst) swap and every sample whose report contains src,
    records centroid sides before/after, the predicted-area ratio, and the
    IoU between the two predictions; aggregates flip rate and mean area ratio
    per swap, as fractions. Each probed sample takes one `_forward_batch`
    call, one image under the distinct reports its arm reads: on `full` the
    original and every swap that changes it; on
    `no_text` and `baseline_unet`, which read no report, the
    original alone, whose prediction serves every variant. An empty swap
    source word raises ValueError (see swap_word).
    """
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    reads_text = cfg.ablation not in ("no_text", "baseline_unet")
    probes = {f"{src}->{dst}": [] for src, dst in swaps}
    for si, sample in enumerate(samples):
        variants = [swap_word(sample.report, src, dst) for src, dst in swaps]
        if all(v == sample.report for v in variants):
            continue
        texts = ([*dict.fromkeys([sample.report, *variants])] if reads_text
                 else [sample.report])
        logits = _forward_batch(weights, [sample.image], texts, cfg, train=False)
        preds = dict(zip(texts, predict_mask(logits, cfg.threshold)[:, 0]))
        base_pred = preds[sample.report]
        for (src, dst), swapped in zip(swaps, variants):
            if swapped == sample.report:
                continue
            new_pred = preds.get(swapped, base_pred)
            inter = int((base_pred & new_pred).sum())
            union = int((base_pred | new_pred).sum())
            base_area = int(base_pred.sum())
            probes[f"{src}->{dst}"].append({
                "index": si,
                "orig_side": centroid_side(base_pred),
                "swapped_side": centroid_side(new_pred),
                "orig_dice": dice(base_pred, sample.mask),
                "area_ratio": (int(new_pred.sum()) / base_area
                               if base_area else None),
                "iou": inter / union if union else 1.0,
            })

    report = {"threshold": cfg.threshold, "swaps": {}}
    for key, entries in probes.items():
        if not entries:
            raise ValueError(f"swap source word of {key!r} occurs in no report")
        sided = [e for e in entries
                 if e["orig_side"] is not None and e["swapped_side"] is not None]
        flips = sum(e["orig_side"] != e["swapped_side"] for e in sided)
        ratios = [e["area_ratio"] for e in entries if e["area_ratio"] is not None]
        flip_rate = flips / len(sided) if sided else 0.0
        mean_ratio = float(np.mean(ratios)) if ratios else float("nan")
        report["swaps"][key] = {
            "samples": len(entries),
            "flip_rate": flip_rate,
            "mean_area_ratio": mean_ratio,
            "entries": entries,
        }
    return report


def _to_u8(arr: np.ndarray) -> np.ndarray:
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    return np.round((arr - lo) / span * 255.0).astype(np.uint8)


def attention_dump(checkpoint, sample: Sample, out_dir, cfg: TrainConfig,
                   swap=("left", "right"), channel: int = 0) -> list:
    """Write per-level PGM images of the gate's inputs and outputs.

    For the original report and the word-swapped one, dumps the attention
    input feature map, the tanh-activated attention map, and the gated
    feature map at one fixed channel per decoder level, min-max normalized
    with raw ranges recorded in scales.txt. Both reports run as one batch of
    two over a single encoder pass. A `no_text` model reads both
    variants as the empty report. `baseline_unet`, which has no gate to
    dump, and a channel outside [0, model.channels[0]) raise ValueError
    before any file is written.
    """
    if cfg.ablation == "baseline_unet":
        raise ValueError("attention_dump: the baseline_unet arm has no "
                         "cross-attention to dump")
    if not 0 <= channel < cfg.model.channels[0]:
        raise ValueError(f"attention_dump: channel {channel} is outside "
                         f"0..{cfg.model.channels[0] - 1}, the channels of "
                         "every decoder level")
    texts = [sample.report, swap_word(sample.report, swap[0], swap[1])]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    capture: dict = {}
    _forward_batch(weights, [sample.image], texts, cfg, train=False,
                   capture=capture)
    written = []
    scales = []
    for item, variant in enumerate(("orig", "swap")):
        for level in sorted(capture):
            maps = capture[level]
            for kind, key in (("q", "q"), ("tanha", "tanh_a"), ("qstar", "qstar")):
                arr = maps[key][item, channel]
                name = f"level{level}_{kind}_{variant}.pgm"
                write_pgm(out_dir / name, _to_u8(arr), 255)
                scales.append(f"{name} min={arr.min():.6g} max={arr.max():.6g}")
                written.append(str(out_dir / name))
    (out_dir / "scales.txt").write_text("\n".join(scales) + "\n")
    return written
