"""Training loop, evaluation and one-image inference, the cross-validated
ablation battery, probes, and dumps.

A run is a pure function of (config, dataset): shuffling, augmentation, and
initialization all derive from the config seeds, so rerunning a config
reproduces its checkpoint byte for byte. Model selection is best-on-validation
with earlier epochs winning ties; the reported test score always comes from
that checkpoint, never the final epoch.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
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
from .util import (check_float, check_int, check_seed, mix64, rng_from,
                   write_json)

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
        check_int("epochs", self.epochs)
        check_int("batch_size", self.batch_size)
        check_seed("seed", self.seed)
        check_float("lr", self.lr)
        _check_threshold(self.threshold)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.ablation not in ABLATION_ARMS:
            raise ValueError(f"ablation must be one of {ABLATION_ARMS}, "
                             f"got {self.ablation!r}")


def _check_threshold(value) -> None:
    """ValueError unless value lies in the open interval (0, 1): the sigmoid
    that `predict_mask` compares with it exceeds 0 at every pixel and 1 at
    none, so either end gives a constant mask."""
    check_float("threshold", value)
    if not 0 < value < 1:
        raise ValueError(f"threshold must lie in (0, 1), got {value}")


@dataclass
class EvalResult:
    mean: float
    sd: float
    scores: list


@dataclass
class RunRecord:
    """One fold's run. `test` is what `evaluate` gives the selected
    checkpoint on the fold's test part, and `config["ablation"]` names the
    arm."""
    fold_seed: int
    train_loss: list
    val_dice: list
    best_epoch: int
    test: EvalResult
    checkpoint: str
    config: dict


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
            f"checkpoint does not match model config and arm {ablation!r} "
            f"(missing {missing}, unexpected {extra})")
    for name, shape in expected.items():
        if np.shape(arrays[name]) != shape:
            raise DataFormatError(
                f"checkpoint tensor {name!r} has shape {np.shape(arrays[name])}, "
                f"model config expects {shape}")
    return {name: DiffTensor(arr) for name, arr in arrays.items()}


def evaluate(checkpoint, samples, cfg: TrainConfig,
             threshold: float | None = None) -> EvalResult:
    """Eval-mode Dice over samples: mean, population SD, per-sample scores.

    The forward runs `cfg.batch_size` samples at a time and records no
    graph, so it holds no more activations than a train step. It pays only
    for inference: each conv sublayer's batch norm is one per-channel
    epilogue from the running statistics, and the text gate reads a
    report's padding as one token row (see diffcore.ops). Every eval-mode
    op works per item, so the scores do not depend on the batch size.
    `threshold` defaults to `cfg.threshold`; outside (0, 1) it raises
    ValueError."""
    if not samples:
        raise ValueError("evaluate needs at least one sample")
    if threshold is None:
        threshold = cfg.threshold
    else:
        _check_threshold(threshold)
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    scores = []
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start:start + cfg.batch_size]
        logits = _forward_batch(weights, [s.image for s in chunk],
                                [s.report for s in chunk], cfg, train=False)
        preds = predict_mask(logits, threshold)
        for j, s in enumerate(chunk):
            scores.append(dice(preds[j, 0], s.mask))
    mean = float(np.mean(scores))
    sd = float(np.std(scores))
    return EvalResult(mean=mean, sd=sd, scores=scores)


def predict(checkpoint, image, report: str, cfg: TrainConfig) -> np.ndarray:
    """The (H, W) uint8 mask that cfg's arm predicts for one (H, W) image and
    its report at cfg.threshold: evaluate's eval-mode forward at batch 1."""
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    logits = _forward_batch(weights, [image], [report], cfg, train=False)
    return predict_mask(logits, cfg.threshold)[0, 0]


def _snapshot(weights: dict) -> dict:
    return {k: t.data.copy() for k, t in weights.items()}


def train(cfg: TrainConfig, dataset, out_dir, fold_seed: int | None = None
          ) -> RunRecord:
    """Train one fold: augment, optimize, select on validation, test.

    The split comes from data.split_indices, which owns the rule that no part
    is empty: a split that leaves the train, validation or test part empty
    raises ValueError there, before out_dir is made. Writes out_dir's
    checkpoint.ctxn, the best epoch's weights, and runrecord.json, the
    returned RunRecord, whose "test" entry has the shape of eval.json."""
    fold_seed = cfg.split.fold_seeds[0] if fold_seed is None else fold_seed
    tr_idx, va_idx, te_idx = split_indices(len(dataset), cfg.split.fractions,
                                           fold_seed)
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
        fold_seed=int(fold_seed),
        train_loss=train_losses,
        val_dice=val_dices,
        best_epoch=int(best_epoch),
        test=test,
        checkpoint=str(ckpt_path),
        config=asdict(cfg),
    )
    write_json(out_dir / "runrecord.json", asdict(record))
    return record


def paper_arms(cfg: TrainConfig) -> dict:
    """The paper's four ablation arms as {name: TrainConfig}: three model arms
    under cfg's policy, and `flip`, the `full` model trained with the
    concordance-breaking horizontal flip at p_hflip 0.5."""
    return {"full": replace(cfg, ablation="full"),
            "no_text": replace(cfg, ablation="no_text"),
            "flip": replace(cfg, ablation="full",
                            policy=replace(cfg.policy, p_hflip=0.5)),
            "baseline_unet": replace(cfg, ablation="baseline_unet")}


def ablate(arms: dict, dataset, out_dir, jobs: int = 1) -> dict:
    """Train each {name: TrainConfig} of `arms` on every fold seed, into
    out_dir/<name>/fold<k>, and compare the arms over the folds.

    There must be at least one arm, and the arms must share `split` and
    `seed`, so the comparison stays paired. Every split rule lives in
    data.py: SplitSpec checked the fractions and fold seeds when it was
    made, and one data.split_indices call, on the first fold seed, checks
    that no part of the dataset is empty. These checks and jobs >= 1 raise
    ValueError before any directory is made or any fold trains. jobs > 1
    trains the (arm, fold) runs in spawned workers with one BLAS thread
    each; they import the calling script, so its entry point must sit under
    `if __name__ == "__main__":`. The files do not depend on jobs.

    Besides each fold's own files (see train), writes one summary,
    comparison.json: per arm the mean, population SD and median of the fold
    test means, the mean's delta against the arm named `full` (None without
    one), and `folds`, each fold's seed, test Dice mean and SD, and best
    epoch. Returns {"summary": <comparison.json content>,
    "results": {name: [RunRecord per fold]}}.
    """
    if jobs < 1:
        raise ValueError(f"ablate: jobs must be >= 1, got {jobs}")
    if not arms:
        raise ValueError("ablate: the arm set is empty; give at least one arm")
    first = next(iter(arms.values()))
    if any((c.split, c.seed) != (first.split, first.seed) for c in arms.values()):
        raise ValueError("ablate: the arms must share split and seed")
    fold_seeds = first.split.fold_seeds
    # every fold splits the same n samples at the same fractions, so one
    # fold's parts are empty exactly when every fold's are
    split_indices(len(dataset), first.split.fractions, fold_seeds[0])
    out_dir = Path(out_dir)
    tasks = [(cfg, dataset, out_dir / name / f"fold{k}", fs)
             for name, cfg in arms.items() for k, fs in enumerate(fold_seeds)]
    if jobs > 1:
        # Imported here, not at module level: only ablate uses the process
        # pool, and loading it raised every other command's peak RSS by about
        # 1.5 MB.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # A worker loads numpy, and with it OpenBLAS's thread count, from this
        # environment. Forked workers would keep this process's BLAS threads
        # and oversubscribe the cores.
        blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                records = list(pool.map(train, *zip(*tasks)))
        finally:
            if blas_threads is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = blas_threads
    else:
        records = [train(*task) for task in tasks]
    n_folds = len(fold_seeds)
    results = {name: records[i * n_folds:(i + 1) * n_folds]
               for i, name in enumerate(arms)}

    summary = {}
    for arm, recs in results.items():
        means = [r.test.mean for r in recs]
        summary[arm] = {"mean": float(np.mean(means)), "sd": float(np.std(means)),
                        "median": float(np.median(means)),
                        "folds": [{"fold_seed": r.fold_seed, "dice": r.test.mean,
                                   "sd": r.test.sd, "best_epoch": r.best_epoch}
                                  for r in recs]}
    full_mean = summary["full"]["mean"] if "full" in summary else None
    for row in summary.values():
        row["delta_vs_full"] = (row["mean"] - full_mean
                                if full_mean is not None else None)
    write_json(out_dir / "comparison.json", summary)
    return {"summary": summary, "results": results}


# ---------------------------------------------------------------------------
# probes

def _swapped_reports(samples, swaps) -> list:
    """Each sample's report under each (src, dst) swap, as [sample][swap].

    Raises ValueError for an empty source word (see swap_word), a swap listed
    twice, and a swap whose source word occurs in no report. Two swaps are
    the same when their source words match in any case, as swap_word
    matches them, and their target words are equal."""
    matched = [(src.lower(), dst) for src, dst in swaps]
    variants = [[swap_word(s.report, src, dst) for src, dst in swaps]
                for s in samples]
    for j, (src, dst) in enumerate(swaps):
        key = f"{src}->{dst}"
        if matched[j] in matched[:j]:
            raise ValueError(f"swap {key!r} is listed twice (source words "
                             "match in any case)")
        if all(v[j] == s.report for s, v in zip(samples, variants)):
            raise ValueError(f"swap source word of {key!r} occurs in no report")
    return variants


def word_swap_probe(checkpoint, samples, swaps, cfg: TrainConfig) -> dict:
    """Re-predict each sample with single words swapped in its report.

    For every (src, dst) swap and every sample whose report contains src,
    records centroid sides before/after (None within 1 px of the axis, see
    data.centroid_side), the predicted-area ratio, and the IoU between the
    two predictions; aggregates per swap the count of entries sided both
    times, the flip rate over those entries and the mean area ratio, as
    fractions. The flip rate is None when no entry is sided both times, so
    that a rate that measured nothing does not read as 0. Each probed sample
    takes one `_forward_batch` call, one image under the distinct reports
    its arm reads: on `full` the original and every swap that changes it; on
    `no_text` and `baseline_unet`, which read no report, the original alone,
    whose prediction serves every variant. The mean area ratio is None when
    no entry has a predicted pixel to compare with. An empty swap source
    word, a swap listed twice and a swap whose source word occurs in no
    report raise ValueError before the checkpoint is read (see
    _swapped_reports).
    """
    all_variants = _swapped_reports(samples, swaps)
    probes = {f"{src}->{dst}": [] for src, dst in swaps}
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    reads_text = cfg.ablation not in ("no_text", "baseline_unet")
    for si, (sample, variants) in enumerate(zip(samples, all_variants)):
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
        sided = [e for e in entries
                 if e["orig_side"] is not None and e["swapped_side"] is not None]
        flips = sum(e["orig_side"] != e["swapped_side"] for e in sided)
        ratios = [e["area_ratio"] for e in entries if e["area_ratio"] is not None]
        report["swaps"][key] = {
            "samples": len(entries),
            "sided": len(sided),
            "flip_rate": flips / len(sided) if sided else None,
            "mean_area_ratio": float(np.mean(ratios)) if ratios else None,
            "entries": entries,
        }
    return report


def _to_u8(arr: np.ndarray) -> np.ndarray:
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    return np.round((arr - lo) / span * 255.0).astype(np.uint8)


def attention_dump(checkpoint, sample: Sample, out_dir, cfg: TrainConfig,
                   swap=None, channel: int = 0) -> list:
    """Write per-level PGM images of the gate's inputs and outputs.

    `swap` is one (src, dst) word swap. By default it swaps the report's own
    side word: "right" for "left" when the report holds "right" and no
    "left", otherwise "left" for "right", which a report with no side word
    refuses. For the original report and the swapped one, dumps the
    attention input feature map, the tanh-activated attention map, and the
    gated feature map at one fixed channel per decoder level, min-max
    normalized with raw ranges recorded in scales.txt. Both reports run as
    one batch of two over a single encoder pass. A `no_text` model reads
    both variants as the empty report. `baseline_unet`, which has no gate to
    dump, a channel outside [0, model.channels[0]) and a swap that
    word_swap_probe would refuse for this sample, such as one whose source
    word is not in its report, raise ValueError before the checkpoint is
    read; out_dir is made only once the forward has run, so a checkpoint
    that does not load leaves no directory.
    """
    if cfg.ablation == "baseline_unet":
        raise ValueError("attention_dump: the baseline_unet arm has no "
                         "cross-attention to dump")
    if not 0 <= channel < cfg.model.channels[0]:
        raise ValueError(f"attention_dump: channel {channel} is outside "
                         f"0..{cfg.model.channels[0] - 1}, the channels of "
                         "every decoder level")
    if swap is None:
        left, right = (swap_word(sample.report, w, "") != sample.report
                       for w in ("left", "right"))
        swap = ("right", "left") if right and not left else ("left", "right")
    texts = [sample.report, *_swapped_reports([sample], [swap])[0]]
    weights = _as_weights(checkpoint, cfg.model, cfg.ablation)
    capture: dict = {}
    _forward_batch(weights, [sample.image], texts, cfg, train=False,
                   capture=capture)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
