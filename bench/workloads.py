"""The ctxseg workloads: set-up, closed measurement loop and output checks.

Each workload is a closed loop with one client in one process: the next
train() call, evaluate() pass or probe starts when the previous one returns.
End-to-end numbers come from untraced units of work, per-layer numbers from
traced ones (see tracing.py); a traced run alternates the two, so the
difference between them is the tracing overhead.

Defects stay visible on purpose. The benchmark never calls gc.collect(),
never changes the collector's thresholds, hands evaluate() weights that
still require gradients, and keeps the default batch size and image size.
Every op's backward closure refers back to its output node, so a graph is
freed only when the cyclic collector runs; peak_rss_mb and the step-time
tail are meant to show that cost until the program removes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import ctxseg
import ctxseg.diffcore.ops
from ctxseg import data as cdata
from ctxseg import diffcore as dc
from ctxseg import model as cmodel
from ctxseg import textenc as ctextenc
from ctxseg import train as ctrain
from ctxseg.data import GeneratorConfig
from ctxseg.model import ModelConfig
from ctxseg.train import TrainConfig

from stats import MIN_TAIL, median, percentile, samples_for_tail
from tracing import (GcWatch, Patches, Tracer, clock, conv2d_shape_counts,
                     layer_shares, public_functions, wrap, wrap_op)

# Sizes. Every other setting is the program's default: batch 4, 64x64
# images, channels [8, 16, 32] with a 64-channel bottleneck, 75% ambiguous
# twins. TRAIN_SAMPLES splits 34/7/7 (train/val/test), 9 steps an epoch.
# Short train() calls of one epoch, and infer_probe passes over one chunk of
# the held-out images, give a run some 15 to 25 units, so the quartiles of
# per-unit rates and times rest on that many values (see Rate).
TRAIN_SAMPLES = 48
TRAIN_EPOCHS = 1
HELDOUT_SAMPLES = 48
PASS_IMAGES = 16           # two evaluate batches of 8
# TrainConfig.seed of successive train() calls: the repeat of seed 0 must
# reproduce its checkpoint and losses exactly, and seed 1 must change them.
TRAIN_SEEDS = (0, 0, 1)
P_TAIL = 90                # reported tail percentile
P_SLOW = 75                # reported central percentile of times (see Rate)
MIN_SAMPLES = samples_for_tail(P_TAIL)   # latencies needed for p90
SWAP_PAIRS = (("left", "right"), ("large", "small"))

# Ops named in the per-layer metrics; every other op is still traced.
METRIC_OPS = ("conv2d", "batchnorm2d", "maxpool2", "upconv2", "concat_channels",
              "relu", "matmul", "rowsoftmax", "tanh", "mul", "add_rowvec",
              "reshape", "transpose2", "batch_item", "stack_batch",
              "bce_with_logits")


def derive_swaps(report: str) -> list:
    """Word swaps that apply to `report`: each pair's word that occurs in it,
    swapped for its partner. word_swap_probe raises on a swap whose source
    word occurs in no report, so a swap is only built from a word present."""
    swaps = []
    for a, b in SWAP_PAIRS:
        if ctrain.swap_word(report, a, b) != report:
            swaps.append((a, b))
        elif ctrain.swap_word(report, b, a) != report:
            swaps.append((b, a))
    return swaps


def dice_scores_ok(scores, n_images: int) -> bool:
    return (len(scores) == n_images
            and all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores))


def probe_ok(report: dict, swaps) -> bool:
    keys = {f"{src}->{dst}" for src, dst in swaps}
    got = report.get("swaps", {})
    return set(got) == keys and all(got[k]["samples"] == 1 for k in keys)


def dataset_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.image.tobytes())
        h.update(s.mask.tobytes())
        h.update(s.report.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# hooks

def install_tracing(patches: Patches, tracer: Tracer) -> None:
    """Span wrappers on every public function each ctxseg module binds."""
    wrappers = {}

    def put(module, attr, make):
        fn = getattr(module, attr)
        if id(fn) not in wrappers:
            wrappers[id(fn)] = make(fn)
        patches.set(module, attr, wrappers[id(fn)])

    for op in public_functions(ctxseg.diffcore.ops):
        counts = conv2d_shape_counts if op == "conv2d" else None
        for module in (ctxseg.diffcore.ops, dc):
            if hasattr(module, op):
                put(module, op, lambda fn, op=op, counts=counts:
                    wrap_op(tracer, op, fn, dc.DiffTensor, counts))
    for attr in ("backward", "adamw_step", "save_checkpoint", "load_checkpoint"):
        put(dc, attr, lambda fn, attr=attr: wrap(tracer, f"diffcore.{attr}", fn))
    spans = {
        cmodel: {"text_gated_forward": "model.forward", "unet_forward": "model.forward",
                 "cross_attention": "model.cross_attention"},
        ctrain: {"text_gated_forward": "model.forward", "unet_forward": "model.forward",
                 "augment_sample": "augment.augment_sample",
                 "embed": "textenc.embed", "tokenize": "textenc.tokenize",
                 "evaluate": "train.evaluate",
                 "word_swap_probe": "train.word_swap_probe"},
    }
    for module, names in spans.items():
        for attr, span in names.items():
            put(module, attr, lambda fn, span=span: wrap(tracer, span, fn))


def install_data_tracing(patches: Patches, tracer: Tracer) -> None:
    for attr in ("generate_dataset", "write_dataset", "read_dataset"):
        patches.set(cdata, attr, wrap(tracer, f"data.{attr}", getattr(cdata, attr)))


class Boundaries:
    """Step, epoch and evaluate timers around one unit of work.

    A step runs from the first augment_sample of a batch to the return of its
    adamw_step, so no step includes a validation pass. An epoch runs from its
    first step to the return of its validation evaluate. Installed over the
    tracing wrappers, so the step span encloses the spans of the step.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.step_t0 = None
        self.epoch_t0 = None
        self.steps = []          # seconds
        self.epochs = []         # seconds
        self.losses = []
        self.evals = []          # (images, seconds, scores ok)
        self.fallthrough = 0

    def install(self, patches: Patches) -> None:
        augment, adamw = ctrain.augment_sample, dc.adamw_step
        bce, evaluate = dc.bce_with_logits, ctrain.evaluate

        def augment_sample(sample, policy, seed):
            if self.step_t0 is None:
                self.step_t0 = clock()
                if self.epoch_t0 is None:
                    self.epoch_t0 = self.step_t0
                if self.tracer is not None:
                    self.tracer.enter(self.tracer.scope)
            out = augment(sample, policy, seed)
            self.fallthrough += out is sample
            return out

        def adamw_step(params, state):
            out = adamw(params, state)
            self.steps.append(clock() - self.step_t0)
            self.step_t0 = None
            if self.tracer is not None:
                self.tracer.exit()
            return out

        def bce_with_logits(logits, targets):
            out = bce(logits, targets)
            self.losses.append(float(out.data))
            return out

        def evaluate_(checkpoint, samples, cfg, threshold=None):
            t0 = clock()
            res = evaluate(checkpoint, samples, cfg, threshold)
            t1 = clock()
            self.evals.append((len(samples), t1 - t0,
                               dice_scores_ok(res.scores, len(samples))))
            if self.epoch_t0 is not None:
                self.epochs.append(t1 - self.epoch_t0)
                self.epoch_t0 = None
            return res

        patches.set(ctrain, "augment_sample", augment_sample)
        patches.set(dc, "adamw_step", adamw_step)
        patches.set(dc, "bce_with_logits", bce_with_logits)
        patches.set(ctrain, "evaluate", evaluate_)


# ---------------------------------------------------------------------------
# one run

@dataclass
class Rate:
    """Items per second of each timed call, reported at percentile `rank` of
    the calls: by default their lower quartile, the rate that three quarters
    of the calls reach or beat.

    A shared host runs this process up to 1.5x faster for seconds to minutes
    at a time, and how much of a run those bursts cover varies from run to
    run. They move the median and the fast side of a run's times; the slow
    side, which lies in the host's common state, moved between a half and
    two thirds as much from run to run. So rates are reported at their lower
    quartile, and epoch and latency times at their upper quartile (P_SLOW)
    besides their p90.

    evaluate() rates are the exception. About a fifth of the calls, the same
    ones in every run, hold a pause of the cyclic collector and run 20 to
    35% slower; the lower quartile falls at the edge of that group and
    jumps, so they are reported at their median."""
    rank: int = 100 - P_SLOW
    rates: list = field(default_factory=list)

    def add(self, items, seconds):
        self.rates.append(items / seconds)

    @property
    def per_s(self):
        return percentile(self.rates, self.rank) if self.rates else None


@dataclass
class Side:
    """What the untraced (or the traced) units of a run measured."""
    units: int = 0
    samples: Rate = field(default_factory=Rate)
    evals: Rate = field(default_factory=lambda: Rate(rank=50))
    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    probes: list = field(default_factory=list)


class Run:
    def __init__(self, name, seed, seconds, trace, work_dir):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = Path(work_dir)
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.setup_s = []
        self.first_setup = None          # (dataset digest, checkpoint bytes)
        self.final_loss = None
        self.plain, self.traced = Side(), Side()
        self.tracer = None
        self.setup_tracer = Tracer()
        self.gc = GcWatch()
        self.unit = 0
        self.rss_mb = None

    def note_peak_rss(self) -> None:
        """Read the peak RSS once the run has done its minimum work. The heap
        keeps growing over later units, and how many of those fit in
        --seconds depends on the machine's speed."""
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- bookkeeping ------------------------------------------------------
    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def next_unit(self):
        """(traced, side) of the next unit of work. Unit 0 grows the heap and
        fills the caches, as the first minutes of a long job do, and is timed
        for neither side; a traced run then alternates traced and plain units."""
        unit = self.unit
        self.unit += 1
        if unit == 0:
            return False, Side()
        traced = self.trace and unit % 2 == 1
        return traced, self.traced if traced else self.plain

    def hooks(self, traced: bool):
        """Patches for one unit, and its boundary timers."""
        patches = Patches()
        if traced:
            if self.tracer is None:
                self.tracer = Tracer(scope=self.scope)
            install_tracing(patches, self.tracer)
        bounds = Boundaries(self.tracer if traced else None)
        bounds.install(patches)
        return patches, bounds

    def fold_evals(self, side: Side, bounds: Boundaries) -> None:
        for images, secs, ok in bounds.evals:
            self.attempted += images
            if self.check("dice_per_image_in_0_1", ok):
                side.evals.add(images, secs)
            else:
                self.failed += images

    # -- set-up -----------------------------------------------------------
    def set_up(self, n: int, with_checkpoint: bool = False):
        """One timed set-up: generate, write and read the dataset (and write
        a `full`-arm checkpoint), as `gen-data` then `train --data` would.

        A run sets up once before its first unit of work and again after
        each unit, so the median set-up samples the machine across the whole
        run, as the other metrics do, and not only its first second. Every
        set-up writes a directory of its own, and none is deleted before the
        run ends: on an ext4 disk mounted with `discard`, writing the same
        files again (which truncates them) took 3 to 8 times as long from
        the second rewrite on, while writing new files stayed steady."""
        gen = GeneratorConfig(n=n)
        out = self.work / f"data{len(self.setup_s)}"
        ckpt = out / "checkpoint.ctxn" if with_checkpoint else None
        patches = Patches()
        if self.trace:
            install_data_tracing(patches, self.setup_tracer)
        with patches:
            t0 = clock()
            samples = cdata.generate_dataset(gen, self.seed)
            cdata.write_dataset(samples, out, meta={"generator": asdict(gen),
                                                    "seed": self.seed})
            samples = cdata.read_dataset(out)
            if ckpt is not None:
                dc.save_checkpoint(ckpt, cmodel.init_weights(ModelConfig()))
            self.setup_s.append(clock() - t0)
        made = (dataset_digest(samples), ckpt.read_bytes() if ckpt else None)
        if self.first_setup is None:
            self.first_setup = made
            if ckpt is not None:
                other = self.work / "other_seed.ctxn"
                dc.save_checkpoint(other, cmodel.init_weights(ModelConfig(init_seed=1)))
                self.check("other_init_seed_differs", other.read_bytes() != made[1])
        self.check("setup_repeats_identical", made == self.first_setup)
        return samples, ckpt

    # -- probes -----------------------------------------------------------
    def probe(self, weights, sample, index, cfg, side: Side, seen: dict) -> None:
        swaps = derive_swaps(sample.report)
        if not swaps:
            return
        self.attempted += 1
        t0 = clock()
        try:
            report = ctrain.word_swap_probe(weights, [sample], swaps, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        dt = clock() - t0
        if not self.check("probe_entry_per_swap", probe_ok(report, swaps)):
            self.failed += 1
            return
        side.probes.append(dt)
        text = json.dumps(report, sort_keys=True)
        self.check("probe_repeats_identical", seen.setdefault(index, text) == text)

    # -- results ----------------------------------------------------------
    def end_to_end(self) -> dict:
        """End-to-end metrics of the plain units; None where nothing passed."""
        p = self.plain

        def summary(values, fn, scale=1.0):
            return scale * fn(values) if values else None

        def p90(values):
            return percentile(values, P_TAIL)

        def p75(values):
            return percentile(values, P_SLOW)

        return {
            "samples_per_s": (p.samples.per_s, "1/s"),
            "step_ms.p75": (summary(p.steps, p75, 1e3), "ms"),
            "step_ms.p90": (summary(p.steps, p90, 1e3), "ms"),
            "epoch_s": (summary(p.epochs, p75), "s"),
            "final_loss": (self.final_loss, "nat"),
            "eval_images_per_s": (p.evals.per_s, "1/s"),
            "probe_ms.p75": (summary(p.probes, p75, 1e3), "ms"),
            "probe_ms.p90": (summary(p.probes, p90, 1e3), "ms"),
            "setup_s": (summary(self.setup_s, median), "s"),
            "peak_rss_mb": (self.rss_mb or
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    def latencies(self) -> dict:
        """Sample count and median of each latency, for the detail record."""
        return {name: {"samples": len(v), "p50": median(v) * 1e3 if v else None}
                for name, v in (("step_ms", self.plain.steps),
                                ("probe_ms", self.plain.probes))}


class TrainRun(Run):
    """train_full / train_baseline: train() calls, each followed by
    word-swap probes of the trained seed-0 checkpoint."""

    scope = "train.step"

    def __init__(self, *args, arm: str):
        super().__init__(*args)
        self.arm = arm

    def execute(self) -> None:
        dataset, _ = self.set_up(TRAIN_SAMPLES)
        cfgs = {s: TrainConfig(epochs=TRAIN_EPOCHS, ablation=self.arm, seed=s)
                for s in set(TRAIN_SEEDS)}
        base = cfgs[0]
        tr_idx, _, te_idx = cdata.split_indices(
            len(dataset), base.split.fractions, base.split.fold_seeds[0])
        planned = TRAIN_EPOCHS * math.ceil(len(tr_idx) / base.batch_size)
        reference = {}               # seed -> (train_loss, checkpoint bytes)
        last_ckpt = None
        # Besides the warm-up: a traced run needs one traced and one plain
        # call; a plain run needs the steps for p90, and every seed.
        min_calls = 3 if self.trace else max(len(TRAIN_SEEDS),
                                             1 + math.ceil(MIN_SAMPLES / planned))
        test = [dataset[i] for i in te_idx]
        probes_per_call = math.ceil(MIN_SAMPLES / (min_calls - 1))
        seen = {}
        probed = 0
        t_start = clock()
        calls = 0
        while calls < min_calls or clock() - t_start < self.seconds:
            if calls:
                self.set_up(TRAIN_SAMPLES)
            seed = TRAIN_SEEDS[calls % len(TRAIN_SEEDS)]
            traced, side = self.next_unit()
            out_dir = self.work / f"train{calls}"
            calls += 1
            self.attempted += planned
            patches, bounds = self.hooks(traced)
            t0 = clock()
            try:
                with patches, (self.gc if traced else nullcontext()):
                    record = ctrain.train(cfgs[seed], dataset, out_dir)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.check("train_completes", False)
                self.failed += planned - len(bounds.steps)
                if self.tracer is not None:
                    self.tracer.abandon_open_spans()
                continue
            wall = clock() - t0
            self.fold_evals(side, bounds)
            losses_ok = (len(bounds.losses) == planned
                         and all(math.isfinite(x) for x in bounds.losses))
            if not self.check("step_losses_finite", losses_ok):
                self.failed += planned
                continue
            got = (record.train_loss, Path(record.checkpoint).read_bytes())
            if seed in reference:
                self.check("same_seed_same_checkpoint_and_losses",
                           got == reference[seed])
            else:
                reference[seed] = got
            if seed == 0:
                self.final_loss = record.train_loss[-1]
                last_ckpt = record.checkpoint
            side.units += len(bounds.steps)
            side.samples.add(TRAIN_EPOCHS * len(tr_idx), wall)
            side.steps += bounds.steps
            side.epochs += bounds.epochs
            if traced:
                self.tracer.counts["augment.fallthrough"] += bounds.fallthrough
            if self.trace or last_ckpt is None:
                continue             # per-layer units of train_* are train steps
            # Probes of the seed-0 checkpoint go between train() calls, so
            # that they sample the machine across the whole run as steps do.
            weights = dc.load_checkpoint(last_ckpt)
            for _ in range(probes_per_call):
                j = probed % len(test)
                probed += 1
                self.probe(weights, test[j], j, base, side, seen)
            if calls == min_calls:
                self.note_peak_rss()
        self.check("other_seed_changes_losses",
                   1 in reference and 0 in reference
                   and reference[1][0] != reference[0][0])


class InferRun(Run):
    """infer_probe: one checkpoint; each pass loads it, runs evaluate() over
    the next chunk of PASS_IMAGES held-out images at batch 8, then one
    word_swap_probe() call per image of the chunk at batch 1."""

    scope = "bench.pass"

    def execute(self) -> None:
        heldout, ckpt = self.set_up(HELDOUT_SAMPLES, with_checkpoint=True)
        cfg = TrainConfig()
        chunks = [range(i, min(i + PASS_IMAGES, len(heldout)))
                  for i in range(0, len(heldout), PASS_IMAGES)]
        seen, scores_seen = {}, {}
        # warm-up, then traced and plain; or warm-up and the probes for p90
        min_passes = 3 if self.trace else 1 + math.ceil(MIN_SAMPLES / PASS_IMAGES)
        max_passes = min_passes + 3 * math.ceil(MIN_SAMPLES / PASS_IMAGES)
        t_start = clock()
        passes = 0
        while passes < min_passes or clock() - t_start < self.seconds or (
                len(self.plain.probes) < MIN_SAMPLES and passes < max_passes):
            if passes:
                self.set_up(HELDOUT_SAMPLES, with_checkpoint=True)
            traced, side = self.next_unit()
            chunk = chunks[passes % len(chunks)]
            images = [heldout[i] for i in chunk]
            passes += 1
            patches, bounds = self.hooks(traced)
            n_probes = len(side.probes)
            t0 = clock()
            with patches, (self.gc if traced else nullcontext()):
                if traced:
                    self.tracer.enter(self.scope)
                try:
                    weights = dc.load_checkpoint(ckpt)
                    res = ctrain.evaluate(weights, images, cfg)
                    scores_seen.setdefault(chunk[0], set()).add(tuple(res.scores))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.check("evaluate_completes", False)
                    self.attempted += len(images)
                    self.failed += len(images)
                    weights = None
                if weights is not None:
                    for i in chunk:
                        self.probe(weights, heldout[i], i, cfg, side, seen)
                if traced:
                    self.tracer.exit()
            wall = clock() - t0
            self.fold_evals(side, bounds)
            if weights is None:
                continue
            side.units += len(images)
            side.samples.add(len(images), wall)
            side.epochs.append(wall)
            side.steps += side.probes[n_probes:]
            if passes == min_passes:
                self.note_peak_rss()
        self.check("eval_repeats_identical",
                   all(len(v) == 1 for v in scores_seen.values()))
        self.final_loss = heldout_loss(dc.load_checkpoint(ckpt), heldout, cfg)


def heldout_loss(arrays: dict, samples, cfg: TrainConfig) -> float:
    """Mean BCE of the checkpoint's eval-mode logits on `samples`, in the
    batches of 8 evaluate() uses. Untimed: a quality guard only."""
    mc = cfg.model
    weights = {name: dc.DiffTensor(a) for name, a in arrays.items()}
    total = 0.0
    for start in range(0, len(samples), 8):
        chunk = samples[start:start + 8]
        images = np.stack([s.image for s in chunk])[:, None]
        embs = [ctextenc.embed(ctextenc.tokenize(s.report, mc.max_tokens),
                               mc.d_e, mc.embed_seed) for s in chunk]
        logits = cmodel.text_gated_forward(images, embs, weights, mc, train=False)
        targets = np.stack([s.mask for s in chunk]).astype(np.float32)[:, None]
        total += float(dc.bce_with_logits(logits, targets).data) * len(chunk)
    return total / len(samples)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def layer_metrics(run: Run) -> dict:
    """Per-layer metrics per unit of work: a train step on train_*, one
    held-out sample (an eighth of an evaluate batch plus one probe call) on
    infer_probe."""
    t = run.tracer or Tracer(scope=run.scope)
    units = max(run.traced.units, 1)
    per_ms = 1e3 / units
    scope_s = t.total_s[run.scope]
    m = {}
    for op in METRIC_OPS:
        m[f"diffcore.{op}.calls"] = (t.calls[f"diffcore.{op}.fwd"] / units, "count")
        m[f"diffcore.{op}.fwd_ms"] = (t.self_s[f"diffcore.{op}.fwd"] * per_ms, "ms")
        m[f"diffcore.{op}.bwd_ms"] = (t.self_s[f"diffcore.{op}.bwd"] * per_ms, "ms")
    conv_fwd = t.self_s["diffcore.conv2d.fwd"]
    conv_in_scope = (t.scope_self_s["diffcore.conv2d.fwd"]
                     + t.scope_self_s["diffcore.conv2d.bwd"])
    m["diffcore.conv2d.gflops"] = (
        t.counts["diffcore.conv2d.flops"] / conv_fwd / 1e9 if conv_fwd else 0.0, "GFLOP/s")
    m["diffcore.conv2d.cols_mb"] = (t.counts["diffcore.conv2d.cols_bytes"] / units / 1e6, "MB")
    m["diffcore.conv2d.step_share"] = (conv_in_scope / scope_s if scope_s else 0.0, "share")
    m["diffcore.backward.self_ms"] = (t.self_s["diffcore.backward"] * per_ms, "ms")
    for attr in ("adamw_step", "save_checkpoint", "load_checkpoint"):
        m[f"diffcore.{attr}.ms"] = (t.total_s[f"diffcore.{attr}"] * per_ms, "ms")
    forwards = t.calls["model.forward"]
    xattn = t.calls["model.cross_attention"]
    m["model.forward.self_ms"] = (t.self_s["model.forward"] * per_ms, "ms")
    m["model.ops_per_forward"] = (t.counts["model.forward.ops"] / forwards
                                  if forwards else 0.0, "count")
    m["model.cross_attention.ms"] = (t.total_s["model.cross_attention"] * per_ms, "ms")
    m["model.cross_attention.ops"] = (t.counts["model.cross_attention.ops"] / xattn
                                      if xattn else 0.0, "count")
    m["textenc.embed.calls"] = (t.calls["textenc.embed"] / units, "count")
    m["textenc.embed.ms"] = ((t.total_s["textenc.embed"] + t.total_s["textenc.tokenize"])
                             * per_ms, "ms")
    aug = t.calls["augment.augment_sample"]
    m["augment.calls"] = (aug / units, "count")
    m["augment.ms"] = (t.total_s["augment.augment_sample"] * per_ms, "ms")
    m["augment.fallthrough_share"] = (t.counts["augment.fallthrough"] / aug
                                      if aug else 0.0, "share")
    m["train.evaluate.ms"] = (t.total_s["train.evaluate"] * per_ms, "ms")
    m["train.step.self_ms"] = (t.self_s["train.step"] * per_ms, "ms")
    st = run.setup_tracer
    for attr, key in (("generate_dataset", "generate_s"), ("write_dataset", "write_s"),
                      ("read_dataset", "read_s")):
        m[f"data.{key}"] = (st.total_s[f"data.{attr}"] / len(run.setup_s), "s")
    m["runtime.gc_pause_ms"] = (run.gc.pause_s * per_ms, "ms")
    m["runtime.gc_collected"] = (run.gc.collected / units, "count")
    m["unattributed_ms"] = (t.scope_uncovered_s * per_ms, "ms")
    m["unattributed_share"] = (t.scope_uncovered_s / scope_s if scope_s else 0.0, "share")
    for key, plain, traced in (("samples", run.plain.samples, run.traced.samples),
                               ("eval", run.plain.evals, run.traced.evals)):
        share = 1.0 - traced.per_s / plain.per_s if plain.per_s and traced.per_s else 0.0
        m[f"trace.{key}_overhead_share"] = (share, "share")
    return m


# ---------------------------------------------------------------------------
# entry

WORKLOADS = {
    "train_full": lambda *a: TrainRun(*a, arm="full"),
    "train_baseline": lambda *a: TrainRun(*a, arm="baseline_unet"),
    "infer_probe": InferRun,
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """Run one workload; return the result object, detail first printed."""
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        run = WORKLOADS[name](name, seed, seconds, trace, work)
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = layer_metrics(run)
        if name == "train_baseline":
            run.check("baseline_has_no_text_path", all(
                metrics[k][0] == 0 for k in ("model.cross_attention.ms",
                                             "model.cross_attention.ops",
                                             "textenc.embed.calls", "textenc.embed.ms")))
        cover = layer_shares(run.tracer) if run.tracer else {}
        run.check("spans_cover_scope",
                  bool(cover) and abs(sum(cover.values()) - 1.0) < 1e-6)
    else:
        metrics = run.end_to_end()
        latencies = run.latencies()
        run.check("latency_tail_samples",
                  all(v["samples"] >= MIN_SAMPLES for v in latencies.values()))
        cover = None
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "checks": run.checks,
        "ops_failed_share": run.failed / run.attempted if run.attempted else 1.0,
        "latencies": None if trace else latencies,
        "min_tail_samples": MIN_TAIL,
        "step_coverage": cover,
    }
    print(json.dumps(detail, sort_keys=True))
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<36} {value!r:>24} {unit}")
    return {
        "correct": bool(run.checks) and all(run.checks.values()) and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
