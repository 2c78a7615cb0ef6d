"""Training loop contracts, cross-validation, ablation table, probes."""

import json
import math
import os
import statistics
import types
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ctxseg.augment import AugmentPolicy, swap_word
from ctxseg.data import (GeneratorConfig, SplitSpec, centroid_side, dice,
                         generate_dataset)
from ctxseg.diffcore import (AdamWState, adamw_step, backward, bce_with_logits,
                             load_checkpoint, save_checkpoint)
from ctxseg.errors import DataFormatError, ShapeError
from ctxseg.model import ModelConfig, init_weights, predict_mask
from ctxseg.train import (ABLATION_ARMS, TrainConfig, _as_weights, _forward_batch,
                          ablate, attention_dump, evaluate, paper_arms, train,
                          word_swap_probe)


def tiny_train_config(**kwargs):
    base = dict(
        lr=1e-3, epochs=2, batch_size=4, seed=5,
        model=ModelConfig(channels=[4, 8],
                          bottleneck=16, d_e=8, max_tokens=16, init_seed=3),
        split=SplitSpec(fractions=(0.7, 0.15, 0.15), fold_seeds=[11, 12]),
    )
    base.update(kwargs)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(GeneratorConfig(n=16, image_size=32), base_seed=77)


class TestTrain:
    def test_smoke_writes_loadable_checkpoint(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        record = train(cfg, tiny_dataset[:8], tmp_path)
        ckpt = load_checkpoint(record.checkpoint)
        assert "enc1.conv1.w" in ckpt
        assert (tmp_path / "runrecord.json").exists()

    def test_loss_decreases_over_training(self, tiny_dataset, tmp_path):
        # median over 3 seeds of (epoch-1 loss - epoch-20 loss) is positive
        drops = []
        for seed in (1, 2, 3):
            cfg = tiny_train_config(epochs=20, seed=seed)
            rec = train(cfg, tiny_dataset, tmp_path / f"s{seed}")
            drops.append(rec.train_loss[0] - rec.train_loss[19])
        assert statistics.median(drops) > 0

    def test_best_epoch_attains_max_val_dice(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=4)
        rec = train(cfg, tiny_dataset, tmp_path)
        assert rec.val_dice[rec.best_epoch] == max(rec.val_dice)
        # earlier epoch wins ties
        first_max = rec.val_dice.index(max(rec.val_dice))
        assert rec.best_epoch == first_max

    def test_byte_identical_checkpoints(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=2)
        a = train(cfg, tiny_dataset, tmp_path / "a")
        b = train(cfg, tiny_dataset, tmp_path / "b")
        assert (tmp_path / "a" / "checkpoint.ctxn").read_bytes() == \
               (tmp_path / "b" / "checkpoint.ctxn").read_bytes()
        assert a.test == b.test

    def test_no_text_predictions_ignore_reports(self, tiny_dataset, tmp_path):
        from dataclasses import replace
        cfg = tiny_train_config(epochs=1, ablation="no_text")
        rec = train(cfg, tiny_dataset, tmp_path)
        sample = tiny_dataset[0]
        variants = [replace(sample, report="large left apical pneumothorax."),
                    replace(sample, report="completely different words here.")]
        res = [evaluate(rec.checkpoint, [v], cfg) for v in variants]
        assert res[0].scores == res[1].scores

    def test_flip_arm_flips_half_the_time(self):
        # the flip arm is a policy variant of full; the model arms keep the
        # policy they were given, a user-set p_hflip included
        cfg = tiny_train_config(policy=AugmentPolicy(p_hflip=0.25))
        arms = paper_arms(cfg)
        assert list(arms) == ["full", "no_text", "flip", "baseline_unet"]
        assert arms["flip"] == replace(cfg, policy=replace(cfg.policy, p_hflip=0.5))
        for arm in ABLATION_ARMS:
            assert arms[arm] == replace(cfg, ablation=arm)
        assert arms["full"].policy.p_hflip == 0.25

    def test_invalid_ablation_rejected(self):
        for ablation in ("nonsense", "flip"):
            with pytest.raises(ValueError, match="ablation"):
                tiny_train_config(ablation=ablation)


class TestEvaluate:
    def test_oracle_logits_give_dice_one(self, tiny_dataset):
        sample = tiny_dataset[0]
        logits = np.where(sample.mask > 0, 10.0, -10.0)[None, None]
        assert dice(predict_mask(logits)[0, 0], sample.mask) == 1.0

    def test_mean_matches_scores(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path)
        res = evaluate(rec.checkpoint, tiny_dataset[:6], cfg)
        assert abs(res.mean - np.mean(res.scores)) < 1e-9
        assert res.sd >= 0

    def test_reevaluation_bit_identical(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path)
        r1 = evaluate(rec.checkpoint, tiny_dataset[:4], cfg)
        r2 = evaluate(rec.checkpoint, tiny_dataset[:4], cfg)
        assert r1.scores == r2.scores

    def test_size_mismatch_rejected(self):
        # the model runs at any size divisible by 2^depth = 4, so not at 34 px
        cfg = tiny_train_config()
        odd = generate_dataset(GeneratorConfig(n=1, image_size=34), 0)
        with pytest.raises(ShapeError, match="input is 34x34"):
            evaluate(init_weights(cfg.model), odd, cfg)

    def test_checkpoint_shape_mismatch_rejected(self, tiny_dataset, tmp_path):
        # same tensor names, wider second level: the first tensor that differs
        # is named with both shapes
        cfg = tiny_train_config()
        ckpt = tmp_path / "narrow.ctxn"
        save_checkpoint(ckpt, init_weights(cfg.model))
        wide = tiny_train_config(model=replace(cfg.model, channels=[4, 12]))
        with pytest.raises(DataFormatError,
                           match=r"'enc2\.conv1\.w' has shape \(8, 4, 3, 3\), "
                                 r"model config expects \(12, 4, 3, 3\)"):
            evaluate(str(ckpt), tiny_dataset[:2], wide)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0])
    def test_threshold_outside_the_unit_interval_rejected(self, tiny_dataset,
                                                          maxpool2_batches,
                                                          threshold):
        # at 0 every pixel is marked and at 1 none is: a constant mask
        cfg = tiny_train_config()
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\)"):
            evaluate(init_weights(cfg.model), tiny_dataset[:2], cfg, threshold)
        assert maxpool2_batches == []

    @pytest.mark.parametrize("arm", ["full", "no_text", "baseline_unet"])
    def test_scores_do_not_depend_on_batch_size(self, tiny_dataset, arm):
        # every eval-mode op works per item, so the chunking is free to change
        cfg = tiny_train_config(ablation=arm)
        samples = tiny_dataset[:7]
        live = init_weights(cfg.model, with_attention=arm != "baseline_unet")
        weights = _as_weights(live, cfg.model, arm)

        def logits(chunk):
            return _forward_batch(weights, [s.image for s in chunk],
                                  [s.report for s in chunk], cfg, train=False).data

        together = logits(samples)
        for j, s in enumerate(samples):
            np.testing.assert_array_equal(logits([s])[0], together[j])
        runs = [evaluate(weights, samples, replace(cfg, batch_size=b)).scores
                for b in (1, 3, 4, 8)]
        for scores in runs[1:]:
            assert scores == runs[0]


def _held_buffers(loss, exclude):
    """{id: array} of the base buffers a recorded graph keeps alive until
    backward: every node's .data and every array in its closure's cells,
    following closures held in cells. Buffers whose id is in `exclude` are
    left out."""
    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    held, seen, stack, funcs = {}, set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        held[id(base(t.data))] = base(t.data)
        if t._backward is not None:
            funcs.append(t._backward)
        stack.extend(t._parents)
    while funcs:
        f = funcs.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                held[id(base(v))] = base(v)
            elif isinstance(v, types.FunctionType):
                funcs.append(v)
    return {k: a for k, a in held.items() if k not in exclude}


class TestHeldGraph:
    def test_default_train_step_holds_no_padded_copy(self):
        # a default-config, batch-4 train graph on the full arm: the conv
        # backward pads its input again and the gate recomputes its queries,
        # so the graph holds 13.54 MiB of activations (18.73 MiB when both
        # were kept); counted in bytes, so the figure is exact
        cfg = TrainConfig()
        batch = generate_dataset(GeneratorConfig(n=4), base_seed=3)
        weights = init_weights(cfg.model, with_attention=True)
        logits = _forward_batch(weights, [s.image for s in batch],
                                [s.report for s in batch], cfg, train=True)
        targets = np.stack([s.mask for s in batch]).astype(np.float32)[:, None]
        loss = bce_with_logits(logits, targets)
        held = _held_buffers(loss, {id(t.data) for t in weights.values()})
        side = batch[0].image.shape[0]
        padded = {(side // 2 ** i + 2) ** 2 for i in range(cfg.model.depth + 1)}
        shapes = [a.shape for a in held.values()]
        assert not [s for s in shapes if len(s) >= 3 and math.prod(s[2:]) in padded]
        assert sum(a.nbytes for a in held.values()) < 14.0 * 2 ** 20


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _median_minor_faults(call, warm_ups=2, calls=5):
    """Median minor page faults of `call` after `warm_ups` calls. The median,
    because one call can also map a fresh interpreter arena (≈100 faults)."""
    import resource

    for _ in range(warm_ups):
        call()
    counts = []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(counts)


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is set on glibc only")
class TestNoPageFaultChurn:
    """Freed activation buffers stay in the heap, so repeated calls reuse
    them: with glibc's default thresholds a default 16-image `evaluate` took
    ≈4600 faults and a batch-4 train step ≈1500."""

    def test_evaluate(self):
        cfg = TrainConfig()
        samples = generate_dataset(GeneratorConfig(n=16), base_seed=1)
        weights = init_weights(cfg.model)
        assert _median_minor_faults(lambda: evaluate(weights, samples, cfg)) < 100

    def test_train_step(self):
        cfg = TrainConfig()
        batch = generate_dataset(GeneratorConfig(n=4), base_seed=1)
        targets = np.stack([s.mask for s in batch]).astype(np.float32)[:, None]
        weights = init_weights(cfg.model)
        opt = AdamWState(lr=cfg.lr)

        def step():
            logits = _forward_batch(weights, [s.image for s in batch],
                                    [s.report for s in batch], cfg, train=True)
            loss = bce_with_logits(logits, targets)
            backward(loss)
            adamw_step(weights, opt)

        assert _median_minor_faults(step) < 100


class TestAsWeights:
    def test_live_weights_give_a_forward_with_no_graph(self, tiny_dataset):
        cfg = tiny_train_config()
        live = init_weights(cfg.model)
        for t in live.values():
            if t.requires_grad:
                t.grad = np.ones_like(t.data)
        before = {name: (t.data, t.requires_grad, t.grad) for name, t in live.items()}
        views = _as_weights(live, cfg.model, cfg.ablation)
        chunk = tiny_dataset[:2]
        logits = _forward_batch(views, [s.image for s in chunk],
                                [s.report for s in chunk], cfg, train=False)
        assert logits._backward is None and logits._parents == ()
        assert not any(t.requires_grad for t in views.values())
        for name, t in live.items():
            data, requires_grad, grad = before[name]
            assert views[name].data is data and t.data is data
            assert t.requires_grad == requires_grad and t.grad is grad


class TestForwardBatchKReports:
    REPORTS = ["large left apical pneumothorax.", "large right apical pneumothorax.",
               "small left basal pneumothorax."]
    # baseline_unet reads no report, so it takes one per image and nothing else
    BASELINE_COUNT = "one report per image"

    @pytest.mark.parametrize("arm", ABLATION_ARMS)
    def test_logits_equal_k_single_report_forwards(self, tiny_dataset, arm):
        cfg = tiny_train_config(ablation=arm)
        w = _as_weights(init_weights(cfg.model, arm != "baseline_unet"),
                        cfg.model, arm)
        image = tiny_dataset[0].image
        if arm == "baseline_unet":
            with pytest.raises(ShapeError, match=self.BASELINE_COUNT):
                _forward_batch(w, [image], self.REPORTS, cfg, train=False)
            return
        got = _forward_batch(w, [image], self.REPORTS, cfg, train=False).data
        assert got.shape[0] == len(self.REPORTS)
        for i, report in enumerate(self.REPORTS):
            want = _forward_batch(w, [image], [report], cfg, train=False).data
            np.testing.assert_array_equal(got[i], want[0])

    @pytest.mark.parametrize("arm", ABLATION_ARMS)
    def test_live_weights_raise(self, tiny_dataset, arm):
        cfg = tiny_train_config(ablation=arm)
        live = init_weights(cfg.model, arm != "baseline_unet")
        match = (self.BASELINE_COUNT if arm == "baseline_unet"
                 else "records no graph")
        with pytest.raises(ShapeError, match=match):
            _forward_batch(live, [tiny_dataset[0].image], self.REPORTS, cfg,
                           train=False)

    @pytest.mark.parametrize("arm", ABLATION_ARMS)
    def test_other_count_mismatch_raises(self, tiny_dataset, arm):
        cfg = tiny_train_config(ablation=arm)
        w = _as_weights(init_weights(cfg.model, arm != "baseline_unet"),
                        cfg.model, arm)
        match = self.BASELINE_COUNT if arm == "baseline_unet" else "embeddings"
        with pytest.raises(ShapeError, match=match):
            _forward_batch(w, [s.image for s in tiny_dataset[:2]], self.REPORTS,
                           cfg, train=False)


class TestCrossValidate:
    def test_fold_count_and_membership(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1, batch_size=2,
                                split=SplitSpec(fold_seeds=[1, 2, 3, 4, 5]))
        out = ablate({"full": cfg}, tiny_dataset, tmp_path)
        recs = out["results"]["full"]
        assert len(recs) == 5
        assert out["summary"]["full"]["sd"] >= 0
        again = ablate({"full": cfg}, tiny_dataset, tmp_path / "again")
        for a, b in zip(recs, again["results"]["full"]):
            assert a.fold_seed == b.fold_seed
            assert a.test.scores == b.test.scores


class TestAblate:
    def test_four_arms_shared_folds(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        arms = paper_arms(cfg)
        out = ablate(arms, tiny_dataset, tmp_path)
        assert list(out["summary"]) == list(arms)
        folds = {arm: [r.fold_seed for r in recs]
                 for arm, recs in out["results"].items()}
        assert len({tuple(v) for v in folds.values()}) == 1
        # each arm's records echo the config it was given
        for arm, recs in out["results"].items():
            assert recs[0].config == asdict(arms[arm])

    def test_comparison_folds_match_the_run_records(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        ablate(paper_arms(cfg), tiny_dataset, tmp_path)
        summary = json.loads((tmp_path / "comparison.json").read_text())
        assert sorted(summary) == ["baseline_unet", "flip", "full", "no_text"]
        for arm, row in summary.items():
            recs = [json.loads((tmp_path / arm / f"fold{k}" / "runrecord.json")
                               .read_text())
                    for k in range(len(cfg.split.fold_seeds))]
            assert row["folds"] == [
                {"fold_seed": r["fold_seed"], "dice": r["test"]["mean"],
                 "sd": r["test"]["sd"], "best_epoch": r["best_epoch"]}
                for r in recs]
            means = [r["test"]["mean"] for r in recs]
            assert row["mean"] == float(np.mean(means))
            assert row["sd"] == float(np.std(means))
            assert row["median"] == statistics.median(means)
        assert not list(tmp_path.rglob("cv.json"))
        assert not (tmp_path / "comparison.csv").exists()

    def test_delta_vs_full_written(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        ablate(paper_arms(cfg), tiny_dataset, tmp_path)
        summary = json.loads((tmp_path / "comparison.json").read_text())
        assert summary["full"]["delta_vs_full"] == 0.0

    def test_named_configs_without_full_have_no_delta(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1, split=SplitSpec(fold_seeds=[11]))
        arms = {"none": replace(cfg, policy=AugmentPolicy(p_photometric=0.0, p_distort=0.0,
                                                p_ssr=0.0)),
                "safe": cfg}
        out = ablate(arms, tiny_dataset, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "comparison.json", "none", "safe"]
        summary = json.loads((tmp_path / "comparison.json").read_text())
        assert summary == out["summary"]
        assert [row["delta_vs_full"] for row in summary.values()] == [None, None]

    @pytest.mark.parametrize("change", [
        {"split": SplitSpec(fold_seeds=[13])},
        {"split": SplitSpec(fractions=(0.5, 0.25, 0.25))},
        {"seed": 6},
    ], ids=["fold_seeds", "fractions", "seed"])
    def test_unpaired_arms_raise(self, tiny_dataset, tmp_path, change):
        cfg = tiny_train_config(epochs=1)
        with pytest.raises(ValueError, match="share split and seed"):
            ablate({"full": cfg, "other": replace(cfg, **change)}, tiny_dataset,
                   tmp_path)
        assert not tmp_path.joinpath("full").exists()

    def test_two_jobs_write_what_one_job_writes(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        # with one arm, only its two folds can run side by side
        for case, arms in (("paper", paper_arms(cfg)), ("one_arm", {"full": cfg})):
            one_dir, two_dir = tmp_path / case / "one", tmp_path / case / "two"
            ablate(arms, tiny_dataset, one_dir)
            ablate(arms, tiny_dataset, two_dir, jobs=2)
            files = sorted(p.relative_to(one_dir)
                           for p in one_dir.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(two_dir)
                                   for p in two_dir.rglob("*") if p.is_file())
            # comparison.json; per arm 2 folds of 2 files
            assert len(files) == 1 + len(arms) * 2 * 2
            for rel in files:
                # a run record names its own checkpoint path
                one, two = ((d / rel).read_bytes().replace(bytes(d), b"")
                            for d in (one_dir, two_dir))
                assert one == two, (case, rel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_split_part_raises_before_any_directory(self, tiny_dataset,
                                                          tmp_path, jobs):
        cfg = tiny_train_config(epochs=1,
                                split=SplitSpec(fractions=(0.95, 0.02, 0.03)))
        with pytest.raises(ValueError, match="leave the validation part of 16 "
                                             "samples empty"):
            ablate({"full": cfg}, tiny_dataset, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_folds_train_on_fewer_samples_than_folds_times_batch_size(
            self, tiny_dataset, tmp_path):
        # every fold splits all 16 samples, so 3 folds at batch size 8 each
        # train 11 samples, as one full batch and one shorter one
        cfg = tiny_train_config(epochs=1, split=SplitSpec(fold_seeds=[11, 12, 13]))
        arms = {"full": cfg, "big": replace(cfg, batch_size=8)}
        out = ablate(arms, tiny_dataset, tmp_path)
        for name in arms:
            assert [r.fold_seed for r in out["results"][name]] == [11, 12, 13]
            for k in range(3):
                fold = tmp_path / name / f"fold{k}"
                assert (fold / "checkpoint.ctxn").is_file()
                assert (fold / "runrecord.json").is_file()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_raise(self, tiny_dataset, tmp_path, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            ablate({"full": tiny_train_config(epochs=1)}, tiny_dataset,
                   tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_no_arms_raises_before_any_directory(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError, match="arm set is empty"):
            ablate({}, tiny_dataset, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestWordSwapProbe:
    def test_noop_swap_bit_exact(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path)
        sample = next(s for s in tiny_dataset if "left" in s.report)
        rep = word_swap_probe(rec.checkpoint, [sample],
                              [("left", "right")], cfg)
        entry = rep["swaps"]["left->right"]["entries"][0]
        # prediction on the original report must be unaffected by the probe
        res = evaluate(rec.checkpoint, [sample], cfg)
        assert entry["orig_dice"] == res.scores[0]

    def test_absent_word_errors(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path)
        with pytest.raises(ValueError, match="no report"):
            word_swap_probe(rec.checkpoint, tiny_dataset[:2],
                            [("zebra", "lion")], cfg)

    # at 0.5 this one-epoch model's masks straddle the axis, so no entry is
    # sided and the flip rate measures nothing; at 0.55 every entry is sided
    SIDED_THRESHOLD = 0.55

    def test_aggregates_hold_fractions(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1, threshold=self.SIDED_THRESHOLD)
        rec = train(cfg, tiny_dataset, tmp_path)
        rep = word_swap_probe(rec.checkpoint, tiny_dataset, [("left", "right")],
                              cfg)
        agg = rep["swaps"]["left->right"]
        assert set(agg) == {"samples", "sided", "flip_rate", "mean_area_ratio",
                            "entries"}
        assert 0 < agg["sided"] <= agg["samples"]
        assert 0.0 <= agg["flip_rate"] <= 1.0

    def test_no_text_probe_ignores_swaps(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1, ablation="no_text",
                                threshold=self.SIDED_THRESHOLD)
        rec = train(cfg, tiny_dataset, tmp_path)
        rep = word_swap_probe(rec.checkpoint, tiny_dataset, [("left", "right")],
                              cfg)
        agg = rep["swaps"]["left->right"]
        assert all(e["iou"] == 1.0 for e in agg["entries"])
        assert agg["sided"] > 0
        assert agg["flip_rate"] == 0.0

    SWAPS = [("left", "right"), ("right", "left"), ("apical", "basal")]

    @staticmethod
    def reference_entries(weights, samples, swaps, cfg) -> dict:
        """The probe's entries from one batch-1 forward per report variant."""
        def pred(sample, report):
            logits = _forward_batch(weights, [sample.image], [report], cfg,
                                    train=False)
            return predict_mask(logits, cfg.threshold)[0, 0]

        entries = {f"{src}->{dst}": [] for src, dst in swaps}
        for si, sample in enumerate(samples):
            for src, dst in swaps:
                swapped = swap_word(sample.report, src, dst)
                if swapped == sample.report:
                    continue
                base, new = pred(sample, sample.report), pred(sample, swapped)
                union = int((base | new).sum())
                entries[f"{src}->{dst}"].append({
                    "index": si,
                    "orig_side": centroid_side(base),
                    "swapped_side": centroid_side(new),
                    "orig_dice": dice(base, sample.mask),
                    "area_ratio": (int(new.sum()) / int(base.sum())
                                   if base.sum() else None),
                    "iou": int((base & new).sum()) / union if union else 1.0,
                })
        return entries

    @pytest.mark.parametrize("arm", ABLATION_ARMS)
    def test_entries_match_separate_forwards(self, tiny_dataset, tmp_path, arm):
        cfg = tiny_train_config(epochs=1, ablation=arm)
        rec = train(cfg, tiny_dataset, tmp_path)
        rep = word_swap_probe(rec.checkpoint, tiny_dataset, self.SWAPS, cfg)
        weights = _as_weights(rec.checkpoint, cfg.model, arm)
        want = self.reference_entries(weights, tiny_dataset, self.SWAPS, cfg)
        assert {k: v["entries"] for k, v in rep["swaps"].items()} == want

    @pytest.mark.parametrize("arm", ABLATION_ARMS)
    def test_two_swaps_run_the_encoder_once(self, tiny_dataset, maxpool2_batches,
                                            arm):
        cfg = tiny_train_config(ablation=arm)
        w = init_weights(cfg.model, arm != "baseline_unet")
        sample = next(s for s in tiny_dataset if "left" in s.report)
        swaps = [("left", "right"), ("left", "bilateral")]
        rep = word_swap_probe(w, [sample], swaps, cfg)
        assert [agg["samples"] for agg in rep["swaps"].values()] == [1, 1]
        assert maxpool2_batches == [1] * cfg.model.depth

    def test_repeated_swap_rejected_before_any_forward(self, tiny_dataset,
                                                       maxpool2_batches):
        # listed twice, each entry of the swap would be counted twice
        cfg = tiny_train_config()
        swaps = [("left", "right"), ("right", "left"), ("left", "right")]
        with pytest.raises(ValueError, match="'left->right' is listed twice"):
            word_swap_probe(init_weights(cfg.model), tiny_dataset, swaps, cfg)
        assert maxpool2_batches == []

    @pytest.mark.parametrize("again", [("LEFT", "right"), ("Left", "right")])
    def test_swap_repeated_in_another_case_rejected(self, tiny_dataset,
                                                    maxpool2_batches, again):
        # swap_word matches the source word in any case, so both are one swap
        cfg = tiny_train_config()
        swaps = [("left", "right"), again]
        key = "->".join(again)
        with pytest.raises(ValueError, match=f"'{key}' is listed twice"):
            word_swap_probe(init_weights(cfg.model), tiny_dataset, swaps, cfg)
        assert maxpool2_batches == []

    def test_target_words_of_another_case_are_two_swaps(self, tiny_dataset):
        # swap_word writes the target word as given
        cfg = tiny_train_config()
        swaps = [("left", "right"), ("left", "RIGHT")]
        rep = word_swap_probe(init_weights(cfg.model), tiny_dataset, swaps, cfg)
        assert list(rep["swaps"]) == ["left->right", "left->RIGHT"]

    def test_absent_swap_word_rejected_before_any_forward(self, tiny_dataset,
                                                          maxpool2_batches):
        cfg = tiny_train_config()
        samples = [s for s in tiny_dataset
                   if swap_word(s.report, "left", "right") != s.report]
        assert samples
        swaps = [("left", "right"), ("zebra", "lion")]
        with pytest.raises(ValueError, match="'zebra->lion' occurs in no report"):
            word_swap_probe(init_weights(cfg.model), samples, swaps, cfg)
        assert maxpool2_batches == []

    def test_empty_target_word_deletes_the_word(self, tiny_dataset):
        cfg = tiny_train_config()
        assert swap_word("a left pneumothorax", "left", "") == "a  pneumothorax"
        rep = word_swap_probe(init_weights(cfg.model), tiny_dataset, [("left", "")],
                              cfg)
        assert rep["swaps"]["left->"]["samples"] == sum(
            swap_word(s.report, "left", "") != s.report for s in tiny_dataset)


class TestAttentionDump:
    def test_file_count_and_tanh_range(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path / "run")
        sample = next(s for s in tiny_dataset if "left" in s.report)
        files = attention_dump(rec.checkpoint, sample, tmp_path / "viz", cfg)
        # 3 kinds x depth levels x 2 report variants
        assert len(files) == 3 * cfg.model.depth * 2
        scales = (tmp_path / "viz" / "scales.txt").read_text().splitlines()
        assert len(scales) == len(files)
        for line in scales:
            if "_tanha_" in line:
                lo = float(line.split("min=")[1].split()[0])
                hi = float(line.split("max=")[1])
                assert -1.0 <= lo <= hi <= 1.0

    def test_no_text_dumps_the_empty_report_for_both_variants(self, tiny_dataset,
                                                              tmp_path):
        cfg = tiny_train_config(ablation="no_text")
        ckpt = tmp_path / "no_text.ctxn"
        save_checkpoint(ckpt, init_weights(cfg.model))
        sample = next(s for s in tiny_dataset if "left" in s.report)
        files = attention_dump(str(ckpt), sample, tmp_path / "viz", cfg)
        origs = sorted(f for f in files if f.endswith("_orig.pgm"))
        assert len(origs) == 3 * cfg.model.depth
        for orig in origs:
            swap = orig.replace("_orig.pgm", "_swap.pgm")
            assert Path(orig).read_bytes() == Path(swap).read_bytes()

    def test_absent_swap_word_rejected_before_any_forward(self, tiny_dataset,
                                                          maxpool2_batches,
                                                          tmp_path):
        # the swap maps would repeat the original maps
        cfg = tiny_train_config()
        sample = next(s for s in tiny_dataset if "left" not in s.report.lower())
        with pytest.raises(ValueError,
                           match="swap source word of 'left->right' occurs in no report"):
            attention_dump(init_weights(cfg.model), sample, tmp_path / "viz", cfg)
        assert maxpool2_batches == []
        assert not (tmp_path / "viz").exists()

    def test_baseline_raises_before_reading_the_checkpoint(self, tiny_dataset,
                                                           tmp_path):
        cfg = tiny_train_config(ablation="baseline_unet")
        with pytest.raises(ValueError, match="no cross-attention"):
            attention_dump(tmp_path / "absent.ctxn", tiny_dataset[0],
                           tmp_path / "viz", cfg)
