"""Training loop contracts, cross-validation, ablation table, probes."""

import json
import math
import statistics
import types
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from ctxseg.augment import AugmentPolicy, swap_word
from ctxseg.data import (GeneratorConfig, SplitSpec, centroid_side, dice,
                         generate_dataset)
from ctxseg.diffcore import bce_with_logits, load_checkpoint, save_checkpoint
from ctxseg.errors import DataFormatError, ShapeError
from ctxseg.model import ModelConfig, init_weights, predict_mask
from ctxseg.train import (ABLATION_ARMS, TrainConfig, _as_weights, _forward_batch,
                          ablate, attention_dump, cross_validate, evaluate,
                          paper_arms, train, word_swap_probe)


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
        assert a.test_dice_mean == b.test_dice_mean

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
        res = cross_validate(cfg, tiny_dataset, tmp_path)
        assert len(res.records) == 5
        assert res.sd >= 0
        res2 = cross_validate(cfg, tiny_dataset, tmp_path / "again")
        for a, b in zip(res.records, res2.records):
            assert a.fold_seed == b.fold_seed
            assert a.test_scores == b.test_scores


class TestAblate:
    def test_four_arms_shared_folds(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        arms = paper_arms(cfg)
        out = ablate(arms, tiny_dataset, tmp_path)
        assert list(out["summary"]) == list(arms)
        folds = {arm: [r.fold_seed for r in cv.records]
                 for arm, cv in out["results"].items()}
        assert len({tuple(v) for v in folds.values()}) == 1
        # each arm's records echo the config it was given
        for arm, cv in out["results"].items():
            assert cv.records[0].config == asdict(arms[arm])

    def test_csv_rows(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        ablate(paper_arms(cfg), tiny_dataset, tmp_path)
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "arm,fold,dice,sd"
        assert len(lines) == 1 + 4 * len(cfg.split.fold_seeds)

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
            "comparison.csv", "comparison.json", "none", "safe"]
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
        arms = paper_arms(tiny_train_config(epochs=1))
        ablate(arms, tiny_dataset, tmp_path / "one")
        ablate(arms, tiny_dataset, tmp_path / "two", jobs=2)
        files = sorted(p.relative_to(tmp_path / "one")
                       for p in (tmp_path / "one").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "two")
                               for p in (tmp_path / "two").rglob("*") if p.is_file())
        assert len(files) == 2 + 4 * (1 + 2 * 2)   # cv.json, 2 folds of 2 files
        for rel in files:
            # a run record names its own checkpoint path
            one, two = ((tmp_path / d / rel).read_bytes().replace(bytes(tmp_path / d), b"")
                        for d in ("one", "two"))
            assert one == two, rel


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

    def test_aggregates_hold_fractions(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1)
        rec = train(cfg, tiny_dataset, tmp_path)
        rep = word_swap_probe(rec.checkpoint, tiny_dataset, [("left", "right")],
                              cfg)
        agg = rep["swaps"]["left->right"]
        assert set(agg) == {"samples", "flip_rate", "mean_area_ratio", "entries"}
        assert 0.0 <= agg["flip_rate"] <= 1.0

    def test_no_text_probe_ignores_swaps(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=1, ablation="no_text")
        rec = train(cfg, tiny_dataset, tmp_path)
        rep = word_swap_probe(rec.checkpoint, tiny_dataset, [("left", "right")],
                              cfg)
        agg = rep["swaps"]["left->right"]
        assert all(e["iou"] == 1.0 for e in agg["entries"])
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

    def test_baseline_raises_before_reading_the_checkpoint(self, tiny_dataset,
                                                           tmp_path):
        cfg = tiny_train_config(ablation="baseline_unet")
        with pytest.raises(ValueError, match="no cross-attention"):
            attention_dump(tmp_path / "absent.ctxn", tiny_dataset[0],
                           tmp_path / "viz", cfg)
