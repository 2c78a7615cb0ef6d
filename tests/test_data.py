"""Generator soundness, PGM round trips, Dice oracle, split properties."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseg.data import (GeneratorConfig, Sample, SampleAttrs, SplitSpec,
                         _blur, centroid_side, decode_image, dice, encode_image,
                         generate_dataset, generate_sample, read_dataset,
                         read_pgm, split_indices, write_dataset, write_pgm)
from ctxseg.errors import DataFormatError, ShapeError

from oracles import dice_counters, gaussian_blur_loops

_WORD_RE = re.compile(r"[a-z]+")


def report_consistent(sample: Sample) -> bool:
    """Generator-output consistency: attrs words appear iff attrs claim them."""
    words = set(_WORD_RE.findall(sample.report.lower()))
    at = sample.attrs
    if not at.present:
        return "no" in words and "pneumothorax" in words and sample.mask.sum() == 0
    if sample.mask.sum() == 0:
        return False
    if centroid_side(sample.mask) != at.side:
        return False
    return {at.side, at.zone, at.size, "pneumothorax"} <= words


class TestGenerator:
    def test_odd_image_size_rejected(self):
        # every model depth halves the sides at least once
        with pytest.raises(ValueError, match="image_size must be even, got 33"):
            GeneratorConfig(image_size=33)

    def test_same_seed_bitwise_identical(self):
        cfg = GeneratorConfig()
        a = generate_sample(123, cfg)
        b = generate_sample(123, cfg)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.report == b.report and a.attrs == b.attrs

    def test_absent_gives_empty_mask_and_negative_sentence(self):
        cfg = GeneratorConfig(present_fraction=0.0)
        s = generate_sample(5, cfg)
        assert not s.attrs.present
        assert s.mask.sum() == 0
        assert "no pneumothorax" in s.report.lower()

    def test_mask_side_matches_attrs(self):
        cfg = GeneratorConfig()
        for seed in range(50):
            s = generate_sample(seed, cfg)
            if s.attrs.present:
                assert centroid_side(s.mask) == s.attrs.side

    def test_large_at_least_twice_small_median(self):
        cfg = GeneratorConfig(ambiguous_fraction=0.0)
        small, large = [], []
        for seed in range(400):
            s = generate_sample(seed, cfg)
            (small if s.attrs.size == "small" else large).append(int(s.mask.sum()))
        assert min(large) >= 2 * np.median(small) * 0.95   # rasterization slack

    def test_ambiguous_twin_statistics_match(self):
        # target and mirrored distractor crescents should look alike: compare
        # mean intensity inside the mask vs inside its left-right mirror
        cfg = GeneratorConfig(ambiguous_fraction=1.0)
        t_means, d_means = [], []
        for seed in range(200):
            s = generate_sample(seed, cfg)
            m = s.mask.astype(bool)
            t_means.append(float(s.image[m].mean()))
            d_means.append(float(s.image[m[:, ::-1]].mean()))
        t, d = np.mean(t_means), np.mean(d_means)
        assert abs(t - d) / t < 0.05

    def test_ambiguous_mean_image_is_mirror_symmetric(self):
        # A crescent and its twin must differ only in side, so an image-only
        # model cannot tell them apart: averaged over ambiguous samples, the
        # image equals its own mirror image.
        cfg = GeneratorConfig(ambiguous_fraction=1.0)
        mean = np.mean([generate_sample(seed, cfg).image for seed in range(128)],
                       axis=0)
        assert np.abs(mean - mean[:, ::-1]).max() < 0.02

    def test_invariants_over_many_samples(self):
        cfg = GeneratorConfig(present_fraction=0.9, ambiguous_fraction=0.5)
        for seed in range(10000):
            s = generate_sample(seed, cfg)
            assert report_consistent(s), f"seed {seed}: {s.report} {s.attrs}"
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert set(np.unique(s.mask)) <= {0, 1}
            assert bool(s.mask.sum()) == s.attrs.present


class TestPgm:
    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        arr, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(arr, [[0, 64], [128, 255]])

    def test_16bit_round_trip(self, tmp_path, rng):
        img = rng.random((6, 7)).astype(np.float32)
        path = tmp_path / "img.pgm"
        write_pgm(path, encode_image(img), 65535)
        raw, maxval = read_pgm(path)
        assert maxval == 65535
        back = decode_image(raw)
        assert np.abs(back - img).max() <= 1.0 / 65535

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        arr, _ = read_pgm(path)
        np.testing.assert_array_equal(arr, [[1, 2]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(DataFormatError, match="P5"):
            read_pgm(path)

    def test_short_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(DataFormatError, match="payload"):
            read_pgm(path)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        cfg = GeneratorConfig(n=6, image_size=32)
        samples = generate_dataset(cfg, base_seed=3)
        write_dataset(samples, tmp_path / "d", meta={"n": 6})
        loaded = read_dataset(tmp_path / "d")
        assert len(loaded) == 6
        for a, b in zip(samples, loaded):
            assert np.abs(a.image - b.image).max() <= 1.0 / 65535
            np.testing.assert_array_equal(a.mask, b.mask)
            assert a.report == b.report and a.attrs == b.attrs and a.seed == b.seed

    def test_manifest_line_count(self, tmp_path):
        samples = generate_dataset(GeneratorConfig(n=4, image_size=32), 0)
        write_dataset(samples, tmp_path / "d")
        lines = (tmp_path / "d" / "manifest.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_write_read_write_idempotent(self, tmp_path):
        samples = generate_dataset(GeneratorConfig(n=3, image_size=32), 9)
        write_dataset(samples, tmp_path / "a", meta={"k": 1})
        write_dataset(read_dataset(tmp_path / "a"), tmp_path / "b", meta={"k": 1})
        for rel in ["manifest.jsonl", "meta.json", "images/000000.pgm",
                    "masks/000002.pgm"]:
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()

    def test_malformed_manifest_names_line(self, tmp_path):
        samples = generate_dataset(GeneratorConfig(n=2, image_size=32), 1)
        write_dataset(samples, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps({"id": "000001"})   # missing fields
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_dataset(tmp_path / "d")
        # a report that is no string would reach the tokenizer
        lines[1] = json.dumps({**record, "report": 5})
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError,
                           match="manifest line 2: report must be a string, got 5"):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("kind,maxval", [("images", 65535), ("masks", 255)])
    def test_size_unlike_the_first_image_names_line(self, tmp_path, kind, maxval):
        write_dataset(generate_dataset(GeneratorConfig(n=3, image_size=32), 1),
                      tmp_path / "d")
        write_pgm(tmp_path / "d" / kind / "000002.pgm", np.zeros((32, 36)), maxval)
        with pytest.raises(DataFormatError, match=r"manifest line 3: .*\(32, 36\)"):
            read_dataset(tmp_path / "d")


class TestDice:
    def test_identical_nonempty(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[1:3, 1:3] = 1
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0] = 1
        b[3, 3] = 1
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, :4] = 1          # |A| = 4
        b[0, 2:] = 1
        b[1, :2] = 1          # |B| = 4, overlap 2
        assert dice(a, b) == 0.5

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        assert dice(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dice(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            dice(np.full((2, 2), 2), np.zeros((2, 2)))

    def test_matches_counter_oracle(self, rng):
        for _ in range(100):
            a = (rng.random((16, 16)) > 0.6).astype(np.uint8)
            b = (rng.random((16, 16)) > 0.6).astype(np.uint8)
            assert dice(a, b) == dice_counters(a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, seed):
        r = np.random.default_rng(seed)
        a = (r.random((8, 8)) > 0.5).astype(np.uint8)
        b = (r.random((8, 8)) > 0.5).astype(np.uint8)
        assert dice(a, b) == dice(b, a)


class TestCentroidSide:
    def test_empty_mask_is_unsided(self):
        assert centroid_side(np.zeros((4, 6), dtype=np.uint8)) is None

    def test_split_is_the_mirror_axis(self):
        # column 32 of 64: centroid 0.5 px right of the axis 31.5, no side;
        # columns 32 and 33: centroid 32.5, exactly 1 px right of it. The
        # mirror images (columns 31; 31 and 30) read the same distances left.
        near = np.zeros((4, 64), dtype=np.uint8)
        near[0, 32] = 1
        assert centroid_side(near) is None
        assert centroid_side(near[:, ::-1]) is None
        one_px = np.zeros((4, 64), dtype=np.uint8)
        one_px[0, 32] = one_px[1, 33] = 1
        assert centroid_side(one_px) == "right"
        assert centroid_side(one_px[:, ::-1]) == "left"

    def test_centroid_on_the_axis_is_unsided(self):
        m = np.zeros((4, 64), dtype=np.uint8)
        m[0, 31] = m[1, 32] = 1
        assert centroid_side(m) is None

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_mirror_never_reads_the_same_side(self, seed, h, w, density):
        m = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
        side, mirrored = centroid_side(m), centroid_side(m[:, ::-1])
        assert (side is None) == (mirrored is None)
        assert side is None or side != mirrored


class TestBlur:
    @pytest.mark.parametrize("n,sigma", [
        (32, 2.0),     # the noise field at 32 px
        (64, 4.0),     # the noise field at 64 px
        (32, 0.7),     # a crescent's edge
        (32, 6.0),     # the elastic field at 32 px: radius 24 of 32
        (5, 3.0),      # radius 12 > n: reflected again and again
        (1, 1.0),
    ])
    def test_matches_tap_by_tap_oracle(self, n, sigma, rng):
        img = rng.standard_normal((n, n))
        np.testing.assert_allclose(_blur(img, sigma), gaussian_blur_loops(img, sigma),
                                   rtol=1e-12, atol=1e-14)


class TestSplits:
    def test_fraction_sizes(self):
        tr, va, te = split_indices(100, (0.7, 0.15, 0.15), fold_seed=1)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_same_seed_same_split(self):
        assert split_indices(50, (0.7, 0.15, 0.15), 9) == \
               split_indices(50, (0.7, 0.15, 0.15), 9)

    def test_partition_properties(self):
        spec = SplitSpec(fold_seeds=[1, 2, 3, 4, 5])
        for fold_seed in spec.fold_seeds:
            tr, va, te = split_indices(83, spec.fractions, fold_seed)
            all_idx = sorted(tr + va + te)
            assert all_idx == list(range(83))
            assert not (set(tr) & set(va)) and not (set(tr) & set(te))
            assert not (set(va) & set(te))

    def test_folds_differ(self):
        spec = SplitSpec(fold_seeds=[1, 2])
        (a, _, _), (b, _, _) = (split_indices(40, spec.fractions, fs)
                                for fs in spec.fold_seeds)
        assert a != b

    def test_invalid_fractions(self):
        with pytest.raises(ValueError, match="fractions"):
            split_indices(20, (0.5, 0.2, 0.2), 0)

    @pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.8, -0.1, 0.3),
                                           (0.7, 0.1, 0.1), (0.8, 0.0, 0.2),
                                           (1.0, 0.0, 0.0)],
                             ids=["two_entries", "negative", "sum_0.9",
                                  "zero_validation", "train_only"])
    def test_spec_applies_the_fractions_rule(self, fractions):
        # the rule split_indices applies, so a config that loads also splits
        with pytest.raises(ValueError,
                           match="fractions must be 3 positives summing to 1"):
            SplitSpec(fractions=fractions)

    def test_spec_rejects_a_repeated_fold_seed(self):
        # a repeated seed would train the same fold twice and count it twice
        with pytest.raises(ValueError,
                           match=r"fold_seeds must be distinct, got \[101, 102, 101\]"):
            SplitSpec(fold_seeds=[101, 102, 101])

    def test_empty_part_is_named(self):
        # positive fractions that round the validation part to 0 of 8
        with pytest.raises(ValueError, match=r"split.fractions \(0.9, 0.05, 0.05\) "
                                             "leave the validation part of 8 "
                                             "samples empty"):
            split_indices(8, (0.9, 0.05, 0.05), 1)
