"""Identity, concordance, determinism, and statistics of the augmentations."""

import numpy as np
import pytest

from ctxseg.augment import (DEFAULT_LEXICON, AugmentPolicy, _bilinear, _nearest,
                            augment_sample, geometric_distort, hflip, photometric,
                            sentence_shuffle, swap_word, synonym_replace)
from ctxseg.data import (GeneratorConfig, Sample, SampleAttrs, centroid_side,
                         generate_sample)
from ctxseg.util import rng_from

from oracles import bilinear_loops, nearest_loops


def make_sample(seed=0, **kwargs):
    return generate_sample(seed, GeneratorConfig(**kwargs))


def disk_sample(radius=12, size=64, cx=None, cy=None):
    yy, xx = np.mgrid[0:size, 0:size]
    cx = size // 2 if cx is None else cx
    cy = size // 2 if cy is None else cy
    mask = ((xx - cx) ** 2 + (yy - cy) ** 2 <= radius * radius).astype(np.uint8)
    image = 0.3 + 0.4 * mask.astype(np.float32)
    attrs = SampleAttrs(True, "left" if cx < size / 2 else "right",
                        "apical", "small", False)
    return Sample(image=image, mask=mask, report="synthetic disk.", attrs=attrs,
                  seed=0)


class TestHflip:
    def test_double_flip_is_identity(self):
        s = make_sample(3)
        back = hflip(hflip(s))
        assert back.image.tobytes() == s.image.tobytes()
        assert back.mask.tobytes() == s.mask.tobytes()

    def test_column_mapping(self):
        s = make_sample(4)
        flipped = hflip(s)
        w = s.image.shape[1]
        for c in (0, 5, w - 1):
            np.testing.assert_array_equal(flipped.image[:, c],
                                          s.image[:, w - 1 - c])

    def test_breaks_concordance(self):
        for seed in range(30):
            s = make_sample(seed)
            if s.attrs.present:
                flipped = hflip(s)
                assert flipped.report == s.report
                assert centroid_side(flipped.mask) != s.attrs.side
                assert flipped.attrs.side == s.attrs.side   # attrs keep the claim


class TestPhotometric:
    def test_identity_magnitudes(self, rng):
        img = rng.random((16, 16)).astype(np.float32)
        np.testing.assert_allclose(photometric(img, "gamma", 1.0), img, atol=1e-7)
        np.testing.assert_allclose(photometric(img, "contrast", 1.0), img,
                                   atol=1e-7)
        np.testing.assert_allclose(photometric(img, "brightness", 0.0), img,
                                   atol=1e-7)

    def test_output_stays_in_range(self, rng):
        img = rng.random((16, 16)).astype(np.float32)
        for kind, mag in (("brightness", 0.2), ("brightness", -0.2),
                          ("contrast", 1.2), ("contrast", 0.8),
                          ("gamma", 0.8), ("gamma", 1.25)):
            out = photometric(img, kind, mag)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_contrast_hand_formula(self):
        img = np.array([[0.2, 0.6]], dtype=np.float32)
        out = photometric(img, "contrast", 1.2)
        mu = 0.4
        np.testing.assert_allclose(
            out, [[mu + 1.2 * (0.2 - mu), mu + 1.2 * (0.6 - mu)]], atol=1e-6)

    def test_out_of_range_magnitude(self):
        img = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            photometric(img, "brightness", 0.5)
        with pytest.raises(ValueError):
            photometric(img, "contrast", 1.5)
        with pytest.raises(ValueError):
            photometric(img, "gamma", 2.0)


class TestGeometric:
    @pytest.mark.parametrize("kind,params", [
        ("elastic", {"alpha": 0.0, "sigma": 6.0}),
        ("grid", {"cells": 4, "jitter": 0.0}),
        ("optical", {"k": 0.0}),
        ("ssr", {"shift_x": 0.0, "shift_y": 0.0, "scale": 1.0, "rot": 0.0}),
    ])
    def test_zero_magnitude_is_identity(self, kind, params):
        s = make_sample(11)
        out = geometric_distort(s, kind, params, rng_from(0))
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.mask, s.mask)

    def test_mask_stays_binary(self):
        s = make_sample(12)
        rng = rng_from(5)
        for kind, params in (("elastic", {"alpha": 2.5, "sigma": 6.0}),
                             ("grid", {"cells": 4, "jitter": 0.15}),
                             ("optical", {"k": 0.15}),
                             ("ssr", {"shift_x": 0.05, "shift_y": -0.03,
                                      "scale": 1.05, "rot": 8.0})):
            out = geometric_distort(s, kind, params, rng)
            assert set(np.unique(out.mask)) <= {0, 1}

    def test_rotation_preserves_disk_area(self):
        s = disk_sample(radius=12)
        out = geometric_distort(
            s, "ssr", {"shift_x": 0.0, "shift_y": 0.0, "scale": 1.0, "rot": 10.0},
            rng_from(1))
        before, after = int(s.mask.sum()), int(out.mask.sum())
        assert abs(after - before) / before < 0.03

    def test_offframe_mask_rejected_and_passed_through(self):
        # disk hugging the left edge: a large right shift pushes it out
        s = disk_sample(radius=10, cx=6, cy=32)
        policy = AugmentPolicy(p_photometric=0.0, p_distort=0.0, p_ssr=1.0)

        # force a huge leftward shift through geometric_distort directly
        from ctxseg.errors import RejectedSample
        with pytest.raises(RejectedSample):
            geometric_distort(s, "ssr", {"shift_x": -0.5, "shift_y": 0.0,
                                         "scale": 1.0, "rot": 0.0}, rng_from(2))
        # the pipeline-level retry then pass-through keeps the sample intact
        out = augment_sample(s, policy, seed=3)
        assert set(np.unique(out.mask)) <= {0, 1}


class TestSamplers:
    def test_nearest_reads_the_closed_frame(self):
        img = (np.arange(36, dtype=np.uint8) + 1).reshape(6, 6)
        col = np.full(4, 2.0)
        out = _nearest(img, np.array([-1e-9, 5.0000001, 5.0, 0.5]), col)
        np.testing.assert_array_equal(out, [0, 0, img[5, 2], img[1, 2]])
        out = _nearest(img, col, np.array([-1e-9, 5.0000001, 5.0, 0.5]))
        np.testing.assert_array_equal(out, [0, 0, img[2, 5], img[2, 1]])

    def test_both_match_oracles_on_the_edges(self, rng):
        # n = 6: the closed frame is [0, 5] on each axis
        edges = [-1e-9, 0.0, 0.5, 2.5, 4.5, 5.0, 5.0000001, -3.7, 9.2]
        cy, cx = np.meshgrid(edges, edges, indexing="ij")
        mask = (np.arange(36, dtype=np.uint8) + 1).reshape(6, 6)
        np.testing.assert_array_equal(_nearest(mask, cy, cx), nearest_loops(mask, cy, cx))
        img = rng.random((6, 6))
        np.testing.assert_allclose(_bilinear(img, cy, cx), bilinear_loops(img, cy, cx),
                                   rtol=1e-12, atol=1e-14)

    def test_bilinear_hits_the_grid_exactly(self, rng):
        img = rng.random((6, 6))
        yy, xx = np.mgrid[0:6, 0:6].astype(np.float64)
        np.testing.assert_array_equal(_bilinear(img, yy, xx), img)

    @pytest.mark.parametrize("n", [2, 7, 33])
    def test_both_match_oracles_on_wide_random_fields(self, n, rng):
        img = rng.random((n, n)).astype(np.float32)
        mask = (rng.random((n, n)) < 0.5).astype(np.uint8)
        for _ in range(5):
            cy = rng.uniform(-5, n + 5, (n, n))
            cx = rng.uniform(-5, n + 5, (n, n))
            np.testing.assert_allclose(_bilinear(img, cy, cx),
                                       bilinear_loops(img, cy, cx),
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(_nearest(mask, cy, cx),
                                          nearest_loops(mask, cy, cx))


class TestText:
    def test_single_sentence_unchanged(self):
        assert sentence_shuffle("Only one sentence.", rng_from(0)) == \
               "Only one sentence."

    def test_multiset_preserved(self):
        text = "First thing. Second thing! Third thing?"
        out = sentence_shuffle(text, rng_from(7))
        want = {"First thing.", "Second thing!", "Third thing?"}
        got = set()
        for piece in out.replace("!", "!|").replace("?", "?|").replace(".", ".|").split("|"):
            if piece.strip():
                got.add(piece.strip())
        assert got == want

    def test_fixed_seed_fixed_permutation(self):
        text = "A one. B two. C three."
        assert sentence_shuffle(text, rng_from(3)) == \
               sentence_shuffle(text, rng_from(3))

    def test_synonym_p0_unchanged(self):
        text = "There is a pneumothorax."
        assert synonym_replace(text, DEFAULT_LEXICON, 0.0, rng_from(0)) == text

    def test_synonym_p1_replaces_all(self):
        text = "pneumothorax and Pneumothorax."
        out = synonym_replace(text, {"pneumothorax": ["ptx"]}, 1.0, rng_from(0))
        assert out == "ptx and ptx."

    def test_replacement_frequency(self):
        # 10,000 independent draws at p=0.15: frequency within the binomial
        # 99.9% interval [0.14, 0.16] (slightly wider than 3.3 sigma = 0.0118)
        lex = {"term": ["syn"]}
        rng = rng_from(99)
        hits = 0
        for _ in range(10000):
            if synonym_replace("term", lex, 0.15, rng) == "syn":
                hits += 1
        assert 0.14 <= hits / 10000 <= 0.16

    def test_swap_word_is_word_bounded(self):
        assert swap_word("left leftover cleft", "left", "right") == \
               "right leftover cleft"


class TestPipeline:
    def test_all_probabilities_zero_is_identity(self):
        s = make_sample(20)
        policy = AugmentPolicy(p_photometric=0.0, p_distort=0.0, p_ssr=0.0,
                               p_hflip=0.0)
        out = augment_sample(s, policy, seed=1)
        assert out.image.tobytes() == s.image.tobytes()
        assert out.mask.tobytes() == s.mask.tobytes()
        assert out.report == s.report

    def test_deterministic_in_seed(self):
        s = make_sample(21)
        policy = AugmentPolicy(text_shuffle=True, text_synonym_p=0.15)
        a = augment_sample(s, policy, seed=77)
        b = augment_sample(s, policy, seed=77)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.report == b.report

    def test_default_policy_preserves_side_concordance(self):
        # with p_hflip = 0 the recorded side always matches the mask centroid
        policy = AugmentPolicy()
        checked = 0
        for seed in range(1000):
            s = make_sample(seed)
            out = augment_sample(s, policy, seed=seed)
            if out.mask.sum():
                assert centroid_side(out.mask) == s.attrs.side, f"seed {seed}"
                checked += 1
        assert checked > 900

    def test_mask_and_range_preserved(self):
        policy = AugmentPolicy(p_photometric=1.0, p_distort=1.0, p_ssr=1.0)
        for seed in range(50):
            out = augment_sample(make_sample(seed), policy, seed=seed)
            assert set(np.unique(out.mask)) <= {0, 1}
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            AugmentPolicy(p_hflip=1.5)

    @pytest.mark.parametrize("value", ["false", "yes", 1, 0, None])
    def test_text_shuffle_must_be_a_bool(self, value):
        # a truthy non-bool such as the string "false" would turn shuffling on
        with pytest.raises(ValueError,
                           match=f"text_shuffle must be a bool, got {value!r}"):
            AugmentPolicy(text_shuffle=value)
        assert AugmentPolicy(text_shuffle=False).text_shuffle is False
