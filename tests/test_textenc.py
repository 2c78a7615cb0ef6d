"""Tokenizer determinism and the frozen embedding contract."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseg.textenc import PAD_ID, VOCAB_MODULUS, embed, token_id, tokenize


def _ids(*tokens):
    return [token_id(t) for t in tokens]


class TestTokenize:
    def test_punctuation_splits(self):
        assert tokenize("Large left pneumothorax.", max_tokens=8) == (
            _ids("large", "left", "pneumothorax", ".") + [PAD_ID] * 4)

    def test_empty_text(self):
        assert tokenize("", max_tokens=5) == [PAD_ID] * 5

    def test_repeated_token_same_id(self):
        ids = tokenize("Left left", max_tokens=4)
        assert ids[0] == ids[1]

    def test_truncation(self):
        assert tokenize("a b c d e f", max_tokens=3) == _ids("a", "b", "c")

    def test_ids_never_collide_with_pad(self):
        words = "the of and a to in is was on for pneumothorax left right".split()
        assert all(0 < token_id(w) < VOCAB_MODULUS for w in words)

    @given(st.text(max_size=80), st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_tokenize_is_pure_and_padded(self, text, max_tokens):
        a = tokenize(text, max_tokens)
        assert a == tokenize(text, max_tokens)
        assert len(a) == max_tokens
        # real tokens first, then only padding
        valid = sum(tid != PAD_ID for tid in a)
        assert a[valid:] == [PAD_ID] * (max_tokens - valid)


class TestEmbed:
    def test_same_token_same_row(self):
        ids = tokenize("left apical left", max_tokens=4)
        emb = embed(ids, d_e=16, seed=3)
        np.testing.assert_array_equal(emb[0], emb[2])

    def test_bitwise_reproducible(self):
        ids = tokenize("no pleural effusion.", max_tokens=8)
        a = embed(ids, d_e=32, seed=11)
        b = embed(ids, d_e=32, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_rows(self):
        ids = tokenize("pneumothorax", max_tokens=2)
        a = embed(ids, d_e=32, seed=1)
        b = embed(ids, d_e=32, seed=2)
        assert not np.array_equal(a, b)

    def test_rows_unit_norm(self):
        ids = tokenize("there is a small right basal pneumothorax.", max_tokens=16)
        emb = embed(ids, d_e=24, seed=0)
        assert emb.shape == (16, 24) and emb.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0,
                                   atol=1e-6)

    def test_padding_rows_identical(self):
        emb = embed(tokenize("one", max_tokens=6), d_e=8, seed=5)
        for row in emb[2:]:
            np.testing.assert_array_equal(row, emb[1])

    def test_collision_rate_small_vocabulary(self):
        # per-pair collision probability below 1e-4 for a 1000-word vocabulary
        from collections import Counter
        words = [f"w{i}" for i in range(1000)]
        counts = Counter(token_id(w) for w in words)
        pairs = sum(v * (v - 1) // 2 for v in counts.values())
        assert pairs / (1000 * 999 / 2) < 1e-4

    def test_generator_vocabulary_collision_free(self):
        import re
        from ctxseg.data import (DISTRACTOR_SENTENCES, FINDING_TEMPLATES,
                                 NEGATIVE_SENTENCES)
        vocab = {"left", "right", "apical", "basal", "small", "large"}
        for t in FINDING_TEMPLATES + DISTRACTOR_SENTENCES + NEGATIVE_SENTENCES:
            vocab |= set(re.findall(r"[a-z]+", t.lower()))
        assert len({token_id(w) for w in vocab}) == len(vocab)
