"""Frozen report embeddings.

A report string becomes a fixed-length list of token ids, padded with
PAD_ID, and that list a matrix of per-token vectors that the decoder's
cross-attention consumes as keys and values. The embedder is a frozen
deterministic stand-in for a pretrained language encoder: each token id maps
to a unit-norm vector drawn from a counter-based generator keyed by (seed,
id), so embeddings never train and never change between runs.
"""

from __future__ import annotations

import string
from functools import lru_cache

import numpy as np

from .util import fnv1a_str

PAD_ID = 0
VOCAB_MODULUS = 2 ** 20
_PUNCT = set(string.punctuation)


def _split_punct(word: str):
    """Split leading/trailing/inner punctuation into standalone tokens."""
    out, run = [], []
    for ch in word:
        if ch in _PUNCT:
            if run:
                out.append("".join(run))
                run = []
            out.append(ch)
        else:
            run.append(ch)
    if run:
        out.append("".join(run))
    return out


def token_id(token: str) -> int:
    """FNV-1a hash of the token mod the vocabulary modulus.

    Id 0 is reserved for padding; the (already vanishingly rare) token that
    hashes onto it is bumped to 1.
    """
    tid = fnv1a_str(token) % VOCAB_MODULUS
    return tid if tid else 1


def tokenize(text: str, max_tokens: int) -> list:
    """The max_tokens token ids of `text`: lowercased, split on whitespace
    and punctuation, truncated, then padded with PAD_ID."""
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    tokens = []
    for word in text.lower().split():
        tokens.extend(_split_punct(word))
    ids = [token_id(t) for t in tokens[:max_tokens]]
    return ids + [PAD_ID] * (max_tokens - len(ids))


@lru_cache(maxsize=65536)
def _row(seed: int, tid: int, d_e: int) -> np.ndarray:
    g = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, tid]))
    v = g.standard_normal(d_e)
    v /= np.linalg.norm(v)
    row = v.astype(np.float32)
    row.setflags(write=False)
    return row


def embed(ids: list, d_e: int, seed: int) -> np.ndarray:
    """The (len(ids), d_e) float32 matrix of the frozen unit-norm row of
    each token id, padding included."""
    if d_e < 1:
        raise ValueError(f"d_e must be >= 1, got {d_e}")
    return np.stack([_row(seed, tid, d_e) for tid in ids])
