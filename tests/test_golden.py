"""Byte-identity guard: SHA-256 digests of generated and augmented samples.

The digests were taken from the generator and augmentations as they were
before the blur and the warp samplers became plain numpy (the earlier
implementation called scipy.ndimage), on the float32 images, uint8 masks and
reports. A change that moves any byte of the data the paper-claim test
trains on fails here.
"""

import hashlib

import pytest

from ctxseg.augment import AugmentPolicy, augment_sample
from ctxseg.data import GeneratorConfig, generate_dataset

BASE_SEED = 2303

GENERATED = {
    64: "3849bc0d1776e6d40383d0425869864fc8f65f2c88b1578ae775abc80bbcf38e",
    32: "cbc38bc907f33ee27c5ec6180035efa153a440f51905768cb710c3358319d68b",
}
# 200 seeds under p_distort = p_ssr = 1, so every sample is warped: elastic,
# grid and optical distortions, then a shift-scale-rotate
AUGMENTED = "2466ef1f34ba410e9a710c0aba72b19c7c0f9a68d9aaf7351b6d40a9d1d4664e"


def _digest(samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(s.image.tobytes())
        h.update(s.mask.tobytes())
        h.update(s.report.encode())
    return h.hexdigest()


def _dataset(size):
    return generate_dataset(GeneratorConfig(n=16, image_size=size),
                            base_seed=BASE_SEED)


@pytest.mark.parametrize("size", sorted(GENERATED))
def test_generated_samples_keep_their_bytes(size):
    assert _digest(_dataset(size)) == GENERATED[size]


def test_augmented_samples_keep_their_bytes():
    base = _dataset(64)
    policy = AugmentPolicy(p_distort=1.0, p_ssr=1.0)
    out = (augment_sample(base[k % 16], policy, k) for k in range(200))
    assert _digest(out) == AUGMENTED
