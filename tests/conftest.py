import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ctxseg.diffcore as dc
from ctxseg.diffcore import set_verify


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def verify64():
    """Run a test in 64-bit verification mode, restoring 32-bit afterwards."""
    set_verify(True)
    yield
    set_verify(False)


@pytest.fixture
def maxpool2_batches(monkeypatch):
    """The batch size of every `maxpool2` call made during the test."""
    calls = []
    pool = dc.maxpool2

    def counted(x):
        calls.append(x.data.shape[0])
        return pool(x)

    monkeypatch.setattr(dc, "maxpool2", counted)
    return calls
