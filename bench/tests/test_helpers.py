"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import ctxseg.diffcore as dc  # noqa: E402
import ctxseg.diffcore.ops as dc_ops  # noqa: E402
import ctxseg.model as cmodel  # noqa: E402
import ctxseg.train as ctrain  # noqa: E402
import numpy as np  # noqa: E402

from stats import (median, percentile, quartile_spread, samples_for_tail,  # noqa: E402
                   tail_count)
from tracing import Patches, Tracer, clock, layer_shares, wrap  # noqa: E402
from workloads import (P_SLOW, Boundaries, Rate, derive_swaps,  # noqa: E402
                       dice_scores_ok, install_tracing, probe_ok)


# -- percentile rule --------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))            # 1..100
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2   # order of input does not matter


def test_p90_tail_needs_one_hundred_samples():
    assert tail_count(100, 90) == 10
    assert tail_count(99, 90) == 9
    assert samples_for_tail(90) == 100
    assert samples_for_tail(50) == 20


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 90)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartile_spread_matches_statistics():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median(values))


def test_rate_reports_the_lower_quartile_of_call_rates():
    rate = Rate()
    assert rate.per_s is None
    for seconds in (1.0, 0.5, 0.8, 0.4, 2.0, 1.0, 0.9, 0.6):   # 10 items each
        rate.add(10, seconds)
    # rates 5, 10, 10, 11.1, 12.5, 16.7, 20, 25: the 2nd smallest of 8
    assert rate.per_s == 10.0
    assert rate.per_s == percentile(rate.rates, 100 - P_SLOW)
    rate.rank = 50                          # the median: the 4th of 8
    assert rate.per_s == pytest.approx(10 / 0.9)


# -- self-time subtraction --------------------------------------------------

def spin(seconds):
    end = clock() + seconds
    while clock() < end:
        pass


def test_self_time_subtracts_children():
    t = Tracer(scope="outer")
    t.enter("outer")
    spin(0.002)
    t.call("layer.child", spin, (0.010,), {})
    t.call("layer.child", spin, (0.010,), {})
    t.exit()
    child = t.total_s["layer.child"]
    assert t.calls["layer.child"] == 2 and child >= 0.020
    assert t.self_s["layer.child"] == child
    # duration = self + children + the wrappers' bookkeeping around them
    assert t.self_s["outer"] + child + t.scope_uncovered_s == pytest.approx(
        t.total_s["outer"], abs=1e-9)
    assert 0.002 <= t.self_s["outer"] < 0.010


def test_scope_is_covered_by_self_and_uncovered_time():
    t = Tracer(scope="train.step")
    t.enter("train.step")
    t.call("model.forward", lambda: t.call("diffcore.relu.fwd", spin, (0.003,), {}), (), {})
    t.call("augment.augment_sample", spin, (0.002,), {})
    t.exit()
    shares = layer_shares(t)
    assert set(shares) == {"train", "model", "diffcore", "augment", "unattributed"}
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert shares["diffcore"] > shares["augment"] > 0


def test_spans_outside_the_scope_are_not_in_its_shares():
    t = Tracer(scope="train.step")
    t.call("train.evaluate", spin, (0.002,), {})
    assert t.scope_self_s["train.evaluate"] == 0
    assert layer_shares(t) == {}


def test_step_left_open_by_an_exception_is_abandoned():
    t = Tracer(scope="train.step")
    t.enter("train.step")          # opened by hand, closed by adamw_step

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        t.call("model.forward", boom, (), {})
    assert t.calls["model.forward"] == 1 and t.open["train.step"] == 1
    t.abandon_open_spans()
    assert t.open["train.step"] == 0 and not t._stack
    t.call("train.evaluate", spin, (0.001,), {})
    assert t.scope_self_s["train.evaluate"] == 0


# -- swap derivation and output checks -------------------------------------

@pytest.mark.parametrize("report, swaps", [
    ("There is a small left apical pneumothorax.", [("left", "right"), ("small", "large")]),
    ("A large right basal pneumothorax is seen.", [("right", "left"), ("large", "small")]),
    ("Findings show a LARGE Left apical pneumothorax.", [("left", "right"), ("large", "small")]),
    ("No pneumothorax. Heart size is normal.", []),
    ("The leftover brightness is smaller.", []),      # whole words only
])
def test_derive_swaps(report, swaps):
    assert derive_swaps(report) == swaps


def test_output_checks():
    assert dice_scores_ok([0.0, 0.5, 1.0], 3)
    assert not dice_scores_ok([0.5], 2)
    assert not dice_scores_ok([1.5], 1)
    assert not dice_scores_ok([float("nan")], 1)
    swaps = [("left", "right")]
    assert probe_ok({"swaps": {"left->right": {"samples": 1}}}, swaps)
    assert not probe_ok({"swaps": {}}, swaps)
    assert not probe_ok({"swaps": {"left->right": {"samples": 2}}}, swaps)


# -- wrappers put the originals back ----------------------------------------

def bound_functions():
    names = {
        dc: ("conv2d", "matmul", "bce_with_logits", "backward", "adamw_step",
             "save_checkpoint", "load_checkpoint"),
        dc_ops: ("conv2d", "scale", "sum_all"),
        cmodel: ("text_gated_forward", "unet_forward", "cross_attention"),
        ctrain: ("augment_sample", "embed", "tokenize", "text_gated_forward",
                 "unet_forward", "evaluate", "word_swap_probe"),
    }
    return {(m.__name__, n): getattr(m, n) for m, ns in names.items() for n in ns}


def test_patches_restore_every_original():
    before = bound_functions()
    tracer = Tracer()
    with Patches() as patches:
        install_tracing(patches, tracer)
        Boundaries(tracer).install(patches)
        during = bound_functions()
        assert all(during[k] is not before[k] for k in before)
    assert bound_functions() == before


def test_patches_restore_after_an_exception():
    before = dc.conv2d
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.set(dc, "conv2d", wrap(Tracer(), "x", dc.conv2d))
            raise RuntimeError
    assert dc.conv2d is before


def test_traced_op_times_forward_and_backward():
    tracer = Tracer()
    with Patches() as patches:
        install_tracing(patches, tracer)
        a = dc.DiffTensor(np.ones((2, 3)), requires_grad=True)
        b = dc.DiffTensor(np.ones((3, 2)), requires_grad=True)
        loss = dc.mean_all(dc.matmul(a, b))
        dc.backward(loss)
    assert tracer.calls["diffcore.matmul.fwd"] == 1
    assert tracer.calls["diffcore.matmul.bwd"] == 1
    # mean_all is built from scale and sum_all; their closures stay theirs
    assert tracer.calls["diffcore.scale.bwd"] == 1
    assert tracer.calls["diffcore.sum_all.bwd"] == 1
    assert tracer.calls["diffcore.mean_all.bwd"] == 0
    assert tracer.calls["diffcore.backward"] == 1
    np.testing.assert_allclose(a.grad, np.full((2, 3), 0.5))
