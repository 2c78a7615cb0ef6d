"""AdamW update semantics and checkpoint round trips."""

import numpy as np
import pytest

import ctxseg.diffcore as dc
from ctxseg.diffcore import DiffTensor
from ctxseg.errors import DataFormatError, NumericalError, ShapeError

from oracles import AdamWReferenceState, adamw_step_reference


class TestAdamW:
    def test_pure_decay_scales_parameters(self):
        p = DiffTensor(np.array([10.0, -4.0]), requires_grad=True)
        dc.adamw_step({"p": p}, dc.AdamWState(lr=0.1))
        np.testing.assert_allclose(p.data, [9.99, -3.996], rtol=1e-6)

    def test_one_step_hand_recursion(self, verify64):
        theta0, g, lr = 1.25, 2.0, 1e-3
        beta1, beta2, eps, wd = 0.9, 0.999, 1e-8, 0.01
        p = DiffTensor(np.array(theta0), requires_grad=True)
        p.grad = np.array(g, dtype=p.data.dtype)
        dc.adamw_step({"p": p}, dc.AdamWState(lr=lr))
        m = (1 - beta1) * g
        v = (1 - beta2) * g * g
        m_hat = m / (1 - beta1)
        v_hat = v / (1 - beta2)
        want = theta0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta0)
        assert abs(float(p.data) - want) < 1e-10

    def test_step_count_increments_once_per_step(self):
        p = DiffTensor(np.ones(2), requires_grad=True)
        state = dc.AdamWState(lr=0.1)
        for want in (1, 2, 3):
            p.grad = np.ones(2, dtype=p.data.dtype)
            dc.adamw_step({"p": p}, state)
            assert state.step_count == want

    def test_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(7)
            p = DiffTensor(rng.standard_normal(16), requires_grad=True)
            state = dc.AdamWState(lr=3e-4)
            for _ in range(25):
                p.grad = rng.standard_normal(16).astype(p.data.dtype)
                dc.adamw_step({"p": p}, state)
            return p.data.tobytes()

        assert run() == run()

    def test_frozen_parameters_skipped(self):
        # a frozen tensor keeps its data and whatever gradient it holds
        frozen = DiffTensor(np.ones(3), requires_grad=False)
        live = DiffTensor(np.ones(3), requires_grad=True)
        g = frozen.grad = np.full(3, 2.0, dtype=np.float32)
        live.grad = np.ones(3, dtype=live.data.dtype)
        dc.adamw_step({"f": frozen, "l": live}, dc.AdamWState(lr=0.1))
        np.testing.assert_array_equal(frozen.data, np.ones(3))
        assert frozen.grad is g
        np.testing.assert_array_equal(g, np.full(3, 2.0))
        assert not np.array_equal(live.data, np.ones(3))

    def test_step_releases_every_applied_gradient(self):
        params = {k: DiffTensor(np.ones(3), requires_grad=True) for k in "ab"}
        state = dc.AdamWState(lr=0.1)
        for _ in range(2):
            params["a"].grad = np.ones(3, dtype=np.float32)
            dc.adamw_step(params, state)
            assert all(p.grad is None for p in params.values())

    def test_matches_per_parameter_reference_bit_for_bit(self):
        # "frozen" has a gradient it must ignore; "nograd" has none at odd
        # steps
        rng = np.random.default_rng(3)
        init = {"a": rng.standard_normal((3, 4)), "frozen": rng.standard_normal(2),
                "nograd": rng.standard_normal(5), "b": rng.standard_normal((2, 3))}

        def make():
            return {k: DiffTensor(a, requires_grad=k != "frozen")
                    for k, a in init.items()}

        got, want = make(), make()
        state, state_ref = dc.AdamWState(lr=1e-2), AdamWReferenceState(lr=1e-2)
        for step in range(1, 6):
            grads = {k: rng.standard_normal(a.shape) for k, a in init.items()}
            for params in (got, want):
                for k, p in params.items():
                    p.grad = (None if k == "nograd" and step % 2
                              else grads[k].astype(p.data.dtype))
            dc.adamw_step(got, state)
            adamw_step_reference(want, state_ref)
            assert state.step_count == state_ref.step_count == step
            for k in init:
                np.testing.assert_array_equal(got[k].data, want[k].data, err_msg=k)
            assert list(state_ref.m) == ["a", "nograd", "b"]
            assert state.layout == [(k, state_ref.m[k].shape) for k in state_ref.m]
            for flat, ref in ((state.m, state_ref.m), (state.v, state_ref.v)):
                np.testing.assert_array_equal(
                    flat, np.concatenate([a.ravel() for a in ref.values()]))
        np.testing.assert_array_equal(got["frozen"].data, init["frozen"].astype(np.float32))

    @pytest.mark.parametrize("earlier_steps", [0, 2])
    def test_rejected_step_changes_nothing(self, earlier_steps):
        params = {k: DiffTensor(np.ones(3), requires_grad=True) for k in "abc"}
        state = dc.AdamWState(lr=0.1)
        for _ in range(earlier_steps):
            for p in params.values():
                p.grad = np.full(3, 0.5, dtype=p.data.dtype)
            dc.adamw_step(params, state)
        data = {k: p.data.copy() for k, p in params.items()}
        m, v, layout = state.m, state.v, list(state.layout)
        moments = None if m is None else (m.copy(), v.copy())
        params["a"].grad = np.ones(3, dtype=np.float32)
        params["b"].grad = np.array([1.0, np.nan, 1.0], dtype=np.float32)
        params["c"].grad = np.array([np.inf, 1.0, 1.0], dtype=np.float32)
        grads = {k: p.grad for k, p in params.items()}
        with pytest.raises(NumericalError, match="'b'"):
            dc.adamw_step(params, state)
        assert all(p.grad is grads[k] for k, p in params.items())
        assert state.step_count == earlier_steps
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, data[k])
        assert state.layout == layout
        if earlier_steps == 0:
            assert state.m is None and state.v is None and state.layout == []
        else:
            assert state.m is m and state.v is v
            np.testing.assert_array_equal(m, moments[0])
            np.testing.assert_array_equal(v, moments[1])

    @pytest.mark.parametrize("change, name", [
        ("added", "d"), ("dropped", "b"), ("reordered", "c"), ("reshaped", "b")])
    def test_changed_parameter_set_rejected(self, change, name):
        params = {k: DiffTensor(np.full((2, 3), i + 1.0), requires_grad=True)
                  for i, k in enumerate("abc")}
        state = dc.AdamWState(lr=0.1)
        for _ in range(2):
            for p in params.values():
                p.grad = np.full((2, 3), 0.5, dtype=p.data.dtype)
            dc.adamw_step(params, state)
        if change == "added":
            params["d"] = DiffTensor(np.ones((2, 3)), requires_grad=True)
        elif change == "dropped":
            del params["b"]
        elif change == "reordered":
            params = {k: params[k] for k in "acb"}
        else:
            params["b"] = DiffTensor(np.ones(6), requires_grad=True)
        for p in params.values():
            p.grad = np.ones(p.data.shape, dtype=p.data.dtype)
        data = {k: p.data.copy() for k, p in params.items()}
        m, v, layout = state.m, state.v, list(state.layout)
        moments = (m.copy(), v.copy())
        grads = {k: p.grad for k, p in params.items()}
        with pytest.raises(ShapeError, match=f"'{name}'"):
            dc.adamw_step(params, state)
        assert all(p.grad is grads[k] for k, p in params.items())
        assert state.step_count == 2
        assert state.layout == layout
        assert state.m is m and state.v is v
        np.testing.assert_array_equal(m, moments[0])
        np.testing.assert_array_equal(v, moments[1])
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, data[k])

    def test_moment_shape_mismatch_rejected(self):
        p = DiffTensor(np.ones(3), requires_grad=True)
        state = dc.AdamWState(lr=0.1)
        dc.adamw_step({"p": p}, state)
        with pytest.raises(ShapeError, match="'p'"):
            dc.adamw_step({"p": DiffTensor(np.ones(4), requires_grad=True)}, state)
        assert state.step_count == 1

    def test_no_trainable_parameter_rejected(self):
        state = dc.AdamWState(lr=0.1)
        with pytest.raises(ValueError, match="trainable"):
            dc.adamw_step({"f": DiffTensor(np.ones(3))}, state)
        assert state.step_count == 0 and state.m is None

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            dc.AdamWState(lr=0.0)


class TestCheckpoint:
    def test_round_trip_preserves_values_and_order(self, tmp_path, rng):
        tensors = {
            "enc1.conv1.w": DiffTensor(rng.standard_normal((4, 1, 3, 3))),
            "enc1.conv1.b": DiffTensor(np.zeros(4)),
            "head.w": DiffTensor(rng.standard_normal((1, 4, 1, 1))),
        }
        path = tmp_path / "model.ctxn"
        dc.save_checkpoint(path, tensors)
        loaded = dc.load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for name, t in tensors.items():
            np.testing.assert_array_equal(loaded[name],
                                          t.data.astype(np.float32))

    def test_byte_exact_round_trip(self, tmp_path, rng):
        tensors = {f"t{i}": rng.standard_normal((3, 5)).astype(np.float32)
                   for i in range(4)}
        p1, p2 = tmp_path / "a.ctxn", tmp_path / "b.ctxn"
        dc.save_checkpoint(p1, tensors)
        dc.save_checkpoint(p2, dc.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctxn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            dc.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "trunc.ctxn"
        dc.save_checkpoint(path, {"w": rng.standard_normal((8, 8))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(DataFormatError, match="truncated"):
            dc.load_checkpoint(path)

    def test_name_that_is_not_utf8(self, tmp_path):
        # a UnicodeDecodeError would leave the CLI as exit 1, not 2
        path = tmp_path / "name.ctxn"
        dc.save_checkpoint(path, {"wq": np.zeros(2)})
        blob = path.read_bytes()
        at = blob.index(b"wq")
        path.write_bytes(blob[:at + 1] + b"\xff" + blob[at + 2:])
        with pytest.raises(DataFormatError,
                           match=f"tensor name at byte {at + 1} is not UTF-8"):
            dc.load_checkpoint(path)

    def test_scalar_tensor(self, tmp_path):
        path = tmp_path / "s.ctxn"
        dc.save_checkpoint(path, {"s": np.array(3.5, dtype=np.float32)})
        loaded = dc.load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert loaded["s"] == np.float32(3.5)
