"""Forward oracles and gradient checks for every differentiable primitive."""

import gc
import itertools
import math

import numpy as np
import pytest

import ctxseg.diffcore as dc
from ctxseg.diffcore import DiffTensor, backward, ops, tensor
from ctxseg.diffcore.ops import _conv
from ctxseg.errors import GraphError, NumericalError, ShapeError

from gradcheck import finite_diff_check
from oracles import (attention_gate_reference, batchnorm_train_direct,
                     conv2d_loops, conv2d_reference, conv_bn_relu_reference,
                     matmul_loops, maxpool2_loops, rowsoftmax_direct,
                     sigmoid_reference, upconv2_loops)


def proj_loss(out, seed=0):
    """Reduce an op output to a scalar through a fixed random projection so
    gradient checks exercise every output element with distinct weights."""
    r = np.random.default_rng(seed).standard_normal(out.data.shape)
    return dc.sum_all(dc.mul(out, DiffTensor(r)))


def grad_check(make_loss, params, tol=1e-3, num_coords=60):
    report = finite_diff_check(make_loss, params, eps=1e-5,
                                  num_coords=num_coords)
    worst = report.worst()
    assert report.max_rel_err < tol, (
        f"worst {worst.param}{worst.index}: analytic {worst.analytic} "
        f"vs numeric {worst.numeric}")


# ---------------------------------------------------------------------------
# conv2d

# conv2d pads k // 2 at stride 1. A conv at another stride or padding reads
# the same windows, so the oracle at that stride and padding is checked
# against conv2d's output read at the matching window centres.

def _oracle_grid(hw, k, stride, padding):
    """How a conv at `stride` and `padding` maps onto conv2d's output.

    conv2d's output (r, c) is the window centred on input pixel (r, c); the
    other conv's output (i, j) is the window centred on (i*stride - s,
    j*stride - s), s = padding - k // 2. Returns that conv's output size,
    and for its outputs whose centre lies in the input their indices and the
    conv2d indices they equal. Its other outputs read padding only (k is 1
    there), which leaves the bias.
    """
    shift = padding - k // 2
    assert shift <= 0 or k == 1
    size, at_out, at_y = [], [], []
    for extent in hw:
        n_out = (extent + 2 * padding - k) // stride + 1
        src = np.arange(n_out) * stride - shift
        inside = (src >= 0) & (src < extent)
        size.append(n_out)
        at_out.append(np.flatnonzero(inside))
        at_y.append(src[inside])
    return (tuple(size), (at_out[0][:, None], at_out[1]),
            (at_y[0][:, None], at_y[1]))


def conv_at(y, b, k, stride, padding):
    """conv2d output y, read as the output of a conv at `stride` and `padding`."""
    size, at_out, at_y = _oracle_grid(y.shape[2:], k, stride, padding)
    out = np.broadcast_to(b[None, :, None, None], y.shape[:2] + size).copy()
    out[:, :, at_out[0], at_out[1]] = y[:, :, at_y[0], at_y[1]]
    return out


def proj_loss_at(out, k, stride, padding):
    """proj_loss over only the conv2d outputs that a conv at `stride` and
    `padding` reads, so the gradient reaching conv2d is zero elsewhere."""
    _, _, at_y = _oracle_grid(out.data.shape[2:], k, stride, padding)
    r = np.random.default_rng(0).standard_normal(out.data.shape)
    kept = np.zeros_like(r)
    kept[:, :, at_y[0], at_y[1]] = r[:, :, at_y[0], at_y[1]]
    return dc.sum_all(dc.mul(out, DiffTensor(kept)))


class TestConv2d:
    def test_all_ones_overlap_counts(self):
        x = DiffTensor(np.ones((1, 1, 3, 3)))
        w = DiffTensor(np.ones((1, 1, 3, 3)))
        b = DiffTensor(np.zeros(1))
        y = dc.conv2d(x, w, b).data[0, 0]
        assert y[1, 1] == 9.0
        for ci, cj in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert y[ci, cj] == 4.0

    def test_identity_1x1_kernel(self, rng):
        x = DiffTensor(rng.standard_normal((2, 1, 5, 5)))
        w = DiffTensor(np.ones((1, 1, 1, 1)))
        b = DiffTensor(np.zeros(1))
        y = dc.conv2d(x, w, b)
        np.testing.assert_array_equal(y.data, x.data)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_loop_oracle(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = dc.conv2d(DiffTensor(x), DiffTensor(w), DiffTensor(b)).data
        want = conv2d_loops(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(conv_at(y, b, 3, stride, padding), want,
                                   atol=1e-6, rtol=1e-5)

    def test_channel_mismatch_names_dimension(self):
        x = DiffTensor(np.zeros((1, 3, 4, 4)))
        w = DiffTensor(np.zeros((2, 5, 3, 3)))
        with pytest.raises(ShapeError, match="3 channels.*expects 5"):
            dc.conv2d(x, w, DiffTensor(np.zeros(2)))

    def test_even_kernel_rejected(self):
        # the padding k // 2 keeps the size only for an odd kernel
        x = DiffTensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError, match="odd"):
            dc.conv2d(x, DiffTensor(np.zeros((1, 1, 2, 2))), DiffTensor(np.zeros(1)))

    def test_gradients(self, verify64, rng):
        params = {
            "x": DiffTensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True),
            "w": DiffTensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True),
            "b": DiffTensor(rng.standard_normal(3), requires_grad=True),
        }
        grad_check(lambda: proj_loss(dc.conv2d(
            params["x"], params["w"], params["b"])), params)

    def test_gradients_strided(self, verify64, rng):
        # the output gradient is zero off a stride-2 grid
        params = {
            "x": DiffTensor(rng.standard_normal((1, 2, 8, 8)), requires_grad=True),
            "w": DiffTensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True),
            "b": DiffTensor(rng.standard_normal(3), requires_grad=True),
        }
        grad_check(lambda: proj_loss_at(dc.conv2d(
            params["x"], params["w"], params["b"]), 3, 2, 1), params)

    # The tap offsets depend on the padded width, so non-square inputs catch
    # a row/column mix-up that square ones cannot.
    NON_SQUARE = [pytest.param(hw, k, stride, padding,
                               id=f"{hw[0]}x{hw[1]}-k{k}-s{stride}-p{padding}")
                  for hw in ((6, 9), (9, 6)) for k in (1, 3)
                  for stride, padding in ((1, 0), (1, 1), (2, 0), (2, 1))]

    @pytest.mark.parametrize("hw,k,stride,padding", NON_SQUARE)
    def test_non_square_matches_loop_oracle(self, rng, hw, k, stride, padding):
        x = rng.standard_normal((2, 3, *hw)).astype(np.float32)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = dc.conv2d(DiffTensor(x), DiffTensor(w), DiffTensor(b)).data
        assert y.shape == (2, 4, *hw)
        want = conv2d_loops(x, w, b, stride=stride, padding=padding)
        got = conv_at(y, b, k, stride, padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-5)

    @pytest.mark.parametrize("hw,k,stride,padding", NON_SQUARE)
    def test_non_square_gradients(self, verify64, rng, hw, k, stride, padding):
        params = {
            "x": DiffTensor(rng.standard_normal((2, 2, *hw)), requires_grad=True),
            "w": DiffTensor(rng.standard_normal((3, 2, k, k)), requires_grad=True),
            "b": DiffTensor(rng.standard_normal(3), requires_grad=True),
        }
        grad_check(lambda: proj_loss_at(dc.conv2d(
            params["x"], params["w"], params["b"]), k, stride, padding), params)

    def test_gradients_without_input_grad(self, verify64, rng):
        # the stem conv on the image: only the kernel and bias learn
        x = DiffTensor(rng.standard_normal((2, 1, 6, 9)))
        params = {
            "w": DiffTensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True),
            "b": DiffTensor(rng.standard_normal(3), requires_grad=True),
        }
        grad_check(lambda: proj_loss(dc.conv2d(x, params["w"], params["b"])), params)
        assert x.grad is None
        assert params["w"].grad is not None and params["b"].grad is not None


# ---------------------------------------------------------------------------
# maxpool2

class TestMaxpool2:
    def test_single_window(self):
        x = DiffTensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert dc.maxpool2(x).data.item() == 4.0

    def test_constant_input_routes_one_gradient_per_window(self):
        x = DiffTensor(np.full((1, 1, 4, 4), 5.0), requires_grad=True)
        y = dc.maxpool2(x)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 5.0))
        backward(dc.sum_all(y))
        # ties break to the first element in row-major window order
        g = x.grad[0, 0]
        assert g.sum() == 4.0
        np.testing.assert_array_equal(g[::2, ::2], np.ones((2, 2)))
        assert g[1::2, :].sum() == 0 and g[::2, 1::2].sum() == 0

    @pytest.mark.parametrize("pair", itertools.combinations(range(4), 2),
                             ids=lambda p: f"{p[0]}-{p[1]}")
    def test_tied_pair_routes_to_row_major_first(self, pair):
        # two window positions tie at the max, the other two are lower; six
        # equal windows, each with its own upstream gradient
        win = np.full(4, -1.0)
        win[list(pair)] = 3.0
        x = DiffTensor(np.tile(win.reshape(2, 2), (2, 3))[None, None],
                       requires_grad=True)
        r = np.random.default_rng(0).standard_normal((1, 1, 2, 3))
        backward(dc.sum_all(dc.mul(dc.maxpool2(x), DiffTensor(r))))
        want = np.zeros((1, 1, 4, 6), dtype=x.data.dtype)
        i, j = divmod(pair[0], 2)
        want[:, :, i::2, j::2] = r
        np.testing.assert_array_equal(x.grad, want)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 6, 8)).astype(np.float32)
        got = dc.maxpool2(DiffTensor(x)).data
        np.testing.assert_allclose(got, maxpool2_loops(x), atol=1e-6)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            dc.maxpool2(DiffTensor(np.zeros((1, 1, 3, 4))))

    def test_gradients(self, verify64, rng):
        params = {"x": DiffTensor(rng.standard_normal((1, 2, 6, 6)),
                                  requires_grad=True)}
        grad_check(lambda: proj_loss(dc.maxpool2(params["x"])), params)


# ---------------------------------------------------------------------------
# upconv2

class TestUpconv2:
    def test_single_pixel_broadcast(self):
        v = 3.5
        x = DiffTensor(np.full((1, 1, 1, 1), v))
        w = DiffTensor(np.ones((1, 1, 2, 2)))
        b = DiffTensor(np.zeros(1))
        np.testing.assert_array_equal(dc.upconv2(x, w, b).data,
                                      np.full((1, 1, 2, 2), v))

    def test_shape_law(self, rng):
        x = DiffTensor(rng.standard_normal((3, 5, 4, 6)))
        w = DiffTensor(rng.standard_normal((5, 2, 2, 2)))
        b = DiffTensor(rng.standard_normal(2))
        assert dc.upconv2(x, w, b).data.shape == (3, 2, 8, 12)

    def test_matches_scatter_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        got = dc.upconv2(DiffTensor(x), DiffTensor(w), DiffTensor(b)).data
        np.testing.assert_allclose(got, upconv2_loops(x, w, b),
                                   atol=1e-6, rtol=1e-5)

    def test_gradients(self, verify64, rng):
        params = {
            "x": DiffTensor(rng.standard_normal((1, 3, 3, 3)), requires_grad=True),
            "w": DiffTensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True),
            "b": DiffTensor(rng.standard_normal(2), requires_grad=True),
        }
        grad_check(lambda: proj_loss(dc.upconv2(
            params["x"], params["w"], params["b"])), params)


# ---------------------------------------------------------------------------
# conv_bn_relu

def _bn_weights(c, trainable=True):
    return (DiffTensor(np.ones(c), requires_grad=trainable),
            DiffTensor(np.zeros(c), requires_grad=trainable),
            DiffTensor(np.zeros(c)), DiffTensor(np.ones(c)))


def bn_relu(x, gamma, beta, rm, rv, train):
    """conv_bn_relu behind an identity 1x1 conv: relu(batchnorm(x))."""
    c = x.data.shape[1]
    return dc.conv_bn_relu(x, DiffTensor(np.eye(c).reshape(c, c, 1, 1)),
                           DiffTensor(np.zeros(c)), gamma, beta, rm, rv, train)


class TestBatchnorm2d:
    """The batch-norm stage of conv_bn_relu."""

    def test_constant_channel_zeroed(self):
        gamma, beta, rm, rv = _bn_weights(2, trainable=False)
        x = DiffTensor(np.full((2, 2, 3, 3), 7.0))
        y = bn_relu(x, gamma, beta, rm, rv, train=True)
        np.testing.assert_allclose(y.data, 0.0, atol=1e-6)

    def test_normalizes_to_unit_stats(self, rng):
        gamma, beta, rm, rv = _bn_weights(3, trainable=False)
        beta.data[:] = 10.0        # lifts every normalized value above the ReLU
        x = DiffTensor(2.0 * rng.standard_normal((4, 3, 8, 8)) + 1.5)
        y = bn_relu(x, gamma, beta, rm, rv, train=True).data
        for c in range(3):
            assert abs(y[:, c].mean() - 10.0) < 1e-5
            assert abs(y[:, c].var() - 1.0) < 1e-5

    def test_matches_direct_formula(self, rng):
        c = 3
        gamma = rng.standard_normal(c).astype(np.float32)
        beta = rng.standard_normal(c).astype(np.float32)
        x = rng.standard_normal((2, c, 5, 5)).astype(np.float32)
        got = bn_relu(DiffTensor(x), DiffTensor(gamma), DiffTensor(beta),
                      *_bn_weights(c)[2:], train=True).data
        want = np.maximum(batchnorm_train_direct(x, gamma, beta), 0.0)
        np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-4)

    def test_running_stats_two_batch_recursion(self, rng):
        gamma, beta, rm, rv = _bn_weights(2, trainable=False)
        b1 = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        b2 = 2.0 * rng.standard_normal((3, 2, 4, 4)).astype(np.float32) + 1.0
        # hand recursion with momentum 0.1 starting from (mean 0, var 1)
        em, ev = np.zeros(2), np.ones(2)
        for b in (b1, b2):
            em = 0.9 * em + 0.1 * b.mean(axis=(0, 2, 3))
            ev = 0.9 * ev + 0.1 * b.var(axis=(0, 2, 3))
        bn_relu(DiffTensor(b1), gamma, beta, rm, rv, train=True)
        bn_relu(DiffTensor(b2), gamma, beta, rm, rv, train=True)
        np.testing.assert_allclose(rm.data, em, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(rv.data, ev, rtol=1e-5, atol=1e-7)

    def test_eval_mode_uses_running_stats_only(self, rng):
        gamma, beta, rm, rv = _bn_weights(2, trainable=False)
        rm.data[:] = [1.0, -1.0]
        rv.data[:] = [4.0, 0.25]
        x = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        y = bn_relu(DiffTensor(x), gamma, beta, rm, rv, train=False).data
        want = np.maximum((x - rm.data[None, :, None, None]) / np.sqrt(
            rv.data[None, :, None, None] + 1e-5), 0.0)
        np.testing.assert_allclose(y, want, rtol=1e-6)
        np.testing.assert_array_equal(rm.data, [1.0, -1.0])   # unchanged

    def test_single_element_train_rejected(self):
        gamma, beta, rm, rv = _bn_weights(1, trainable=False)
        with pytest.raises(ShapeError, match="at least 2"):
            bn_relu(DiffTensor(np.ones((1, 1, 1, 1))), gamma, beta, rm, rv,
                    train=True)

    def test_gradients(self, verify64, rng):
        x = DiffTensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        gamma = DiffTensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = DiffTensor(rng.standard_normal(2), requires_grad=True)
        rm, rv = DiffTensor(np.zeros(2)), DiffTensor(np.ones(2))
        params = {"x": x, "gamma": gamma, "beta": beta}
        grad_check(lambda: proj_loss(bn_relu(
            x, gamma, beta, rm, rv, train=True)), params)


def _sublayer(rng, hw=(6, 9)):
    """Inputs of a conv_bn_relu sublayer on a non-square image: x, weight,
    bias, gamma, beta, running mean and running variance (nonzero)."""
    return (rng.standard_normal((2, 3, *hw)), rng.standard_normal((4, 3, 3, 3)),
            rng.standard_normal(4), rng.uniform(0.5, 1.5, 4),
            rng.standard_normal(4), 0.5 * rng.standard_normal(4),
            rng.uniform(0.5, 2.0, 4))


class TestConvBnRelu:
    def test_train_matches_oracle_composition(self, rng):
        x, w, b, gamma, beta, rm, rv = (a.astype(np.float32) for a in _sublayer(rng))
        run_mean, run_var = DiffTensor(rm.copy()), DiffTensor(rv.copy())
        got = dc.conv_bn_relu(DiffTensor(x), DiffTensor(w), DiffTensor(b),
                              DiffTensor(gamma), DiffTensor(beta), run_mean,
                              run_var, train=True).data
        z = conv2d_loops(x, w, b, padding=1)
        want = np.maximum(batchnorm_train_direct(z, gamma, beta), 0.0)
        np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-4)
        np.testing.assert_allclose(run_mean.data, 0.9 * rm + 0.1 * z.mean(axis=(0, 2, 3)),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(run_var.data, 0.9 * rv + 0.1 * z.var(axis=(0, 2, 3)),
                                   rtol=1e-5, atol=1e-6)

    def test_eval_matches_running_stat_formula(self, rng):
        x, w, b, gamma, beta, rm, rv = (a.astype(np.float32) for a in _sublayer(rng))
        run_mean, run_var = DiffTensor(rm.copy()), DiffTensor(rv.copy())
        got = dc.conv_bn_relu(DiffTensor(x), DiffTensor(w), DiffTensor(b),
                              DiffTensor(gamma), DiffTensor(beta), run_mean,
                              run_var, train=False).data
        z = conv2d_loops(x, w, b, padding=1)
        c = (slice(None), None, None)
        want = np.maximum(gamma[c] * (z - rm[c]) / np.sqrt(rv[c] + 1e-5) + beta[c], 0.0)
        np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-4)
        np.testing.assert_array_equal(run_mean.data, rm)
        np.testing.assert_array_equal(run_var.data, rv)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_gradients(self, verify64, rng, train):
        x, w, b, gamma, beta, rm, rv = _sublayer(rng)
        params = {name: DiffTensor(a, requires_grad=True) for name, a in
                  (("x", x), ("weight", w), ("bias", b), ("gamma", gamma),
                   ("beta", beta))}
        stats = DiffTensor(rm), DiffTensor(rv)
        report = finite_diff_check(
            lambda: proj_loss(dc.conv_bn_relu(*params.values(), *stats, train=train)),
            params, eps=1e-5, num_coords=150)
        assert {c.param for c in report.checks} == set(params)
        for c in report.checks:
            if train and c.param == "bias":
                # a per-channel constant before batch-norm's mean subtraction
                # cancels, so the true gradient is 0 and only an absolute
                # bound fits
                assert abs(c.analytic) < 1e-9 and abs(c.numeric) < 1e-7, c
            else:
                assert c.rel_err < 1e-3, c

    def test_gradients_of_batch_norm_alone(self, verify64, rng):
        # only gamma and beta learn: the conv keeps no closure, and backward
        # stops at batch norm
        x, w, b, gamma, beta, rm, rv = _sublayer(rng)
        params = {"gamma": DiffTensor(gamma, requires_grad=True),
                  "beta": DiffTensor(beta, requires_grad=True)}
        x, w, b, rm, rv = (DiffTensor(a) for a in (x, w, b, rm, rv))
        grad_check(lambda: proj_loss(dc.conv_bn_relu(
            x, w, b, params["gamma"], params["beta"], rm, rv, train=True)), params)

    def test_one_node_over_the_sublayer_inputs(self, rng):
        arrays = _sublayer(rng)
        x, w, b, gamma, beta = (DiffTensor(a, requires_grad=True) for a in arrays[:5])
        rm, rv = (DiffTensor(a) for a in arrays[5:])
        out = dc.conv_bn_relu(x, w, b, gamma, beta, rm, rv, train=True)
        assert out._parents == (x, w, b, gamma, beta)

    def test_batchnorm_shape_checked(self, rng):
        x, w, b, gamma, beta, rm, rv = (DiffTensor(a) for a in _sublayer(rng))
        with pytest.raises(ShapeError, match="gamma shape"):
            dc.conv_bn_relu(x, w, b, DiffTensor(np.ones(3)), beta, rm, rv, True)


def _decoder_sublayer(rng, c_skip=2):
    """`_sublayer`'s inputs for a decoder sublayer that also reads a skip of
    c_skip channels: x, skip, a kernel over both, and the rest."""
    x, _, b, gamma, beta, rm, rv = _sublayer(rng)
    skip = rng.standard_normal((2, c_skip, *x.shape[2:]))
    w = rng.standard_normal((4, x.shape[1] + c_skip, 3, 3))
    return x, skip, w, b, gamma, beta, rm, rv


class TestConvBnReluSkip:
    """The skip a decoder sublayer's conv reads as channels after x's."""

    @staticmethod
    def run(x, w, b, gamma, beta, rm, rv, train, skip=None):
        # fresh running buffers, so that two runs start from the same ones
        return dc.conv_bn_relu(x, w, b, gamma, beta, DiffTensor(rm.copy()),
                               DiffTensor(rv.copy()), train, skip)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_matches_concatenated_input(self, rng, train):
        x, skip, *rest = (a.astype(np.float32) for a in _decoder_sublayer(rng))
        w, b, gamma, beta = (DiffTensor(a) for a in rest[:4])
        got = self.run(DiffTensor(x), w, b, gamma, beta, *rest[4:], train,
                       skip=DiffTensor(skip))
        want = self.run(DiffTensor(np.concatenate([x, skip], 1)), w, b, gamma,
                        beta, *rest[4:], train)
        np.testing.assert_array_equal(got.data, want.data)

    def test_empty_skip(self, rng):
        x, _, *rest = (a.astype(np.float32) for a in _decoder_sublayer(rng, c_skip=0))
        w, b, gamma, beta = (DiffTensor(a) for a in rest[:4])
        empty = DiffTensor(np.zeros((2, 0, *x.shape[2:])))
        got = self.run(DiffTensor(x), w, b, gamma, beta, *rest[4:], True, skip=empty)
        want = self.run(DiffTensor(x), w, b, gamma, beta, *rest[4:], True)
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("shape", [(1, 2, 6, 9), (2, 2, 5, 9), (2, 2, 6, 8)],
                             ids=["batch", "height", "width"])
    def test_batch_or_spatial_mismatch(self, rng, shape):
        x, _, w, b, gamma, beta, rm, rv = _decoder_sublayer(rng)
        with pytest.raises(ShapeError, match="skip"):
            self.run(*(DiffTensor(a) for a in (x, w, b, gamma, beta)), rm, rv,
                     True, skip=DiffTensor(np.zeros(shape)))

    def test_gradient_slices_match_concatenated_input(self, rng):
        x, skip, *rest = (a.astype(np.float32) for a in _decoder_sublayer(rng))
        grads = []
        for inputs in ((x, skip), (np.concatenate([x, skip], 1),)):
            ts = [DiffTensor(a, requires_grad=True) for a in (*inputs, *rest[:4])]
            *xs, w, b, gamma, beta = ts
            out = self.run(xs[0], w, b, gamma, beta, *rest[4:], True,
                           skip=xs[1] if len(xs) > 1 else None)
            backward(proj_loss(out))
            grads.append([t.grad for t in ts])
        (gx, gskip, *gw), (gcat, *gw_cat) = grads
        np.testing.assert_array_equal(gx, gcat[:, :3])
        np.testing.assert_array_equal(gskip, gcat[:, 3:])
        for a, c in zip(gw, gw_cat):
            np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_gradients(self, verify64, rng, train):
        x, skip, w, b, gamma, beta, rm, rv = _decoder_sublayer(rng)
        params = {name: DiffTensor(a, requires_grad=True) for name, a in
                  (("x", x), ("skip", skip), ("weight", w))}
        b, gamma, beta = (DiffTensor(a) for a in (b, gamma, beta))
        report = finite_diff_check(
            lambda: proj_loss(self.run(params["x"], params["weight"], b, gamma,
                                       beta, rm, rv, train, skip=params["skip"])),
            params, eps=1e-5, num_coords=150)
        assert {c.param for c in report.checks} == set(params)
        worst = report.worst()
        assert worst.rel_err < 1e-3, worst

    def test_no_gradient_keeps_no_padded_input(self, rng):
        # nothing needs a gradient, so the conv returns no closure to hold
        # its padded input
        x, skip, w, b = (DiffTensor(a) for a in _decoder_sublayer(rng)[:4])
        _, _, back = _conv(x, w, b, "conv_bn_relu", skip)
        assert back is None
        _, _, back = _conv(x, DiffTensor(w.data, requires_grad=True), b,
                           "conv_bn_relu", skip)
        assert back is not None


# ---------------------------------------------------------------------------
# the in-place ops, bit for bit against the allocating references in oracles

def _forward_backward(op, arrays, frozen=()):
    """op over float32 tensors of `arrays` (a name -> array dict, in the op's
    argument order; names in `frozen` need no gradient), then backward
    through proj_loss. Asserts that neither pass changed an input array: the
    conv's backward pads its input again into a buffer of its own and never
    writes into x.data or skip.data.
    Returns the output and every tensor's gradient."""
    ts = {k: DiffTensor(a, requires_grad=k not in frozen) for k, a in arrays.items()}
    before = {k: t.data.copy() for k, t in ts.items()}
    out = op(*ts.values())
    backward(proj_loss(out))
    for k, t in ts.items():
        np.testing.assert_array_equal(t.data, before[k], err_msg=f"{k} changed")
    return out, {k: t.grad for k, t in ts.items()}


def _assert_bitwise(got, want):
    (out, grads), (out_ref, grads_ref) = got, want
    assert out.data.dtype == out_ref.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, out_ref.data)
    for k in grads_ref:
        if grads_ref[k] is None:
            assert grads[k] is None, k
        else:
            assert grads[k].dtype == grads_ref[k].dtype, k
            np.testing.assert_array_equal(grads[k], grads_ref[k], err_msg=k)


# (x channels, skip channels, whether x learns): the one-channel stem reads
# the image, which needs no gradient; a decoder sublayer also reads a skip
SUBLAYERS = {"stem": (1, 0, False), "conv": (3, 0, True), "skip": (3, 2, True)}


class TestBitwiseAgainstReferences:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("case", sorted(SUBLAYERS))
    def test_conv_bn_relu(self, rng, case, train, batch):
        cx, cskip, x_learns = SUBLAYERS[case]
        cout = 5
        # at 1x5 the input gradient's lead of (k-1)(Wp+1) = 16 zeros is
        # longer than the 7-position output grid it sits in front of
        for hw in ((6, 9), (1, 5)):
            arrays = {"x": rng.standard_normal((batch, cx, *hw)),
                      "weight": rng.standard_normal((cout, cx + cskip, 3, 3)),
                      "bias": rng.standard_normal(cout),
                      "gamma": rng.uniform(0.5, 1.5, cout),
                      "beta": rng.standard_normal(cout)}
            skip = rng.standard_normal((batch, cskip, *hw)) if cskip else None
            stats = (0.5 * rng.standard_normal(cout), rng.uniform(0.5, 2.0, cout))
            runs = []
            for op in (dc.conv_bn_relu, conv_bn_relu_reference):
                running = [DiffTensor(a) for a in stats]
                inputs = dict(arrays, skip=skip) if cskip else arrays
                out, grads = _forward_backward(
                    lambda *ts: op(*ts[:5], *running, train, *ts[5:]),
                    inputs, frozen=() if x_learns else ("x",))
                runs.append(((out, grads), running))
            (got, running), (want, running_ref) = runs
            _assert_bitwise(got, want)
            for t, t_ref, start in zip(running, running_ref, stats):
                np.testing.assert_array_equal(t.data, t_ref.data)
                if not train:
                    np.testing.assert_array_equal(t.data, start.astype(np.float32))

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("case", sorted(SUBLAYERS))
    def test_eval_bits_do_not_depend_on_a_recorded_graph(self, rng, case, batch):
        cx, cskip, _ = SUBLAYERS[case]
        arrays = [rng.standard_normal((batch, cx, 6, 9)),
                  rng.standard_normal((5, cx + cskip, 3, 3)),
                  rng.standard_normal(5), rng.uniform(0.5, 1.5, 5),
                  rng.standard_normal(5), 0.5 * rng.standard_normal(5),
                  rng.uniform(0.5, 2.0, 5)]
        skip = rng.standard_normal((batch, cskip, 6, 9)) if cskip else None
        outs = []
        for graph in (False, True):
            ts = [DiffTensor(a, requires_grad=graph and k < 5)
                  for k, a in enumerate(arrays)]
            sk = None if skip is None else DiffTensor(skip, requires_grad=graph)
            out = dc.conv_bn_relu(*ts, False, sk)
            assert bool(out._parents) == graph
            outs.append(out.data)
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("batch", [1, 4])
    def test_conv2d_head(self, rng, batch):
        arrays = {"x": rng.standard_normal((batch, 4, 6, 9)),
                  "weight": rng.standard_normal((1, 4, 1, 1)),
                  "bias": rng.standard_normal(1)}
        _assert_bitwise(_forward_backward(dc.conv2d, arrays),
                        _forward_backward(conv2d_reference, arrays))

    @pytest.mark.parametrize("batch", [1, 4])
    def test_attention_gate(self, rng, batch):
        names = ("q", "wq_w", "wq_b", "keys", "values")
        arrays = dict(zip(names, _gate_inputs(rng, n=batch, c=4, hw=(3, 5), l=6)))
        _assert_bitwise(_forward_backward(dc.attention_gate, arrays),
                        _forward_backward(attention_gate_reference, arrays))
        # each item ends in a run of 3 rows; at batch 4 the last item is one
        # run of all 6
        with_run = dict(arrays, keys=_with_trailing_run(arrays["keys"], 3),
                        values=_with_trailing_run(arrays["values"], 3))
        if batch > 1:
            for k in ("keys", "values"):
                with_run[k][-1] = with_run[k][-1, :1]
        _assert_bitwise(_forward_backward(dc.attention_gate, with_run),
                        _forward_backward(attention_gate_reference, with_run))


class TestOutputGradientOwnership:
    """A backward reads its output's gradient and never writes into it."""

    @staticmethod
    def check(y, rng):
        r = DiffTensor(rng.standard_normal(y.data.shape))
        backward(dc.sum_all(dc.mul(y, r)))
        np.testing.assert_array_equal(y.grad, r.data)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_conv_bn_relu(self, rng, train):
        x, w, b, gamma, beta = (DiffTensor(a, requires_grad=True)
                                for a in _sublayer(rng)[:5])
        rm, rv = (DiffTensor(a) for a in _sublayer(rng)[5:])
        self.check(dc.conv_bn_relu(x, w, b, gamma, beta, rm, rv, train), rng)

    def test_attention_gate(self, rng):
        inputs = [DiffTensor(a, requires_grad=True) for a in _gate_inputs(rng)]
        self.check(dc.attention_gate(*inputs), rng)

    def test_accum_grad_copies_the_first_gradient(self):
        t = DiffTensor(np.zeros(3), requires_grad=True)
        g = np.ones(3, dtype=t.data.dtype)
        t.accum_grad(g)
        g[:] = 5.0
        np.testing.assert_array_equal(t.grad, np.ones(3))
        t.accum_grad(g)
        np.testing.assert_array_equal(t.grad, np.full(3, 6.0))

    def test_accum_grad_takes_a_broadcast_view(self):
        t = DiffTensor(np.zeros((2, 3)), requires_grad=True)
        t.accum_grad(np.broadcast_to(np.float32(2.0), (2, 3)))
        t.grad[0, 0] = 7.0
        np.testing.assert_array_equal(t.grad, [[7.0, 2.0, 2.0], [2.0, 2.0, 2.0]])


# ---------------------------------------------------------------------------
# activations

class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_branch_form(self, rng, dtype):
        z = np.concatenate([30.0 * rng.standard_normal(1000),
                            [0.0, -0.0, 1.0, -1.0, 1e4, -1e4, np.inf, -np.inf,
                             np.nan, 1e-40, -1e-40]]).astype(dtype)
        got = dc.sigmoid_np(z)
        assert got.dtype == dtype
        assert np.array_equal(got, sigmoid_reference(z), equal_nan=True)


class TestElementwise:
    def test_relu_values(self):
        # the ReLU stage of conv_bn_relu: a channel of [-1, 1] normalizes to
        # about [-1, 1], and only the negative half is clamped
        gamma, beta, rm, rv = _bn_weights(1, trainable=False)
        x = DiffTensor(np.array([-1.0, 1.0]).reshape(1, 1, 1, 2))
        y = bn_relu(x, gamma, beta, rm, rv, train=True).data.ravel()
        assert y[0] == 0.0
        np.testing.assert_allclose(y[1], 1.0 / np.sqrt(1.0 + 1e-5), rtol=1e-6)

    def test_tanh_bounded(self, rng):
        # the tanh stage of attention_gate: huge values saturate inside
        # [-1, 1], and zero values give a gate of exactly 0
        q, wq_w, wq_b, keys, values = (DiffTensor(a) for a in _gate_inputs(rng))
        big = DiffTensor(values.data * 1e4)
        assert np.all(np.abs(dc.attention_gate(q, wq_w, wq_b, keys, big).data) <= 1.0)
        zero = DiffTensor(np.zeros(values.data.shape))
        assert np.all(dc.attention_gate(q, wq_w, wq_b, keys, zero).data == 0.0)

    def test_gradients(self, verify64, rng):
        params = {"a": DiffTensor(rng.standard_normal(20), requires_grad=True),
                  "b": DiffTensor(rng.standard_normal(20), requires_grad=True)}
        grad_check(lambda: proj_loss(dc.scale(dc.mul(params["a"], params["b"]), -1.5)),
                   params, num_coords=40)


# ---------------------------------------------------------------------------
# matmul

class TestMatmul:
    def test_identity(self, rng):
        x = rng.standard_normal((3, 3)).astype(np.float32)
        got = dc.matmul(DiffTensor(np.eye(3)), DiffTensor(x)).data
        np.testing.assert_allclose(got, x, rtol=1e-6)

    def test_hand_arithmetic(self):
        a = DiffTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = DiffTensor(np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(dc.matmul(a, b).data, [[3.0], [7.0]])

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 5)).astype(np.float32)
        np.testing.assert_allclose(dc.matmul(DiffTensor(a), DiffTensor(b)).data,
                                   matmul_loops(a, b), atol=1e-6, rtol=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            dc.matmul(DiffTensor(np.zeros((2, 3))), DiffTensor(np.zeros((4, 2))))

    def test_grad_of_sum_is_column_sums(self, verify64, rng):
        a = DiffTensor(rng.standard_normal((3, 4)), requires_grad=True)
        b_const = rng.standard_normal((4, 2))
        b = DiffTensor(b_const, requires_grad=True)
        params = {"a": a, "b": b}
        grad_check(lambda: dc.sum_all(dc.matmul(a, b)), params, num_coords=20)
        a.grad = None
        backward(dc.sum_all(dc.matmul(a, b)))
        want = np.broadcast_to(b_const.sum(axis=1), (3, 4))
        np.testing.assert_allclose(a.grad, want, rtol=1e-9)

    # A stack of matrices times one shared right operand (a projection weight).
    STACKS = [pytest.param((6, 5), id="shared-b")]

    @pytest.mark.parametrize("b_shape", STACKS)
    def test_stack_matches_loop_oracle_per_item(self, rng, b_shape):
        a = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal(b_shape).astype(np.float32)
        got = dc.matmul(DiffTensor(a), DiffTensor(b)).data
        assert got.shape == (3, 4, 5)
        for i in range(3):
            np.testing.assert_allclose(got[i], matmul_loops(a[i], b),
                                       atol=1e-6, rtol=1e-5)

    @pytest.mark.parametrize("b_shape", STACKS)
    def test_stack_gradients(self, verify64, rng, b_shape):
        params = {"a": DiffTensor(rng.standard_normal((3, 4, 6)), requires_grad=True),
                  "b": DiffTensor(rng.standard_normal(b_shape), requires_grad=True)}
        grad_check(lambda: proj_loss(dc.matmul(params["a"], params["b"])), params,
                   num_coords=80)

    def test_stack_shape_errors(self):
        def z(*shape):
            return DiffTensor(np.zeros(shape))

        with pytest.raises(ShapeError, match="inner dimensions"):
            dc.matmul(z(3, 2, 3), z(4, 2))
        # the right operand is one matrix, never a stack
        with pytest.raises(ShapeError, match="one matrix"):
            dc.matmul(z(3, 2, 3), z(3, 3, 2))
        with pytest.raises(ShapeError, match="one matrix"):
            dc.matmul(z(2, 3), z(2, 3, 2))
        with pytest.raises(ShapeError, match="one matrix"):
            dc.matmul(z(2, 3), z(3))
        with pytest.raises(ShapeError, match="one matrix"):
            dc.matmul(z(3), z(3, 2))

    # the bias row of a token projection

    def test_bias_stack(self, verify64, rng):
        a = rng.standard_normal((3, 4, 5))
        bias = rng.standard_normal(5)
        # times the identity, every row of a gets the bias row added exactly
        got = dc.matmul(DiffTensor(a), DiffTensor(np.eye(5)), DiffTensor(bias)).data
        for i in range(3):
            for r in range(4):
                np.testing.assert_array_equal(got[i, r], a[i, r] + bias)
        b = rng.standard_normal((5, 5))
        # the product first, then the bias: the order of matmul then add
        np.testing.assert_array_equal(
            dc.matmul(DiffTensor(a), DiffTensor(b), DiffTensor(bias)).data, a @ b + bias)
        params = {"a": DiffTensor(a, requires_grad=True),
                  "b": DiffTensor(b, requires_grad=True),
                  "bias": DiffTensor(bias, requires_grad=True)}
        grad_check(lambda: proj_loss(dc.matmul(*params.values())), params,
                   num_coords=90)

    def test_bias_shape_errors(self):
        with pytest.raises(ShapeError, match="bias"):
            dc.matmul(DiffTensor(np.zeros((3, 4, 5))), DiffTensor(np.zeros((5, 5))),
                      DiffTensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="bias"):
            dc.matmul(DiffTensor(np.zeros((3, 4, 5))), DiffTensor(np.zeros((5, 5))),
                      DiffTensor(np.zeros((1, 5))))
        with pytest.raises(ShapeError, match="one matrix"):
            dc.matmul(DiffTensor(np.zeros(5)), DiffTensor(np.zeros((5, 5))),
                      DiffTensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# attention_gate

def _gate_inputs(rng, n=2, c=3, hw=(2, 3), l=4):
    """q, wq_w, wq_b, keys and values of an attention_gate, as arrays."""
    return (rng.standard_normal((n, c, *hw)), rng.standard_normal((c, c)),
            rng.standard_normal(c), rng.standard_normal((n, l, c)),
            rng.standard_normal((n, l, c)))


def _with_trailing_run(rows, r):
    """A copy of (n, l, c) `rows` whose last r rows in every item repeat the
    first of them."""
    out = rows.copy()
    out[:, -r:] = out[:, -r, None]
    return out


def softmax_gate(q):
    """attention_gate over (n, l, h, w) q with c = l channels, an identity
    query projection, keys sqrt(l) I and identity values: the logits are q
    itself, and the gate is tanh of the attention weights."""
    n, l = q.data.shape[:2]
    eye = np.eye(l)
    return dc.attention_gate(q, DiffTensor(eye), DiffTensor(np.zeros(l)),
                             DiffTensor(np.broadcast_to(np.sqrt(l) * eye, (n, l, l))),
                             DiffTensor(np.broadcast_to(eye, (n, l, l))))


def token_softmax(logits):
    """The attention weights of (n, l, p) logits, read back through arctanh."""
    n, l, p = logits.shape
    gate = softmax_gate(DiffTensor(logits.reshape(n, l, 1, p)))
    return np.arctanh(gate.data.reshape(n, l, p).astype(np.float64))


class TestRowsoftmax:
    """The token softmax stage of attention_gate: per pixel, across tokens."""

    def test_uniform(self):
        np.testing.assert_allclose(token_softmax(np.zeros((1, 2, 1))), 0.5, rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((1, 6, 4)).astype(np.float32)
        a = token_softmax(x)
        b = token_softmax(x + np.float32(7.5))
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_direct_exponentiation(self):
        got = token_softmax(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))[0, :, 0]
        np.testing.assert_allclose(
            got, [0.09003057, 0.24472847, 0.66524096], atol=1e-6)
        np.testing.assert_allclose(
            got, rowsoftmax_direct(np.array([[1.0, 2.0, 3.0]]))[0], atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((2, 8, 15)).astype(np.float32) * 10
        y = token_softmax(x)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(y >= 0)

    def test_gradients(self, verify64, rng):
        # the path from logits to gate alone: keys and values held constant
        params = {"x": DiffTensor(rng.standard_normal((1, 5, 1, 3)) * 5,
                                  requires_grad=True)}
        grad_check(lambda: proj_loss(softmax_gate(params["x"])), params,
                   num_coords=15)

    def test_stack_matches_direct_per_matrix(self, verify64, rng):
        x = rng.standard_normal((3, 6, 4)) * 5
        got = token_softmax(x)
        for i in range(3):
            np.testing.assert_allclose(got[i], rowsoftmax_direct(x[i].T).T,
                                       atol=1e-12)

    def test_rejects_vector(self, rng):
        q, wq_w, wq_b, keys, values = (DiffTensor(a) for a in _gate_inputs(rng))
        with pytest.raises(ShapeError, match="keys"):
            dc.attention_gate(q, wq_w, wq_b, DiffTensor(np.zeros(3)), values)


def attention_gate_loops(q, wq_w, wq_b, keys, values):
    """attention_gate one pixel at a time, in float64."""
    n, c, h, w = q.shape
    out = np.zeros(q.shape)
    for i in range(n):
        for y in range(h):
            for x in range(w):
                query = q[i, :, y, x] @ wq_w + wq_b
                scores = keys[i] @ query / math.sqrt(c)
                weights = rowsoftmax_direct(scores[None])[0]
                out[i, :, y, x] = np.tanh(weights @ values[i])
    return out


class TestAttentionGate:
    def test_matches_per_pixel_oracle(self, verify64, rng):
        # the oracle reads every token row; the second case's last 4 rows
        # of each item are one run, which the gate reads as one row
        q, wq_w, wq_b, keys, values = _gate_inputs(rng, hw=(3, 5), l=6)
        for kv in ((keys, values),
                   (_with_trailing_run(keys, 4), _with_trailing_run(values, 4))):
            arrays = (q, wq_w, wq_b, *kv)
            got = dc.attention_gate(*(DiffTensor(a) for a in arrays)).data
            np.testing.assert_allclose(got, attention_gate_loops(*arrays),
                                       rtol=1e-10, atol=1e-12)

    def test_gradients(self, verify64, rng):
        names = ("q", "wq_w", "wq_b", "keys", "values")
        params = {k: DiffTensor(a, requires_grad=True)
                  for k, a in zip(names, _gate_inputs(rng))}
        report = finite_diff_check(
            lambda: proj_loss(dc.attention_gate(*params.values())), params,
            eps=1e-5, num_coords=200)
        assert {c.param for c in report.checks} == set(names)
        for c in report.checks:
            assert c.rel_err < 1e-6, c

    def test_trailing_run_rows_share_the_merged_gradient(self, verify64, rng):
        # the last 3 token rows of each item are equal in key and value, so
        # the gate reads them as one row; every coordinate of keys and
        # values is checked, each run row's included
        q, wq_w, wq_b, keys, values = _gate_inputs(rng, l=6)
        params = {"keys": DiffTensor(_with_trailing_run(keys, 3), requires_grad=True),
                  "values": DiffTensor(_with_trailing_run(values, 3),
                                       requires_grad=True)}
        fixed = [DiffTensor(a) for a in (q, wq_w, wq_b)]
        assert [ops._kept_rows(params["keys"].data[i], params["values"].data[i])
                for i in range(2)] == [4, 4]
        report = finite_diff_check(
            lambda: proj_loss(dc.attention_gate(*fixed, *params.values())), params,
            eps=1e-5, num_coords=2 * keys.size)
        assert len(report.checks) == 2 * keys.size
        for c in report.checks:
            assert c.rel_err < 1e-6, c
        for t in params.values():
            # the three run rows of an item get equal shares
            np.testing.assert_array_equal(t.grad[:, -3:], t.grad[:, -1:].repeat(3, 1))

    @pytest.mark.parametrize("part", ["keys", "values"])
    def test_run_in_one_of_keys_and_values_is_not_merged(self, verify64, rng, part):
        arrays = dict(zip(("q", "wq_w", "wq_b", "keys", "values"),
                          _gate_inputs(rng, hw=(3, 5), l=6)))
        arrays[part] = _with_trailing_run(arrays[part], 3)
        assert [ops._kept_rows(arrays["keys"][i], arrays["values"][i])
                for i in range(2)] == [6, 6]
        got = dc.attention_gate(*(DiffTensor(a) for a in arrays.values())).data
        np.testing.assert_allclose(got, attention_gate_loops(*arrays.values()),
                                   rtol=1e-10, atol=1e-12)

    def test_one_node_over_the_gate_inputs(self, rng):
        inputs = [DiffTensor(a, requires_grad=True) for a in _gate_inputs(rng)]
        out = dc.attention_gate(*inputs)
        assert out.data.shape == inputs[0].data.shape
        assert [id(p) for p in out._parents] == [id(t) for t in inputs]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_one_non_finite_token_row_raises(self, rng, bad):
        # the projected queries' first channel is positive everywhere, so a
        # key of (bad, 0, 0) makes one token's logits bad at every pixel and
        # leaves the others finite: an -inf row leaves the per-pixel max
        # finite
        q, _, _, keys, values = _gate_inputs(rng)
        q[:, 0] = np.abs(q[:, 0]) + 1.0
        keys[0, 1] = (bad, 0.0, 0.0)
        inputs = [DiffTensor(a) for a in (q, np.eye(3), np.zeros(3), keys, values)]
        # BLAS may flag inf * 0 in its padding lanes; the logits are as above
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="cross-attention logits"):
            dc.attention_gate(*inputs)

    def test_shape_errors(self, rng):
        q, wq_w, wq_b, keys, values = (DiffTensor(a) for a in _gate_inputs(rng))
        flat = DiffTensor(q.data.reshape(2, 3, 6))
        with pytest.raises(ShapeError, match="NCHW"):
            dc.attention_gate(flat, wq_w, wq_b, keys, values)
        with pytest.raises(ShapeError, match="query projection"):
            dc.attention_gate(q, DiffTensor(np.zeros((3, 2))), wq_b, keys, values)
        with pytest.raises(ShapeError, match="query projection"):
            dc.attention_gate(q, wq_w, DiffTensor(np.zeros(2)), keys, values)
        with pytest.raises(ShapeError, match="keys"):
            dc.attention_gate(q, wq_w, wq_b, DiffTensor(keys.data[:1]), values)
        with pytest.raises(ShapeError, match="keys"):
            dc.attention_gate(q, wq_w, wq_b, DiffTensor(keys.data[:, :0]), values)
        with pytest.raises(ShapeError, match="values"):
            dc.attention_gate(q, wq_w, wq_b, keys, DiffTensor(values.data[:, :3]))


# ---------------------------------------------------------------------------
# bce_with_logits

class TestBceWithLogits:
    def test_ln2_at_origin(self):
        loss = dc.bce_with_logits(DiffTensor(np.zeros((1, 1))),
                                  np.ones((1, 1)))
        assert abs(float(loss.data) - math.log(2.0)) < 1e-7

    def test_saturation(self):
        loss = dc.bce_with_logits(DiffTensor(np.full((1,), 30.0)), np.ones(1))
        assert float(loss.data) < 1e-12

    def test_symmetry(self, rng):
        z = rng.standard_normal(50).astype(np.float32) * 5
        l1 = dc.bce_with_logits(DiffTensor(z), np.ones(50)).data
        l2 = dc.bce_with_logits(DiffTensor(-z), np.zeros(50)).data
        assert float(l1) == float(l2)

    def test_no_nan_at_extremes(self):
        z = np.array([-1e4, 1e4, 0.0])
        t = np.array([1.0, 0.0, 1.0])
        loss = dc.bce_with_logits(DiffTensor(z), t)
        assert np.isfinite(float(loss.data))
        assert float(loss.data) >= 0

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            dc.bce_with_logits(DiffTensor(np.zeros(2)), np.array([0.5, 1.0]))

    def test_gradients(self, verify64, rng):
        z = DiffTensor(rng.standard_normal((2, 8)), requires_grad=True)
        t = (rng.random((2, 8)) > 0.5).astype(np.float64)
        grad_check(lambda: dc.bce_with_logits(z, t), {"z": z}, num_coords=16)


# ---------------------------------------------------------------------------
# backward semantics

class TestBackward:
    def test_product_rule_scalars(self):
        x = DiffTensor(np.array(3.0), requires_grad=True)
        y = DiffTensor(np.array(4.0), requires_grad=True)
        backward(dc.mul(x, y))
        assert float(x.grad) == 4.0
        assert float(y.grad) == 3.0

    def test_constant_has_zero_gradients(self):
        x = DiffTensor(np.array(2.0), requires_grad=True)
        const = dc.sum_all(DiffTensor(np.ones(3)))
        backward(const)   # no-op: nothing upstream requires grad
        assert x.grad is None

    def test_accumulation_over_shared_leaf(self):
        x = DiffTensor(np.array(2.0), requires_grad=True)
        backward(dc.mul(x, dc.scale(x, 3.0)))   # d(3x^2)/dx = 6x
        assert float(x.grad) == 12.0

    def test_gradients_add_up_over_backward_calls(self):
        # until adamw_step applies and releases them
        x = DiffTensor(np.array(2.0), requires_grad=True)
        backward(dc.scale(x, 3.0))
        backward(dc.mul(x, x))
        assert float(x.grad) == 7.0

    def test_second_backward_rejected(self):
        x = DiffTensor(np.array(2.0), requires_grad=True)
        y = dc.mul(x, x)
        backward(y)
        with pytest.raises(GraphError):
            backward(y)

    def test_graph_released_after_backward(self):
        # no closure keeps its node alive, so the graph needs no cyclic collection
        x = DiffTensor(np.array(2.0), requires_grad=True)
        y = dc.scale(x, 3.0)
        loss = dc.mul(x, y)
        backward(loss)
        for t in (y, loss):
            assert t._backward is None and t._parents == ()
        assert float(x.grad) == 12.0

    def test_consumed_nodes_are_freed_before_backward_returns(self):
        # The probe node's closure runs last. By then the two interior mul
        # nodes have run theirs and nothing outside backward holds them, so
        # only x, r and the probe node itself are alive.
        shape = (3, 5, 7)                      # no other live tensor has it
        made, alive = [], []

        def probe(a):
            def back():
                a.accum_grad(out.grad)
                alive.extend(id(t) for t in gc.get_objects()
                             if isinstance(t, DiffTensor) and t.data.shape == shape)

            out = DiffTensor._node(a.data.copy(), (a,), back)
            made.append(id(out))
            return out

        gc.collect()
        x = DiffTensor(np.ones(shape), requires_grad=True)
        r = DiffTensor(np.full(shape, 2.0))
        loss = dc.sum_all(dc.mul(dc.mul(probe(x), r), r))
        backward(loss)
        assert sorted(alive) == sorted([id(x), id(r), made[0]])
        np.testing.assert_array_equal(x.grad, np.full(shape, 4.0))
        assert loss.grad is not None and float(loss.data) == 4.0 * x.data.size

    def test_non_scalar_loss_rejected(self):
        x = DiffTensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(dc.mul(x, x))

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_heap_policy_skipped_off_glibc(self, error, monkeypatch):
        def no_glibc(name):
            raise error(name)

        def no_libc(name):
            raise AssertionError("mallopt called off glibc")

        monkeypatch.setattr(tensor.os, "confstr", no_glibc)
        monkeypatch.setattr(tensor.ctypes, "CDLL", no_libc)
        tensor._keep_freed_heap()


def _const(*shape):
    return DiffTensor(np.random.default_rng(0).standard_normal(shape))


# Every op on inputs that all have requires_grad=False.
CONSTANT_INPUT_OPS = {
    "mul": lambda: dc.mul(_const(2, 3), _const(2, 3)),
    "scale": lambda: dc.scale(_const(2, 3), 2.0),
    "sum_all": lambda: dc.sum_all(_const(2, 3)),
    "mean_all": lambda: dc.mean_all(_const(2, 3)),
    "matmul": lambda: dc.matmul(_const(2, 3), _const(3, 4)),
    "matmul_bias": lambda: dc.matmul(_const(2, 3), _const(3, 3), _const(3)),
    "attention_gate": lambda: dc.attention_gate(
        _const(2, 3, 2, 2), _const(3, 3), _const(3), _const(2, 4, 3), _const(2, 4, 3)),
    "conv2d": lambda: dc.conv2d(_const(1, 2, 4, 4), _const(3, 2, 3, 3), _const(3)),
    "conv_bn_relu": lambda: dc.conv_bn_relu(
        _const(2, 2, 2, 2), _const(3, 2, 3, 3), _const(3), DiffTensor(np.ones(3)),
        _const(3), _const(3), DiffTensor(np.ones(3)), True),
    "conv_bn_relu_skip": lambda: dc.conv_bn_relu(
        _const(2, 2, 2, 2), _const(3, 5, 3, 3), _const(3), DiffTensor(np.ones(3)),
        _const(3), _const(3), DiffTensor(np.ones(3)), True, skip=_const(2, 3, 2, 2)),
    "maxpool2": lambda: dc.maxpool2(_const(1, 2, 4, 4)),
    "upconv2": lambda: dc.upconv2(_const(1, 2, 2, 2), _const(2, 3, 2, 2), _const(3)),
    "bce_with_logits": lambda: dc.bce_with_logits(_const(2, 3), np.ones((2, 3))),
}


@pytest.mark.parametrize("op", sorted(CONSTANT_INPUT_OPS))
def test_op_on_constant_inputs_records_no_node(op):
    out = CONSTANT_INPUT_OPS[op]()
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


# ---------------------------------------------------------------------------
# finite_diff_check itself

class TestFiniteDiffCheck:
    def test_quadratic(self, verify64):
        theta = DiffTensor(np.array(3.0), requires_grad=True)
        report = finite_diff_check(lambda: dc.mul(theta, theta), {"t": theta})
        (check,) = report.checks
        assert abs(check.numeric - 6.0) < 1e-6
        assert abs(check.analytic - 6.0) < 1e-12
        assert report.max_rel_err < 1e-7

    def test_linear_exact(self, verify64):
        theta = DiffTensor(np.full(4, 2.0), requires_grad=True)
        c = DiffTensor(np.array([1.0, -2.0, 3.0, -4.0]))
        report = finite_diff_check(
            lambda: dc.sum_all(dc.mul(theta, c)), {"t": theta}, num_coords=4)
        assert report.max_rel_err < 1e-9


# ---------------------------------------------------------------------------
# error paths that name what went wrong

def test_adamw_nan_gradient_names_parameter():
    p = DiffTensor(np.ones(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0], dtype=p.data.dtype)
    with pytest.raises(NumericalError, match="enc1.conv1.w"):
        dc.adamw_step({"enc1.conv1.w": p}, dc.AdamWState(lr=0.1))
