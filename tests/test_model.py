"""Architecture wiring, attention structure, and model-level invariants."""

import numpy as np
import pytest

import ctxseg.diffcore as dc
from ctxseg.diffcore import DiffTensor, backward
from ctxseg.errors import NumericalError, ShapeError
from ctxseg.model import (ModelConfig, _double_conv, cross_attention,
                          init_weights, predict_mask, text_gated_forward,
                          unet_forward, weight_shapes)
from ctxseg.textenc import embed, tokenize

from gradcheck import finite_diff_check
from oracles import conv2d_loops, cross_attention_direct


def param_count(weights: dict) -> int:
    return sum(p.data.size for p in weights.values() if p.requires_grad)


def tiny_config(**kwargs):
    base = dict(channels=[4, 8], bottleneck=16,
                d_e=8, max_tokens=8, init_seed=1)
    base.update(kwargs)
    return ModelConfig(**base)


def make_emb(text="large left apical pneumothorax.", cfg=None):
    cfg = cfg or tiny_config()
    return embed(tokenize(text, cfg.max_tokens), cfg.d_e, cfg.embed_seed)


class TestInitWeights:
    def test_same_seed_bitwise_identical(self):
        cfg = tiny_config()
        a = init_weights(cfg)
        b = init_weights(cfg)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_different_seeds_differ(self):
        a = init_weights(tiny_config(init_seed=1))
        b = init_weights(tiny_config(init_seed=2))
        assert not np.array_equal(a["enc1.conv1.w"].data, b["enc1.conv1.w"].data)

    def test_batchnorm_init_values(self):
        w = init_weights(tiny_config())
        for name, t in w.items():
            if name.endswith(".gamma"):
                np.testing.assert_array_equal(t.data, np.ones_like(t.data))
            if name.endswith((".beta", ".mean")):
                np.testing.assert_array_equal(t.data, np.zeros_like(t.data))

    def test_shared_names_identical_across_variants(self):
        cfg = tiny_config()
        full = init_weights(cfg, with_attention=True)
        base = init_weights(cfg, with_attention=False)
        assert set(base) < set(full)
        for name in base:
            assert full[name].data.tobytes() == base[name].data.tobytes()

    @pytest.mark.parametrize("with_attention", [True, False])
    def test_weight_shapes_list_init_weights_in_order(self, with_attention):
        cfg = tiny_config()
        got = [(n, t.data.shape)
               for n, t in init_weights(cfg, with_attention).items()]
        assert got == list(weight_shapes(cfg, with_attention).items())

    def test_running_stats_not_trainable(self):
        w = init_weights(tiny_config())
        for name, t in w.items():
            expected = not name.endswith((".mean", ".var"))
            assert t.requires_grad == expected, name

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelConfig(channels=[])
        with pytest.raises(ValueError, match="increasing"):
            ModelConfig(channels=[8, 8], bottleneck=16)

    @pytest.mark.parametrize("channels", [[0, 8], [-4, 8]])
    def test_channel_count_below_1_rejected(self, channels):
        with pytest.raises(ValueError, match="channels entries must be at least "
                                             f"1, got {channels[0]}"):
            ModelConfig(channels=channels, bottleneck=16)


class TestEncoderLayer:
    def test_shape_law_and_nonnegativity(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        x = DiffTensor(rng.standard_normal((2, 1, 16, 16)))
        y = _double_conv(x, w, "enc1", train=True)
        assert y.data.shape == (2, 4, 16, 16)
        assert np.all(y.data >= 0)

    def test_composes_the_four_primitives(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        x_arr = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        for name, t in w.items():        # nonzero biases and running stats
            if name.endswith((".b", ".beta", ".mean")):
                t.data[:] = 0.5 * rng.standard_normal(t.data.shape)
            if name.endswith((".gamma", ".var")):
                t.data[:] = rng.uniform(0.5, 2.0, t.data.shape)
        got = _double_conv(DiffTensor(x_arr), w, "enc1", train=False).data

        # independent composition of conv, eval-mode batchnorm and ReLU, twice
        t = x_arr
        for j in (1, 2):
            p = {k: w[f"enc1.bn{j}.{k}"].data[:, None, None]
                 for k in ("gamma", "beta", "mean", "var")}
            t = conv2d_loops(t, w[f"enc1.conv{j}.w"].data, w[f"enc1.conv{j}.b"].data,
                             padding=1)
            t = p["gamma"] * (t - p["mean"]) / np.sqrt(p["var"] + 1e-5) + p["beta"]
            t = np.maximum(t, 0.0)
        np.testing.assert_allclose(got, t, atol=1e-5, rtol=1e-4)


class TestCrossAttention:
    def test_zero_wv_annihilates(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        level = 1
        w[f"xattn{level}.wv.w"].data[:] = 0
        w[f"xattn{level}.wv.b"].data[:] = 0
        q = DiffTensor(rng.standard_normal((2, 4, 8, 8)))
        out = cross_attention(q, [make_emb()] * 2, w, level)
        assert np.all(out.data == 0.0)

    def test_single_token_hand_computation(self, rng):
        cfg = tiny_config(max_tokens=1)
        w = init_weights(cfg)
        emb = embed(tokenize("pneumothorax", 1), cfg.d_e, cfg.embed_seed)
        q_arr = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        out = cross_attention(DiffTensor(q_arr), [emb], w, 1).data

        # softmax over one token is [1], so the gate is tanh of the projected
        # value vector, identical for every pixel
        a = {k: t.data for k, t in w.items()}
        k = emb.astype(np.float64) @ a["xattn1.tproj.w"] + a["xattn1.tproj.b"]
        v = k @ a["xattn1.wv.w"] + a["xattn1.wv.b"]          # (1, c)
        gate = np.tanh(v)[0]                                  # (c,)
        want = q_arr * gate[None, :, None, None]
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_token_permutation_invariance(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        emb = make_emb("small right basal pneumothorax", cfg)   # 4 of 8 are pads
        q = DiffTensor(rng.standard_normal((1, 4, 8, 8)))
        out1 = cross_attention(q, [emb], w, 1).data
        perm = rng.permutation(cfg.max_tokens)
        out2 = cross_attention(q, [emb[perm]], w, 1).data
        np.testing.assert_allclose(out1, out2, atol=1e-6)

    def test_gating_bound(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        q_arr = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        out = cross_attention(DiffTensor(q_arr), [make_emb()] * 2, w, 1).data
        assert np.all(np.abs(out) <= np.abs(q_arr) + 1e-7)

    def test_non_finite_logits_raise(self, rng):
        w = init_weights(tiny_config())
        w["xattn1.wq.w"].data[0, 0] = np.inf
        q = DiffTensor(rng.standard_normal((1, 4, 8, 8)))
        with pytest.raises(NumericalError, match="cross-attention logits"):
            cross_attention(q, [make_emb()], w, 1)

    def test_projection_of_the_wrong_width_raises(self, rng):
        # embeddings of width d_e = 8 against a projection that takes 9
        w = init_weights(tiny_config())
        w["xattn1.tproj.w"] = DiffTensor(np.zeros((9, 4)))
        q = DiffTensor(rng.standard_normal((1, 4, 8, 8)))
        with pytest.raises(ShapeError, match="matmul: inner dimensions disagree"):
            cross_attention(q, [make_emb()], w, 1)

    def test_no_gradient_into_embeddings(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        q = DiffTensor(rng.standard_normal((1, 4, 8, 8)), requires_grad=True)
        out = cross_attention(q, [make_emb()], w, 1)
        backward(dc.mean_all(out))
        assert q.grad is not None


    # three reports of different lengths: 3 tokens, 7 tokens and none
    BATCH_REPORTS = ("left pneumothorax.", "large right basal pneumothorax is seen.", "")

    def test_batch_matches_per_item_oracle(self, verify64, rng):
        # at 8 token rows the 7-token report has no padding run to merge; at
        # 32 every report has one, and the oracle attends over all 32 rows
        for max_tokens in (8, 32):
            cfg = tiny_config(max_tokens=max_tokens)
            w = init_weights(cfg)
            for name, t in w.items():           # nonzero biases too
                if name.startswith("xattn1."):
                    t.data[:] = 0.5 * rng.standard_normal(t.data.shape)
            embs = [make_emb(text, cfg) for text in self.BATCH_REPORTS]
            q = rng.standard_normal((3, 4, 6, 5))
            got = cross_attention(DiffTensor(q), embs, w, 1).data
            want = cross_attention_direct(q, embs, {k: t.data for k, t in w.items()}, 1)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_other_items_report_leaves_item_bitwise_unchanged(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        embs = [make_emb(text, cfg) for text in self.BATCH_REPORTS]
        q = DiffTensor(rng.standard_normal((3, 4, 8, 8)))
        base = cross_attention(q, embs, w, 1).data
        for j in range(3):
            changed = list(embs)
            changed[j] = make_emb("small left apical pneumothorax.", cfg)
            got = cross_attention(q, changed, w, 1).data
            assert not np.array_equal(got[j], base[j])
            for i in set(range(3)) - {j}:
                np.testing.assert_array_equal(got[i], base[i])

    def test_capture_holds_every_item(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        embs = [make_emb(text, cfg) for text in self.BATCH_REPORTS]
        q = DiffTensor(rng.standard_normal((3, 4, 8, 8)))
        capture = {}
        out = cross_attention(q, embs, w, 1, capture=capture)
        np.testing.assert_array_equal(capture["q"], q.data)
        np.testing.assert_array_equal(capture["qstar"], out.data)
        assert capture["tanh_a"].shape == (3, 4, 8, 8)
        for i, emb in enumerate(embs):
            one = {}
            cross_attention(DiffTensor(q.data[i:i + 1]), [emb], w, 1, capture=one)
            for key in ("q", "tanh_a", "qstar"):
                np.testing.assert_array_equal(capture[key][i], one[key][0])

    def test_batch_gradients(self, verify64, rng):
        cfg = tiny_config()
        embs = [make_emb(text, cfg) for text in self.BATCH_REPORTS[:2]]
        tensors = {name: DiffTensor(0.5 * rng.standard_normal(shape),
                                    requires_grad=True)
                   for name, shape in weight_shapes(cfg).items()
                   if name.startswith("xattn1.")}
        tensors["q_feat"] = DiffTensor(rng.standard_normal((2, 4, 3, 3)),
                                       requires_grad=True)
        r = DiffTensor(rng.standard_normal((2, 4, 3, 3)))

        def loss():
            out = cross_attention(tensors["q_feat"], embs, tensors, 1)
            return dc.sum_all(dc.mul(out, r))

        report = finite_diff_check(loss, tensors, eps=1e-5, num_coords=1000)
        assert {c.param for c in report.checks} == set(tensors)
        for c in report.checks:
            if c.param == "xattn1.wk.b":
                # adds one constant to every logit of a row: softmax ignores
                # it, so the true gradient is 0 and only an absolute bound fits
                assert abs(c.analytic) < 1e-12 and abs(c.numeric) < 1e-9, c
            else:
                assert c.rel_err < 1e-6, c


class TestForwardPasses:
    def test_output_shape(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        img = rng.random((3, 1, 16, 16)).astype(np.float32)
        out = text_gated_forward(img, [make_emb()] * 3, w, cfg)
        assert out.data.shape == (3, 1, 16, 16)

    def test_allpad_report_is_image_function(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        e1 = make_emb("", cfg)
        e2 = make_emb("", cfg)
        a = text_gated_forward(img, [e1], w, cfg).data
        b = text_gated_forward(img, [e2], w, cfg).data
        np.testing.assert_array_equal(a, b)

    def test_different_reports_change_output(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        a = text_gated_forward(img, [make_emb("large left apical pneumothorax.",
                                              cfg)], w, cfg).data
        b = text_gated_forward(img, [make_emb("small right basal pneumothorax.",
                                              cfg)], w, cfg).data
        assert not np.array_equal(a, b)

    def test_full_forward_token_permutation_invariance(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        emb = make_emb("small right basal pneumothorax seen on image today", cfg)
        out1 = text_gated_forward(img, [emb], w, cfg).data
        perm = rng.permutation(cfg.max_tokens)
        out2 = text_gated_forward(img, [emb[perm]], w, cfg).data
        np.testing.assert_allclose(out1, out2, atol=1e-6)

    # A contralateral negation and its side-swapped twin hold the same tokens,
    # so the bag-of-tokens text path cannot tell the opposite sides apart.
    NEGATION_TWINS = ("No left pneumothorax. There is a small right apical pneumothorax.",
                      "No right pneumothorax. There is a small left apical pneumothorax.")

    def test_contralateral_negation_twins_give_the_same_mask(self, rng):
        cfg = ModelConfig()
        w = init_weights(cfg)
        img = rng.random((1, 1, 64, 64)).astype(np.float32)
        a, b = (text_gated_forward(img, [make_emb(text, cfg)], w, cfg).data
                for text in self.NEGATION_TWINS)
        np.testing.assert_allclose(a, b, atol=1e-6)
        np.testing.assert_array_equal(predict_mask(a), predict_mask(b))

    def test_unet_params_strictly_fewer(self):
        cfg = tiny_config()
        assert param_count(init_weights(cfg, with_attention=False)) < \
            param_count(init_weights(cfg, with_attention=True))

    def test_unet_shape_and_report_independence(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg, with_attention=False)
        img = rng.random((2, 1, 16, 16)).astype(np.float32)
        out = unet_forward(img, w, cfg)
        assert out.data.shape == (2, 1, 16, 16)
        np.testing.assert_array_equal(out.data, unet_forward(img, w, cfg).data)

    def test_wrong_image_size_rejected(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        for h, w_ in ((18, 16), (16, 18)):
            with pytest.raises(ShapeError, match=rf"input is {h}x{w_}; .* "
                                                 r"divisible by 2\^depth = 4"):
                text_gated_forward(rng.random((1, 1, h, w_)).astype(np.float32),
                                   [make_emb()], w, cfg)

    @pytest.mark.parametrize("with_attention", [True, False])
    def test_same_weights_run_at_every_divisible_size(self, rng, with_attention):
        cfg = tiny_config()
        w = init_weights(cfg, with_attention)
        for size in ((16, 16), (32, 32), (16, 32)):
            img = rng.random((1, 1, *size)).astype(np.float32)
            out = (text_gated_forward(img, [make_emb()], w, cfg) if with_attention
                   else unet_forward(img, w, cfg))
            assert out.data.shape == (1, 1, *size)
            assert np.all(np.isfinite(out.data))

    def test_batch_embeddings_length_checked(self, rng):
        cfg = tiny_config()
        w = init_weights(cfg)
        img = rng.random((3, 1, 16, 16)).astype(np.float32)
        with pytest.raises(ShapeError, match="embeddings"):
            text_gated_forward(img, [make_emb()] * 2, w, cfg)

    # One node per conv sublayer, pool, up-conv and the head: 21 at the
    # default depth of 3. Each gated level adds five: the text, key and value
    # projections (each a matmul with its bias), the gate and its product.
    @pytest.mark.parametrize("with_attention, nodes", [(True, 36), (False, 21)],
                             ids=["full", "baseline_unet"])
    def test_graph_node_count(self, rng, with_attention, nodes):
        cfg = ModelConfig()
        w = init_weights(cfg, with_attention)
        img = rng.random((2, 1, 16, 16)).astype(np.float32)
        logits = (text_gated_forward(img, [make_emb(cfg=cfg)] * 2, w, cfg, train=True)
                  if with_attention else unet_forward(img, w, cfg, train=True))
        seen, todo = set(), [logits]
        while todo:
            t = todo.pop()
            if t._parents and id(t) not in seen:
                seen.add(id(t))
                todo.extend(t._parents)
        assert len(seen) == nodes


def no_grad(weights: dict) -> dict:
    return {name: DiffTensor(t.data) for name, t in weights.items()}


class TestOneImageUnderKReports:
    REPORTS = ("large left apical pneumothorax.", "large right apical pneumothorax.",
               "", "small left basal pneumothorax.")

    def test_logits_equal_k_single_report_forwards(self, rng):
        cfg = tiny_config()
        w = no_grad(init_weights(cfg))
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        embs = [make_emb(text, cfg) for text in self.REPORTS]
        capture = {}
        got = text_gated_forward(img, embs, w, cfg, capture=capture)
        assert got.data.shape == (len(embs), 1, 16, 16)
        assert got._parents == ()
        for i, emb in enumerate(embs):
            one = {}
            want = text_gated_forward(img, [emb], w, cfg, capture=one)
            np.testing.assert_array_equal(got.data[i], want.data[0])
            for level in one:
                for key, arr in one[level].items():
                    np.testing.assert_array_equal(capture[level][key][i], arr[0])

    def test_runs_the_encoder_once(self, rng, maxpool2_batches):
        cfg = tiny_config()
        w = no_grad(init_weights(cfg))
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        text_gated_forward(img, [make_emb(t, cfg) for t in self.REPORTS], w, cfg)
        assert maxpool2_batches == [1] * cfg.depth

    def test_weights_that_require_grad_raise(self, rng):
        cfg = tiny_config()
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        embs = [make_emb(t, cfg) for t in self.REPORTS[:2]]
        with pytest.raises(ShapeError, match="records no graph"):
            text_gated_forward(img, embs, init_weights(cfg), cfg)

    def test_image_that_requires_grad_raises(self, rng):
        cfg = tiny_config()
        img = DiffTensor(rng.random((1, 1, 16, 16)).astype(np.float32),
                         requires_grad=True)
        embs = [make_emb(t, cfg) for t in self.REPORTS[:2]]
        with pytest.raises(ShapeError, match="records no graph"):
            text_gated_forward(img, embs, no_grad(init_weights(cfg)), cfg)

    def test_train_mode_raises(self, rng):
        cfg = tiny_config()
        img = rng.random((1, 1, 16, 16)).astype(np.float32)
        embs = [make_emb(t, cfg) for t in self.REPORTS[:2]]
        with pytest.raises(ShapeError, match="eval-mode"):
            text_gated_forward(img, embs, no_grad(init_weights(cfg)), cfg,
                               train=True)


class TestPredictMask:
    def test_strict_threshold_at_zero_logit(self):
        assert predict_mask(np.zeros((1, 1)), 0.5).item() == 0

    def test_saturated_logit(self):
        assert predict_mask(np.full((1, 1), 1e4), 0.5).item() == 1

    def test_thresholds_nest(self, rng):
        logits = rng.standard_normal((16, 16)) * 3
        m25 = predict_mask(logits, 0.25)
        m50 = predict_mask(logits, 0.5)
        m75 = predict_mask(logits, 0.75)
        assert np.all(m50 <= m25) and np.all(m75 <= m50)
