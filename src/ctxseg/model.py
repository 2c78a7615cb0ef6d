"""Text-gated U-Net and its text-free baseline.

The encoder is a standard double-conv stack with max-pool downsampling. On
the way up, each level's upsampled features are gated by single-head
cross-attention against the report's token embeddings: every pixel attends
over the tokens, the token-value mix is squashed through tanh, and the
result multiplies the pixel features elementwise; its pixel side is one
channel-major `attention_gate` node. The decoder's first conv reads the gated
features and the encoder skip side by side on the channel axis. The
baseline swaps the gate for identity and shares every other parameter
shape, so ablation deltas isolate the attention path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import DiffTensor
from .errors import ShapeError
from .util import check_int, check_seed, fnv1a_str, rng_from


@dataclass
class ModelConfig:
    channels: list = field(default_factory=lambda: [8, 16, 32])
    bottleneck: int = 64
    d_e: int = 32
    max_tokens: int = 32
    init_seed: int = 0
    embed_seed: int = 7001

    def __post_init__(self):
        for c in self.channels:
            check_int("channels entry", c)
            if c < 1:
                raise ValueError(f"channels entries must be at least 1, got {c}")
        for name in ("bottleneck", "d_e", "max_tokens"):
            check_int(name, getattr(self, name))
        check_seed("init_seed", self.init_seed)
        check_seed("embed_seed", self.embed_seed)
        if not self.channels:
            raise ValueError("channels needs at least one encoder level")
        ladder = list(self.channels) + [self.bottleneck]
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"channel ladder must be strictly increasing: {ladder}")
        if self.d_e < 1 or self.max_tokens < 1:
            raise ValueError("d_e and max_tokens must be at least 1")

    @property
    def depth(self) -> int:
        """Encoder levels above the bottleneck: one per `channels` entry."""
        return len(self.channels)

    def level_channels(self, i: int) -> int:
        """Channel count at level i, where level depth+1 is the bottleneck."""
        return self.bottleneck if i == self.depth + 1 else self.channels[i - 1]


# ---------------------------------------------------------------------------
# initialization

def weight_shapes(cfg: ModelConfig, with_attention: bool = True) -> dict:
    """{name: shape} of every model tensor, in checkpoint order.

    Conv kernels are OIHW, up-conv kernels IOHW and projection matrices
    (in, out). Each conv sublayer j of a block has a kernel `convj.w`, a bias
    `convj.b` and batch-norm `bnj.gamma`, `bnj.beta`, `bnj.mean`, `bnj.var`.
    """
    shapes: dict = {}

    def conv_block(prefix, cin, cout):
        for j, c in ((1, cin), (2, cout)):
            shapes[f"{prefix}.conv{j}.w"] = (cout, c, 3, 3)
            shapes[f"{prefix}.conv{j}.b"] = (cout,)
            for part in ("gamma", "beta", "mean", "var"):
                shapes[f"{prefix}.bn{j}.{part}"] = (cout,)

    d = cfg.depth
    cin = 1
    for i in range(1, d + 2):
        cout = cfg.level_channels(i)
        conv_block(f"enc{i}", cin, cout)
        cin = cout
    for i in range(d, 0, -1):
        c = cfg.channels[i - 1]
        shapes[f"up{i}.w"] = (cfg.level_channels(i + 1), c, 2, 2)
        shapes[f"up{i}.b"] = (c,)
        if with_attention:
            shapes[f"xattn{i}.tproj.w"] = (cfg.d_e, c)
            shapes[f"xattn{i}.tproj.b"] = (c,)
            for part in ("wq", "wk", "wv"):
                shapes[f"xattn{i}.{part}.w"] = (c, c)
                shapes[f"xattn{i}.{part}.b"] = (c,)
        conv_block(f"dec{i}", 2 * c, c)
    shapes["head.w"] = (1, cfg.channels[0], 1, 1)
    shapes["head.b"] = (1,)
    return shapes


def init_weights(cfg: ModelConfig, with_attention: bool = True) -> dict:
    """Deterministic weights keyed per tensor name, so the two model variants
    share identical values for every name they have in common.

    Kernels and matrices (`.w`) are Kaiming-uniform over their fan-in, the
    product of every axis but the output one. Biases and `beta` start at 0
    and `gamma` at 1. The running mean (0) and variance (1) take no gradient.
    """
    w: dict = {}
    for name, shape in weight_shapes(cfg, with_attention).items():
        part = name.rsplit(".", 1)[1]
        if part == "w":
            # the output axis is 1 in IOHW up-conv kernels and (in, out)
            # matrices, 0 in OIHW conv kernels
            out_axis = 1 if name.startswith("up") or len(shape) == 2 else 0
            bound = math.sqrt(6.0 / (math.prod(shape) // shape[out_axis]))
            rng = rng_from(cfg.init_seed, fnv1a_str(name))
            w[name] = DiffTensor(rng.uniform(-bound, bound, size=shape),
                                 requires_grad=True)
        else:
            fill = np.ones if part in ("gamma", "var") else np.zeros
            w[name] = DiffTensor(fill(shape),
                                 requires_grad=part not in ("mean", "var"))
    return w


# ---------------------------------------------------------------------------
# forward passes

def _double_conv(x, weights, prefix, train, skip=None):
    """Two conv3x3 -> batchnorm -> ReLU sublayers, one `conv_bn_relu` graph
    node each; spatial size preserved. The first sublayer also reads `skip`,
    as channels after x's."""
    for j in (1, 2):
        x = dc.conv_bn_relu(x, weights[f"{prefix}.conv{j}.w"],
                            weights[f"{prefix}.conv{j}.b"],
                            weights[f"{prefix}.bn{j}.gamma"],
                            weights[f"{prefix}.bn{j}.beta"],
                            weights[f"{prefix}.bn{j}.mean"],
                            weights[f"{prefix}.bn{j}.var"], train, skip)
        skip = None
    return x


def cross_attention(q_feat: DiffTensor, embs: list, weights: dict, level: int,
                    capture: dict | None = None) -> DiffTensor:
    """Gate pixel features by attention over report tokens, batch at once.

    `embs` holds one (l, d_e) token matrix from textenc.embed per item of Q
    (n, c, h, w); the gate reads its weights by name, `xattn{level}.tproj.w`
    and the like. The matrices are stacked to E (n, l, d_e) and projected to
    T = E Wt + bt, keys T Wk + bk and values T Wv + bv, all (n, l, c), each
    one `matmul` with its bias. One `attention_gate` node lets every pixel of
    Q attend over all l of its own item's tokens, padding included (scaled
    dot product, softmax across the l tokens; the padding run is read as one
    row of weight r, which is exact), and squashes the value mix through
    tanh; the gate then multiplies Q elementwise. `capture` receives
    the input, tanh gate and output maps of every item, as (n, c, h, w)
    arrays under "q", "tanh_a" and "qstar".
    """
    n = q_feat.data.shape[0]
    if len(embs) != n:
        raise ShapeError(f"{len(embs)} embeddings for batch of {n}")
    p = f"xattn{level}"
    e = DiffTensor(np.stack(embs))                          # frozen: no grad path
    t = dc.matmul(e, weights[f"{p}.tproj.w"], weights[f"{p}.tproj.b"])
    keys = dc.matmul(t, weights[f"{p}.wk.w"], weights[f"{p}.wk.b"])
    values = dc.matmul(t, weights[f"{p}.wv.w"], weights[f"{p}.wv.b"])
    gate = dc.attention_gate(q_feat, weights[f"{p}.wq.w"], weights[f"{p}.wq.b"],
                             keys, values)
    out = dc.mul(gate, q_feat)
    if capture is not None:
        capture["q"] = q_feat.data.copy()
        capture["tanh_a"] = gate.data.copy()
        capture["qstar"] = out.data.copy()
    return out


def _prepare_image(image, cfg: ModelConfig) -> DiffTensor:
    x = image if isinstance(image, DiffTensor) else DiffTensor(image)
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"expected N x 1 x H x W input, got {x.data.shape}")
    h, w = x.data.shape[2:]
    if h % 2 ** cfg.depth or w % 2 ** cfg.depth:
        raise ShapeError(f"input is {h}x{w}; the model needs sides divisible "
                         f"by 2^depth = {2 ** cfg.depth}")
    return x


def _updown(image, embs, weights, cfg, train, capture):
    """Encoder, bottleneck and decoder; each decoder level is text-gated when
    `embs` is a list of reports, ungated when it is None. One image under k
    reports is an eval-mode forward that records no graph: the encoder runs
    once at batch 1 and its outputs are repeated k times for the decoder.
    Any other image/report count mismatch is a ShapeError."""
    x = _prepare_image(image, cfg)
    n = x.data.shape[0]
    k = n if embs is None else len(embs)
    if k != n:
        if n != 1:
            raise ShapeError(f"{k} embeddings for batch of {n}")
        if train or x.requires_grad or any(t.requires_grad for t in weights.values()):
            raise ShapeError(f"{k} reports for one image need an eval-mode "
                             "forward that records no graph")
    skips = []
    for i in range(1, cfg.depth + 1):
        x = _double_conv(x, weights, f"enc{i}", train)
        skips.append(x)
        x = dc.maxpool2(x)
    x = _double_conv(x, weights, f"enc{cfg.depth + 1}", train)
    if k != n:
        # the encoder read no report: decode its one output under k reports
        x, *skips = (DiffTensor(np.repeat(t.data, k, axis=0)) for t in (x, *skips))
    for i in range(cfg.depth, 0, -1):
        x = dc.upconv2(x, weights[f"up{i}.w"], weights[f"up{i}.b"])
        if embs is not None:
            cap_i = {} if capture is not None else None
            x = cross_attention(x, embs, weights, i, cap_i)
            if capture is not None:
                capture[i] = cap_i
        x = _double_conv(x, weights, f"dec{i}", train, skip=skips[i - 1])
    return dc.conv2d(x, weights["head.w"], weights["head.b"])


def text_gated_forward(image, embs: list, weights: dict, cfg: ModelConfig,
                       train: bool = False, capture: dict | None = None
                       ) -> DiffTensor:
    """Full forward pass: encoder, bottleneck, gated decoder, 1x1 logit head.

    `embs` holds one textenc.embed matrix per image. An eval-mode forward
    that records no graph also takes one image under k reports: the encoder
    runs once at batch 1 and the decoder at batch k, giving the logits of k
    single-report forwards, bitwise. Any other count mismatch, or k reports
    on a forward that needs a graph or train mode, raises ShapeError.
    `capture`, if given, maps each decoder level to its gate's maps (see
    cross_attention)."""
    return _updown(image, embs, weights, cfg, train, capture)


def unet_forward(image, weights: dict, cfg: ModelConfig,
                 train: bool = False) -> DiffTensor:
    """Baseline without a text path: the attention gate becomes identity."""
    return _updown(image, None, weights, cfg, train, None)


def predict_mask(logits, threshold: float = 0.5) -> np.ndarray:
    """Binarize logits: sigmoid(z) strictly above threshold."""
    z = logits.data if isinstance(logits, DiffTensor) else np.asarray(logits)
    return (dc.sigmoid_np(z) > threshold).astype(np.uint8)
