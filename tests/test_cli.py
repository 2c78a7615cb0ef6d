"""Command-line entry points, run in-process through `run`."""

from ctxseg.cli import run
from ctxseg.data import (GeneratorConfig, encode_image, generate_dataset,
                         read_pgm, write_pgm)
from ctxseg.diffcore import save_checkpoint
from ctxseg.model import ModelConfig, init_weights

SMALL_MODEL = ["model.image_size=32", "model.depth=2", "model.channels=[4,8]",
               "model.bottleneck=16", "model.d_e=8", "model.max_tokens=16"]


def test_predict_on_baseline_checkpoint(tmp_path):
    mc = ModelConfig(image_size=32, depth=2, channels=[4, 8], bottleneck=16,
                     d_e=8, max_tokens=16)
    ckpt = tmp_path / "baseline.ctxn"
    save_checkpoint(ckpt, init_weights(mc, with_attention=False))
    sample = generate_dataset(GeneratorConfig(n=1, image_size=32), base_seed=5)[0]
    write_pgm(tmp_path / "image.pgm", encode_image(sample.image), 65535)
    argv = ["predict", "--checkpoint", str(ckpt),
            "--image", str(tmp_path / "image.pgm"), "--report", sample.report,
            "--mask-out", str(tmp_path / "mask.pgm"),
            "--override", "train.ablation=baseline_unet"]
    for ov in SMALL_MODEL:
        argv += ["--override", ov]
    assert run(argv) == 0
    mask, maxval = read_pgm(tmp_path / "mask.pgm")
    assert maxval == 255 and mask.shape == (32, 32)
