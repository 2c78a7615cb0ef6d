"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, probe, viz, predict. Configs are
one JSON document with sections train/model/augment/split/data plus a top
level seed; an empty or missing file means all defaults. Dotted --override
keys (repeatable) are applied last. --override is the one way to set the seed
and the sample count: `--override seed=3`, `--override data.n=16`. `ablate`
runs the four arms of train.paper_arms. Every artifact-producing run that
succeeds writes `invocation.json`, the config sections its command reads
plus a top-level "command" name that loading skips, so
`--config run/invocation.json` repeats the run.

Exit codes: 0 success; 1 usage or config error, or any other invalid value
(a ValueError, e.g. a swap word no report contains, or viz on an arm without
cross-attention); 2 data, shape or IO error; 3 numerical failure. Each error
prints one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .augment import AugmentPolicy
from .data import (GeneratorConfig, SplitSpec, decode_image, dice,
                   generate_dataset, read_dataset, read_pgm, write_dataset,
                   write_pgm)
from .errors import ConfigError, DataFormatError, NumericalError, ShapeError
from .model import ModelConfig
from .train import (TrainConfig, ablate, attention_dump, evaluate, paper_arms,
                    train, word_swap_probe)

_SECTIONS = {
    "train": TrainConfig,
    "model": ModelConfig,
    "augment": AugmentPolicy,
    "split": SplitSpec,
    "data": GeneratorConfig,
}
_TRAIN_SCALARS = tuple(f.name for f in fields(TrainConfig)
                       if f.name not in ("seed", "model", "policy", "split"))
_TUPLE_FIELDS = {"fractions"}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _valid_keys() -> list:
    keys = ["seed", "data.dir"]
    for section, cls in _SECTIONS.items():
        names = ([f.name for f in fields(cls)] if section != "train"
                 else list(_TRAIN_SCALARS))
        keys.extend(f"{section}.{k}" for k in names)
    return keys


def _check_key(path: str) -> None:
    valid = _valid_keys()
    if path in valid:
        return
    near = difflib.get_close_matches(path, valid, n=1)
    hint = f"; did you mean {near[0]!r}?" if near else ""
    raise ConfigError(f"unknown config key {path!r}{hint}")


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def load_config(path, overrides=()):
    """Parse the config document, apply overrides, return the config bundle.

    Returns (TrainConfig, GeneratorConfig, data_dir or None, echo_dict).
    """
    doc = {}
    if path:
        text = Path(path).read_text()
        if text.strip():
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")

    for section, content in doc.items():
        if section in ("seed", "command"):
            continue
        if section not in _SECTIONS:
            _check_key(section if "." in section else f"{section}.")
        if not isinstance(content, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in content:
            _check_key(f"{section}.{key}")

    for ov in overrides:
        key, value = _parse_override(ov)
        if key == "seed":
            doc["seed"] = value
            continue
        _check_key(key)
        section, name = key.split(".", 1)
        doc.setdefault(section, {})[name] = value

    def build(section, cls, skip=()):
        src = {k: v for k, v in doc.get(section, {}).items() if k not in skip}
        for k in list(src):
            if k in _TUPLE_FIELDS and isinstance(src[k], list):
                src[k] = tuple(src[k])
        try:
            return cls(**src)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"config section {section!r}: {e}") from None

    model = build("model", ModelConfig)
    policy = build("augment", AugmentPolicy)
    split = build("split", SplitSpec)
    gen = build("data", GeneratorConfig, skip=("dir",))
    data_dir = doc.get("data", {}).get("dir")
    train_kwargs = {k: v for k, v in doc.get("train", {}).items()}
    try:
        cfg = TrainConfig(seed=int(doc.get("seed", 0)), model=model,
                          policy=policy, split=split, **train_kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config section 'train': {e}") from None

    echo = {"seed": cfg.seed, "train": {k: getattr(cfg, k) for k in _TRAIN_SCALARS},
            "model": asdict(model), "augment": asdict(policy),
            "split": asdict(split),
            "data": {**asdict(gen), **({"dir": data_dir} if data_dir else {})}}
    return cfg, gen, data_dir, echo


def _write_echo(out_dir, command, echo) -> None:
    """invocation.json: the sections of `echo` that `command` reads. Only
    gen-data reads the generator config; it reads no other section."""
    if command == "gen-data":
        doc = {"seed": echo["seed"], "data": echo["data"]}
    else:
        doc = {**echo, "data": {k: v for k, v in echo["data"].items() if k == "dir"}}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "invocation.json").write_text(
        json.dumps({"command": command, **doc}, indent=2, sort_keys=True,
                   default=str) + "\n")


def _load_samples(args, data_dir):
    path = getattr(args, "data", None) or data_dir
    if not path:
        raise CliUsageError("no dataset directory: pass --data or set data.dir")
    return read_dataset(path), str(path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
        return p

    common(sub.add_parser("gen-data", help="generate a synthetic dataset"))

    p = common(sub.add_parser("train", help="train one fold"))
    p.add_argument("--data", help="dataset directory")

    p = common(sub.add_parser("eval", help="evaluate a checkpoint"),
               out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")

    p = common(sub.add_parser("ablate", help="run the ablation battery"))
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--jobs", type=int, default=1, help="arms run in parallel")

    p = common(sub.add_parser("probe", help="word-swap probe"),
               out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--swap", action="append", default=[], metavar="FROM:TO")

    p = common(sub.add_parser("viz", help="dump attention maps"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--swap", default="left:right", metavar="FROM:TO")
    p.add_argument("--channel", type=int, default=0)

    p = common(sub.add_parser("predict", help="segment one image"),
               out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="16-bit PGM image")
    p.add_argument("--report", default="", help="report text")
    p.add_argument("--truth", help="reference mask PGM for a Dice printout")
    p.add_argument("--mask-out", help="where to write the predicted mask PGM")
    return parser


def _parse_swaps(items):
    swaps = []
    for item in items:
        if ":" not in item:
            raise CliUsageError(f"--swap {item!r} is not of the form FROM:TO")
        src, dst = item.split(":", 1)
        swaps.append((src.strip(), dst.strip()))
    return swaps


def _cmd_gen_data(args) -> int:
    cfg, gen, _, echo = load_config(args.config, args.override)
    samples = generate_dataset(gen, cfg.seed)
    write_dataset(samples, args.out, meta={"generator": asdict(gen),
                                           "seed": cfg.seed})
    _write_echo(args.out, "gen-data", echo)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg, _, data_dir, echo = load_config(args.config, args.override)
    samples, path = _load_samples(args, data_dir)
    record = train(cfg, samples, args.out)
    echo["data"]["dir"] = path
    _write_echo(args.out, "train", echo)
    print(f"arm={record.ablation} best_epoch={record.best_epoch} "
          f"test_dice={record.test_dice_mean:.4f} sd={record.test_dice_sd:.4f}")
    return 0


def _cmd_eval(args) -> int:
    cfg, _, data_dir, echo = load_config(args.config, args.override)
    samples, path = _load_samples(args, data_dir)
    res = evaluate(args.checkpoint, samples, cfg)
    print(f"dice mean={res.mean:.4f} sd={res.sd:.4f} n={len(res.scores)}")
    if args.out:
        echo["data"]["dir"] = path
        _write_echo(args.out, "eval", echo)
        (Path(args.out) / "eval.json").write_text(json.dumps(
            {"mean": res.mean, "sd": res.sd, "scores": res.scores},
            indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_ablate(args) -> int:
    cfg, _, data_dir, echo = load_config(args.config, args.override)
    samples, path = _load_samples(args, data_dir)
    out = ablate(paper_arms(cfg), samples, args.out, jobs=args.jobs)
    echo["data"]["dir"] = path
    _write_echo(args.out, "ablate", echo)
    for arm, row in out["summary"].items():
        delta = row["delta_vs_full"]
        delta_s = f" delta={delta:+.4f}" if delta is not None else ""
        print(f"{arm}: dice={row['mean']:.4f} sd={row['sd']:.4f}{delta_s}")
    return 0


def _cmd_probe(args) -> int:
    cfg, _, data_dir, echo = load_config(args.config, args.override)
    samples, path = _load_samples(args, data_dir)
    swaps = _parse_swaps(args.swap) or [("left", "right"), ("large", "small")]
    report = word_swap_probe(args.checkpoint, samples, swaps, cfg)
    for key, agg in report["swaps"].items():
        print(f"{key}: n={agg['samples']} flip_rate={100.0 * agg['flip_rate']:.1f}% "
              f"area_ratio={100.0 * agg['mean_area_ratio']:.1f}%")
    if args.out:
        echo["data"]["dir"] = path
        _write_echo(args.out, "probe", echo)
        (Path(args.out) / "probe.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_viz(args) -> int:
    cfg, _, data_dir, echo = load_config(args.config, args.override)
    samples, path = _load_samples(args, data_dir)
    if not 0 <= args.index < len(samples):
        raise CliUsageError(f"--index {args.index} outside dataset of {len(samples)}")
    src, dst = _parse_swaps([args.swap])[0]
    files = attention_dump(args.checkpoint, samples[args.index], args.out, cfg,
                           swap=(src, dst), channel=args.channel)
    echo["data"]["dir"] = path
    _write_echo(args.out, "viz", echo)
    print(f"wrote {len(files)} maps to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from .model import predict_mask
    from .train import _as_weights, _forward_batch

    cfg, _, _, echo = load_config(args.config, args.override)
    raw, maxval = read_pgm(args.image)
    if maxval != 65535:
        raise DataFormatError(f"{args.image}: predict expects a 16-bit image PGM")
    image = decode_image(raw)
    weights = _as_weights(args.checkpoint, cfg.model, cfg.ablation)
    logits = _forward_batch(weights, [image], [args.report], cfg, train=False)
    mask = predict_mask(logits, cfg.threshold)[0, 0]
    if args.mask_out:
        write_pgm(args.mask_out, mask * np.uint8(255), 255)
    print(f"predicted {int(mask.sum())} positive pixels")
    if args.truth:
        t_raw, _ = read_pgm(args.truth)
        print(f"dice={dice(mask, (t_raw > 127).astype(np.uint8)):.4f}")
    if args.out:
        _write_echo(args.out, "predict", echo)
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "probe": _cmd_probe,
    "viz": _cmd_viz,
    "predict": _cmd_predict,
}


def run(argv) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliUsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
