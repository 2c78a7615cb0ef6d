"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, probe, viz, predict. Configs are
one JSON document with sections train/model/augment/split/data plus a top
level seed; an empty or missing file means all defaults. Dotted --override
keys (repeatable) are applied last. --override is the one way to set the seed
and the sample count: `--override seed=3`, `--override data.n=16`. `train`
writes a checkpoint and its run record, whose "test" entry has the shape of
`eval`'s eval.json. `ablate` trains the four arms of train.paper_arms on
every fold seed, `--jobs` of those (arm, fold) runs at a time, and sums the
folds up in one comparison.json.

Every command takes one path through `run`: load the config once; for the
commands that take --data, read the dataset once, from --data or else
data.dir; run the command; and, only when it returned and --out is set,
write `invocation.json` there. That echo holds the config sections the
command reads, the dataset directory it read, and a top-level "command" name
that loading skips, so `--config run/invocation.json` repeats the run.

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

from .augment import AugmentPolicy, swap_word
from .data import (GeneratorConfig, SplitSpec, decode_image, dice,
                   generate_dataset, read_dataset, read_pgm, write_dataset,
                   write_pgm)
from .errors import ConfigError, DataFormatError, NumericalError, ShapeError
from .model import ModelConfig
from .train import (TrainConfig, ablate, attention_dump, evaluate, paper_arms,
                    train, word_swap_probe)
from .util import write_json

_SECTIONS = {
    "train": TrainConfig,
    "model": ModelConfig,
    "augment": AugmentPolicy,
    "split": SplitSpec,
    "data": GeneratorConfig,
}
_TRAIN_SCALARS = tuple(f.name for f in fields(TrainConfig)
                       if f.name not in ("seed", "model", "policy", "split"))


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
    """Parse the config document, apply overrides, return the config bundle:
    the first step of the one path that `run` takes for every command.

    Each section's dataclass checks its own values, and data.dir, when set,
    must be a string. Returns (TrainConfig, GeneratorConfig, data_dir or None,
    echo_dict); `run` sets the echo's data.dir to the dataset it read, and
    writes the echo once the command has succeeded.
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

    def build(section, cls, **extra):
        # data.dir is the one config key that is no dataclass field
        src = {k: v for k, v in doc.get(section, {}).items() if k != "dir"}
        try:
            return cls(**src, **extra)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"config section {section!r}: {e}") from None

    model = build("model", ModelConfig)
    policy = build("augment", AugmentPolicy)
    split = build("split", SplitSpec)
    gen = build("data", GeneratorConfig)
    cfg = build("train", TrainConfig, seed=doc.get("seed", 0), model=model,
                policy=policy, split=split)
    data_dir = doc.get("data", {}).get("dir")
    if data_dir is not None and not isinstance(data_dir, str):
        raise ConfigError(f"data.dir must be a string, got {data_dir!r}")

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
    write_json(Path(out_dir) / "invocation.json", {"command": command, **doc})


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
    p.add_argument("--jobs", type=int, default=1,
                   help="(arm, fold) runs in parallel")

    p = common(sub.add_parser("probe", help="word-swap probe"),
               out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--swap", action="append", default=[], metavar="FROM:TO")

    p = common(sub.add_parser("viz", help="dump attention maps"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--swap", metavar="FROM:TO",
                   help="default: the report's side word, left or right, "
                   "for the other")
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


# Each command takes the parsed flags, the TrainConfig, the GeneratorConfig
# and the dataset (None for the commands without --data), and writes only its
# own artifacts; `run` writes the echo.

def _cmd_gen_data(args, cfg, gen, samples) -> None:
    made = generate_dataset(gen, cfg.seed)
    write_dataset(made, args.out, meta={"generator": asdict(gen), "seed": cfg.seed})
    print(f"wrote {len(made)} samples to {args.out}")


def _cmd_train(args, cfg, gen, samples) -> None:
    record = train(cfg, samples, args.out)
    print(f"arm={cfg.ablation} best_epoch={record.best_epoch} "
          f"test_dice={record.test.mean:.4f} sd={record.test.sd:.4f}")


def _cmd_eval(args, cfg, gen, samples) -> None:
    res = evaluate(args.checkpoint, samples, cfg)
    print(f"dice mean={res.mean:.4f} sd={res.sd:.4f} n={len(res.scores)}")
    if args.out:
        write_json(Path(args.out) / "eval.json", asdict(res))


def _cmd_ablate(args, cfg, gen, samples) -> None:
    out = ablate(paper_arms(cfg), samples, args.out, jobs=args.jobs)
    for arm, row in out["summary"].items():
        delta = row["delta_vs_full"]
        delta_s = f" delta={delta:+.4f}" if delta is not None else ""
        print(f"{arm}: dice={row['mean']:.4f} sd={row['sd']:.4f}{delta_s}")


def _percent(share) -> str:
    return "n/a" if share is None else f"{100.0 * share:.1f}%"


def _cmd_probe(args, cfg, gen, samples) -> None:
    swaps = _parse_swaps(args.swap) or [("left", "right"), ("large", "small")]
    report = word_swap_probe(args.checkpoint, samples, swaps, cfg)
    for key, agg in report["swaps"].items():
        print(f"{key}: n={agg['samples']} flip_rate={_percent(agg['flip_rate'])} "
              f"area_ratio={_percent(agg['mean_area_ratio'])}")
    if args.out:
        write_json(Path(args.out) / "probe.json", report)


def _cmd_viz(args, cfg, gen, samples) -> None:
    if not 0 <= args.index < len(samples):
        raise CliUsageError(f"--index {args.index} outside dataset of {len(samples)}")
    sample = samples[args.index]
    if args.swap is not None:
        swap = _parse_swaps([args.swap])[0]
    elif (swap_word(sample.report, "left", "right") == sample.report
          and swap_word(sample.report, "right", "left") != sample.report):
        swap = ("right", "left")
    else:
        # left -> right, which a report with no side word refuses
        swap = ("left", "right")
    files = attention_dump(args.checkpoint, sample, args.out, cfg, swap=swap,
                           channel=args.channel)
    print(f"wrote {len(files)} maps to {args.out}")


def _cmd_predict(args, cfg, gen, samples) -> None:
    from .model import predict_mask
    from .train import _as_weights, _forward_batch

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
        args = _build_parser().parse_args(argv)
        cfg, gen, data_dir, echo = load_config(args.config, args.override)
        samples = None
        if hasattr(args, "data"):
            path = args.data or data_dir
            if not path:
                raise CliUsageError("no dataset directory: pass --data or set data.dir")
            samples = read_dataset(path)
            echo["data"]["dir"] = path
        _COMMANDS[args.command](args, cfg, gen, samples)
        if args.out:
            _write_echo(args.out, args.command, echo)
        return 0
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
