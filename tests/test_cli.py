"""Command-line entry points, run in-process through `run`."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ctxseg.cli import _build_parser, run
from ctxseg.data import (GeneratorConfig, dice, encode_image, generate_dataset,
                         read_dataset, read_image, read_mask, read_pgm,
                         write_dataset, write_pgm)
from ctxseg.diffcore import save_checkpoint
from ctxseg.model import ModelConfig, init_weights
from ctxseg.train import TrainConfig, predict

SMALL_MODEL = ["model.channels=[4,8]", "model.bottleneck=16", "model.d_e=8",
               "model.max_tokens=16"]
SMALL_MC = ModelConfig(channels=[4, 8], bottleneck=16, d_e=8, max_tokens=16)


def _with_small_model(argv):
    for ov in SMALL_MODEL:
        argv += ["--override", ov]
    return argv


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    data = tmp_path_factory.mktemp("cli") / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=8, image_size=32), base_seed=5),
                  data)
    return data


@pytest.fixture(scope="module")
def trained(data_dir):
    out = data_dir.parent / "run"
    argv = ["train", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1"]
    assert run(_with_small_model(argv)) == 0
    return out


def test_gen_data_writes_dataset_and_echo(tmp_path):
    out = tmp_path / "data"
    argv = ["gen-data", "--out", str(out), "--override", "data.n=8",
            "--override", "data.image_size=32"]
    assert run(argv) == 0
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 8
    echo = json.loads((out / "invocation.json").read_text())
    assert echo["command"] == "gen-data" and echo["data"]["n"] == 8


def test_train_writes_checkpoint_and_record(trained):
    for name in ("invocation.json", "checkpoint.ctxn", "runrecord.json"):
        assert (trained / name).is_file(), name
    record = json.loads((trained / "runrecord.json").read_text())
    assert len(record["train_loss"]) == 1


def test_train_reruns_from_its_own_echo(trained, tmp_path):
    echo = json.loads((trained / "invocation.json").read_text())
    assert echo["command"] == "train" and set(echo["data"]) == {"dir"}
    out = tmp_path / "rerun"
    assert run(["train", "--config", str(trained / "invocation.json"),
                "--out", str(out)]) == 0
    assert ((out / "checkpoint.ctxn").read_bytes()
            == (trained / "checkpoint.ctxn").read_bytes())


@pytest.mark.parametrize("command", ["gen-data", "eval", "probe", "viz"])
def test_command_reruns_from_its_own_echo(command, trained, data_dir, tmp_path):
    if command == "gen-data":
        again = []
        flags = ["--override", "data.n=4", "--override", "data.image_size=32"]
    else:
        again = ["--checkpoint", str(trained / "checkpoint.ctxn")]
        if command == "viz":
            # sample 0 reads "right"; the echo holds no --swap, so both runs pass it
            again += ["--swap", "right:left"]
        flags = _with_small_model(again + ["--data", str(data_dir)])
    first, second = tmp_path / "first", tmp_path / "second"
    assert run([command, "--out", str(first)] + flags) == 0
    assert run([command, "--config", str(first / "invocation.json"),
                "--out", str(second)] + again) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert Path("invocation.json") in files and len(files) > 1
    assert files == sorted(p.relative_to(second) for p in second.rglob("*")
                           if p.is_file())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command,flags,code", [
    ("eval", ["--override", "model.channels=[4,12]"], 2),
    ("probe", ["--swap", "zzz:yyy"], 1),
    ("viz", ["--swap", "right:left", "--override", "model.channels=[4,12]"], 2),
    ("viz", ["--swap", "zzz:yyy"], 1),
])
def test_failed_eval_or_probe_leaves_no_out_dir(command, flags, code, trained,
                                                data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = _with_small_model([command, "--checkpoint", str(trained / "checkpoint.ctxn"),
                              "--data", str(data_dir), "--out", str(out)])
    assert run(argv + flags) == code
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("saved_arm,loaded_arm", [
    ("full", "baseline_unet"), ("baseline_unet", "full")])
def test_checkpoint_of_another_arm_names_the_arm(saved_arm, loaded_arm, data_dir,
                                                 tmp_path, capsys):
    ckpt = tmp_path / "ckpt.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC,
                                       with_attention=saved_arm != "baseline_unet"))
    argv = _with_small_model(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                              "--override", f"train.ablation={loaded_arm}"])
    assert run(argv) == 2
    line = _assert_one_error_line(capsys)
    assert f"does not match model config and arm {loaded_arm!r} (missing" in line


def test_train_on_a_non_string_report_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=2, image_size=32), base_seed=5),
                  data)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "report": 5})
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out", str(out)]
    assert run(_with_small_model(argv)) == 2
    assert "manifest line 1: report must be a string" in _assert_one_error_line(capsys)
    assert not out.exists()


def test_eval_out_writes_scores(trained, data_dir, tmp_path):
    out = tmp_path / "eval"
    argv = ["eval", "--checkpoint", str(trained / "checkpoint.ctxn"),
            "--data", str(data_dir), "--out", str(out)]
    assert run(_with_small_model(argv)) == 0
    assert (out / "invocation.json").is_file()
    res = json.loads((out / "eval.json").read_text())
    assert len(res["scores"]) == 8 and 0.0 <= res["mean"] <= 1.0


def test_ablate_writes_all_four_arms(data_dir, tmp_path):
    out = tmp_path / "ablate"
    argv = ["ablate", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1", "--override", "split.fold_seeds=[101]"]
    assert run(_with_small_model(argv)) == 0
    assert (out / "invocation.json").is_file()
    summary = json.loads((out / "comparison.json").read_text())
    assert sorted(summary) == ["baseline_unet", "flip", "full", "no_text"]
    assert all(len(row["folds"]) == 1 for row in summary.values())
    # the flip arm is the full model under a flipping policy
    flip = json.loads((out / "flip" / "fold0" / "runrecord.json").read_text())
    assert flip["config"]["ablation"] == "full"
    assert flip["config"]["policy"]["p_hflip"] == 0.5


def test_ablate_with_an_empty_split_part_exits_1_with_no_out_dir(data_dir, tmp_path,
                                                                 capsys):
    out = tmp_path / "ablate"
    argv = ["ablate", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1",
            "--override", "split.fractions=[0.9,0.05,0.05]"]
    assert run(_with_small_model(argv)) == 1
    line = _assert_one_error_line(capsys)
    assert "leave the validation part of 8 samples empty" in line
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    ["augment.ssr_shift_max=0.4"],
    ["augment.brightness_max=0.3", "augment.p_photometric=1.0"],
    # keys removed because the code knows or fixes their value
    ["model.image_size=32"],
    ["model.attend_padding=false"],
    ["train.beta1=0.8"],
    ["train.beta2=0.99"],
    ["train.eps=1e-6"],
    ["train.weight_decay=0.0"],
    ["train.ablation=flip"],
])
def test_augment_bounds_are_not_config_keys(overrides, data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1"]
    for ov in overrides:
        argv += ["--override", ov]
    assert run(_with_small_model(argv)) == 1
    line = _assert_one_error_line(capsys)
    key, value = overrides[0].split("=")
    if key == "train.ablation":
        assert f"ablation must be one of ('full', 'no_text', 'baseline_unet'), " \
               f"got {value!r}" in line
    else:
        assert f"unknown config key {key!r}" in line
    assert not out.exists()


@pytest.mark.parametrize("fractions,part", [
    ("[0.9,0.05,0.05]", "validation"),
    ("[0.5,0.45,0.05]", "test"),
])
def test_train_with_an_empty_split_part_exits_1(fractions, part, data_dir, tmp_path,
                                                capsys):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1", "--override", f"split.fractions={fractions}"]
    assert run(_with_small_model(argv)) == 1
    line = _assert_one_error_line(capsys)
    assert f"leave the {part} part of 8 samples empty" in line
    assert not (out / "checkpoint.ctxn").exists()
    assert not (out / "invocation.json").exists()


def test_import_loads_no_scipy():
    # only `ablate` needs the process pool, at jobs > 1: it imports it
    # itself, so every other command skips its memory
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, ctxseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent', 'csv')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_predict_on_baseline_checkpoint(tmp_path):
    ckpt = tmp_path / "baseline.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC, with_attention=False))
    sample = generate_dataset(GeneratorConfig(n=1, image_size=32), base_seed=5)[0]
    write_pgm(tmp_path / "image.pgm", encode_image(sample.image), 65535)
    argv = ["predict", "--checkpoint", str(ckpt),
            "--image", str(tmp_path / "image.pgm"), "--report", sample.report,
            "--mask-out", str(tmp_path / "mask.pgm"),
            "--override", "train.ablation=baseline_unet"]
    assert run(_with_small_model(argv)) == 0
    mask, maxval = read_pgm(tmp_path / "mask.pgm")
    assert maxval == 255 and mask.shape == (32, 32)


def test_predict_writes_the_mask_that_train_predict_returns(trained, data_dir,
                                                            tmp_path, capsys):
    ckpt = str(trained / "checkpoint.ctxn")
    sample = read_dataset(data_dir)[3]
    image, truth = data_dir / "images" / "000003.pgm", data_dir / "masks" / "000003.pgm"
    argv = ["predict", "--checkpoint", ckpt, "--image", str(image),
            "--report", sample.report, "--truth", str(truth),
            "--mask-out", str(tmp_path / "mask.pgm")]
    assert run(_with_small_model(argv)) == 0
    mask = predict(ckpt, read_image(image), sample.report,
                   TrainConfig(model=SMALL_MC))
    assert 0 < mask.sum() < mask.size
    written, maxval = read_pgm(tmp_path / "mask.pgm")
    assert maxval == 255
    assert written.tobytes() == (mask * 255).tobytes()
    assert capsys.readouterr().out.splitlines() == [
        f"predicted {int(mask.sum())} positive pixels",
        f"dice={dice(mask, read_mask(truth)):.4f}"]


def test_predict_with_a_16_bit_truth_exits_2_naming_it(trained, data_dir, tmp_path,
                                                        capsys):
    # read as a mask, the 16-bit image would give a Dice against nonsense
    image = data_dir / "images" / "000003.pgm"
    argv = ["predict", "--checkpoint", str(trained / "checkpoint.ctxn"),
            "--image", str(image), "--truth", str(image),
            "--mask-out", str(tmp_path / "mask.pgm")]
    assert run(_with_small_model(argv)) == 2
    assert f"{image}: mask must be an 8-bit PGM" in _assert_one_error_line(capsys)
    assert not (tmp_path / "mask.pgm").exists()


def test_probe_with_absent_swap_word_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=2, image_size=32), base_seed=5),
                  data)
    ckpt = tmp_path / "full.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC))
    argv = ["probe", "--checkpoint", str(ckpt), "--data", str(data),
            "--swap", "zzz:yyy"]
    assert run(_with_small_model(argv)) == 1
    _assert_one_error_line(capsys)


def test_probe_that_predicts_no_pixel_writes_strict_json(trained, data_dir, tmp_path,
                                                          capsys):
    out = tmp_path / "probe"
    argv = _with_small_model(["probe", "--checkpoint", str(trained / "checkpoint.ctxn"),
                              "--data", str(data_dir), "--out", str(out),
                              "--override", "train.threshold=0.999"])
    assert run(argv) == 0

    def refuse(name):
        raise AssertionError(f"probe.json holds {name}, which is not JSON")

    report = json.loads((out / "probe.json").read_text(), parse_constant=refuse)
    ratios = [agg["mean_area_ratio"] for agg in report["swaps"].values()]
    assert ratios == [None, None]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(ln.endswith(" area_ratio=n/a") for ln in lines)


def test_probe_with_no_sided_entry_writes_null_flip_rate(data_dir, tmp_path, capsys):
    # at 0.999 a two-epoch model predicts no pixel, so no entry has a side
    run_dir = tmp_path / "run"
    assert run(_with_small_model(["train", "--data", str(data_dir), "--out", str(run_dir),
                                  "--override", "train.epochs=2"])) == 0
    out = tmp_path / "probe"
    argv = _with_small_model(["probe", "--checkpoint", str(run_dir / "checkpoint.ctxn"),
                              "--data", str(data_dir), "--out", str(out),
                              "--override", "train.threshold=0.999"])
    capsys.readouterr()
    assert run(argv) == 0
    report = json.loads((out / "probe.json").read_text())
    assert [(agg["sided"], agg["flip_rate"]) for agg in report["swaps"].values()] == [
        (0, None), (0, None)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(" flip_rate=n/a " in ln for ln in lines)


def test_viz_swaps_the_reports_own_side_word_by_default(trained, data_dir, tmp_path,
                                                        capsys):
    report = read_dataset(data_dir)[0].report.split()
    assert "right" in report and "left" not in report
    out = tmp_path / "viz"
    argv = _with_small_model(["viz", "--checkpoint", str(trained / "checkpoint.ctxn"),
                              "--data", str(data_dir), "--out", str(out)])
    assert run(argv) == 0
    assert len(list(out.glob("*.pgm"))) == 12
    assert capsys.readouterr().out.strip() == f"wrote 12 maps to {out}"


def test_viz_of_a_report_with_no_side_word_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    sample = generate_dataset(GeneratorConfig(n=1, image_size=32), base_seed=5)[0]
    write_dataset([replace(sample, report="large pneumothorax.")], data)
    ckpt = tmp_path / "full.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC))
    argv = ["viz", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "viz")]
    assert run(_with_small_model(argv)) == 1
    line = _assert_one_error_line(capsys)
    assert "swap source word of 'left->right' occurs in no report" in line
    assert not (tmp_path / "viz").exists()


def test_viz_on_baseline_checkpoint_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=1, image_size=32), base_seed=5),
                  data)
    ckpt = tmp_path / "baseline.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC, with_attention=False))
    argv = ["viz", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "viz"), "--override", "train.ablation=baseline_unet"]
    assert run(_with_small_model(argv)) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "viz" / "invocation.json").exists()


@pytest.mark.parametrize("batch_size", [-1, 0])
def test_train_with_nonpositive_batch_size_exits_1(batch_size, data_dir, tmp_path,
                                                   capsys):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--out", str(out),
            "--override", "train.epochs=1",
            "--override", f"train.batch_size={batch_size}"]
    assert run(_with_small_model(argv)) == 1
    assert f"batch_size must be >= 1, got {batch_size}" in _assert_one_error_line(capsys)
    assert not (out / "checkpoint.ctxn").exists()


@pytest.mark.parametrize("command,override,message", [
    ("gen-data", "data.n=3.5", "n must be an integer, got 3.5"),
    ("train", "train.epochs=2.5", "epochs must be an integer, got 2.5"),
    ("gen-data", "seed=-2", "seed must lie in [0, 2**64), got -2"),
    ("gen-data", f"seed={2 ** 64}", f"seed must lie in [0, 2**64), got {2 ** 64}"),
    ("train", "split.fold_seeds=[-1]", "fold_seeds entry must lie in [0, 2**64), got -1"),
    ("train", "model.init_seed=-1", "init_seed must lie in [0, 2**64), got -1"),
    ("gen-data", "seed=1.7", "seed must be an integer, got 1.7"),
    ("train", "train.batch_size=true", "batch_size must be an integer, got True"),
    ("train", "train.lr=true", "lr must be a finite number, got True"),
    ("train", "train.threshold=NaN", "threshold must be a finite number, got nan"),
    ("train", "train.threshold=0", "threshold must lie in (0, 1), got 0"),
    ("train", "train.threshold=1", "threshold must lie in (0, 1), got 1"),
    ("train", "augment.p_hflip=Infinity", "p_hflip must be a finite number, got inf"),
    ("train", "split.fractions=[true,0,0]",
     "fractions entry must be a finite number, got True"),
    ("gen-data", "data.present_fraction=true",
     "present_fraction must be a finite number, got True"),
    ("gen-data", "data.ambiguous_fraction=1.5",
     "ambiguous_fraction must lie in [0,1], got 1.5"),
    ("gen-data", "data.n=0", "n must be >= 1, got 0"),
    ("gen-data", "data.image_size=16", "image_size must be >= 32, got 16"),
    ("train", "split.fold_seeds=[]", "fold_seeds needs at least one seed"),
    ("train", "data.dir=5", "data.dir must be a string, got 5"),
    ("train", 'augment.text_shuffle="false"', "text_shuffle must be a bool, got 'false'"),
    # split rules apply at load, so no command takes a split that train refuses
    ("gen-data", "split.fractions=[0.5,0.5]",
     "fractions must be 3 positives summing to 1, got (0.5, 0.5)"),
    # a zero fraction empties its part at every n
    ("gen-data", "split.fractions=[0.8,0.0,0.2]",
     "fractions must be 3 positives summing to 1, got (0.8, 0.0, 0.2)"),
    ("train", "split.fold_seeds=[101,101]", "fold_seeds must be distinct, got [101, 101]"),
    ("gen-data", "data.image_size=33", "image_size must be even, got 33"),
    ("train", "model.channels=[0,8]", "channels entries must be at least 1, got 0"),
])
def test_bad_integer_config_value_exits_1(command, override, message, data_dir,
                                          tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "train":
        argv += ["--data", str(data_dir), "--override", "train.epochs=1"]
    assert run(argv + ["--override", override]) == 1
    assert message in _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("channel", ["99", "-1"])
def test_viz_with_channel_outside_the_model_exits_1(channel, tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=1, image_size=32), base_seed=5),
                  data)
    ckpt = tmp_path / "full.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC))
    argv = ["viz", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "viz"), "--channel", channel]
    assert run(_with_small_model(argv)) == 1
    assert f"channel {channel}" in _assert_one_error_line(capsys)
    assert not list(tmp_path.glob("viz/*.pgm"))
    assert not (tmp_path / "viz" / "invocation.json").exists()


def test_probe_with_empty_swap_source_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=2, image_size=32), base_seed=5),
                  data)
    ckpt = tmp_path / "full.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC))
    argv = ["probe", "--checkpoint", str(ckpt), "--data", str(data),
            "--swap", ":right", "--out", str(tmp_path / "probe")]
    assert run(_with_small_model(argv)) == 1
    assert "source word is empty" in _assert_one_error_line(capsys)
    assert not (tmp_path / "probe" / "probe.json").exists()


def test_eval_with_mismatched_channels_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(generate_dataset(GeneratorConfig(n=2, image_size=32), base_seed=5),
                  data)
    ckpt = tmp_path / "full.ctxn"
    save_checkpoint(ckpt, init_weights(SMALL_MC))
    argv = _with_small_model(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    argv += ["--override", "model.channels=[4,12]"]
    assert run(argv) == 2
    line = _assert_one_error_line(capsys)
    assert "enc2.conv1.w" in line and "(12, 4, 3, 3)" in line


@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "data", "--jobs", "2"],
    ["viz", "--checkpoint", "c.ctxn", "--out", "viz", "--jobs", "2"],
    ["ablate", "--out", "out", "--threshold", "0.3"],
    ["gen-data", "--out", "data", "--n", "16"],
    ["train", "--out", "o", "--seed", "3"],
])
def test_deleted_and_unread_flags_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    line = _assert_one_error_line(capsys)
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in line


def test_ablate_reads_jobs():
    args = _build_parser().parse_args(["ablate", "--out", "out", "--jobs", "2"])
    assert args.jobs == 2
