import configparser
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from unittest import mock
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from voxuq import cli, pipeline, store, synthworld
from voxuq import ood as ood_module
from voxuq import head as head_module
from voxuq import report as report_mod
from voxuq.cli import _config_hash, main
from voxuq.gda import FitError
from voxuq.head import HeadConfig, ResidualMlpHead
from voxuq.ood import BenchmarkReport, MethodBundle
from voxuq.synthworld import WorldConfig

from oracles import load_calibration

SMALL_CONFIG = """
[world]
grid_x = 8
grid_y = 8
grid_z = 2
num_classes = 5
feature_dim = 8
objects_min = 3
objects_max = 3
train_scenes = 8
val_scenes = 2
test_scenes = 4
seed = 7
"""
TRAIN_CONFIG = "[training]\nepochs = 2\n"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """Dataset + trained artifacts shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    config, train_config = root / "config.ini", root / "train.ini"
    config.write_text(SMALL_CONFIG)
    train_config.write_text(TRAIN_CONFIG)
    data = root / "data"
    r = runner.invoke(main, ["generate-data", "--config", str(config),
                             "--out", str(data)])
    assert r.exit_code == 0, r.output
    models = root / "models"
    r = runner.invoke(main, ["train", "--data", str(data), "--config", str(train_config),
                             "--out", str(models), "--seed", "7",
                             "--ensemble", "2"])
    assert r.exit_code == 0, r.output
    gda = models / "gda.ocuq"
    r = runner.invoke(main, ["fit-gmm", "--data", str(data),
                             "--head", str(models / "head.ocuq"),
                             "--out", str(gda), "--seed", "7"])
    assert r.exit_code == 0, r.output
    return {"root": root, "config": config, "train_config": train_config, "data": data,
            "models": models, "gda": gda}


def test_generate_data_writes_splits(workspace):
    for split in ("train", "val", "test"):
        d = workspace["data"] / split
        assert (d / "manifest.json").exists()
        assert (d / "features.bin").exists()
        assert (d / "labels.bin").exists()


def test_generate_data_refuses_nonempty_out(workspace, runner):
    r = runner.invoke(main, ["generate-data", "--config", str(workspace["config"]),
                             "--out", str(workspace["data"])])
    assert r.exit_code == 2
    assert "--force" in r.output


@pytest.mark.parametrize("grid", ["grid_x = 4", "grid_x = 2\ngrid_y = 2\ngrid_z = 1"])
def test_generate_data_narrow_grid(runner, tmp_path, grid):
    # object extents are drawn from [1, g/5], which is empty below 5 voxels
    config = tmp_path / "narrow.ini"
    config.write_text("[world]\n%s\ntrain_scenes = 2\nval_scenes = 1\ntest_scenes = 1\n"
                      % grid)
    r = runner.invoke(main, ["generate-data", "--config", str(config),
                             "--out", str(tmp_path / "d")])
    assert r.exit_code == 0, r.output


def test_unknown_config_section_exit_2(runner, tmp_path):
    # [gda], [calibration] and [benchmark] were once accepted and then ignored
    for section, key in (("planet", "gravity = 9.8"), ("gda", "cap_per_class = 3"),
                         ("calibration", "bins = 7"), ("benchmark", "histogram_bins = 7")):
        bad = tmp_path / "bad.ini"
        bad.write_text("[%s]\n%s\n" % (section, key))
        r = runner.invoke(main, ["generate-data", "--config", str(bad),
                                 "--out", str(tmp_path / "d")])
        assert r.exit_code == 2, section
        assert "[%s]" % section in r.output


# a key of each section with a value in its limits
VALID_ENTRY = {"world": "seed = 3", "head": "skip = false", "training": "epochs = 1"}


@pytest.mark.parametrize("command, section", [
    ("generate-data", "head"), ("generate-data", "training"), ("train", "world"),
    ("ablate", "head"), ("ablate", "training"), ("dim-sweep", "head"),
    ("dim-sweep", "training")])
def test_config_section_the_command_does_not_read_exit_2(workspace, runner, tmp_path, command,
                                                         section):
    """A section that the command would check and then ignore, beside one it
    reads, is a usage error naming the section and the command, found
    before anything is written."""
    config = tmp_path / "other.ini"
    read = cli.COMMAND_SECTIONS[command][0]
    config.write_text("[%s]\n%s\n[%s]\n%s\n" % (read, VALID_ENTRY[read], section,
                                                VALID_ENTRY[section]))
    out = tmp_path / "out"
    data = ("--data", str(workspace["data"])) if command == "train" else ()
    r = runner.invoke(main, [command, *data, "--config", str(config), "--out", str(out)])
    _assert_one_line_error(r, 2)
    assert r.output == "error: %s reads no config section [%s]\n" % (command, section)
    assert not out.exists()


def test_unknown_config_key_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[world]\nwarp_factor = 5\n")
    r = runner.invoke(main, ["generate-data", "--config", str(bad),
                             "--out", str(tmp_path / "d")])
    assert r.exit_code == 2
    assert "warp_factor" in r.output


def test_bad_config_value_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[world]\nnum_classes = many\n")
    r = runner.invoke(main, ["generate-data", "--config", str(bad),
                             "--out", str(tmp_path / "d")])
    assert r.exit_code == 2


def _assert_one_line_error(r, code):
    assert r.exit_code == code, r.output
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1


@pytest.mark.parametrize("text", [
    b"seed = 3\n",                                 # no section header
    b"[world]\nseed = 3\nseed = 4\n",              # duplicate key
    b"[world]\nseed\n",                            # key without a value
    b"[world]\nseed = 3\n[world]\nseed = 4\n",     # duplicate section
    b"[world]\nseed = 5%\n",                       # a stray interpolation sign
    b"[world]\nseed = 3\n\xff\xfe\n",              # not UTF-8
    b"[DEFAULT]\nseed = 3\n",                      # once silently ignored
    b"[DEFAULT]\nseed = 3\n[head]\nskip = 1\n",    # once blamed on [head]
])
def test_malformed_config_file_exit_2(runner, tmp_path, text):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(text)
    r = runner.invoke(main, ["generate-data", "--config", str(bad),
                             "--out", str(tmp_path / "d")])
    _assert_one_line_error(r, 2)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, text, args", [
    ("generate-data", "[world]\nobjects_min = 5\nobjects_max = 2\n", ()),
    ("generate-data", "[world]\ngrid_x = 0\n", ()),
    ("generate-data", "[world]\ntrain_scenes = -1\n", ()),
    ("generate-data", "[world]\nseed = -1\n", ()),
    ("train", "[head]\nnum_layers = 1\n", ()),
    ("train", "[head]\nsn_coefficient = 0\n", ()),
    ("train", "[head]\nsn_coefficient = nan\n", ()),
    ("train", "[head]\nhidden_width = 0\n", ()),
    ("train", "[training]\nbatch_size = 0\n", ()),
    ("train", "[training]\nepochs = -1\n", ()),
    ("train", "[training]\nepochs = 0\n", ()),
    ("train", "[training]\nlr = nan\n", ()),
    ("train", "[training]\nlr = -0.1\n", ()),
    ("train", "", ("--epochs", "-1")),
    ("generate-data", "[world]\nanchor_separation = -1\n", ()),
    ("generate-data", "[world]\nneighborhood_scale = inf\n", ()),
    ("generate-data", "[world]\nnoise_scale = nan\n", ()),
    ("generate-data", "[world]\npair_offset = -0.5\n", ()),
    # too many classes to place 4 apart in 2 dimensions
    ("generate-data", "[world]\nfeature_dim = 2\nnum_classes = 200\n", ()),
    ("ablate", "[world]\nfeature_dim = 2\nnum_classes = 200\n", ()),
    ("dim-sweep", "[world]\nnum_classes = 200\n", ("--dims", "2")),
])
def test_out_of_range_config_value_exit_2(workspace, runner, tmp_path, command, text, args):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    out = tmp_path / "out"
    data = ("--data", str(workspace["data"])) if command == "train" else ()
    r = runner.invoke(main, [command, *data, "--config", str(config), "--out", str(out), *args])
    _assert_one_line_error(r, 2)
    assert not out.exists()


@pytest.mark.parametrize("key", ["train_scenes", "test_scenes"])
@pytest.mark.parametrize("command, args", [("ablate", ()), ("dim-sweep", ("--dims", "4"))])
def test_empty_in_process_split_exit_2(runner, tmp_path, monkeypatch, command, args, key):
    """ablate and dim-sweep train on the train split and sweep the test split
    they generate: either one empty is a usage error, found before training."""
    def no_training(*a, **k):
        raise AssertionError("trained on a world with an empty split")

    monkeypatch.setattr(pipeline, "train_on_dataset", no_training)
    config = tmp_path / "empty.ini"
    counts = {"train_scenes": 2, "val_scenes": 1, "test_scenes": 2, key: 0}
    config.write_text("[world]\ngrid_x = 8\ngrid_y = 8\ngrid_z = 2\n"
                      + "".join("%s = %d\n" % kv for kv in counts.items()))
    r = runner.invoke(main, [command, "--config", str(config), "--out", str(tmp_path / "out"),
                             *args])
    _assert_one_line_error(r, 2)
    assert key in r.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, args", [("ablate", ()), ("dim-sweep", ("--dims", "16"))])
def test_unfittable_density_exit_3(runner, tmp_path, command, args):
    # two training scenes leave most of 200 classes without a feature vector
    config = tmp_path / "few.ini"
    config.write_text("[world]\nnum_classes = 200\ntrain_scenes = 2\n")
    out = tmp_path / "out"
    r = runner.invoke(main, [command, "--config", str(config), "--out", str(out), *args])
    _assert_one_line_error(r, 3)
    assert "no feature vectors for class(es)" in r.output
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("generate-data", ("--seed", "-1")),
    ("train", ("--seed", "-1")),
    ("train", ("--ensemble", "-2")),
    ("fit-gmm", ("--seed", "-1")),
    ("fit-gmm", ("--cap", "-5")),
    ("fit-gmm", ("--cap", "0")),
    ("eval-ood", ("--methods", "mcd", "--seed", "-1")),
    ("calibrate", ("--seed", "-1")),
    ("ablate", ("--seed", "-1")),
    ("dim-sweep", ("--seed", "-1")),
])
def test_negative_count_option_exit_2(workspace, runner, tmp_path, command, args):
    out = tmp_path / "out"
    inputs = {"generate-data": (), "ablate": (), "dim-sweep": (),
              "train": ("--data", workspace["data"]),
              "fit-gmm": ("--data", workspace["data"],
                          "--head", workspace["models"] / "head.ocuq")}.get(
        command, ("--data", workspace["data"], "--head", workspace["models"] / "head.ocuq",
                  "--gda", workspace["gda"]))
    r = runner.invoke(main, [command, *map(str, inputs), "--out", str(out), *args])
    _assert_one_line_error(r, 2)
    assert args[-2] in r.output
    assert not out.exists()


# the file options of each command, and the commands that take --seed
FILE_OPTIONS = {"generate-data": ("--config",), "train": ("--config",),
                "fit-gmm": ("--head",), "eval-ood": ("--head", "--gda"),
                "calibrate": ("--head", "--gda"), "report": ("--metrics", "--histograms"),
                "ablate": ("--config",), "dim-sweep": ("--config",)}
SEED_COMMANDS = [c for c in FILE_OPTIONS if c != "report"]
# (command, option, value) that click rejects before the command runs: a
# value of None drops the option, and an option the command's valid
# arguments lack is added
CLICK_CHECKS = ([(c, "--seed", v) for c in SEED_COMMANDS for v in ("abc", "-1", "1.5")]
                + [("fit-gmm", "--cap", "0"), ("train", "--ensemble", "x"),
                   ("calibrate", "--mode", "foo")]
                + [(c, "--bogus", "1") for c in FILE_OPTIONS]
                + [(c, "--out-dir" if c == "report" else "--out", None) for c in FILE_OPTIONS]
                + [(c, "--data", None) for c in ("train", "fit-gmm", "eval-ood", "calibrate")]
                + [(c, o, v) for c, options in FILE_OPTIONS.items() for o in options
                   for v in ("missing", "directory")]
                + [("fit-gmm", "--out", "directory")])


def _valid_args(workspace, metrics_dir, out):
    """Arguments with which each command runs."""
    data, head, gda = workspace["data"], workspace["models"] / "head.ocuq", workspace["gda"]
    config = ["--config", workspace["config"]]
    return {"generate-data": config + ["--out", out],
            "train": ["--data", data, "--config", workspace["train_config"], "--out", out],
            "fit-gmm": ["--data", data, "--head", head, "--out", out / "gda.ocuq"],
            "eval-ood": ["--data", data, "--head", head, "--gda", gda, "--out", out],
            "calibrate": ["--data", data, "--head", head, "--gda", gda, "--out", out],
            "report": ["--metrics", metrics_dir / "metrics.json",
                       "--histograms", metrics_dir / "histograms.csv", "--out-dir", out],
            "ablate": config + ["--out", out], "dim-sweep": config + ["--out", out]}


@pytest.mark.parametrize("command, option, value", CLICK_CHECKS)
def test_option_click_rejects_exits_2_in_one_line(workspace, metrics_dir, runner, tmp_path,
                                                  command, option, value):
    """A bad integer, choice or file option, a missing required option and
    an unknown option are each one `error:` line naming the option, exit 2,
    and nothing is written."""
    out = tmp_path / "out"
    args = _valid_args(workspace, metrics_dir, out)[command]
    value = {"missing": tmp_path / "absent", "directory": tmp_path}.get(value, value)
    if option not in args:
        args += [option, value]
    elif value is None:
        del args[args.index(option):args.index(option) + 2]
    else:
        args[args.index(option) + 1] = value
    r = runner.invoke(main, [command, *map(str, args)])
    _assert_one_line_error(r, 2)
    assert option in r.output
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [(["nosuch"], "nosuch"), (["--bogus"], "--bogus"),
                                         (["--bogus", "train"], "--bogus")])
def test_group_usage_error_exits_2_in_one_line(runner, argv, named):
    r = runner.invoke(main, argv)
    _assert_one_line_error(r, 2)
    assert named in r.output


def test_bare_voxuq_and_help_print_the_help(runner):
    r = runner.invoke(main, [])
    assert r.output.startswith("Usage: ") and "Commands:" in r.output
    assert "error:" not in r.output
    for command in FILE_OPTIONS:
        r = runner.invoke(main, [command, "--help"])
        assert r.exit_code == 0, r.output
        assert r.output.startswith("Usage: ") and "--help" in r.output


@pytest.mark.parametrize("command", ["train", "fit-gmm", "calibrate"])
def test_label_out_of_range_exit_3(workspace, runner, tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    for split in ("train", "val", "test"):
        labels = np.fromfile(data / split / "labels.bin", dtype="<u2")
        labels[17] = 40
        labels.tofile(data / split / "labels.bin")
    head = ("--head", str(workspace["models"] / "head.ocuq"))
    extra = {"train": (), "fit-gmm": head, "calibrate": head + ("--gda", str(workspace["gda"]))}
    out = tmp_path / "out"
    r = runner.invoke(main, [command, "--data", str(data), *extra[command], "--out", str(out)])
    _assert_one_line_error(r, 3)
    assert "labels.bin" in r.output
    assert not out.exists()


def _non_default(value):
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value + 0.5


def test_config_keys_are_the_dataclass_fields(workspace, runner, tmp_path, monkeypatch):
    world_fields = {f.name for f in fields(WorldConfig)} - {"grid"}
    assert set(cli.WORLD_KEYS) == world_fields | {"grid_x", "grid_y", "grid_z"}
    assert set(cli.HEAD_KEYS) == {f.name for f in fields(HeadConfig)} - {"input_dim",
                                                                         "num_classes"}
    # every [world] key moves the world config off its default
    default = cli.world_config_from({})
    for key in cli.WORLD_KEYS:
        value = (default.grid["xyz".index(key[-1])] + 1 if key.startswith("grid_")
                 else _non_default(getattr(default, key)))
        assert cli.world_config_from({"world": {key: value}}) != default, key

    # every [head] and [training] key reaches what `train` hands the trainer
    class Captured(Exception):
        pass

    def capture(head_config, dataset, seed=0, **kwargs):
        raise Captured(head_config, kwargs)

    monkeypatch.setattr(pipeline, "train_on_dataset", capture)

    def trained_with(text):
        config = tmp_path / "keys.ini"
        config.write_text(text)
        r = runner.invoke(main, ["train", "--data", str(workspace["data"]),
                                 "--config", str(config), "--out", str(tmp_path / "m")])
        assert isinstance(r.exception, Captured), r.output
        return r.exception.args

    head_config, kwargs = trained_with("")
    for key in cli.HEAD_KEYS:
        value = _non_default(getattr(head_config, key))
        assert getattr(trained_with("[head]\n%s = %s\n" % (key, value))[0], key) == value, key
    assert set(cli.TRAINING_KEYS) == set(kwargs)
    for key in cli.TRAINING_KEYS:
        value = _non_default(kwargs[key])
        assert trained_with("[training]\n%s = %s\n" % (key, value))[1][key] == value, key


def test_head_config_for_world_takes_the_dataclass_defaults():
    config = WorldConfig(feature_dim=12, num_classes=5)
    assert pipeline.head_config_for_world(config) == HeadConfig(
        input_dim=12, hidden_width=12, num_classes=5)


def test_train_outputs(workspace):
    models = workspace["models"]
    assert (models / "head.ocuq").exists()
    assert (models / "member_0.ocuq").exists()
    assert (models / "member_1.ocuq").exists()
    log = (models / "train_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,loss,accuracy"
    assert len(log) == 3  # header + 2 epochs


def _accuracy_calls(monkeypatch):
    """The heads of every per-epoch accuracy pass of train_head, in order."""
    calls = []
    accuracy = head_module.accuracy
    monkeypatch.setattr(head_module, "accuracy",
                        lambda head, pairs: calls.append(head) or accuracy(head, pairs))
    return calls


def test_only_the_logged_head_runs_the_per_epoch_accuracy(workspace, runner, tmp_path,
                                                          monkeypatch):
    """train --ensemble 2 runs the per-epoch accuracy pass once an epoch for
    the main head, whose train_log.csv logs it, and never for the members;
    build_bundle, whose log nobody reads, never runs it. A member trained
    with the pass has the bits of one trained without it."""
    calls = _accuracy_calls(monkeypatch)
    out = tmp_path / "models"
    r = runner.invoke(main, ["train", "--data", str(workspace["data"]),
                             "--config", str(workspace["train_config"]), "--out", str(out),
                             "--seed", "7", "--ensemble", "2", "--epochs", "3"])
    assert r.exit_code == 0, r.output
    assert len(calls) == 3 and len({id(h) for h in calls}) == 1
    train_ds = synthworld.load_dataset(workspace["data"] / "train")
    head_config = pipeline.head_config_for_world(train_ds.config)
    member, log = pipeline.train_on_dataset(head_config, train_ds, seed=107, epochs=3)
    assert len(calls) == 6 and len(log.accuracies) == 3
    store.save_head(member, tmp_path / "logged_member.ocuq")
    assert (tmp_path / "logged_member.ocuq").read_bytes() == (out / "member_0.ocuq").read_bytes()
    del calls[:]
    pipeline.build_bundle(head_config, train_ds, seed=7, epochs=2)
    assert calls == []


def test_members_are_taken_in_index_order(workspace, tmp_path):
    """de:n scores the first n members by the index in their names, so of
    12 members the first three are member_0, member_1 and member_2, not
    member_10 as in the string order of the names."""
    head_path = workspace["models"] / "head.ocuq"
    config = store.load_head(head_path).config
    for i in range(12):
        store.save_head(ResidualMlpHead(config, seed=100 + i), tmp_path / ("member_%d.ocuq" % i))
    test_dir = workspace["data"] / "test"
    bundle = cli._bundle_from_artifacts(head_path, None, tmp_path, ["de:n=3"],
                                        synthworld.load_dataset(test_dir).config, test_dir)
    assert len(bundle.ensemble_heads) == 12
    for i, member in enumerate(bundle.ensemble_heads):
        want = store.load_head(tmp_path / ("member_%d.ocuq" % i)).parameters()
        for name, p in member.parameters().items():
            assert p.tobytes() == want[name].tobytes(), (i, name)


def test_members_are_read_only_for_de(workspace, foreign, runner, tmp_path):
    """--members of another world is not read when no method is de:n:
    eval-ood --methods max-softmax exits 0 and writes the metrics.json of
    a run without --members."""
    args = ["eval-ood", "--data", str(workspace["data"]),
            "--head", str(workspace["models"] / "head.ocuq"), "--methods", "max-softmax",
            "--corruptions", "noise", "--severities", "1", "--seed", "7"]
    r = runner.invoke(main, args + ["--members", str(foreign["--members"]),
                                    "--out", str(tmp_path / "with")])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, args + ["--out", str(tmp_path / "without")])
    assert r.exit_code == 0, r.output
    assert ((tmp_path / "with" / "metrics.json").read_bytes()
            == (tmp_path / "without" / "metrics.json").read_bytes())


def test_fit_gmm_missing_head_exit_2(workspace, runner):
    r = runner.invoke(main, ["fit-gmm", "--data", str(workspace["data"]),
                             "--head", str(workspace["root"] / "nope.ocuq"),
                             "--out", str(workspace["root"] / "g.ocuq")])
    assert r.exit_code == 2


def test_fit_gmm_missing_class_exit_3(runner, tmp_path):
    # many classes but almost no objects: some class never appears
    config = tmp_path / "sparse.ini"
    config.write_text("""
[world]
grid_x = 8
grid_y = 8
grid_z = 2
num_classes = 13
feature_dim = 8
objects_min = 1
objects_max = 1
train_scenes = 2
val_scenes = 1
test_scenes = 1
seed = 3
""")
    data = tmp_path / "data"
    r = runner.invoke(main, ["generate-data", "--config", str(config),
                             "--out", str(data)])
    assert r.exit_code == 0, r.output
    models = tmp_path / "models"
    r = runner.invoke(main, ["train", "--data", str(data), "--epochs", "1",
                             "--out", str(models)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["fit-gmm", "--data", str(data),
                             "--head", str(models / "head.ocuq"),
                             "--out", str(tmp_path / "g.ocuq")])
    assert r.exit_code == 3
    assert "error" in r.output


def test_eval_ood_writes_reports(workspace, runner):
    out = workspace["root"] / "bench"
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]),
                             "--members", str(workspace["models"]),
                             "--methods", "ours,max-softmax,de:n=2",
                             "--corruptions", "noise,fog",
                             "--severities", "1,3",
                             "--out", str(out), "--seed", "7"])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "metrics.json").read_text())
    assert set(doc["methods"]) == {"ours", "max-softmax", "de:n=2"}
    assert set(doc["methods"]["ours"]["auroc"]) == {"noise:1", "noise:3",
                                                    "fog:1", "fog:3"}
    assert (out / "histograms.csv").exists()
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing) == {"sweep_seconds"} and timing["sweep_seconds"] > 0


def test_eval_ood_deterministic_metrics(workspace, runner):
    args = ["eval-ood", "--data", str(workspace["data"]),
            "--head", str(workspace["models"] / "head.ocuq"),
            "--gda", str(workspace["gda"]),
            "--methods", "ours", "--corruptions", "noise",
            "--severities", "1", "--seed", "7"]
    out_a = workspace["root"] / "det_a"
    out_b = workspace["root"] / "det_b"
    assert runner.invoke(main, args + ["--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out_b)]).exit_code == 0
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
    assert (out_a / "histograms.csv").read_bytes() == (out_b / "histograms.csv").read_bytes()


def test_eval_ood_metrics_identical_across_processes(workspace, tmp_path):
    # each run is a fresh interpreter with its own str-hash salt
    src = str(Path(cli.__file__).resolve().parents[1])
    docs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / ("hash_%s" % hash_seed)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "voxuq.cli", "eval-ood",
                        "--data", str(workspace["data"]),
                        "--head", str(workspace["models"] / "head.ocuq"),
                        "--gda", str(workspace["gda"]),
                        "--methods", "ours,entropy", "--corruptions", "noise,blur",
                        "--severities", "1,3", "--seed", "7", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        docs.append((out / "metrics.json").read_bytes())
    assert docs[0] == docs[1]


def test_eval_ood_param_count_per_method(workspace, runner):
    out = workspace["root"] / "params"
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]),
                             "--members", str(workspace["models"]),
                             "--methods", "ours,max-softmax,entropy,mcd:n=2,de:n=2",
                             "--corruptions", "noise", "--severities", "1",
                             "--out", str(out), "--seed", "7"])
    assert r.exit_code == 0, r.output
    methods = json.loads((out / "metrics.json").read_text())["methods"]
    head = store.load_head(workspace["models"] / "head.ocuq").param_count()
    member = store.load_head(workspace["models"] / "member_0.ocuq").param_count()
    dim = store.load_gda(workspace["gda"]).dim
    counts = {m: block["param_count"] for m, block in methods.items()}
    assert counts == {"ours": head + 5 * (dim + dim * dim), "max-softmax": head,
                      "entropy": head, "mcd:n=2": head, "de:n=2": 2 * member}


def test_eval_ood_rejects_unknown_method(workspace, runner):
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--methods", "telepathy",
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2


def test_eval_ood_ours_without_gda_exit_2(workspace, runner):
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--methods", "ours",
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2


@pytest.mark.parametrize("command, method, artifacts, message", [
    ("eval-ood", "max-softmax,ours", ["--members"], "method 'ours' requires a density model"),
    ("eval-ood", "de:n=3", ["--gda", "--members"],
     "method 'de:n=3' requires 3 ensemble heads (--members), have 2"),
    ("calibrate", "ours", ["--members"], "method 'ours' requires a density model"),
    ("calibrate", "de:n=2", ["--gda"],
     "method 'de:n=2' requires 2 ensemble heads (--members), have 0"),
])
def test_method_without_its_artifacts_exit_2(workspace, runner, tmp_path, command,
                                             method, artifacts, message):
    paths = {"--gda": workspace["gda"], "--members": workspace["models"]}
    out = tmp_path / "out"
    args = [command, "--data", str(workspace["data"]),
            "--head", str(workspace["models"] / "head.ocuq"),
            "--methods" if command == "eval-ood" else "--method", method, "--out", str(out)]
    for flag in artifacts:
        args += [flag, str(paths[flag])]
    r = runner.invoke(main, args)
    _assert_one_line_error(r, 2)
    assert message in r.output
    assert not out.exists()



@pytest.mark.parametrize("command, method, loads", [
    ("eval-ood", "entropy", 0), ("calibrate", "entropy", 0), ("eval-ood", "entropy,ours", 1),
])
def test_density_model_loaded_only_for_ours(workspace, runner, tmp_path, monkeypatch,
                                            command, method, loads):
    calls = []
    load_gda = store.load_gda
    monkeypatch.setattr(store, "load_gda", lambda path: calls.append(path) or load_gda(path))
    args = [command, "--data", str(workspace["data"]),
            "--head", str(workspace["models"] / "head.ocuq"), "--gda", str(workspace["gda"]),
            "--methods" if command == "eval-ood" else "--method", method,
            "--out", str(tmp_path / "out")]
    if command == "eval-ood":
        args += ["--corruptions", "noise", "--severities", "1"]
    r = runner.invoke(main, args)
    assert r.exit_code == 0, r.output
    assert len(calls) == loads

def test_eval_ood_rejects_unknown_corruption(workspace, runner):
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]),
                             "--methods", "ours", "--corruptions", "hail",
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2


@pytest.mark.parametrize("severities", ["x", "1,two", "1.5", "4", "-1", ",", "1,1,3"])
def test_eval_ood_bad_severities_exit_2(workspace, runner, severities):
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--methods", "ours",
                             "--severities", severities,
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1


@pytest.mark.parametrize("option", ["--corruptions", "--methods"])
def test_eval_ood_empty_list_exit_2(workspace, runner, option):
    out = workspace["root"] / "empty"
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--severities", "1",
                             option, ",", "--out", str(out)])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert option in r.output
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("methods", ["ours,ours", "ours,entropy,ours"])
def test_eval_ood_repeated_method_exit_2(workspace, runner, methods):
    out = workspace["root"] / "repeated"
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--severities", "1",
                             "--methods", methods, "--out", str(out)])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output == "error: --methods names ours more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, repeated", [
    ("eval-ood", "--corruptions", "noise,noise,blur", "noise"),
    ("eval-ood", "--severities", "1,1,3", "1"),
    ("dim-sweep", "--dims", "4,8,4", "4"),
])
def test_repeated_grid_entry_exit_2(workspace, runner, command, option, value, repeated):
    """A repeated corruption, severity or dim would walk (or train) the same
    cell twice and count it twice in every mean."""
    out = workspace["root"] / "repeated_grid"
    args = {"eval-ood": ["--data", str(workspace["data"]),
                         "--head", str(workspace["models"] / "head.ocuq"),
                         "--gda", str(workspace["gda"]), "--methods", "ours"],
            "dim-sweep": ["--config", str(workspace["config"])]}[command]
    r = runner.invoke(main, [command, *args, option, value, "--out", str(out)])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output == "error: %s names %s more than once\n" % (option, repeated)
    assert not out.exists()


BAD_METHOD_SPECS = ["mcd:n=1", "mcd:n=0", "mcd:n=abc", "mcd:p=1.5", "mcd:p=nan", "de:n=x",
                    "de:n=1", "mcd:foo=1", "entropy:p=2", "mcd:n=2:n=3"]


@pytest.mark.parametrize("command, spec", [("eval-ood", s) for s in BAD_METHOD_SPECS]
                         + [("eval-ood", "mcd,mcd:n=5:p=0.1"), ("eval-ood", "de:n=3,de")]
                         + [("calibrate", s) for s in BAD_METHOD_SPECS])
def test_malformed_method_spec_exit_2(workspace, runner, command, spec):
    out = workspace["root"] / "bad_spec"
    option = "--methods" if command == "eval-ood" else "--method"
    r = runner.invoke(main, [command, "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]),
                             "--members", str(workspace["models"]),
                             option, spec, "--out", str(out)])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["features.bin", "labels.bin"])
def test_truncated_dataset_file_exit_3(workspace, runner, tmp_path, name):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "test" / name
    path.write_bytes(path.read_bytes()[:-4])
    r = runner.invoke(main, ["eval-ood", "--data", str(data),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--methods", "ours",
                             "--out", str(tmp_path / "out")])
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert name in r.output


@pytest.mark.parametrize("command", ["eval-ood", "calibrate"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_exit_3(workspace, runner, tmp_path, command, value):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    features = np.fromfile(data / "test" / "features.bin", dtype="<f4")
    features[17] = value
    features.tofile(data / "test" / "features.bin")
    r = runner.invoke(main, [command, "--data", str(data),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--out", str(tmp_path / "out")])
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert "features.bin" in r.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-gmm", "eval-ood"])
def test_head_declaring_a_huge_width_exit_3(workspace, runner, tmp_path, command):
    """A head file of metadata only, which declares input_dim = 2 and
    hidden_width = 10**6, is one error: line and exit 3, with no attempt to
    allocate the multi-terabyte head it declares."""
    head = tmp_path / "head.ocuq"
    store.write_artifact(head, "head", {"input_dim": 2, "hidden_width": 10 ** 6}, {})
    out = {"fit-gmm": ["--out", str(tmp_path / "gda.ocuq")],
           "eval-ood": ["--gda", str(workspace["gda"]), "--out", str(tmp_path / "out")]}
    r = runner.invoke(main, [command, "--data", str(workspace["data"]), "--head", str(head)]
                      + out[command])
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert "Traceback" not in r.output


@pytest.mark.parametrize("command", ["eval-ood", "calibrate"])
def test_empty_split_exit_3(workspace, runner, tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    manifest = json.loads((data / "test" / "manifest.json").read_text())
    manifest["scenes"] = []
    (data / "test" / "manifest.json").write_text(json.dumps(manifest))
    for name in ("features.bin", "labels.bin"):
        (data / "test" / name).write_bytes(b"")
    r = runner.invoke(main, [command, "--data", str(data),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--out", str(tmp_path / "out")])
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert "manifest.json" in r.output
    assert not (tmp_path / "out").exists()


# ways to damage a manifest, each applied to its parsed JSON in place
MANIFEST_DAMAGE = {
    "no schema_version": lambda m: m.pop("schema_version"),
    "no scene_id": lambda m: m["scenes"][1].pop("scene_id"),
    "unknown config key": lambda m: m["config"].update(scene_scale=2.0),
    "config not an object": lambda m: m.update(config=[8, 8, 2]),
}


@pytest.mark.parametrize("damage", list(MANIFEST_DAMAGE))
def test_malformed_manifest_exit_3(workspace, runner, tmp_path, damage):
    """train reads the validation split before it trains; a manifest it
    cannot read is a data error in one line, and no output is written."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "val" / "manifest.json"
    manifest = json.loads(path.read_text())
    MANIFEST_DAMAGE[damage](manifest)
    path.write_text(json.dumps(manifest))
    r = runner.invoke(main, ["train", "--data", str(data), "--out", str(tmp_path / "out")])
    _assert_one_line_error(r, 3)
    assert "manifest.json" in r.output
    assert not (tmp_path / "out").exists()


# (option, damage) -> a change to an artifact's metadata and tensors in place
ARTIFACT_DAMAGE = {
    ("--head", "no tensor"): lambda m, t: t.pop("classifier.bias"),
    ("--head", "unknown metadata key"): lambda m, t: m.update(dropout=0.5),
    ("--head", "wrong shape"): lambda m, t: t.update({"layer0.weight": t["layer0.weight"][:, :3]}),
    ("--gda", "no tensor"): lambda m, t: t.pop("means"),
    ("--gda", "wrong shape"): lambda m, t: t.update(chols=t["chols"][:, :3]),
}


@pytest.mark.parametrize("option, damage", list(ARTIFACT_DAMAGE))
def test_malformed_artifact_exit_3(workspace, runner, tmp_path, option, damage):
    """An artifact whose magic and kind are right but whose tensors or
    metadata do not fit its kind is a data error in one line."""
    src = workspace["models"] / "head.ocuq" if option == "--head" else workspace["gda"]
    path = tmp_path / src.name
    kind, metadata, tensors = store.read_artifact(src)
    ARTIFACT_DAMAGE[option, damage](metadata, tensors)
    store.write_artifact(path, kind, metadata, tensors)
    args = {"--head": str(workspace["models"] / "head.ocuq"), "--gda": str(workspace["gda"])}
    args[option] = str(path)
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", args["--head"], "--gda", args["--gda"],
                             "--methods", "ours", "--corruptions", "noise",
                             "--severities", "1", "--out", str(tmp_path / "out")])
    _assert_one_line_error(r, 3)
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def foreign(tmp_path_factory, runner):
    """Artifacts that do not fit the workspace's world (feature_dim 8, 5
    classes): the head, density model and 2 members of a world with
    feature_dim 4, and a 3-class head of input dim 8."""
    root = tmp_path_factory.mktemp("foreign")
    config, train_config = root / "config.ini", root / "train.ini"
    config.write_text(SMALL_CONFIG.replace("feature_dim = 8", "feature_dim = 4"))
    train_config.write_text(TRAIN_CONFIG)
    data, models = root / "data", root / "models"
    for args in (["generate-data", "--config", config, "--out", data],
                 ["train", "--data", data, "--config", train_config, "--out", models,
                  "--ensemble", 2],
                 ["fit-gmm", "--data", data, "--head", models / "head.ocuq",
                  "--out", models / "gda.ocuq"]):
        r = runner.invoke(main, list(map(str, args)))
        assert r.exit_code == 0, r.output
    three_classes = root / "three_classes.ocuq"
    store.save_head(ResidualMlpHead(HeadConfig(input_dim=8, hidden_width=8, num_classes=3)),
                    three_classes)
    return {"--head": models / "head.ocuq", "--gda": models / "gda.ocuq", "--members": models,
            "three classes": three_classes, "data": data}


@pytest.mark.parametrize("command, option, foreign_key, args, against", [
    ("eval-ood", "--head", "--head", ("--methods", "max-softmax"), "test"),
    ("eval-ood", "--gda", "--gda", (), "head"),
    ("calibrate", "--gda", "--gda", (), "head"),
    ("eval-ood", "--members", "--members", ("--methods", "de:n=2"), "head"),
    ("fit-gmm", "--head", "--head", (), "train"),
    ("calibrate", "--head", "three classes", ("--method", "entropy"), "test"),
    ("eval-ood", "--head", "three classes", ("--methods", "max-softmax"), "test"),
], ids=["eval-ood head of another dim", "eval-ood gda of another world",
        "calibrate gda of another world", "eval-ood members of another world",
        "fit-gmm head of another dim", "calibrate head of other classes",
        "eval-ood head of other classes"])
def test_artifacts_that_do_not_agree_exit_3(workspace, foreign, runner, tmp_path, command,
                                            option, foreign_key, args, against):
    """An artifact whose sizes do not fit the dataset or the head is a data
    error in one line that names both files, found before any scene."""
    inputs = {"--head": workspace["models"] / "head.ocuq", "--gda": workspace["gda"],
              "--members": workspace["models"]}
    if command == "fit-gmm":
        del inputs["--gda"], inputs["--members"]
    inputs[option] = foreign[foreign_key]
    out = tmp_path / ("gda.ocuq" if command == "fit-gmm" else "out")
    argv = [command, "--data", str(workspace["data"]), "--out", str(out), *args]
    for flag, path in inputs.items():
        argv += [flag, str(path)]
    r = runner.invoke(main, argv)
    _assert_one_line_error(r, 3)
    named = foreign[foreign_key]
    if option == "--members":
        named = named / "member_0.ocuq"
    other = (workspace["models"] / "head.ocuq" if against == "head"
             else workspace["data"] / against / "manifest.json")
    assert str(named) in r.output and str(other) in r.output
    assert not out.exists()


@pytest.mark.parametrize("grid", ["abc", ",", "0,x", "nan"])
def test_calibrate_bad_lambda_grid_exit_2(workspace, runner, grid):
    r = runner.invoke(main, ["calibrate", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--lambda-grid", grid,
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1
    assert "--lambda-grid" in r.output


@pytest.mark.parametrize("grid", ["0.5,0.7", "0.0,0.01,0.02,0.05,0.1,0.2,0.5"])
def test_calibrate_ts_with_lambda_grid_exit_2(workspace, runner, grid):
    """Fixed TS fits no lambda, so a grid it would ignore is a usage error."""
    out = workspace["root"] / "ts_grid"
    r = runner.invoke(main, ["calibrate", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--mode", "ts",
                             "--lambda-grid", grid, "--out", str(out)])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output == "error: --lambda-grid applies only to --mode ugts\n"
    assert not out.exists()


def test_calibrate_ugts_default_grid_spelled_out_changes_nothing(workspace, runner):
    common = ["calibrate", "--data", str(workspace["data"]),
              "--head", str(workspace["models"] / "head.ocuq"),
              "--gda", str(workspace["gda"]), "--seed", "7"]
    outs = []
    for extra in ([], ["--lambda-grid", "0.0,0.01,0.02,0.05,0.1,0.2,0.5"]):
        outs.append(workspace["root"] / ("ugts_grid%d" % len(extra)))
        r = runner.invoke(main, common + extra + ["--out", str(outs[-1])])
        assert r.exit_code == 0, r.output
    assert all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in ("calibration.json", "calib.ocuq"))


def test_calibrate_one_class_validation_split_exit_3(runner, tmp_path):
    """A world without objects labels every voxel ground, so the validation
    split holds one class and no temperature can be fitted to it."""
    config = tmp_path / "flat.ini"
    config.write_text("[world]\ngrid_x = 8\ngrid_y = 8\ngrid_z = 2\nobjects_min = 0\n"
                      "objects_max = 0\ntrain_scenes = 2\nval_scenes = 1\ntest_scenes = 1\n")
    data, models, out = tmp_path / "data", tmp_path / "models", tmp_path / "out"
    for args in (["generate-data", "--config", str(config), "--out", str(data)],
                 ["train", "--data", str(data), "--out", str(models), "--epochs", "1"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["calibrate", "--data", str(data), "--method", "entropy",
                             "--head", str(models / "head.ocuq"), "--out", str(out)])
    _assert_one_line_error(r, 3)
    assert "two classes" in r.output
    assert not out.exists()


def test_config_hash_tells_values_apart():
    # a hash of the sorted characters of str(obj) gave c2a8408e59148ab2 for both
    assert _config_hash({"seed": 42}) != _config_hash({"seed": 24})
    assert _config_hash({"a": 1, "b": [2, 3]}) == _config_hash({"b": [2, 3], "a": 1})
    assert len(_config_hash({"seed": 42})) == 16


def test_calibrate_writes_params_and_report(workspace, runner):
    out = workspace["root"] / "calib"
    r = runner.invoke(main, ["calibrate", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]),
                             "--method", "ours", "--mode", "ugts",
                             "--out", str(out), "--seed", "7"])
    assert r.exit_code == 0, r.output
    assert (out / "calib.ocuq").exists()
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["method"] == "ours"
    assert "clean" in doc["results"] and "corrupted" in doc["results"]
    assert doc["t_train"] > 0


def test_calibrate_ts_reads_no_train_split(workspace, runner, tmp_path):
    """No temperature at lambda = 0 reads u_bar_train, so --mode ts scores no
    train scene: it runs on data without a train split, writes u_bar_train
    as null, and its raw and ts results are those of a ugts run."""
    data = tmp_path / "data"
    for split in ("val", "test"):
        shutil.copytree(workspace["data"] / split, data / split)
    runs = {}
    for mode, split_dir in (("ts", data), ("ugts", workspace["data"])):
        out = tmp_path / mode
        r = runner.invoke(main, ["calibrate", "--data", str(split_dir),
                                 "--head", str(workspace["models"] / "head.ocuq"),
                                 "--gda", str(workspace["gda"]), "--method", "ours",
                                 "--mode", mode, "--out", str(out), "--seed", "7"])
        assert r.exit_code == 0, r.output
        runs[mode] = json.loads((out / "calibration.json").read_text())
    ts, ugts = runs["ts"], runs["ugts"]
    assert ts["u_bar_train"] is None and ugts["u_bar_train"] > 0
    assert ts["lambda"] == 0.0 and ts["t_train"] == ugts["t_train"]
    for split in ("clean", "corrupted"):
        for variant in ("raw", "ts"):
            assert ts["results"][split][variant] == ugts["results"][split][variant]
        assert ts["results"][split]["ugts"] == ts["results"][split]["ts"]
    assert load_calibration(tmp_path / "ts" / "calib.ocuq").u_bar_train == 0.0


def test_in_process_calibration_equals_the_cli(workspace, runner):
    """Generated splits hold the float32 values that features.bin stores, so
    calibrating on splits generated in process gives calibration.json's
    numbers exactly, although the CLI reads its splits back from disk."""
    out = workspace["root"] / "calib_in_process"
    r = runner.invoke(main, ["calibrate", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--method", "ours",
                             "--mode", "ugts", "--out", str(out), "--seed", "7"])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "calibration.json").read_text())
    world = synthworld.generate_world(
        cli.world_config_from(cli.load_config(workspace["config"], "generate-data")))
    train, val, test = (synthworld.generate_dataset(world, s) for s in ("train", "val", "test"))
    bundle = MethodBundle(head=store.load_head(workspace["models"] / "head.ocuq"),
                          gda_model=store.load_gda(workspace["gda"]))
    params = pipeline.calibrate_method("ours", bundle, train, val, seed=7)
    result = pipeline.evaluate_calibration("ours", bundle, world, params, test, seed=7)
    assert (params.t_train, params.lam, params.u_bar_train) == (
        doc["t_train"], doc["lambda"], doc["u_bar_train"])
    assert result == doc["results"]


def test_report_renders_from_metrics(workspace, runner):
    bench = workspace["root"] / "bench"
    out = workspace["root"] / "rendered"
    r = runner.invoke(main, ["report", "--metrics", str(bench / "metrics.json"),
                             "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "tables.md").exists()
    assert list(out.glob("hist_*.svg"))


def test_report_histograms_that_are_not_a_file_exit_2(workspace, runner, tmp_path):
    """--histograms naming a directory or a missing file is a usage error
    in one line, and nothing is rendered."""
    metrics = tmp_path / "metrics.json"
    report_mod.write_metrics(report_mod.report_to_metrics(BenchmarkReport()), metrics)
    for histograms in (tmp_path, tmp_path / "absent.csv"):
        r = runner.invoke(main, ["report", "--metrics", str(metrics),
                                 "--histograms", str(histograms),
                                 "--out-dir", str(tmp_path / "out")])
        _assert_one_line_error(r, 2)
        assert "histograms" in r.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", [
    b"ours,no/ise,1,0,1,2,3",             # not a plain file name
    b"ours,/../../escaped,1,0,1,2,3",     # a name that leaves --out-dir
    b"ours,no\x00ise,1,0,1,2,3",         # a NUL byte
    b"ours," + b"n" * 250 + b",1,0,1,2,3",  # a file name over NAME_MAX bytes
    b"ours,noise,1,0",                    # 4 fields
    b"ours,noise,1,0,1,2,3,4",            # 8 fields
    b"ours,noise,one,0,1,2,3",            # a severity that is not a number
    b"ours,noise,1,0,1,2,3x",             # a count that is not a number
    b"ours,noise,1,0,1,2,-3",             # a negative count
    b"ours,noise,1,0,1,2,3\xff",          # not UTF-8
], ids=["slash", "escape", "nul", "long name", "4 fields", "8 fields", "severity", "count",
        "negative count", "not utf-8"])
def test_report_bad_histograms_row_exit_2(metrics_dir, runner, tmp_path, row):
    """A histograms.csv row that eval-ood would not write is one `error:`
    line naming histograms.csv, exit 2, and no SVG is written anywhere."""
    shutil.copy(metrics_dir / "metrics.json", tmp_path)
    csv_bytes = (metrics_dir / "histograms.csv").read_bytes()
    (tmp_path / "histograms.csv").write_bytes(csv_bytes + row + b"\n")
    out = tmp_path / "a" / "out"
    (out / "hist_ours_").mkdir(parents=True)  # where the escaping name would start
    r = runner.invoke(main, ["report", "--metrics", str(tmp_path / "metrics.json"),
                             "--out-dir", str(out)])
    _assert_one_line_error(r, 2)
    assert "histograms.csv" in r.output and "metrics schema mismatch" not in r.output
    assert not list(tmp_path.rglob("*.svg"))


def test_report_missing_metrics_exit_2(workspace, runner):
    r = runner.invoke(main, ["report", "--metrics",
                             str(workspace["root"] / "absent.json"),
                             "--out-dir", str(workspace["root"] / "x")])
    assert r.exit_code == 2


def test_report_schema_mismatch_exit_2(workspace, runner, tmp_path):
    bad = tmp_path / "metrics.json"
    bad.write_text('{"schema_version": 999, "methods": {}}')
    r = runner.invoke(main, ["report", "--metrics", str(bad),
                             "--out-dir", str(tmp_path / "out")])
    assert r.exit_code == 2


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"schema_version": 1, "methods": []}',
    '{"schema_version": 1, "methods": {"ours": "mauroc"}}',
    '{"schema_version": 1, "methods": {"ours": {"mauroc": "high", "mfpr95": 0.1}}}',
], ids=["list", "methods a list", "method block a string", "mauroc a string"])
def test_report_malformed_metrics_exit_2(runner, tmp_path, text):
    """A metrics.json of the wrong shape is a usage error in one line."""
    bad = tmp_path / "metrics.json"
    bad.write_text(text)
    r = runner.invoke(main, ["report", "--metrics", str(bad), "--out-dir", str(tmp_path / "out")])
    _assert_one_line_error(r, 2)
    assert "metrics schema mismatch" in r.output


@pytest.mark.parametrize("old, new", [(b'"skip": true', b'"skip": tru\xff'),
                                      (b'"skip": true', b'"skip": trux'),
                                      (b"<f4", b"<z4")],
                         ids=["metadata not UTF-8", "metadata not JSON", "unknown dtype"])
def test_head_file_of_corrupt_bytes_exit_3(workspace, runner, tmp_path, old, new):
    """fit-gmm --head on a head file whose metadata is not UTF-8 JSON, or
    whose first tensor has an unknown dtype, is a data error in one line."""
    raw = (workspace["models"] / "head.ocuq").read_bytes()
    assert old in raw
    path = tmp_path / "head.ocuq"
    path.write_bytes(raw.replace(old, new, 1))
    r = runner.invoke(main, ["fit-gmm", "--data", str(workspace["data"]), "--head", str(path),
                             "--out", str(tmp_path / "out")])
    _assert_one_line_error(r, 3)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option, bad, code", [
    ("fit-gmm", "--head", "bad magic", 3),
    ("fit-gmm", "--head", "gda artifact", 3),
    ("eval-ood", "--gda", "bad magic", 3),
    ("fit-gmm", "--head", "directory", 2),
    ("report", "--metrics", "directory", 2),
    ("fit-gmm", "--out", "directory", 2),
    ("train", "--out", "file", 2),
    ("eval-ood", "--out", "file", 2),
    ("generate-data", "--out", "file", 2),
    ("generate-data", "--out", "path under a file", 2),
])
def test_unusable_artifact_or_out_path_exit_code(workspace, runner, tmp_path, command,
                                                 option, bad, code):
    """A malformed artifact file is a data error; an artifact path that is a
    directory and an --out path that cannot be written are usage errors.
    Each is one error line, never a traceback."""
    a_file = tmp_path / "file"
    a_file.write_text("not an artifact\n")
    bad_magic = tmp_path / "bad.ocuq"
    bad_magic.write_bytes(b"JUNK" + (workspace["models"] / "head.ocuq").read_bytes()[4:])
    path = {"bad magic": bad_magic, "gda artifact": workspace["gda"], "directory": tmp_path,
            "file": a_file, "path under a file": a_file / "out"}[bad]
    data, head = str(workspace["data"]), str(workspace["models"] / "head.ocuq")
    args = {
        "generate-data": ["--config", str(workspace["config"]), "--out", "OUT"],
        "train": ["--data", data, "--config", str(workspace["train_config"]), "--out", "OUT"],
        "fit-gmm": ["--data", data, "--head", head, "--out", "OUT"],
        "eval-ood": ["--data", data, "--head", head, "--gda", str(workspace["gda"]),
                     "--methods", "ours", "--corruptions", "noise", "--severities", "1",
                     "--out", "OUT"],
        "report": ["--metrics", "METRICS", "--out-dir", "OUT"],
    }[command]
    args[args.index("OUT")] = str(tmp_path / "out")
    args[args.index(option) + 1] = str(path)
    _assert_one_line_error(runner.invoke(main, [command] + args), code)


def test_dim_sweep_tabulates_param_counts(workspace, runner):
    out = workspace["root"] / "dims"
    r = runner.invoke(main, ["dim-sweep", "--dims", "4,8",
                             "--config", str(workspace["config"]),
                             "--out", str(out), "--seed", "7"])
    assert r.exit_code == 0, r.output
    rows = json.loads((out / "dim_sweep.json").read_text())["rows"]
    assert [row["dim"] for row in rows] == [4, 8]
    assert rows[0]["gmm_params"] == 5 * (4 + 16)
    assert rows[1]["gmm_params"] == 5 * (8 + 64)
    assert (out / "dim_sweep.md").exists()


@pytest.mark.parametrize("command, args, name", [("ablate", (), "ablation.json"),
                                                 ("dim-sweep", ("--dims", "4"), "dim_sweep.json")])
def test_world_seed_of_the_config_seeds_the_sweeps(runner, tmp_path, command, args, name):
    """ablate and dim-sweep take [world] seed unless --seed is given, and it
    seeds the world, the training and the sweep as --seed does."""
    world = SMALL_CONFIG
    seeded, unseeded = tmp_path / "seeded.ini", tmp_path / "unseeded.ini"
    seeded.write_text(world)
    unseeded.write_text(world.replace("seed = 7\n", ""))
    runs = {"config": (seeded,), "option": (unseeded, "--seed", "7"),
            "both": (seeded, "--seed", "42"), "neither": (unseeded,)}
    outputs = {}
    for run, (config, *seed) in runs.items():
        r = runner.invoke(main, [command, "--config", str(config), *args, *seed,
                                 "--out", str(tmp_path / run)])
        assert r.exit_code == 0, r.output
        outputs[run] = (tmp_path / run / name).read_bytes()
    assert outputs["config"] == outputs["option"]
    assert outputs["both"] == outputs["neither"] != outputs["config"]


@pytest.mark.parametrize("dims", ["4,x", "eight", "4.5", "1", "4,4"])
def test_dim_sweep_bad_dims_exit_2(workspace, runner, dims):
    r = runner.invoke(main, ["dim-sweep", "--dims", dims,
                             "--config", str(workspace["config"]),
                             "--out", str(workspace["root"] / "x")])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ") and r.output.count("\n") == 1


# -- the exit-code contract under generated hostile inputs ------------------

# per config value type, values that no key of that type accepts: each is
# malformed or below every key's limit
MALFORMED = {int: ["", "x", "1.5", "-1", "nan", "1e3", "0x10", "true"],
             float: ["", "x", "nan", "inf", "-inf", "-1", "1e400", "true"],
             bool: ["", "maybe", "2", "-1", "nan"]}
# the inputs each command reads, and what a hostile one of each may be
INPUTS = {"generate-data": ("config",), "train": ("data", "config"), "fit-gmm": ("data", "head"),
          "eval-ood": ("data", "head", "gda", "members"),
          "calibrate": ("data", "head", "gda", "members"), "report": ("metrics", "histograms"),
          "ablate": ("config",), "dim-sweep": ("config",)}
HOSTILE = {"data": ("foreign", "flipped"), "head": ("foreign", "three classes", "flipped"),
           "gda": ("foreign", "flipped", "absent"), "members": ("foreign", "flipped", "absent"),
           "metrics": ("flipped",), "histograms": ("flipped",), "config": ("malformed",)}
DATA_FILES = [(split, name) for split in ("train", "val", "test")
              for name in ("manifest.json", "features.bin", "labels.bin")]
METHODS = ("ours", "max-softmax", "entropy", "mcd:n=2", "de:n=2")


@pytest.fixture(scope="module")
def metrics_dir(workspace, tmp_path_factory, runner):
    """metrics.json and histograms.csv of one eval-ood run on the workspace."""
    out = tmp_path_factory.mktemp("metrics")
    r = runner.invoke(main, ["eval-ood", "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--methods", "ours,entropy",
                             "--corruptions", "noise", "--severities", "1", "--out", str(out)])
    assert r.exit_code == 0, r.output
    return out


@st.composite
def hostile_input(draw, command):
    """One input of `command` made hostile: (input, how, detail), where a
    flipped input's detail is (file in its directory, byte offset, XOR
    mask) and a malformed config's is (section, key, value), in a section
    that `command` reads."""
    name = draw(st.sampled_from(INPUTS[command]))
    how = draw(st.sampled_from(HOSTILE[name]))
    detail = None
    if how == "flipped":
        detail = (Path(*draw(st.sampled_from(DATA_FILES))) if name == "data" else None,
                  draw(st.integers(0, 2 ** 20)), draw(st.integers(1, 255)))
    elif how == "malformed":
        section, key = draw(st.sampled_from([(section, key)
                                             for section in cli.COMMAND_SECTIONS[command]
                                             for key in cli.SECTION_KEYS[section]]))
        detail = section, key, draw(st.sampled_from(MALFORMED[cli.SECTION_KEYS[section][key]]))
    return name, how, detail


def _hostile_paths(tmp, workspace, foreign, metrics_dir, command, name, how, detail):
    """The path of each input of `command`: the workspace's, but for input
    `name`, made hostile `how` under `tmp`."""
    paths = {"data": workspace["data"], "head": workspace["models"] / "head.ocuq",
             "gda": workspace["gda"], "members": workspace["models"],
             "metrics": metrics_dir / "metrics.json",
             "histograms": metrics_dir / "histograms.csv",
             "config": workspace["train_config" if command == "train" else "config"]}
    if how == "foreign":
        paths[name] = foreign["data" if name == "data" else "--" + name]
    elif how == "three classes":
        paths[name] = foreign[how]
    elif how == "absent":
        paths[name] = None
    elif how == "flipped":
        # a copy of the directory the input is in, one byte of one file flipped
        own = paths[name]
        paths[name] = tmp / name if own.is_dir() else tmp / name / own.name
        shutil.copytree(own if own.is_dir() else own.parent, tmp / name)
        data_file, offset, mask = detail
        flipped = {"data": tmp / name / (data_file or ""),
                   "members": tmp / name / "member_0.ocuq"}.get(name, paths[name])
        raw = bytearray(flipped.read_bytes())
        raw[offset % len(raw)] ^= mask
        flipped.write_bytes(bytes(raw))
    elif how == "malformed":
        section, key, value = detail
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(paths["config"])
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        paths[name] = tmp / "config.ini"
        with open(paths[name], "w") as f:
            parser.write(f)
    return paths


@pytest.mark.parametrize("command", list(INPUTS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_inputs_keep_the_exit_code_contract(workspace, foreign, metrics_dir, runner,
                                                    command, data):
    """Every command, given an artifact or dataset of another world, a
    byte-flipped artifact, dataset file, metrics.json or histograms.csv, or
    a malformed config value, exits 0, 2 or 3; an error is one `error:`
    line, and nothing raises."""
    name, how, detail = data.draw(hostile_input(command))
    methods = data.draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = _hostile_paths(tmp, workspace, foreign, metrics_dir, command, name, how,
                               detail)
        argv = {
            "generate-data": ["--config", paths["config"]],
            "train": ["--data", paths["data"], "--config", paths["config"]],
            "fit-gmm": ["--data", paths["data"], "--head", paths["head"]],
            "eval-ood": ["--data", paths["data"], "--head", paths["head"],
                         "--methods", ",".join(methods), "--corruptions", "noise",
                         "--severities", "1"],
            "calibrate": ["--data", paths["data"], "--head", paths["head"],
                          "--method", methods[0]],
            "report": ["--metrics", paths["metrics"], "--histograms", paths["histograms"]],
            "ablate": ["--config", paths["config"]],
            "dim-sweep": ["--config", paths["config"], "--dims", "4"],
        }[command]
        if command in ("eval-ood", "calibrate"):
            argv += [a for option in ("gda", "members") if paths[option] is not None
                     for a in ("--" + option, paths[option])]
        out = tmp / ("gda.ocuq" if command == "fit-gmm" else "out")
        argv += ["--out-dir" if command == "report" else "--out", out]
        r = runner.invoke(main, [command] + [str(a) for a in argv])
    assert r.exit_code in (0, 2, 3), (argv, r.output, r.exception)
    assert r.exception is None or isinstance(r.exception, SystemExit), (argv, r.exception)
    assert "Traceback" not in r.output
    if r.exit_code:
        assert r.output.startswith("error: ") and r.output.count("\n") == 1, (argv, r.output)


DEGENERATE_GRIDS = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 6, 6), (1, 5, 6), (3, 1, 2)]


@pytest.mark.parametrize("grid", DEGENERATE_GRIDS, ids=["x".join(map(str, g))
                                                         for g in DEGENERATE_GRIDS])
def test_degenerate_grid_chain_keeps_the_exit_code_contract(runner, tmp_path, grid):
    """generate-data, train, fit-gmm, eval-ood and calibrate on a grid one
    voxel wide, high or deep: each exits 0, 2 or 3 with at most one `error:`
    line and no traceback. eval-ood and calibrate score ours when fit-gmm
    wrote a density model, and max-softmax otherwise."""
    config = tmp_path / "grid.ini"
    config.write_text("[world]\ngrid_x = %d\ngrid_y = %d\ngrid_z = %d\nnum_classes = 2\n"
                      "feature_dim = 4\ntrain_scenes = 4\nval_scenes = 2\ntest_scenes = 3\n"
                      % grid)
    data, models = tmp_path / "data", tmp_path / "models"
    head, gda = models / "head.ocuq", models / "gda.ocuq"
    chain = [["generate-data", "--config", config, "--out", data],
             ["train", "--data", data, "--out", models, "--epochs", "1"],
             ["fit-gmm", "--data", data, "--head", head, "--out", gda],
             ["eval-ood", "--data", data, "--head", head, "--out", tmp_path / "ood"],
             ["calibrate", "--data", data, "--head", head, "--out", tmp_path / "calib"]]
    for argv in chain:
        if argv[0] in ("eval-ood", "calibrate"):
            argv += (["--gda", gda, "--method", "ours"] if gda.is_file()
                     else ["--method", "max-softmax"])
            if argv[0] == "eval-ood":
                argv[-2] = "--methods"
        r = runner.invoke(main, [str(a) for a in argv])
        assert r.exit_code in (0, 2, 3), (argv[0], r.output, r.exception)
        assert r.exception is None or isinstance(r.exception, SystemExit), (argv[0], r.exception)
        assert "Traceback" not in r.output and r.output.count("error:") <= 1, r.output


@pytest.mark.parametrize("grid", [(1, 2, 1), (1, 6, 6)])
def test_eval_ood_without_a_front_sector_voxel_exit_2(runner, tmp_path, grid):
    """A grid one voxel wide and an even number high has no voxel in the
    front sector, so no region-level cell: exit 2 naming the grid, before
    any scene is scored, and no --out directory."""
    config = tmp_path / "grid.ini"
    config.write_text("[world]\ngrid_x = %d\ngrid_y = %d\ngrid_z = %d\nnum_classes = 2\n"
                      "feature_dim = 4\ntrain_scenes = 2\nval_scenes = 1\ntest_scenes = 2\n"
                      % grid)
    data, models = tmp_path / "data", tmp_path / "models"
    for argv in (["generate-data", "--config", config, "--out", data],
                 ["train", "--data", data, "--out", models, "--epochs", "1"]):
        assert runner.invoke(main, [str(a) for a in argv]).exit_code == 0
    with mock.patch.object(ood_module, "score_scene", side_effect=AssertionError("scored")):
        r = runner.invoke(main, ["eval-ood", "--data", str(data), "--head",
                                 str(models / "head.ocuq"), "--methods", "max-softmax",
                                 "--out", str(tmp_path / "ood")])
    _assert_one_line_error(r, 2)
    assert "x".join(map(str, grid)) in r.output
    assert not (tmp_path / "ood").exists()


@pytest.mark.parametrize("command, error, code", [
    ("eval-ood", FitError, 3), ("calibrate", FitError, 3),
    ("eval-ood", ood_module.MethodError, 2), ("calibrate", synthworld.GenerationError, 2)])
def test_a_scene_that_raises_mid_walk_exits_in_one_line(workspace, runner, tmp_path,
                                                         monkeypatch, command, error, code):
    """A scene that raises in a walk of two workers reaches the command as
    raised: exit 2 or 3 with one `error:` line, no --out directory, and
    every thread of the walk ended."""
    monkeypatch.setattr(ood_module, "walk_workers", lambda: 2)
    score, calls = ood_module.score_scene, []

    def failing_score(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise error("scene 3 failed")
        return score(*args, **kwargs)

    monkeypatch.setattr(ood_module, "score_scene", failing_score)
    threads = threading.active_count()
    r = runner.invoke(main, [command, "--data", str(workspace["data"]),
                             "--head", str(workspace["models"] / "head.ocuq"),
                             "--gda", str(workspace["gda"]), "--out", str(tmp_path / "out")])
    _assert_one_line_error(r, code)
    assert "scene 3 failed" in r.output
    assert not (tmp_path / "out").exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("text", [
    "[1]", '{"schema_version": 999, "methods": {}}',
    # a method block without mauroc or mfpr95 (only the region keys are optional)
    '{"schema_version": 1, "methods": {"ours": {"mfpr95": 0.1}}}',
    '{"schema_version": 1, "methods": {"ours": {"mauroc": 0.5}}}',
    '{"schema_version": 1, "methods": {"ours": {"mauroc": 0.5, "mfpr95": 0.1}, "de": {}}}'])
def test_report_rejecting_its_input_creates_no_out_dir(metrics_dir, runner, tmp_path, text):
    """report reads and checks metrics.json and histograms.csv before it
    creates --out-dir: a rejected input leaves no directory behind."""
    bad = tmp_path / "metrics.json"
    bad.write_text(text)
    r = runner.invoke(main, ["report", "--metrics", str(bad), "--out-dir",
                             str(tmp_path / "new" / "out")])
    _assert_one_line_error(r, 2)
    assert "metrics schema mismatch" in r.output
    (tmp_path / "histograms.csv").write_bytes(b"method\nours,no/ise,1,0,1,2,3\n")
    r = runner.invoke(main, ["report", "--metrics", str(metrics_dir / "metrics.json"),
                             "--histograms", str(tmp_path / "histograms.csv"),
                             "--out-dir", str(tmp_path / "new" / "out")])
    _assert_one_line_error(r, 2)
    assert not (tmp_path / "new").exists()
