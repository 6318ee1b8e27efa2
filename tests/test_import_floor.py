"""The README chain in fresh interpreters. No command loads scipy: each
subpackage costs 20-30 MB of resident memory, and the toolkit needs none of
them. The chain runs once with one BLAS thread and once with two, and every
file it writes, except the sweep's wall time, is the same bytes in both. The
world is small, but its GEMMs are large enough for OpenBLAS to split them
over two threads. A walk runs on as many worker threads as BLAS threads, so
the two chains also pin a serial walk (W = 1) against a walk of two workers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from voxuq import cli

CONFIG = """
[world]
grid_x = 16
grid_y = 16
grid_z = 4
num_classes = 5
feature_dim = 32
objects_min = 3
objects_max = 3
train_scenes = 8
val_scenes = 2
test_scenes = 2
seed = 7
"""

# runs each command of argv[1] in order, recording its exit code and every
# scipy module loaded so far; the commands print to stdout, so the record goes
# to the last line
SCRIPT = """
import contextlib, io, json, sys
from voxuq import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

record = {"import": [0, scipy_modules()]}
for name, args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="voxuq", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code
    record[name] = [code, scipy_modules()]
print(json.dumps(record))
"""

STEPS = {"import": 0, "usage-error": 2, "generate-data": 0, "train": 0,
         "eval-ood baselines": 0, "fit-gmm": 0, "eval-ood ours": 0,
         "eval-ood --gda entropy": 0, "calibrate ours": 0, "calibrate entropy ts": 0,
         "report": 0, "ablate": 0, "dim-sweep": 0}


def chain(root):
    """The steps of STEPS after "import", as (name, argv) pairs writing under root."""
    config, data, models = str(root / "config.ini"), str(root / "data"), root / "models"
    head, gda = str(models / "head.ocuq"), str(models / "gda.ocuq")
    sweep = ["eval-ood", "--data", data, "--head", head, "--corruptions", "noise,fog",
             "--severities", "1,3"]
    calibrate = ["calibrate", "--data", data, "--head", head, "--gda", gda]
    return [
        ("usage-error", sweep + ["--methods", "telepathy", "--out", str(root / "x")]),
        ("generate-data", ["generate-data", "--config", config, "--out", data]),
        ("train", ["train", "--data", data, "--out", str(models), "--epochs", "1",
                   "--ensemble", "2", "--seed", "7"]),
        ("eval-ood baselines", sweep + ["--members", str(models), "--methods",
                                        "mcd:n=2,de:n=2", "--out", str(root / "baselines")]),
        ("fit-gmm", ["fit-gmm", "--data", data, "--head", head, "--out", gda]),
        ("eval-ood ours", sweep + ["--gda", gda, "--methods", "ours,max-softmax",
                                   "--out", str(root / "ours")]),
        ("eval-ood --gda entropy", sweep + ["--gda", gda, "--methods", "entropy",
                                            "--out", str(root / "entropy")]),
        ("calibrate ours", calibrate + ["--method", "ours", "--out", str(root / "calib")]),
        ("calibrate entropy ts", calibrate + ["--method", "entropy", "--mode", "ts",
                                              "--out", str(root / "calib_ts")]),
        ("report", ["report", "--metrics", str(root / "ours" / "metrics.json"),
                    "--out-dir", str(root / "report")]),
        ("ablate", ["ablate", "--config", config, "--out", str(root / "ablation")]),
        ("dim-sweep", ["dim-sweep", "--config", config, "--dims", "4,8",
                       "--out", str(root / "dims")]),
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{BLAS threads: (output root, {step: (exit code, scipy modules loaded
    after it)})} for the chain at OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = {}
    for threads in (1, 2):
        root = tmp_path_factory.mktemp("threads%d" % threads)
        (root / "config.ini").write_text(CONFIG)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(chain(root))],
                              env=env, cwd=root, capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.splitlines()[-1])
        out[threads] = root, {step: tuple(v) for step, v in record.items()}
    return out


@pytest.mark.parametrize("step, code", STEPS.items())
def test_command_loads_no_scipy(runs, step, code):
    for _, record in runs.values():
        assert record[step] == (code, [])


def test_outputs_do_not_depend_on_blas_threads(runs):
    trees = []
    for root, _ in runs.values():
        files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "timing.json")
        trees.append({p.relative_to(root): p.read_bytes() for p in files})
    one, two = trees
    assert one.keys() == two.keys()
    for name in ["data/test/features.bin", "models/head.ocuq", "models/gda.ocuq",
                 "ours/metrics.json", "ours/histograms.csv", "calib/calib.ocuq",
                 "calib/calibration.json"]:
        assert Path(name) in one
    assert [name for name in one if one[name] != two[name]] == []
