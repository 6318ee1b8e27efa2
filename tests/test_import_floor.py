"""Which scipy subpackages the commands load. scipy.stats, scipy.optimize and
scipy.linalg cost about 70 MB of resident memory, so each is imported only
inside the code that calls it. The commands run in one fresh interpreter, so
that modules imported by other tests cannot hide a load.
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
grid_x = 8
grid_y = 8
grid_z = 2
num_classes = 5
feature_dim = 8
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


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """{step: (exit code, scipy modules loaded after it)}."""
    root = tmp_path_factory.mktemp("imports")
    (root / "config.ini").write_text(CONFIG)
    data, models = str(root / "data"), str(root / "models")
    head, gda = str(root / "models" / "head.ocuq"), str(root / "models" / "gda.ocuq")
    sweep = ["eval-ood", "--data", data, "--head", head, "--corruptions", "noise",
             "--severities", "1"]
    steps = [
        ("usage-error", sweep + ["--methods", "telepathy", "--out", str(root / "x")]),
        ("generate-data", ["generate-data", "--config", str(root / "config.ini"),
                           "--out", data]),
        ("train", ["train", "--data", data, "--out", models, "--epochs", "1",
                   "--ensemble", "2", "--seed", "7"]),
        ("eval-ood baselines", sweep + ["--members", models, "--methods", "mcd:n=2,de:n=2",
                                        "--out", str(root / "baselines")]),
        ("fit-gmm", ["fit-gmm", "--data", data, "--head", head, "--out", gda]),
        ("eval-ood ours", sweep + ["--gda", gda, "--methods", "ours",
                                   "--out", str(root / "ours")]),
    ]
    # a second fresh interpreter, as fit-gmm above has loaded scipy.linalg
    unused_gda = [("eval-ood --gda entropy", sweep + ["--gda", gda, "--methods", "entropy",
                                                      "--out", str(root / "entropy")])]
    src = str(Path(cli.__file__).resolve().parents[1])
    record = {}
    for run in (steps, unused_gda):
        proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(run)],
                              env=dict(os.environ, PYTHONPATH=src), cwd=root,
                              capture_output=True, text=True, check=True)
        record = dict(json.loads(proc.stdout.splitlines()[-1]), **record)
    return {step: tuple(v) for step, v in record.items()}


@pytest.mark.parametrize("step, code", [
    ("import", 0), ("usage-error", 2), ("generate-data", 0), ("train", 0),
    ("eval-ood baselines", 0), ("eval-ood --gda entropy", 0),
])
def test_command_loads_no_scipy(loaded, step, code):
    assert loaded[step] == (code, [])


@pytest.mark.parametrize("step", ["fit-gmm", "eval-ood ours"])
def test_density_command_loads_neither_stats_nor_optimize(loaded, step):
    code, modules = loaded[step]
    assert code == 0
    assert "scipy.stats" not in modules and "scipy.optimize" not in modules

