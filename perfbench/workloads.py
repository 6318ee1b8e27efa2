"""The benchmark's workloads, run through the toolkit's public entry points.

Every workload generates its world from the workload seed with
``voxuq generate-data``; the toolkit sees only that generated data. Set-up
runs the commands that produce the artifacts; the timed stages are the
commands a user repeats on those artifacts. Command-line stages run as
in-process calls to the ``voxuq`` click group.
"""

import contextlib
import io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

from voxuq import cli, ood, report, store, synthworld


@dataclass(frozen=True)
class Size:
    """Scene counts of the generated world, and the grid of the paper-sized
    scene."""

    train: int
    val: int
    test: int
    paper_grid: tuple = None


# "bench" is what the benchmark measures: the default world's 24x24x4 grid
# and all 5 kinds x 3 severities, with fewer scenes than the README's
# 60/20/100 and a 64x64x16 paper scene instead of 200x200x16, so that every
# run fits the time budget of a 2-core machine. 26 training scenes cover all
# 17 classes for every seed below 2300, which fit-gmm needs; baselines fits
# no density and trains 4 heads, so it gets fewer. "full" is the README's
# world and the paper's grid; "smoke" is for the benchmark's own tests.
SIZES = {
    "smoke": {"default_pipeline": Size(8, 2, 2), "baselines": Size(3, 2, 2),
              "paper_grid": Size(8, 2, 1, paper_grid=(16, 16, 8))},
    "bench": {"default_pipeline": Size(26, 8, 8), "baselines": Size(12, 8, 8),
              "paper_grid": Size(26, 8, 1, paper_grid=(64, 64, 16))},
    "full": {"default_pipeline": Size(60, 20, 100), "baselines": Size(60, 20, 100),
             "paper_grid": Size(60, 20, 1, paper_grid=(200, 200, 16))},
}


class StageError(RuntimeError):
    """A command exited with an error or produced no usable output."""


def voxuq(*args):
    """Run one ``voxuq`` command in this process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="voxuq",
                          standalone_mode=False)
        except SystemExit as e:
            if e.code:
                raise StageError("voxuq %s exited with code %s" % (args[0], e.code))
    return out.getvalue()


def _val_accuracy(train_stdout):
    match = re.search(r"validation accuracy: ([0-9.]+)", train_stdout)
    if not match:
        raise StageError("train printed no validation accuracy")
    return float(match.group(1))


class Workload:
    name = ""
    why = ""
    # output files of the timed stages that must not change between runs
    outputs = ()

    def __init__(self, root, seed, size):
        self.root = Path(root)
        self.seed = seed
        self.size = size
        self.data = self.root / "data"
        self.models = self.root / "models"
        self.head = self.models / "head.ocuq"
        self.gda = self.models / "gda.ocuq"

    def setup(self):
        """Run the set-up commands; returns the quality values they report."""
        cfg = self.root / "world.ini"
        cfg.write_text("[world]\ntrain_scenes = %d\nval_scenes = %d\ntest_scenes = %d\n"
                       % (self.size.train, self.size.val, self.size.test))
        voxuq("generate-data", "--config", cfg, "--out", self.data, "--seed", self.seed)
        return {"val_accuracy": _val_accuracy(self.train())}

    def train(self):
        return voxuq("train", "--data", self.data, "--out", self.models, "--seed", self.seed)

    def fit_gmm(self):
        voxuq("fit-gmm", "--data", self.data, "--head", self.head, "--out", self.gda,
              "--seed", self.seed)

    def stages(self, out):
        """(stage name, callable) pairs; each writes its outputs under ``out``."""
        raise NotImplementedError

    def quality(self, out):
        """Quality values read from the outputs of one pass: mAUROC per
        method, scene- and region-level."""
        methods = _read_json(out / "sweep" / "metrics.json")["methods"]
        values = {}
        for method, block in methods.items():
            # "max-softmax" -> max_softmax, "mcd:n=5:p=0.1" -> mcd
            name = method.split(":")[0].replace("-", "_")
            values["mauroc_" + name] = block["mauroc"]
            if "region_mauroc" in block:
                values["mauroc_region_" + name] = block["region_mauroc"]
        return values


def _read_json(path):
    with open(path) as f:
        return json.load(f)


class DefaultPipeline(Workload):
    name = "default_pipeline"
    why = ("README walkthrough at the default world: many small scenes, so per-call "
           "overheads and repeated forwards, corruptions and log-densities dominate")
    outputs = ("sweep/metrics.json", "sweep/histograms.csv", "calibrate/calibration.json")

    def setup(self):
        values = super().setup()
        self.fit_gmm()
        return values

    def stages(self, out):
        common = ("--data", self.data, "--head", self.head, "--gda", self.gda,
                  "--seed", self.seed)
        return [
            ("sweep", lambda: voxuq("eval-ood", *common, "--out", out / "sweep")),
            ("calibrate", lambda: voxuq("calibrate", *common, "--method", "ours",
                                        "--mode", "ugts", "--out", out / "calibrate")),
        ]

    def quality(self, out):
        values = super().quality(out)
        results = _read_json(out / "calibrate" / "calibration.json")["results"]
        values["mece_ts"] = results["corrupted"]["ts"]["mece"]
        values["mece_ugts"] = results["corrupted"]["ugts"]["mece"]
        return values


class Baselines(Workload):
    name = "baselines"
    why = ("MC-Dropout and deep-ensemble sweep with 4 heads trained in set-up; never "
           "touches the density model, so it bypasses density-side changes")
    outputs = ("sweep/metrics.json", "sweep/histograms.csv")

    def train(self):
        return voxuq("train", "--data", self.data, "--out", self.models, "--seed", self.seed,
                     "--ensemble", 3)

    def stages(self, out):
        return [("sweep", lambda: voxuq(
            "eval-ood", "--data", self.data, "--head", self.head, "--members", self.models,
            "--methods", "mcd:n=5:p=0.1,de:n=3", "--seed", self.seed,
            "--out", out / "sweep"))]


class PaperGrid(Workload):
    name = "paper_grid"
    why = ("one large scene scored by run_sweep over all 15 cells: bandwidth-bound "
           "kernels and peak memory instead of per-call overhead")
    outputs = ("sweep/metrics.json",)

    def setup(self):
        values = super().setup()
        self.fit_gmm()
        # generate_world ignores the grid, so the head and density model of
        # the default world apply to the larger scene unchanged
        config = synthworld.load_dataset(self.data / "val").config
        config = replace(config, grid=self.size.paper_grid, test_scenes=1)
        world = synthworld.generate_world(config)
        synthworld.save_dataset(synthworld.generate_dataset(world, "test"),
                                self.root / "paper" / "test")
        return values

    def stages(self, out):
        return [("sweep", lambda: self._sweep(out / "sweep"))]

    def _sweep(self, out):
        test = synthworld.load_dataset(self.root / "paper" / "test")
        bundle = ood.MethodBundle(head=store.load_head(self.head),
                                  gda_model=store.load_gda(self.gda))
        rep = ood.run_sweep(["ours"], bundle, synthworld.generate_world(test.config), test,
                            seed=self.seed, region_level=False)
        out.mkdir(parents=True, exist_ok=True)
        report.write_metrics(report.report_to_metrics(rep), out / "metrics.json")


WORKLOADS = {w.name: w for w in (DefaultPipeline, Baselines, PaperGrid)}
