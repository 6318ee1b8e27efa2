"""Benchmark for the voxuq toolkit.

    python3 perfbench/run.py --workload default_pipeline --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run is one process and one workload (see ``workloads.py``). It sets the
workload up three times and reports the median set-up time, then repeats the
timed stages for ``--seconds`` (at least three times) and reports medians over
those passes. ``--trace 1`` instead sets up once with the tracer installed, runs
the timed stages once untraced and once traced, and reports per-layer
metrics from the traced pass. ``--workload all`` runs every workload, each
in a fresh process, and prints a summary.

Every run checks its outputs: set-up artifacts and timed-stage outputs must
be byte-identical across repetitions (and between the untraced and the
traced pass), quality values must lie in [0, 1], and at the seeds recorded
in ``reference.json`` they must match the recorded values within the stated
tolerance. Each stage that raises or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.bench_work/`` and spans of traced runs to ``.bench_out/``, both in the
repository root; the work directory is removed when the run ends.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3
WORKLOAD_NAMES = ("default_pipeline", "baselines", "paper_grid")
# per-method quality values, reported per layer (0 where a workload does not
# run the method)
QUALITY_KEYS = ("mauroc_ours", "mauroc_max_softmax", "mauroc_entropy", "mauroc_region_ours",
                "mauroc_mcd", "mauroc_de", "mece_ts", "mece_ugts")


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": "%s %s" % (blas["name"], blas["version"]),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def unit_and_better(name):
    """Unit and direction of a metric, from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if "mauroc" in name:
        return "AUROC", "higher"
    if "mece" in name:
        return "ECE", "lower"
    if leaf == "val_accuracy":
        return "fraction", "higher"
    if leaf == "peak_rss_mb":
        return "MB", "lower"
    if leaf == "voxels_per_s":
        return "voxel/s", "higher"
    if leaf in ("useful_ratio", "distinct_ratio"):
        return "ratio", "higher"
    if leaf == "overhead_ratio":
        return "ratio", "lower"
    if leaf in ("calls", "rows"):
        return "count", "lower"
    if leaf == "ladder_rung":
        return "index", "lower"
    if leaf == "s" or leaf.endswith("_s"):
        return "s", "lower"
    raise ValueError("no unit for metric %r" % name)


# -- output checks ---------------------------------------------------------

def tree_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def output_bytes(out, names):
    return {n: (out / n).read_bytes() if (out / n).is_file() else None for n in names}


def check_quality(ledger, values, reference, labels):
    """Fail the stage that produced a quality value outside [0, 1], or one
    away from the value recorded for this size, workload and seed by more
    than the tolerance. ``labels`` maps set-up, sweep and calibrate to the
    ledger labels of the stages that produced the values."""
    for key, got in values.items():
        if not (math.isfinite(got) and 0.0 <= got <= 1.0):
            ledger.check(labels[_stage_of(key)], ["%s = %r is not in [0, 1]" % (key, got)])
    if reference is None:
        return
    tolerance = reference["tolerance"]
    for key, expected in reference["values"].items():
        kind = ("auroc" if key.startswith("mauroc") else
                "ece" if key.startswith("mece") else "accuracy")
        got = values.get(key)
        if got is None or abs(got - expected) > tolerance[kind]:
            ledger.check(labels[_stage_of(key)], ["%s = %r, recorded %r (tolerance %g)"
                                                  % (key, got, expected, tolerance[kind])])


def _stage_of(quality_key):
    if quality_key == "val_accuracy":
        return "setup"
    return "calibrate" if quality_key.startswith("mece") else "sweep"


def load_reference(size, workload, seed):
    with open(HERE / "reference.json") as f:
        doc = json.load(f)
    values = doc["values"].get(size, {}).get(workload, {}).get(str(seed))
    return None if values is None else {"tolerance": doc["tolerance"], "values": values}


class Ledger:
    """Stages attempted and failed, by label; a failed check fails the stage
    whose output it checked."""

    def __init__(self):
        self.attempted = []
        self.failed = set()

    def run(self, label, fn):
        self.attempted.append(label)
        try:
            fn()
        except Exception:  # a stage that raises is reported as failed
            traceback.print_exc()
            self.check(label, ["raised"])

    def check(self, label, problems):
        for p in problems:
            print("FAIL %s: %s" % (label, p), file=sys.stderr)
        if problems:
            self.failed.add(label)


def timed_pass(workload, out, ledger, label, tracer=None):
    """Run every timed stage once; returns {stage: seconds}."""
    times = {}
    for stage, fn in workload.stages(out):
        scope = tracer.stage(stage) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with scope:
            ledger.run("%s %s" % (label, stage), fn)
        times[stage] = time.perf_counter() - start
    return times


# -- one workload in this process ------------------------------------------

def run_workload(args, nproc):
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    reference = load_reference(args.size, args.workload, args.seed)
    ledger = Ledger()
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            result = traced_run(cls, work, args, size, ledger, tracing)
        else:
            result = untraced_run(cls, work, args, size, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, quality, labels, detail = result
    check_quality(ledger, quality, reference, labels)

    print("env %s" % json.dumps(environment(nproc), sort_keys=True))
    print("reference %s" % ("checked" if reference else "none recorded for this seed"))
    detail["failed_ratio"] = len(ledger.failed) / len(ledger.attempted)
    for name, value in detail.items():
        print("%-48s %.10g %s" % (name, value, "ratio" if name == "failed_ratio"
                                 else unit_and_better(name)[0]))
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": len(ledger.attempted),
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": unit_and_better(k)[0]}
                    for k, v in metrics.items()},
    }))


def untraced_run(cls, work, args, size, ledger):
    setup_s, quality = [], {}
    first = None
    for i in range(SETUP_REPEATS):
        workload = cls(work / ("setup%d" % i), args.seed, size)
        workload.root.mkdir(parents=True)
        ledger.attempted.append("set-up %d" % i)
        start = time.perf_counter()
        quality = workload.setup()
        setup_s.append(time.perf_counter() - start)
        artifacts = tree_bytes(workload.root)
        if first is None:
            first, kept = artifacts, workload
        else:
            ledger.check("set-up %d" % i, [] if artifacts == first else
                         ["artifacts differ from the first set-up"])
            shutil.rmtree(workload.root)

    workload, passes, reference_outputs = kept, [], None
    start = time.perf_counter()
    # at least MIN_PASSES, so that the median drops one slow pass; beyond that,
    # start another pass only if it is expected to end within --seconds
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + statistics.median(sum(p.values()) for p in passes)
                                       <= args.seconds):
        out = work / ("pass%d" % len(passes))
        passes.append(timed_pass(workload, out, ledger, "pass %d" % len(passes)))
        outputs = output_bytes(out, workload.outputs)
        if reference_outputs is None:
            reference_outputs, first_out = outputs, out
        else:
            for n in workload.outputs:
                if outputs[n] != reference_outputs[n]:
                    ledger.check("pass %d %s" % (len(passes) - 1, n.split("/")[0]),
                                 ["%s differs from the first pass" % n])
            shutil.rmtree(out)
    quality.update(workload.quality(first_out))

    stage_s = {stage: [p[stage] for p in passes] for stage in passes[0]}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "sweep_s": statistics.median(stage_s["sweep"]),
        "stages_s": statistics.median(sum(p.values()) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "val_accuracy": quality["val_accuracy"],
    }
    print("samples: %d set-ups, %d passes of %s" % (len(setup_s), len(passes),
                                                     "+".join(stage_s)))
    for stage, values in [("setup", setup_s)] + list(stage_s.items()):
        print("%-10s median %.4f s, min %.4f s, max %.4f s"
              % (stage, statistics.median(values), min(values), max(values)))
    detail = {"setup_s": metrics["setup_s"]}
    detail.update({"%s_s" % k: statistics.median(v) for k, v in stage_s.items()})
    detail["peak_rss_mb"] = metrics["peak_rss_mb"]
    detail.update(quality)
    labels = {"setup": "set-up 0", "sweep": "pass 0 sweep", "calibrate": "pass 0 calibrate"}
    return metrics, quality, labels, detail


def traced_run(cls, work, args, size, ledger, tracing):
    tracer = tracing.Tracer()
    workload = cls(work / "setup", args.seed, size)
    workload.root.mkdir(parents=True)
    found = tracer.install(tracing.TARGETS)
    missing = [t[0] for t in tracing.TARGETS if t[0] not in found]
    if missing:
        print("not traced (name not found): %s" % ", ".join(missing))
    ledger.attempted.append("set-up")
    with tracer.stage("setup"):
        quality = workload.setup()
    tracer.uninstall()

    untraced = timed_pass(workload, work / "untraced", ledger, "untraced")
    tracer.install(tracing.TARGETS)
    traced = timed_pass(workload, work / "traced", ledger, "traced", tracer)
    tracer.uninstall()

    before = output_bytes(work / "untraced", workload.outputs)
    after = output_bytes(work / "traced", workload.outputs)
    for n in workload.outputs:
        if before[n] != after[n]:
            ledger.check("traced " + n.split("/")[0], ["%s differs from the untraced pass" % n])
    quality.update(workload.quality(work / "traced"))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("spans-%s-%s-%d.jsonl" % (args.size, args.workload, args.seed)))

    metrics = tracing.layer_metrics(tracer.calls())
    for stage in tracing.TIMED_STAGES:
        metrics["stage.%s.s" % stage] = untraced.get(stage, 0.0)
    metrics["trace.overhead_ratio"] = sum(traced.values()) / sum(untraced.values()) - 1.0
    for key in QUALITY_KEYS:
        metrics["quality." + key] = quality.get(key, 0.0)
    print("traced %d spans; timed stages %.3f s untraced, %.3f s traced"
          % (len(tracer.spans), sum(untraced.values()), sum(traced.values())))
    detail = {k: metrics[k] for k in (
        "sweep.head.forward.calls", "sweep.synthworld.apply_corruption.calls",
        "sweep.gda.GdaModel.log_density.calls", "calibrate.head.forward.calls",
        "calibrate.synthworld.apply_corruption.calls",
        "calibrate.gda.GdaModel.log_density.calls", "trace.overhead_ratio")}
    labels = {"setup": "set-up", "sweep": "traced sweep", "calibrate": "traced calibrate"}
    return metrics, quality, labels, detail


# -- every workload, one process each --------------------------------------

def run_all(args):
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print("== %s" % name, flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print("%s exited with code %d" % (name, proc.returncode))
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print("== summary")
    for name, r in results.items():
        print("%-18s correct=%s attempted=%d failed=%d failed_ratio=%.3f"
              % (name, r["correct"], r["attempted"], r["failed"],
                 r["failed"] / r["attempted"]))
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke", "full"), default="bench",
                        help="scene counts and paper-grid size (default: bench)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "voxuq" / "__init__.py").is_file():
        print("error: toolkit source %s not found; run from a checkout of the "
              "repository" % (SRC / "voxuq"), file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    run_workload(args, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
