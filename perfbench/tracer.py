"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of ``voxuq`` with wrappers that record
one span per call: name, start, end, parent span and the stage (the run id
shared by every span of one stage run). A function is replaced at every
module that binds it by name, so ``from .head import head_probs`` in ``ood``
and ``metrics`` is traced like ``head.head_probs`` itself; methods are
replaced on their class. A name that no longer exists is skipped and its
metrics read 0. Spans stay in memory until ``write`` is called.

Nothing here changes what the wrapped functions compute: a wrapper passes
its arguments through and returns the original result.
"""

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "voxuq"


def _buffer_address(array):
    interface = getattr(array, "__array_interface__", None)
    return interface["data"][0] if interface else None


class Tracer:
    def __init__(self):
        # one entry per call: [name, start, end, parent index, stage, attrs]
        self.spans = []
        self._open = []
        self._patches = []
        self._stage = None
        # buffer address -> number of the producer call that last filled it,
        # so a freed buffer reused by a new scene counts as a new input
        self._producer = {}
        self._produced = 0

    # -- spans -------------------------------------------------------------

    def _start(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._stage, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def stage(self, name):
        """A root span whose name is also the run id of every span recorded
        inside it."""
        self._stage = name
        index = self._start("stage." + name)
        try:
            yield
        finally:
            self._end(index)
            self._stage = None

    def note_produced(self, arrays):
        self._produced += 1
        for a in arrays:
            self._producer[_buffer_address(a)] = self._produced

    def input_key(self, array):
        """Identity of an input buffer: its address, shape and the producer
        call that filled it."""
        address = _buffer_address(array)
        return (address, getattr(array, "shape", None), self._producer.get(address))

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if observe is not None:
                try:
                    tracer.spans[index][5] = observe(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # a changed signature loses the span's attributes, not the run
                    tracer.spans[index][5] = None
            return result

        return wrapper

    def install(self, targets):
        """Wrap each ``(span name, module, qualified name, observer)`` target
        that exists; returns the span names that were found."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        found = []
        for span_name, module_name, qualname, observe in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if original is None:
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name, original, observe))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span_name, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapper)
            found.append(span_name)
        return found

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def write(self, path):
        """One JSON object per span: name, start, end (seconds), parent span
        index and run id."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, stage, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": stage,
                                    "attrs": _jsonable(attrs)}) + "\n")

    def calls(self):
        """Per (stage, span name): one ``(seconds, self seconds, attrs)``
        tuple per call. Self time is the span minus its direct children."""
        child_time = defaultdict(float)
        for name, start, end, parent, stage, attrs in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, parent, stage, attrs) in enumerate(self.spans):
            out[(stage, name)].append((end - start, end - start - child_time[i], attrs or {}))
        return out


def _jsonable(attrs):
    if attrs is None:
        return None
    return {k: (v if isinstance(v, (int, float, str)) else repr(v))
            for k, v in attrs.items()}


# -- observers: attributes recorded per call -------------------------------

def observe_forward(tracer, args, kwargs, result):
    head, features = args[0], args[1]
    eval_mode = (len(args) == 2 and kwargs.get("tape") is None
                 and not kwargs.get("dropout_p"))
    attrs = {"rows": int(np.shape(features)[0]), "eval": eval_mode}
    if eval_mode:
        attrs["input"] = (id(head),) + tracer.input_key(features)
    return attrs


def observe_rows(tracer, args, kwargs, result):
    z = np.asarray(args[1])
    return {"rows": int(z.shape[0]) if z.ndim > 1 else 1}


def observe_corruption(tracer, args, kwargs, result):
    scene, spec, seed = args[0], args[1], args[2]
    tracer.note_produced([result.features])
    return {"kind": spec.kind, "severity": int(spec.severity), "voxels": int(scene.labels.size),
            "cell": (scene.scene_id, scene.seed, spec.kind, spec.severity, spec.region, seed)}


def observe_load(tracer, args, kwargs, result):
    tracer.note_produced([s.features for s in result.scenes])
    return None


def observe_fit_gda(tracer, args, kwargs, result):
    """Index of the jitter-ladder entry that was applied (0 = first try).
    The applied jitter is eps * scale with scale the mean covariance diagonal;
    the Cholesky factors give scale back to within eps."""
    from voxuq.gda import DEFAULT_EPS_LADDER
    ladder = kwargs.get("eps_ladder", args[1] if len(args) > 1 else DEFAULT_EPS_LADDER)
    chols = result.chols
    used = np.asarray(result.counts) > 1
    traces = np.einsum("kij,kij->k", chols, chols) / result.dim
    scale = float(traces[used].mean()) if used.any() else 1.0
    gaps = [abs(np.log(result.eps_used / (eps * scale))) for eps in ladder]
    return {"ladder_rung": int(np.argmin(gaps))}


# (span name, module, qualified name, observer). Names follow the layers of
# ROADMAP aim 1; ``head.forward`` is ResidualMlpHead.forward.
TARGETS = [
    ("synthworld.apply_corruption", "voxuq.synthworld", "apply_corruption", observe_corruption),
    ("synthworld.generate_scene", "voxuq.synthworld", "generate_scene", None),
    ("synthworld.save_dataset", "voxuq.synthworld", "save_dataset", None),
    ("synthworld.load_dataset", "voxuq.synthworld", "load_dataset", observe_load),
    ("head.forward", "voxuq.head", "ResidualMlpHead.forward", observe_forward),
    ("head.dropout_forward", "voxuq.head", "dropout_forward", None),
    ("head.train_head", "voxuq.head", "train_head", None),
    ("nn_core.linear_forward", "voxuq.nn_core", "linear_forward", None),
    ("nn_core.leaky_relu", "voxuq.nn_core", "leaky_relu", None),
    ("nn_core.softmax", "voxuq.nn_core", "softmax", None),
    ("gda.GdaModel.log_density", "voxuq.gda", "GdaModel.log_density", observe_rows),
    ("gda.collect_features", "voxuq.gda", "collect_features", None),
    ("gda.fit_gda", "voxuq.gda", "fit_gda", observe_fit_gda),
    ("metrics.ensemble_predict", "voxuq.metrics", "ensemble_predict", None),
    ("ood.run_sweep", "voxuq.ood", "run_sweep", None),
    ("ood.voxel_scores", "voxuq.ood", "voxel_scores", None),
    ("ood.auroc", "voxuq.ood", "auroc", None),
    ("ood.fpr_at_95_tpr", "voxuq.ood", "fpr_at_95_tpr", None),
    ("ood.histogram_table", "voxuq.ood", "histogram_table", None),
    ("pipeline.calibrate_method", "voxuq.pipeline", "calibrate_method", None),
    ("pipeline.evaluate_calibration", "voxuq.pipeline", "evaluate_calibration", None),
    ("calibration.fit_temperature", "voxuq.calibration", "fit_temperature", None),
    ("calibration.tune_lambda", "voxuq.calibration", "tune_lambda", None),
    ("calibration.ece", "voxuq.calibration", "ece", None),
    ("calibration.scale_logits", "voxuq.calibration", "scale_logits", None),
    ("store.save_head", "voxuq.store", "save_head", None),
    ("store.load_head", "voxuq.store", "load_head", None),
    ("store.save_gda", "voxuq.store", "save_gda", None),
    ("store.load_gda", "voxuq.store", "load_gda", None),
    ("report.write_metrics", "voxuq.report", "write_metrics", None),
    ("report.write_histograms_csv", "voxuq.report", "write_histograms_csv", None),
]


# -- per-layer metrics -----------------------------------------------------

CORRUPTION_KINDS = ("noise", "blur", "sector_drop", "fog", "bias_shift")
TIMED_STAGES = ("sweep", "calibrate")


def layer_metrics(calls):
    """Per-layer metrics from ``Tracer.calls()`` of one set-up and one pass
    over the timed stages. Layers of the timed stages sum over sweep and
    calibrate; set-up layers read the set-up. Every name is always present:
    a layer that was not called reads 0."""

    def spans(name, stages=TIMED_STAGES):
        return [c for stage in stages for c in calls.get((stage, name), [])]

    def seconds(name, stages=TIMED_STAGES):
        return sum(c[0] for c in spans(name, stages))

    def ratio(num, den):
        return num / den if den else 0.0

    def useful_rows(stage):
        """Rows of distinct inputs and all rows of eval-mode forwards."""
        forwards = [a for _, _, a in spans("head.forward", (stage,)) if a.get("eval")]
        distinct = {a["input"]: a["rows"] for a in forwards if "input" in a}
        return sum(distinct.values()), sum(a["rows"] for a in forwards)

    out = {}
    corr = spans("synthworld.apply_corruption")
    for kind in CORRUPTION_KINDS:
        for m in (1, 2, 3):
            out["synthworld.apply_corruption.%s.m%d.s" % (kind, m)] = sum(
                s for s, _, a in corr if a.get("kind") == kind and a.get("severity") == m)
    out["synthworld.apply_corruption.calls"] = len(corr)
    out["synthworld.apply_corruption.distinct_ratio"] = ratio(
        len({a["cell"] for _, _, a in corr if "cell" in a}), len(corr))
    out["synthworld.apply_corruption.voxels_per_s"] = ratio(
        sum(a.get("voxels", 0) for _, _, a in corr), sum(s for s, _, _ in corr))

    fwd = spans("head.forward")
    rows = sum(a.get("rows", 0) for _, _, a in fwd)
    useful = [useful_rows(stage) for stage in TIMED_STAGES]
    out["head.forward.calls"] = len(fwd)
    out["head.forward.rows"] = rows
    out["head.forward.self_s"] = sum(s for _, s, _ in fwd)
    out["head.forward.voxels_per_s"] = ratio(rows, sum(s for s, _, _ in fwd))
    out["head.forward.useful_ratio"] = ratio(sum(u for u, _ in useful),
                                             sum(n for _, n in useful))
    for name in ("nn_core.linear_forward", "nn_core.leaky_relu", "nn_core.softmax"):
        out[name + ".s"] = seconds(name)

    dens = spans("gda.GdaModel.log_density")
    dens_rows = sum(a.get("rows", 0) for _, _, a in dens)
    out["gda.GdaModel.log_density.calls"] = len(dens)
    out["gda.GdaModel.log_density.rows"] = dens_rows
    out["gda.GdaModel.log_density.s"] = seconds("gda.GdaModel.log_density")
    out["gda.GdaModel.log_density.voxels_per_s"] = ratio(
        dens_rows, out["gda.GdaModel.log_density.s"])

    for stage, (u, n) in zip(TIMED_STAGES, useful):
        out["%s.head.forward.calls" % stage] = len(spans("head.forward", (stage,)))
        out["%s.head.forward.useful_ratio" % stage] = ratio(u, n)
        out["%s.synthworld.apply_corruption.calls" % stage] = len(
            spans("synthworld.apply_corruption", (stage,)))
        out["%s.gda.GdaModel.log_density.calls" % stage] = len(
            spans("gda.GdaModel.log_density", (stage,)))

    for name in ("head.dropout_forward", "metrics.ensemble_predict", "ood.voxel_scores",
                 "calibration.ece"):
        out[name + ".calls"] = len(spans(name))
        out[name + ".s"] = seconds(name)
    for name in ("ood.run_sweep", "ood.auroc", "ood.fpr_at_95_tpr", "ood.histogram_table",
                 "pipeline.calibrate_method", "pipeline.evaluate_calibration",
                 "calibration.fit_temperature", "calibration.tune_lambda",
                 "calibration.scale_logits", "synthworld.load_dataset", "store.load_head",
                 "store.load_gda", "report.write_metrics", "report.write_histograms_csv"):
        out[name + ".s"] = seconds(name)

    setup = ("setup",)
    for name in ("head.train_head", "gda.collect_features", "gda.fit_gda",
                 "synthworld.save_dataset", "store.save_head", "store.save_gda"):
        out[name + ".s"] = seconds(name, setup)
    fits = spans("gda.fit_gda", setup)
    out["gda.fit_gda.ladder_rung"] = max((a.get("ladder_rung", 0) for _, _, a in fits),
                                         default=0)
    out["synthworld.generate_scene.calls"] = len(spans("synthworld.generate_scene", setup))
    out["synthworld.generate_scene.s"] = seconds("synthworld.generate_scene", setup)
    return out
