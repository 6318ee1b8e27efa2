"""Tests of the benchmark itself, at the smoke size (seconds per workload)."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "smoke",
         "--seconds", "0", "--seed", "42", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["workloads"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_report_every_metric_and_pass_their_checks(trace, section):
    spec = _benchmark_spec()
    expected = {m["name"]: m["unit"] for m in spec[section]}
    results = _run_all(trace)
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_benchmark_spec_matches_the_metric_table():
    spec = _benchmark_spec()
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            assert (m["unit"], m["better"]) == run.unit_and_better(m["name"]), m


def test_run_without_the_toolkit_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "baselines",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quality_check_fails_the_stage_that_produced_the_value():
    ledger = run.Ledger()
    reference = {"tolerance": {"auroc": 0.002, "ece": 0.0005, "accuracy": 0.0005},
                 "values": {"mauroc_ours": 0.9, "mece_ugts": 0.1, "val_accuracy": 0.95}}
    labels = {"setup": "set-up", "sweep": "sweep", "calibrate": "calibrate"}
    run.check_quality(ledger, {"mauroc_ours": 0.901, "mece_ugts": 0.2, "val_accuracy": 0.95},
                      reference, labels)
    assert ledger.failed == {"calibrate"}
    run.check_quality(ledger, {"mauroc_ours": float("nan")}, None, labels)
    assert ledger.failed == {"calibrate", "sweep"}


@pytest.fixture
def fake_modules():
    """Two modules under the package prefix: ``b`` binds ``a.f`` by name."""
    a = types.ModuleType("voxuq._bench_fake_a")
    b = types.ModuleType("voxuq._bench_fake_b")

    def f(x):
        return x + 1

    class Model:
        def score(self, x):
            return f(x) * 2

    a.f, a.Model = f, Model
    b.f = f
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    yield a, b
    del sys.modules[a.__name__], sys.modules[b.__name__]


def test_tracer_wraps_every_binding_and_restores_them(fake_modules):
    a, b = fake_modules
    original = a.f
    t = tracing.Tracer()
    found = t.install([("fake.f", a.__name__, "f", None),
                       ("fake.score", a.__name__, "Model.score", None),
                       ("fake.gone", a.__name__, "removed_by_a_refactor", None),
                       ("fake.gone_method", a.__name__, "Model.gone", None)])
    assert found == ["fake.f", "fake.score"]
    with t.stage("sweep"):
        assert b.f(1) == 2
        assert a.Model().score(1) == 4
    t.uninstall()
    assert a.f is original and b.f is original and "score" in vars(a.Model)
    calls = t.calls()
    assert len(calls[("sweep", "fake.f")]) == 1
    (score,) = calls[("sweep", "fake.score")]
    assert score[0] >= score[1] >= 0.0


def test_layer_metrics_read_zero_for_layers_never_called():
    metrics = tracing.layer_metrics({})
    names = {m["name"] for m in _benchmark_spec()["per_layer"]}
    assert set(metrics) <= names
    assert all(v == 0 for v in metrics.values())
