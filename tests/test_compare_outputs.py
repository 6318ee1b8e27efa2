"""Smoke test of tools/compare_outputs.py on two small hand-made trees."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

HEADER = "method,corruption,severity,bin_left,bin_right,count_id,count_ood\n"


def write_tree(root, mauroc=0.75, edge=0.125, count=3, t_train=0.5, calib=b"t=0.5",
               head=b"OCUQ head", seconds=1.0):
    """An output tree as the commands write one: a sweep, a calibration and
    a head artifact."""
    for d in ("sweep", "calib", "models"):
        (root / d).mkdir(parents=True)
    (root / "sweep" / "metrics.json").write_text(
        json.dumps({"methods": {"ours": {"mauroc": mauroc, "auroc": {"noise:1": 1.0}}},
                    "config": {"corruptions": ["noise"]}}))
    (root / "sweep" / "histograms.csv").write_text(
        HEADER + "mcd:n=5:p=0.1,noise,1,%r,0.25,%d,1\n" % (edge, count)
        + "ours,noise,1,0.125,0.25,2,2\n")
    (root / "sweep" / "timing.json").write_text(json.dumps({"sweep_seconds": seconds}))
    (root / "calib" / "calibration.json").write_text(
        json.dumps({"method": "de:n=3", "t_train": t_train, "mode": "ugts"}))
    (root / "calib" / "calib.ocuq").write_bytes(calib)
    (root / "models" / "head.ocuq").write_bytes(head)
    return root


def run(root, capsys, **moved):
    """Exit code and report of comparing a tree with one that has `moved`."""
    a = write_tree(root / "a")
    b = write_tree(root / "b", **moved)
    code = compare_outputs.main([str(a), str(b)])
    return code, capsys.readouterr().out


def test_trees_equal_but_for_their_timing_compare_identical(tmp_path, capsys):
    code, out = run(tmp_path, capsys, seconds=2.0)
    assert code == 0
    assert "timing.json" not in out and out.count("identical") == 5
    assert out.splitlines()[-1] == "5 files, 0 failed"


def test_a_one_ulp_move_of_a_field_without_tolerance_fails(tmp_path, capsys):
    code, out = run(tmp_path, capsys, mauroc=float(np.nextafter(0.75, 1.0)))
    assert code == 1
    [line] = [line for line in out.splitlines() if "mauroc" in line]
    assert line.split() == ["FAIL", "methods/ours/mauroc", "abs", "1.11e-16", "rel", "1.48e-16",
                            "(tolerance", "0)"]


def test_moves_within_the_tolerance_table_pass(tmp_path, capsys):
    """An mcd histogram edge and a de calibration move by an ulp, and the
    calib.ocuq beside calibration.json moves with it."""
    code, out = run(tmp_path, capsys, edge=float(np.nextafter(0.125, 1.0)),
                    t_train=float(np.nextafter(0.5, 1.0)), calib=b"t=0.5000001")
    assert code == 0, out
    assert "ok    mcd:n=5:p=0.1/bin_left" in out and "ok    de:n=3/t_train" in out
    assert "moved      calib/calib.ocuq  (reported by calibration.json)" in out


def test_counts_other_files_and_text_must_not_move(tmp_path, capsys):
    for i, (moved, want) in enumerate((
            (dict(count=4), "FAIL  mcd:n=5:p=0.1/count_id"),
            (dict(head=b"OCUQ head2"), "moved      models/head.ocuq"),
            (dict(mauroc="high"), "FAIL  methods/ours/mauroc: 0.75 against 'high'"))):
        code, out = run(tmp_path / str(i), capsys, **moved)
        assert code == 1 and want in out, out
    a, b = tmp_path / "0" / "a", tmp_path / "1" / "a"
    (b / "extra.json").write_text("{}")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "only in B  extra.json" in capsys.readouterr().out
    assert compare_outputs.main([str(a), str(tmp_path / "missing")]) == 2
