import json

import numpy as np
import pytest

from voxuq.ood import BenchmarkReport, OodResult
from voxuq.report import (METRICS_SCHEMA_VERSION, ablation_table_markdown,
                          dim_sweep_table_markdown,
                          dumps_17g, histogram_svg, ood_table_markdown,
                          read_histograms_csv, report_to_metrics, write_histograms_csv,
                          write_metrics)

from oracles import render_report


def small_report():
    rep = BenchmarkReport(seed=42)
    rep.config = {"corruptions": ["noise"], "severities": [1], "n_scenes": 4,
                  "histogram_bins": 4}
    cells = [OodResult(corruption="noise", severity=1, auroc=0.875, fpr95=0.25,
                       n_id=4, n_ood=4)]
    rep.methods["ours"] = cells
    rep.aggregates["ours"] = {"mauroc": 0.875, "mfpr95": 0.25}
    rep.region_methods["ours"] = cells
    rep.region_aggregates["ours"] = {"mauroc": 0.875, "mfpr95": 0.25}
    rep.histograms.append({
        "method": "ours", "corruption": "noise", "severity": 1,
        "edges": np.linspace(0.0, 1.0, 5),
        "count_id": np.array([2, 2, 0, 0]),
        "count_ood": np.array([0, 0, 1, 3]),
    })
    rep.sweep_seconds = 0.5
    return rep


def test_dumps_17g_round_trips_floats():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(50)) + [1e-300, 1e300, 0.1, 1 / 3]
    text = dumps_17g({"v": values})
    back = json.loads(text)
    assert back["v"] == values  # 17 significant digits reproduce f64 exactly


def test_dumps_17g_deterministic_and_ordered():
    doc = {"b": 1.5, "a": [True, None, 3]}
    assert dumps_17g(doc) == dumps_17g(doc)
    text = dumps_17g(doc)
    assert text.index('"b"') < text.index('"a"')  # insertion order kept
    assert json.loads(text) == {"b": 1.5, "a": [True, None, 3]}


def test_dumps_17g_handles_numpy_scalars():
    text = dumps_17g({"i": np.int64(7), "f": np.float64(0.25),
                      "b": np.bool_(True), "arr": np.array([1.0, 2.0])})
    assert json.loads(text) == {"i": 7, "f": 0.25, "b": True, "arr": [1.0, 2.0]}


def test_report_to_metrics_structure():
    doc = report_to_metrics(small_report(), config_hash="abc",
                            param_counts={"ours": 123})
    assert doc["schema_version"] == METRICS_SCHEMA_VERSION
    assert doc["seed"] == 42
    block = doc["methods"]["ours"]
    assert block["auroc"]["noise:1"] == 0.875
    assert block["region_mauroc"] == 0.875
    assert block["param_count"] == 123


def test_metrics_file_byte_deterministic(tmp_path):
    doc = report_to_metrics(small_report(), config_hash="abc")
    write_metrics(doc, tmp_path / "a.json")
    write_metrics(doc, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_histograms_csv_round_trip(tmp_path):
    rep = small_report()
    path = tmp_path / "histograms.csv"
    write_histograms_csv(rep, path)
    rows = read_histograms_csv(path)
    assert len(rows) == 4
    assert rows[0]["method"] == "ours"
    assert [r["count_ood"] for r in rows] == [0, 0, 1, 3]
    assert rows[0]["bin_left"] == 0.0
    assert rows[-1]["bin_right"] == 1.0


def test_markdown_tables_contain_rows():
    doc = report_to_metrics(small_report(), config_hash="abc")
    ood_md = ood_table_markdown(doc)
    assert "| ours | 0.8750 | 0.2500 |" in ood_md
    abl_md = ablation_table_markdown([{"layers": 3, "skip": True, "mauroc": 0.9,
                                       "mfpr95": 0.1, "params": 100}])
    assert "| 3 | yes |" in abl_md
    dim_md = dim_sweep_table_markdown([{"dim": 16, "mauroc": 0.8, "mfpr95": 0.2,
                                        "gmm_params": 272}])
    assert "| 16 |" in dim_md


def test_histogram_svg_embeds_counts():
    rows = [{"bin_left": 0.0, "bin_right": 0.5, "count_id": 3, "count_ood": 1},
            {"bin_left": 0.5, "bin_right": 1.0, "count_id": 0, "count_ood": 4}]
    svg = histogram_svg(rows)
    assert svg.startswith("<svg")
    assert 'data-count-id="3;0"' in svg
    assert 'data-count-ood="1;4"' in svg
    assert svg.count("<rect") == 1 + 2 * len(rows)  # background + two series


def test_render_report_writes_tables_and_svgs(tmp_path):
    rep = small_report()
    doc = report_to_metrics(rep, config_hash="abc")
    write_metrics(doc, tmp_path / "metrics.json")
    write_histograms_csv(rep, tmp_path / "histograms.csv")
    out = tmp_path / "rendered"
    written = render_report(tmp_path / "metrics.json", tmp_path / "histograms.csv", out)
    names = sorted(p.name for p in written)
    assert "tables.md" in names
    assert "hist_ours_noise_s1.svg" in names
    assert (out / "tables.md").read_text().startswith("# Benchmark tables")


def test_render_report_renders_no_histograms_from_a_directory(tmp_path):
    """A histograms path that is not a file, such as a directory, adds no
    SVGs to the tables."""
    write_metrics(report_to_metrics(small_report()), tmp_path / "metrics.json")
    (tmp_path / "histograms.csv").mkdir()
    written = render_report(tmp_path / "metrics.json", tmp_path / "histograms.csv",
                            tmp_path / "out")
    assert [p.name for p in written] == ["tables.md"]


def test_render_report_rejects_schema_mismatch(tmp_path):
    (tmp_path / "metrics.json").write_text('{"schema_version": 999, "methods": {}}')
    with pytest.raises(ValueError):
        render_report(tmp_path / "metrics.json", tmp_path / "histograms.csv",
                      tmp_path / "out")


# byte-exact goldens of the three markdown tables, recorded before their
# writers shared one header, separator and row joiner

def test_ood_table_markdown_golden():
    doc = {"methods": {
        "ours": {"mauroc": 0.875, "mfpr95": 0.25, "region_mauroc": 0.5, "region_mfpr95": 1.0},
        "mcd:n=2": {"mauroc": 1 / 3, "mfpr95": 2 / 3},  # no region keys: "-"
    }}
    assert ood_table_markdown(doc) == (
        "| Method | mAUROC | mFPR95 | Region mAUROC | Region mFPR95 |\n"
        "|---|---|---|---|---|\n"
        "| ours | 0.8750 | 0.2500 | 0.5000 | 1.0000 |\n"
        "| mcd:n=2 | 0.3333 | 0.6667 | - | - |\n")
    assert ood_table_markdown({"methods": {}}) == (
        "| Method | mAUROC | mFPR95 | Region mAUROC | Region mFPR95 |\n"
        "|---|---|---|---|---|\n")


def test_ablation_table_markdown_golden():
    rows = [{"layers": 3, "skip": True, "mauroc": 0.91234, "mfpr95": 0.12345, "params": 1234},
            {"layers": 5, "skip": False, "mauroc": 0.5, "mfpr95": 1.0, "params": 7}]
    assert ablation_table_markdown(rows) == (
        "| Layers | Skip | mAUROC | mFPR95 | Params |\n"
        "|---|---|---|---|---|\n"
        "| 3 | yes | 0.9123 | 0.1235 | 1234 |\n"
        "| 5 | no | 0.5000 | 1.0000 | 7 |\n")
    assert ablation_table_markdown([]) == (
        "| Layers | Skip | mAUROC | mFPR95 | Params |\n"
        "|---|---|---|---|---|\n")


def test_dim_sweep_table_markdown_golden():
    rows = [{"dim": 16, "mauroc": 0.99995, "mfpr95": 0.00004, "gmm_params": 2448},
            {"dim": 32, "mauroc": 0.5, "mfpr95": 0.25, "gmm_params": 9520}]
    assert dim_sweep_table_markdown(rows) == (
        "| Dim | mAUROC | mFPR95 | GMM params |\n"
        "|---|---|---|---|\n"
        "| 16 | 1.0000 | 0.0000 | 2448 |\n"
        "| 32 | 0.5000 | 0.2500 | 9520 |\n")
    assert dim_sweep_table_markdown([]) == (
        "| Dim | mAUROC | mFPR95 | GMM params |\n"
        "|---|---|---|---|\n")
