"""Machine-readable report output: metrics.json (deterministic, floats at 17
significant digits), histograms.csv, markdown tables and standalone SVG
histograms rendered purely from the metrics file.
"""

import json
from pathlib import Path

import numpy as np

METRICS_SCHEMA_VERSION = 1
NAME_MAX = 255  # bytes in a file name on Linux file systems


class HistogramsError(ValueError):
    """A histograms.csv row that write_histograms_csv would not write."""


def _fmt_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"%s"' % x
    return format(x, ".17g")


def dumps_17g(obj, indent=0):
    """JSON text with every float serialized at 17 significant digits and
    dict keys kept in insertion order; output is byte-deterministic."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            '%s  "%s": %s' % (pad, k, dumps_17g(v, indent + 1))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [pad + "  " + dumps_17g(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _cell_metrics(cells, aggregates, prefix=""):
    """AUROC and FPR95 per "kind:severity" cell, then their means."""
    return {prefix + "auroc": {"%s:%d" % (c.corruption, c.severity): c.auroc for c in cells},
            prefix + "fpr95": {"%s:%d" % (c.corruption, c.severity): c.fpr95 for c in cells},
            prefix + "mauroc": aggregates["mauroc"], prefix + "mfpr95": aggregates["mfpr95"]}


def report_to_metrics(report, config_hash="", param_counts=None):
    """Flatten a BenchmarkReport into the metrics.json structure."""
    doc = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "config_hash": config_hash,
        "seed": report.seed,
        "config": report.config,
        "methods": {},
    }
    for method, cells in report.methods.items():
        block = _cell_metrics(cells, report.aggregates[method])
        if method in report.region_methods:
            block.update(_cell_metrics(report.region_methods[method],
                                       report.region_aggregates[method], "region_"))
        if param_counts and method in param_counts:
            block["param_count"] = param_counts[method]
        doc["methods"][method] = block
    return doc


def write_metrics(doc, path):
    Path(path).write_text(dumps_17g(doc) + "\n")


def write_timings(report, path):
    # the sweep's wall time is kept out of metrics.json so that the primary
    # output stays byte-identical across runs; methods share one scoring
    # pass per scene, so there is no per-method time to report
    Path(path).write_text(dumps_17g({"sweep_seconds": report.sweep_seconds}) + "\n")


def write_histograms_csv(report, path):
    lines = ["method,corruption,severity,bin_left,bin_right,count_id,count_ood"]
    for h in report.histograms:
        edges = h["edges"]
        for b in range(len(h["count_id"])):
            lines.append("%s,%s,%d,%s,%s,%d,%d" % (
                h["method"], h["corruption"], h["severity"],
                format(edges[b], ".17g"), format(edges[b + 1], ".17g"),
                h["count_id"][b], h["count_ood"][b]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_histograms_csv(path):
    """The rows of a histograms.csv. A file that is not UTF-8, and a row of
    the wrong field count, with a field that is not a number or with a
    negative count, raise HistogramsError naming the file and line."""
    try:
        lines = Path(path).read_text().strip().split("\n")[1:]
    except UnicodeDecodeError:
        raise HistogramsError("%s is not UTF-8 text" % path) from None
    rows = []
    for number, line in enumerate(lines, 2):
        try:
            method, corruption, severity, left, right, cid, cood = line.split(",")
            row = {"method": method, "corruption": corruption,
                   "severity": int(severity), "bin_left": float(left),
                   "bin_right": float(right), "count_id": int(cid),
                   "count_ood": int(cood)}
        except ValueError as e:
            raise HistogramsError("%s line %d: %s" % (path, number, e)) from None
        if min(row["count_id"], row["count_ood"]) < 0:
            raise HistogramsError("%s line %d: a negative count" % (path, number))
        rows.append(row)
    return rows


# -- markdown tables -------------------------------------------------------

def _markdown_table(header, row_format, rows):
    """The markdown table of `header`'s cells, then of each tuple in `rows`
    formatted by `row_format`: a %-format per cell, joined by " | "."""
    lines = ["| %s |" % " | ".join(header), "|---" * len(header) + "|"]
    lines += ["| %s |" % (row_format % row) for row in rows]
    return "\n".join(lines) + "\n"


def ood_table_markdown(doc):
    return _markdown_table(
        ("Method", "mAUROC", "mFPR95", "Region mAUROC", "Region mFPR95"),
        "%s | %.4f | %.4f | %s | %s",
        [(method, b["mauroc"], b["mfpr95"],
          *("%.4f" % b[k] if k in b else "-" for k in ("region_mauroc", "region_mfpr95")))
         for method, b in doc["methods"].items()])


def ablation_table_markdown(rows):
    return _markdown_table(
        ("Layers", "Skip", "mAUROC", "mFPR95", "Params"), "%d | %s | %.4f | %.4f | %d",
        [(r["layers"], "yes" if r["skip"] else "no", r["mauroc"], r["mfpr95"], r["params"])
         for r in rows])


def dim_sweep_table_markdown(rows):
    return _markdown_table(("Dim", "mAUROC", "mFPR95", "GMM params"), "%d | %.4f | %.4f | %d",
                           [(r["dim"], r["mauroc"], r["mfpr95"], r["gmm_params"]) for r in rows])


# -- SVG histograms --------------------------------------------------------

SVG_W, SVG_H, SVG_MARGIN = 480, 240, 30


def histogram_svg(rows):
    """Standalone SVG for one (method, corruption, severity) cell; counts are
    embedded as metadata attributes so renderings remain verifiable."""
    max_count = max(max(r["count_id"], r["count_ood"]) for r in rows) or 1
    lo = rows[0]["bin_left"]
    hi = rows[-1]["bin_right"]
    span = hi - lo or 1.0
    plot_w = SVG_W - 2 * SVG_MARGIN
    plot_h = SVG_H - 2 * SVG_MARGIN
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
        % (SVG_W, SVG_H),
        '<metadata id="counts" data-count-id="%s" data-count-ood="%s"/>' % (
            ";".join(str(r["count_id"]) for r in rows),
            ";".join(str(r["count_ood"]) for r in rows)),
        '<rect width="%d" height="%d" fill="white"/>' % (SVG_W, SVG_H),
    ]
    for key, color in (("count_id", "#d62728"), ("count_ood", "#1f77b4")):
        for r in rows:
            x0 = SVG_MARGIN + (r["bin_left"] - lo) / span * plot_w
            w = (r["bin_right"] - r["bin_left"]) / span * plot_w
            h = r[key] / max_count * plot_h
            y0 = SVG_H - SVG_MARGIN - h
            parts.append(
                '<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" '
                'fill="%s" fill-opacity="0.55"/>' % (x0, y0, w, h, color))
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (
        SVG_MARGIN, SVG_H - SVG_MARGIN, SVG_W - SVG_MARGIN, SVG_H - SVG_MARGIN))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_report(metrics_path, histograms_path):
    """The files of the report by name, rendered from the checked metrics.json
    and histograms.csv before any is written: tables.md, and one SVG per cell
    of histograms.csv (none when `histograms_path` is not a file), its name
    checked to be a plain file name (no '/' or NUL, at most NAME_MAX bytes)."""
    doc = json.loads(Path(metrics_path).read_text())
    if not isinstance(doc, dict) or doc.get("schema_version") != METRICS_SCHEMA_VERSION:
        raise ValueError("not a metrics object of schema version %d" % METRICS_SCHEMA_VERSION)
    blocks = doc["methods"].values() if isinstance(doc["methods"], dict) else [None]
    if not all(isinstance(b, dict) and all(type(b.get(k, 0.0)) in (int, float) for k in (
            "mauroc", "mfpr95", "region_mauroc", "region_mfpr95")) for b in blocks):
        raise ValueError("'methods' must map each method to an object of numbers")
    cells = {}
    for r in read_histograms_csv(histograms_path) if Path(histograms_path).is_file() else ():
        name = "hist_%s_%s_s%d.svg" % (r["method"].replace(":", "_"), r["corruption"],
                                       r["severity"])
        if "/" in name or "\0" in name or len(name.encode()) > NAME_MAX:
            raise HistogramsError("%s: method %r and corruption %r do not make a file name"
                                  % (histograms_path, r["method"], r["corruption"]))
        cells.setdefault(name, []).append(r)
    files = {"tables.md": "# Benchmark tables\n\n" + ood_table_markdown(doc)
             + ("" if doc["methods"] else "\nno cells\n")}
    files.update((name, histogram_svg(rows)) for name, rows in sorted(cells.items()))
    return files


def write_report(files, out_dir):
    """Write each file of read_report into the directory `out_dir`. Returns
    the list of paths written."""
    for name, text in files.items():
        (Path(out_dir) / name).write_text(text)
    return [Path(out_dir) / name for name in files]
