"""Compare two output trees of the voxuq commands, file by file.

    python tools/compare_outputs.py A B

Every file under A or B but timing.json (wall times) is reported as
identical, moved, or only in one tree. For a JSON or CSV file that moved,
each numeric field is listed with its largest absolute and relative move
over the file. A field is named by its key path in a JSON file, or by its
column in a CSV file; both are prefixed by the method the record names,
where it names one (a top-level "method" key, or a "method" column).

The exit code is 1 when a file is in one tree only, when a moved file is
not JSON or CSV, when its text or shape differs, or when a field moves past
its relative tolerance in TOLERANCES (0 for a field that no row matches);
else 0. A binary file in COVERED may move when the file named beside it,
which reports its numbers, is there in both trees.
"""

import csv
import json
import math
import sys
from fnmatch import fnmatch
from pathlib import Path

EXCLUDED = {"timing.json"}
# (file name glob, field glob, largest relative move). The MC-Dropout and
# deep-ensemble passes run in float32, so the histogram edges of mcd and de
# and their calibration may move by float32 rounding; the counts may not.
# ECE, a sum of per-bin differences, moves most (7.9e-7 seen).
TOLERANCES = (
    ("histograms.csv", "mcd*/bin_*", 1e-6),
    ("histograms.csv", "de*/bin_*", 1e-6),
    ("calibration.json", "mcd*", 1e-5),
    ("calibration.json", "de*", 1e-5),
)
# binary file -> the file beside it that reports its numbers
COVERED = {"calib.ocuq": "calibration.json"}


class ShapeDiffers(ValueError):
    """The two files differ in something other than a number."""


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _json_pairs(a, b, path):
    """(field, number in a, number in b) of every numeric leaf of a and b."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ShapeDiffers("keys of %s differ" % (path or "/"))
        for key in a:
            yield from _json_pairs(a[key], b[key], "%s/%s" % (path, key) if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ShapeDiffers("lengths of %s differ" % path)
        for x, y in zip(a, b):
            yield from _json_pairs(x, y, path + "/*")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        yield path, float(a), float(b)
    elif a != b:
        raise ShapeDiffers("%s: %r against %r" % (path, a, b))


def json_fields(a_text, b_text):
    a, b = json.loads(a_text), json.loads(b_text)
    method = a.get("method") if isinstance(a, dict) else None
    prefix = method + "/" if isinstance(method, str) else ""
    return [(prefix + field, x, y) for field, x, y in _json_pairs(a, b, "")]


def csv_fields(a_text, b_text):
    a, b = list(csv.reader(a_text.splitlines())), list(csv.reader(b_text.splitlines()))
    if len(a) != len(b) or not a or a[0] != b[0]:
        raise ShapeDiffers("header or row count differs")
    header = a[0]
    pairs = []
    for line, (row_a, row_b) in enumerate(zip(a[1:], b[1:]), start=2):
        if len(row_a) != len(row_b) or len(row_a) != len(header):
            raise ShapeDiffers("line %d: field count differs" % line)
        record = dict(zip(header, row_a))
        prefix = record["method"] + "/" if "method" in record else ""
        for column, x, y in zip(header, row_a, row_b):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    raise ShapeDiffers("line %d, %s: %r against %r" % (line, column, x, y))
            else:
                pairs.append((prefix + column, nx, ny))
    return pairs


def moves(pairs):
    """field -> (largest absolute move, largest relative move), for every
    field that moved; NaN against NaN is no move."""
    out = {}
    for field, x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y)
        scale = max(abs(x), abs(y))
        rel = gap / scale if math.isfinite(gap) and scale else math.inf
        old = out.get(field, (0.0, 0.0))
        out[field] = (max(old[0], gap), max(old[1], rel))
    return out


def tolerance(name, field):
    return max((tol for file_glob, field_glob, tol in TOLERANCES
                if fnmatch(name, file_glob) and fnmatch(field, field_glob)), default=0.0)


def compare(a_root, b_root):
    """Print the report of the trees a_root and b_root; returns the number of
    failures."""
    a_root, b_root = Path(a_root), Path(b_root)
    names = sorted({str(p.relative_to(root)) for root in (a_root, b_root)
                    for p in root.rglob("*") if p.is_file() and p.name not in EXCLUDED})
    failures = 0
    for name in names:
        a, b = a_root / name, b_root / name
        if not (a.is_file() and b.is_file()):
            print("only in %s  %s" % ("A" if a.is_file() else "B", name))
            failures += 1
            continue
        a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
        if a_bytes == b_bytes:
            print("identical  %s" % name)
            continue
        parse = {".json": json_fields, ".csv": csv_fields}.get(a.suffix)
        if parse is None:
            sibling = COVERED.get(a.name)
            covered = sibling and (a.parent / sibling).is_file() and (b.parent / sibling).is_file()
            print("moved      %s%s" % (name, "  (reported by %s)" % sibling if covered else ""))
            failures += not covered
            continue
        print("moved      %s" % name)
        try:
            fields = moves(parse(a_bytes.decode("utf-8"), b_bytes.decode("utf-8")))
        except ValueError as e:  # ShapeDiffers, or a file that does not parse
            print("    FAIL  %s" % e)
            failures += 1
            continue
        for field, (gap, rel) in sorted(fields.items()):
            tol = tolerance(Path(name).name, field)
            verdict = "ok  " if rel <= tol else "FAIL"
            failures += rel > tol
            print("    %s  %s  abs %.3g  rel %.3g  (tolerance %g)" % (verdict, field, gap, rel, tol))
    print("%d files, %d failed" % (len(names), failures))
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: compare_outputs.py A B  (two directories)", file=sys.stderr)
        return 2
    return 1 if compare(*argv) else 0


if __name__ == "__main__":
    sys.exit(main())
