"""Test-support code that no command runs: the Lipschitz-ratio probes of
acceptance criterion 2, the report rendering of one call, NLL, ECE and
softmax scaling of a probability or logit array, the calib reader, and the
reservoir pass that draws one row at a time."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxuq.calibration import DEFAULT_BINS, PROB_FLOOR, CalibrationParams, bin_sums, ece_nll
from voxuq.gda import FeatureBank
from voxuq.head import feature_blocks
from voxuq.nn_core import softmax
from voxuq.report import read_report, write_report
from voxuq.store import CALIB_MODE, StoreError, read_artifact


@dataclass
class LipschitzEstimate:
    lower_ratio: float
    upper_ratio: float
    sample_count: int
    skipped_pairs: int = 0


def estimate_lipschitz(head, probe_pairs):
    """Min / max ratio of penultimate-feature distance to input distance.

    Coincident pairs are skipped and counted rather than raising.
    """
    if len(probe_pairs) == 0:
        raise ValueError("need at least one probe pair")
    ratios = []
    skipped = 0
    for x1, x2 in probe_pairs:
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        d_in = np.linalg.norm(x1 - x2)
        if d_in == 0.0:
            skipped += 1
            continue
        f1 = head.forward(x1[None, :]).penultimate_features[0]
        f2 = head.forward(x2[None, :]).penultimate_features[0]
        ratios.append(np.linalg.norm(f1 - f2) / d_in)
    if not ratios:
        raise ValueError("all probe pairs were coincident")
    return LipschitzEstimate(lower_ratio=float(min(ratios)),
                             upper_ratio=float(max(ratios)),
                             sample_count=len(ratios),
                             skipped_pairs=skipped)


def lipschitz_upper_bound(config):
    """Product over hidden blocks of (1 + c): composition bound for SN blocks."""
    return (1.0 + config.sn_coefficient) ** config.num_layers


def render_report(metrics_path, histograms_path, out_dir):
    """read_report, then write_report into `out_dir`, created only once both
    input files are read and checked. Returns the list of paths written."""
    files = read_report(metrics_path, histograms_path)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return write_report(files, out_dir)


def nll(probs, labels):
    """Mean negative log-likelihood of the true class, probability-floored."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("label out of range")
    p = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
    return float(-np.log(p).mean())


def ece(probs, labels, bins=DEFAULT_BINS):
    """Expected calibration error over equal-width confidence bins on (0, 1].

    A sample with confidence c falls in bin b when c is in (left_b, right_b].
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= probs.shape[1]:
        raise ValueError("label out of range")
    return ece_nll(bin_sums(probs.max(axis=1), probs.argmax(axis=1) == labels, 0.0, bins))[0]


def scale_logits(logits, t):
    """softmax(logits / t); t may be a scalar or a per-row vector."""
    logits = np.asarray(logits, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be positive")
    if t.ndim == 1:
        t = t[:, None]
    return softmax((logits / t).T).T


def load_calibration(path):
    _, metadata, _ = read_artifact(path, expected_kind="calib")
    if metadata.get("mode") != CALIB_MODE:
        raise StoreError("unsupported UGTS mode %r" % metadata.get("mode"))
    # CalibrationParams' fields in order
    values = [metadata.get(key) for key in ("t_train", "lambda", "u_bar_train", "t_min", "t_max")]
    try:
        if not all(type(v) in (int, float) and np.isfinite(v) for v in values):
            raise ValueError("a value is missing or not a finite number")
        return CalibrationParams(*values)
    except ValueError as e:
        raise StoreError("malformed calib metadata: %s" % e)


def collect_features_by_row(head, scenes, cap_per_class, seed):
    """gda.collect_features with one rng.integers call per row past the cap,
    each replacing its row of the reservoir in turn."""
    rng = np.random.default_rng(seed)
    k = head.config.num_classes
    blocks = {c: [] for c in range(k)}
    full = {}
    seen = dict.fromkeys(range(k), 0)
    for features, labels in scenes:
        feats = np.concatenate([head.forward(x).penultimate_features
                                for _, _, x in feature_blocks(features)])
        labels = np.asarray(labels).ravel()
        for c in np.unique(labels).tolist():
            rows = feats[labels == c]
            if c not in full:
                kept = rows[:cap_per_class - seen[c]]
                blocks[c].append(kept)
                seen[c] += len(kept)
                if seen[c] == cap_per_class:
                    full[c] = np.concatenate(blocks.pop(c))
                rows = rows[len(kept):]
            for row in rows:
                j = int(rng.integers(0, seen[c] + 1))
                if j < cap_per_class:
                    full[c][j] = row
                seen[c] += 1
    empty = np.empty((0, head.config.hidden_width))
    vectors = {c: full[c] if c in full else np.concatenate(blocks[c] + [empty])
               for c in range(k)}
    return FeatureBank(num_classes=k, cap_per_class=cap_per_class, vectors=vectors,
                       seen_counts=seen)
