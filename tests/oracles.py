"""Test-support code that no command runs: the Lipschitz-ratio probes of
acceptance criterion 2, and the report rendering of one call."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxuq.report import read_report, write_report


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
