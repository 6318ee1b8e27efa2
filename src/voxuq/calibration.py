"""Confidence calibration: NLL, binned ECE, fixed temperature scaling, and
uncertainty-guided temperature scaling (per-sample temperatures driven by the
gap between a sample's uncertainty and the training-set mean).
"""

from dataclasses import dataclass, replace

import numpy as np

from .nn_core import softmax

PROB_FLOOR = 1e-12
DEFAULT_T_MIN = 0.05
DEFAULT_T_MAX = 20.0
DEFAULT_BINS = 15
# fit_temperature: log-spaced grid points, then golden-section search to this width
FIT_GRID_POINTS = 64
FIT_TOL = 1e-4


@dataclass
class CalibrationParams:
    t_train: float = 1.0
    lam: float = 0.0
    u_bar_train: float = 0.0
    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self):
        if not (0.0 < self.t_min <= self.t_max):
            raise ValueError("need 0 < t_min <= t_max")


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
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    n = conf.shape[0]
    # right-closed bins: index by ceil(conf * bins) - 1
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    bin_counts = np.bincount(idx, minlength=bins)
    bin_conf = np.zeros(bins)
    bin_acc = np.zeros(bins)
    np.add.at(bin_conf, idx, conf)
    np.add.at(bin_acc, idx, correct.astype(np.float64))
    occupied = bin_counts > 0
    bin_conf[occupied] /= bin_counts[occupied]
    bin_acc[occupied] /= bin_counts[occupied]
    return float(np.sum(bin_counts[occupied] / n
                        * np.abs(bin_acc[occupied] - bin_conf[occupied])))


def scale_logits(logits, t):
    """softmax(logits / t); t may be a scalar or a per-row vector."""
    logits = np.asarray(logits, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be positive")
    if t.ndim == 1:
        t = t[:, None]
    return softmax(logits / t)


def fit_temperature(logits, labels):
    """Temperature minimizing validation NLL: coarse log-spaced grid followed
    by golden-section refinement around the best grid point.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ValueError("temperature fit needs at least two classes present")

    def objective(t):
        return nll(scale_logits(logits, t), labels)

    grid = np.geomspace(DEFAULT_T_MIN, DEFAULT_T_MAX, FIT_GRID_POINTS)
    if not np.any(np.isclose(grid, 1.0)):
        grid = np.sort(np.append(grid, 1.0))
    values = [objective(t) for t in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > FIT_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    t_star = (a + b) / 2.0
    # never do worse than any grid point (including t=1)
    if objective(t_star) > values[best]:
        t_star = float(grid[best])
    return float(t_star)


def ugts_temperature(params, u_bar_sample):
    """Per-sample temperature t_train + lam * (u_sample - u_train), clamped
    to [t_min, t_max]."""
    gap = np.asarray(u_bar_sample, dtype=np.float64) - params.u_bar_train
    return np.clip(params.t_train + params.lam * gap, params.t_min, params.t_max)


def tune_lambda(logits, labels, u_bar_sample, params, lam_grid):
    """Pick the lambda minimizing ECE on a clean validation split.

    Ties resolve to the smaller |lambda|. Returns (lam_star, ece_at_star).
    """
    lam_grid = list(lam_grid)
    if not lam_grid:
        raise ValueError("empty lambda grid")
    best_lam, best_ece = None, None
    for lam in sorted(lam_grid, key=abs):
        t = ugts_temperature(replace(params, lam=lam), u_bar_sample)
        value = ece(scale_logits(logits, t), labels)
        if best_ece is None or value < best_ece:
            best_lam, best_ece = lam, value
    return best_lam, best_ece
