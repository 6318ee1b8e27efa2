"""Confidence calibration: NLL, binned ECE, fixed temperature scaling, and
uncertainty-guided temperature scaling (per-sample temperatures driven by the
gap between a sample's uncertainty and the training-set mean).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .nn_core import softmax

PROB_FLOOR = 1e-12
DEFAULT_T_MIN = 0.05
DEFAULT_T_MAX = 20.0
DEFAULT_BINS = 15
# fit_temperature's tolerance on beta = 1/t
FIT_TOL = 1e-4
LAMBDA_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


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
    bin_conf = np.bincount(idx, weights=conf, minlength=bins)
    bin_acc = np.bincount(idx, weights=correct, minlength=bins)
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
    """Temperature minimizing validation NLL: a bounded Brent search over
    beta = 1/t, in which the NLL is convex. Never worse than t = 1.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ValueError("temperature fit needs at least two classes present")

    def objective(beta):
        return nll(scale_logits(logits, 1.0 / beta), labels)

    res = minimize_scalar(objective, bounds=(1.0 / DEFAULT_T_MAX, 1.0 / DEFAULT_T_MIN),
                          method="bounded", options={"xatol": FIT_TOL})
    return 1.0 / float(res.x) if res.fun <= objective(1.0) else 1.0


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
