"""Confidence calibration: NLL, binned ECE, fixed temperature scaling, and
uncertainty-guided temperature scaling (one temperature per scene, driven by
the gap between the scene's mean uncertainty and the training-set mean).
"""

from dataclasses import dataclass, replace

import numpy as np

from .gda import FitError
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
    return ece_nll(bin_sums(probs.max(axis=1), probs.argmax(axis=1) == labels, 0.0, bins))[0]


def bin_sums(conf, correct, loss, bins=DEFAULT_BINS):
    """Calibration sums of some rows, in one vector: per-bin row counts,
    confidence sums and correct counts over `bins` equal-width bins on (0, 1],
    then the loss sum. The vectors of disjoint rows add."""
    # right-closed bins: index by ceil(conf * bins) - 1
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    return np.concatenate([np.bincount(idx, minlength=bins),
                           np.bincount(idx, weights=conf, minlength=bins),
                           np.bincount(idx, weights=correct, minlength=bins), [np.sum(loss)]])


def ece_nll(sums):
    """(ECE, mean loss) of a bin_sums vector."""
    counts, bin_conf, bin_acc = sums[:-1].reshape(3, -1)
    n = counts.sum()
    occupied = counts > 0
    counts, bin_conf, bin_acc = counts[occupied], bin_conf[occupied], bin_acc[occupied]
    return (float(np.sum(counts / n * np.abs(bin_acc / counts - bin_conf / counts))),
            float(sums[-1] / n))


def scale_logits(logits, t):
    """softmax(logits / t); t may be a scalar or a per-row vector."""
    logits = np.asarray(logits, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be positive")
    if t.ndim == 1:
        t = t[:, None]
    return softmax(logits / t)


class LogitGaps:
    """One scene's logits and labels (a split is a sequence of scenes), reduced
    once to what scoring them at any temperature needs: each logit's gap to
    its row maximum (stored class-major, since numpy reduces over axis 0 of a
    K x n array faster than over axis 1 of an n x K one), the true class's
    gap, whether the argmax is the label, which no t > 0 changes, and the
    classes present."""

    def __init__(self, logits, labels):
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        n, k = logits.shape
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
            raise ValueError("label out of range")
        gaps = logits - logits.max(axis=1, keepdims=True)
        self._gaps = np.ascontiguousarray(gaps.T)
        self._true_gap = gaps[np.arange(n), labels]
        self._correct = logits.argmax(axis=1) == labels
        self.classes = np.unique(labels)

    def sums(self, t):
        """bin_sums of softmax(logits / t) from one exp pass, with the floored
        true-class NLL as the loss; t is a scalar or a per-row vector. With
        S = sum_c exp(gap_c / t), the confidence is 1 / S and the loss is
        min(log S - gap_y / t, -log PROB_FLOOR)."""
        t = np.asarray(t, dtype=np.float64)
        s = np.exp(self._gaps / t).sum(axis=0)
        loss = np.minimum(np.log(s) - self._true_gap / t, -np.log(PROB_FLOOR))
        return bin_sums(1.0 / s, self._correct, loss)


def fit_temperature(gaps):
    """Temperature minimizing the NLL of the scenes `gaps` (their sums
    added): a golden-section search over beta = 1/t, in which the NLL is
    convex, down to a bracket of FIT_TOL. Never worse than t = 1.
    """
    if len(set().union(*(g.classes for g in gaps))) < 2:
        raise FitError("temperature fit needs at least two classes present")

    def objective(beta):
        return ece_nll(sum(g.sums(1.0 / beta) for g in gaps))[1]

    a, b = 1.0 / DEFAULT_T_MAX, 1.0 / DEFAULT_T_MIN
    step = (5.0 ** 0.5 - 1.0) / 2.0  # keeps one inner point from bracket to bracket
    c, d = b - step * (b - a), a + step * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > FIT_TOL:
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - step * (b - a)
            fc = objective(c)
        else:  # the minimum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + step * (b - a)
            fd = objective(d)
    beta, fun = (c, fc) if fc <= fd else (d, fd)
    return 1.0 / beta if fun <= objective(1.0) else 1.0


def ugts_temperature(params, u_bar_scene):
    """A scene's temperature t_train + lam * (u_scene - u_train), clamped to
    [t_min, t_max]; u_scene is its mean uncertainty (or an array of them)."""
    gap = np.asarray(u_bar_scene, dtype=np.float64) - params.u_bar_train
    return np.clip(params.t_train + params.lam * gap, params.t_min, params.t_max)


def tune_lambda(gaps, u_scene, params, lam_grid):
    """Pick the lambda minimizing the ECE of the clean validation scenes
    `gaps`, each scene's sums taken at the UGTS temperature of its mean
    uncertainty in `u_scene`, and added.

    Ties resolve to the smaller |lambda|. Returns (lam_star, ece_at_star).
    """
    lam_grid = list(lam_grid)
    if not lam_grid:
        raise ValueError("empty lambda grid")
    best_lam, best_ece = None, None
    for lam in sorted(lam_grid, key=abs):
        temps = ugts_temperature(replace(params, lam=lam), u_scene)
        value = ece_nll(sum(g.sums(t) for g, t in zip(gaps, temps)))[0]
        if best_ece is None or value < best_ece:
            best_lam, best_ece = lam, value
    return best_lam, best_ece
