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
    return _binned_ece(probs.max(axis=1), probs.argmax(axis=1) == labels, bins)


def _binned_ece(conf, correct, bins):
    """ECE of per-sample confidences and 0/1 correctness over `bins` bins."""
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


class LogitGaps:
    """One split's logits and labels, reduced once to what scoring them at
    any temperature needs: each logit's gap to its row maximum (stored
    class-major, since numpy reduces over axis 0 of a K x n array faster than
    over axis 1 of an n x K one), the true class's gap, and whether the
    argmax is the label, which no temperature t > 0 changes.
    """

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

    def metrics(self, t):
        """(ece, nll) of softmax(logits / t) from one exp pass; t is a scalar
        or a per-row vector. With S = sum_c exp(gap_c / t), the confidence is
        1 / S and the floored true-class NLL is min(log S - gap_y / t,
        -log PROB_FLOOR)."""
        t = np.asarray(t, dtype=np.float64)
        s = np.exp(self._gaps / t).sum(axis=0)
        loss = np.minimum(np.log(s) - self._true_gap / t, -np.log(PROB_FLOOR))
        return _binned_ece(1.0 / s, self._correct, DEFAULT_BINS), float(loss.mean())


def _bounded_brent(func, a, b, xatol):
    """(x, func(x)) at the minimum of `func` on [a, b] by Brent's bounded
    search: golden-section steps with parabolic interpolation, until the
    bracket is within about xatol of x or after 500 calls. It ports scipy's
    minimize_scalar(method="bounded") step for step, so its bits are scipy's."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)) and num < 500:
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def fit_temperature(logits, labels):
    """Temperature minimizing validation NLL: a bounded Brent search over
    beta = 1/t, in which the NLL is convex. Never worse than t = 1.
    """
    if np.unique(labels).size < 2:
        raise ValueError("temperature fit needs at least two classes present")
    gaps = LogitGaps(logits, labels)

    def objective(beta):
        return gaps.metrics(1.0 / beta)[1]

    beta, fun = _bounded_brent(objective, 1.0 / DEFAULT_T_MAX, 1.0 / DEFAULT_T_MIN, FIT_TOL)
    return 1.0 / float(beta) if fun <= objective(1.0) else 1.0


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
    gaps = LogitGaps(logits, labels)
    best_lam, best_ece = None, None
    for lam in sorted(lam_grid, key=abs):
        value = gaps.metrics(ugts_temperature(replace(params, lam=lam), u_bar_sample))[0]
        if best_ece is None or value < best_ece:
            best_lam, best_ece = lam, value
    return best_lam, best_ece
