import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar

from voxuq.calibration import (DEFAULT_BINS, DEFAULT_T_MAX, DEFAULT_T_MIN, FIT_TOL,
                               PROB_FLOOR, CalibrationParams, LogitGaps, bin_sums, ece_nll,
                               fit_temperature, tune_lambda, ugts_temperature)
from voxuq.gda import FitError
from voxuq.nn_core import softmax

from oracles import ece, nll, scale_logits


def hand_ece(probs, labels, bins):
    """Independent ECE oracle: explicit per-bin loop with (left, right] bins."""
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    n = len(conf)
    total = 0.0
    for b in range(bins):
        left = b / bins
        right = (b + 1) / bins
        if b == 0:
            in_bin = conf <= right  # conf = 0 still lands in the first bin
        else:
            in_bin = (conf > left) & (conf <= right)
        if in_bin.sum() == 0:
            continue
        total += (in_bin.sum() / n) * abs(correct[in_bin].mean() - conf[in_bin].mean())
    return total


def rand_probs(rng, n, k):
    p = rng.random((n, k)) + 1e-9
    return p / p.sum(axis=1, keepdims=True)


def test_nll_hand_value():
    probs = np.array([[0.5, 0.5], [0.9, 0.1]])
    labels = np.array([0, 1])
    assert nll(probs, labels) == pytest.approx(-(np.log(0.5) + np.log(0.1)) / 2)


def test_nll_floors_zero_probability():
    probs = np.array([[1.0, 0.0]])
    assert np.isfinite(nll(probs, np.array([1])))


def test_nll_label_range():
    with pytest.raises(ValueError):
        nll(np.ones((1, 2)) / 2, np.array([2]))


def test_ece_matches_hand_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(10, 300))
        probs = rand_probs(rng, n, k)
        labels = rng.integers(0, k, size=n)
        for bins in (1, 5, 15):
            got = ece(probs, labels, bins=bins)
            assert abs(got - hand_ece(probs, labels, bins)) < 1e-12


def test_ece_exact_bin_edges():
    # confidences landing exactly on bin boundaries go to the left-closed bin
    probs = np.array([[0.2, 0.8], [0.4, 0.6], [1.0, 0.0]])
    labels = np.array([1, 1, 0])
    for bins in (5, 10, 15):
        got = ece(probs, labels, bins=bins)
        assert abs(got - hand_ece(probs, labels, bins)) < 1e-12


def test_ece_perfectly_calibrated_binary():
    # 10 samples at confidence 0.8, 8 of them correct -> bin gap 0
    probs = np.tile([0.8, 0.2], (10, 1))
    labels = np.array([0] * 8 + [1] * 2)
    assert ece(probs, labels, bins=10) == pytest.approx(0.0, abs=1e-12)


def test_ece_diagnostics_counts():
    # one sample each in bins 9 and 5, both correct: gaps 0.05 and 0.45, half weight each
    probs = np.array([[0.95, 0.05], [0.55, 0.45]])
    assert ece(probs, np.array([0, 0]), bins=10) == pytest.approx(0.25, abs=1e-12)


def test_ece_label_range():
    for labels in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError):
            ece(np.ones((2, 2)) / 2, np.array(labels))


def test_ece_rejects_bad_bins():
    with pytest.raises(ValueError):
        ece(np.ones((1, 2)) / 2, np.array([0]), bins=0)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (25, 3), elements=st.floats(0.01, 10.0)),
       hnp.arrays(np.int64, (25,), elements=st.integers(0, 2)))
def test_ece_property_matches_oracle(raw, labels):
    probs = raw / raw.sum(axis=1, keepdims=True)
    got = ece(probs, labels, bins=15)
    assert abs(got - hand_ece(probs, labels, 15)) < 1e-12


def binned_ece_oracle(conf, correct, bins):
    """The ECE reduction that bin_sums and ece_nll replaced, kept verbatim as
    the oracle of their bits."""
    n = conf.shape[0]
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    bin_counts = np.bincount(idx, minlength=bins)
    bin_conf = np.bincount(idx, weights=conf, minlength=bins)
    bin_acc = np.bincount(idx, weights=correct, minlength=bins)
    occupied = bin_counts > 0
    bin_conf[occupied] /= bin_counts[occupied]
    bin_acc[occupied] /= bin_counts[occupied]
    return float(np.sum(bin_counts[occupied] / n
                        * np.abs(bin_acc[occupied] - bin_conf[occupied])))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bin_sums_add_over_scenes(data):
    """ece_nll of bin_sums added over a random split of the rows into scenes
    equals ece_nll of one vector within 1e-12; one vector, from ece() or from
    LogitGaps at a scalar or per-row t, keeps the bits of the joined
    reduction."""
    n, k = data.draw(st.integers(1, 300)), data.draw(st.integers(2, 6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0)
    labels = rng.integers(0, k, size=n)
    t = data.draw(st.sampled_from([1.0, 0.37, 4.2, "per_row"]))
    t = rng.uniform(DEFAULT_T_MIN, DEFAULT_T_MAX, size=n) if t == "per_row" else t
    probs = scale_logits(logits, t)
    conf, correct = probs.max(axis=1), probs.argmax(axis=1) == labels
    oracle = binned_ece_oracle(conf, correct, DEFAULT_BINS)
    assert ece(probs, labels) == oracle
    whole = ece_nll(LogitGaps(logits, labels).sums(t))
    gaps = logits - logits.max(axis=1, keepdims=True)
    s = np.exp(gaps / np.reshape(t, (-1, 1))).sum(axis=1)
    loss = np.minimum(np.log(s) - gaps[np.arange(n), labels] / t, -np.log(PROB_FLOOR))
    assert whole == (binned_ece_oracle(1.0 / s, correct, DEFAULT_BINS), float(loss.mean()))
    cuts = rng.choice(np.arange(1, n), size=min(n - 1, rng.integers(0, 8)), replace=False)
    parts = np.split(np.arange(n), np.sort(cuts))
    summed = sum(LogitGaps(logits[p], labels[p]).sums(t if np.ndim(t) == 0 else t[p])
                 for p in parts)
    assert np.allclose(ece_nll(summed), whole, rtol=0.0, atol=1e-12)
    conf_sums = sum(bin_sums(conf[p], correct[p], 0.0) for p in parts)
    assert abs(ece_nll(conf_sums)[0] - oracle) <= 1e-12


# -- temperature scaling ----------------------------------------------------

def test_scale_logits_identity_at_one():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((10, 4))
    assert np.allclose(scale_logits(logits, 1.0), softmax(logits.T).T)


def test_scale_logits_high_t_approaches_uniform():
    logits = np.array([[5.0, 0.0, -5.0]])
    p = scale_logits(logits, 1e6)
    assert np.allclose(p, 1 / 3, atol=1e-5)


def test_scale_logits_preserves_argmax():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((100, 6))
    for t in (0.05, 0.5, 3.0, 20.0):
        assert np.array_equal(np.argmax(scale_logits(logits, t), axis=1),
                              np.argmax(logits, axis=1))


def test_scale_logits_per_row_temperatures():
    logits = np.array([[2.0, 0.0], [2.0, 0.0]])
    p = scale_logits(logits, np.array([1.0, 2.0]))
    assert p[0, 0] > p[1, 0]


def test_scale_logits_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        scale_logits(np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        scale_logits(np.zeros((2, 2)), np.array([1.0, -1.0]))


@pytest.mark.parametrize("case", ["scalar", "per_row", "t_min", "t_max", "floored"])
def test_logit_gaps_metrics_match_scaled_softmax(case):
    rng = np.random.default_rng(20)
    n, k = 3000, 6
    logits = rng.standard_normal((n, k)) * 3
    labels = rng.integers(0, k, size=n)
    t = {"scalar": 2.5, "t_min": DEFAULT_T_MIN, "t_max": DEFAULT_T_MAX, "floored": 1.0,
         "per_row": rng.uniform(DEFAULT_T_MIN, DEFAULT_T_MAX, size=n)}[case]
    if case == "floored":
        # a true-class probability of about exp(-60), far under the floor
        logits[:100] = 0.0
        logits[:100, 0] = 60.0
        labels[:100] = 1
    probs = scale_logits(logits, t)
    if case == "floored":
        assert probs[np.arange(n), labels].min() < PROB_FLOOR
    got_ece, got_nll = ece_nll(LogitGaps(logits, labels).sums(t))
    assert abs(got_ece - ece(probs, labels)) <= 1e-12
    assert abs(got_nll - nll(probs, labels)) <= 1e-12


def test_logit_gaps_label_range():
    with pytest.raises(ValueError):
        LogitGaps(np.zeros((2, 3)), np.array([0, 3]))


def _fit_case(case):
    rng = np.random.default_rng(3)
    n, k = 4000, 5
    base = rng.standard_normal((n, k)) * 2.0
    if case == "interior":
        # well-calibrated logits inflated by 3 should fit t close to 3
        labels = np.array([rng.choice(k, p=row) for row in softmax(base.T).T])
        return base * 3.0, labels
    if case == "t_min":
        # separable: sharpening always lowers the NLL
        return base, base.argmax(axis=1)
    # labels independent of the logits: flattening always lowers the NLL
    return base, rng.integers(0, k, size=n)


def grid_nll_min(logits, labels, points=4001):
    """Smallest NLL over a log-spaced grid of temperatures on [T_MIN, T_MAX],
    by log-sum-exp, 100 temperatures at a time."""
    z = logits - logits.max(axis=1, keepdims=True)
    z_true = z[np.arange(len(labels)), labels]
    betas = 1.0 / np.geomspace(DEFAULT_T_MIN, DEFAULT_T_MAX, points)
    best = np.inf
    for chunk in np.array_split(betas, points // 100):
        lse = np.log(np.exp(chunk[:, None, None] * z).sum(axis=2))
        best = min(best, float((lse - chunk[:, None] * z_true).mean(axis=1).min()))
    return best


@pytest.mark.parametrize("case, lo, hi", [
    ("interior", 2.6, 3.4),
    ("t_min", DEFAULT_T_MIN, 0.051),
    ("t_max", 19.9, DEFAULT_T_MAX),
], ids=["interior", "t_min", "t_max"])
def test_fit_temperature_matches_fine_grid(case, lo, hi):
    logits, labels = _fit_case(case)
    t = fit_temperature([LogitGaps(logits, labels)])
    assert lo < t < hi
    assert nll(scale_logits(logits, t), labels) <= grid_nll_min(logits, labels) + 1e-5


def test_fit_temperature_never_worse_than_identity():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((500, 4)) * 3
    labels = rng.integers(0, 4, size=500)
    t = fit_temperature([LogitGaps(logits, labels)])
    assert nll(scale_logits(logits, t), labels) <= nll(softmax(logits.T).T, labels) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_temperature_finds_the_nll_minimum(data):
    """Logits in [-0.5, 0.5] keep every true-class probability above
    PROB_FLOOR up to t_min (a gap of at most 1 at beta = 20 leaves at least
    exp(-20) / 6), so the NLL is convex in beta = 1/t. The fitted beta lies
    within FIT_TOL of scipy's bounded minimizer, unless the fit fell back to
    t = 1. Objectives too flat to resolve at FIT_TOL are left out."""
    n, k = data.draw(st.integers(2, 80)), data.draw(st.integers(2, 6))
    logits = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-0.5, 0.5)))
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    if data.draw(st.booleans()):  # all correct: the minimum sits at t_min
        labels = logits.argmax(axis=1)
    assume(np.unique(labels).size > 1)
    gaps = LogitGaps(logits, labels)

    def objective(beta):
        return ece_nll(gaps.sums(1.0 / beta))[1]

    lo, hi = 1.0 / DEFAULT_T_MAX, 1.0 / DEFAULT_T_MIN
    ref = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    rise = max(objective(min(max(ref.x + dx, lo), hi)) for dx in (-FIT_TOL, FIT_TOL))
    assume(rise - ref.fun > 1e-12)
    t = fit_temperature([gaps])
    assert t == 1.0 or abs(1.0 / t - ref.x) <= FIT_TOL


def test_fit_temperature_needs_two_classes():
    with pytest.raises(FitError):
        fit_temperature([LogitGaps(np.zeros((5, 3)), np.zeros(5, dtype=int))])


def test_fit_temperature_counts_the_classes_of_all_scenes():
    """Scenes that each hold one class, but two in all, can be fitted; a
    split of several scenes with one class in all cannot."""
    logits = np.random.default_rng(8).standard_normal((6, 3))
    ground, car = np.zeros(3, dtype=int), np.ones(3, dtype=int)
    t = fit_temperature([LogitGaps(logits[:3], ground), LogitGaps(logits[3:], car)])
    assert DEFAULT_T_MIN <= t <= DEFAULT_T_MAX
    with pytest.raises(FitError):
        fit_temperature([LogitGaps(logits[:3], ground), LogitGaps(logits[3:], ground)])
    with pytest.raises(FitError):
        fit_temperature([])


# -- uncertainty-guided temperatures ----------------------------------------

def test_ugts_additive_formula():
    params = CalibrationParams(t_train=1.5, lam=0.2, u_bar_train=3.0)
    t = ugts_temperature(params, np.array([3.0, 5.0, 1.0]))
    assert np.allclose(t, [1.5, 1.9, 1.1])


def test_ugts_clamps_to_range():
    params = CalibrationParams(t_train=1.0, lam=100.0, u_bar_train=0.0)
    t = ugts_temperature(params, np.array([-10.0, 10.0]))
    assert t[0] == params.t_min
    assert t[1] == params.t_max


def test_ugts_lambda_zero_reduces_to_fixed_ts():
    params = CalibrationParams(t_train=1.7, lam=0.0, u_bar_train=5.0)
    t = ugts_temperature(params, np.array([0.0, 100.0]))
    assert np.allclose(t, 1.7)


def test_calibration_params_validation():
    with pytest.raises(ValueError):
        CalibrationParams(t_min=0.0)


def test_tune_lambda_ties_prefer_smaller_magnitude():
    # constant uncertainty: every lambda yields identical temperatures/ECE
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((50, 3))
    labels = rng.integers(0, 3, size=50)
    params = CalibrationParams(t_train=1.0, lam=0.0, u_bar_train=2.0)
    lam, _ = tune_lambda([LogitGaps(logits, labels)], [2.0], params, [0.5, -0.5, 0.0, 0.1])
    assert lam == 0.0


def test_tune_lambda_picks_helpful_lambda():
    # sharp logits mislabelled half the time in a scene of high uncertainty:
    # raising t for that scene improves calibration, so a positive lambda
    # should win
    rng = np.random.default_rng(6)
    n = 600
    logits = np.zeros((n, 2))
    logits[:, 0] = 4.0
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = rng.integers(0, 2, size=n // 2)  # coin-flip scene
    scenes = [LogitGaps(logits[: n // 2], labels[: n // 2]),
              LogitGaps(logits[n // 2:], labels[n // 2:])]
    params = CalibrationParams(t_train=1.0, lam=0.0, u_bar_train=0.0)
    lam, best = tune_lambda(scenes, [10.0, 0.0], params, [0.0, 0.5, 2.0])
    assert lam > 0.0
    base = ece(scale_logits(logits, 1.0), labels)
    assert best < base


def test_tune_lambda_empty_grid():
    params = CalibrationParams()
    with pytest.raises(ValueError):
        tune_lambda([LogitGaps(np.zeros((2, 2)), np.zeros(2, dtype=int))], [0.0],
                    params, [])
