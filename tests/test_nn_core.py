import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voxuq.nn_core import (LEAKY_SLOPE, LinearLayer, OptimizerState, ShapeError,
                           SpectralState, cross_entropy_loss, leaky_relu, linear_forward,
                           power_iteration, softmax)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((50, 7)) * 10
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((10, 5))
    shifted = logits + 123.456
    assert np.allclose(softmax(logits), softmax(shifted))


def test_softmax_extreme_logits_finite():
    logits = np.array([[1e4, -1e4, 0.0], [-1e308, 0.0, 1e3]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
def test_softmax_property(logits):
    p = softmax(logits)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((20, 6))
    labels = rng.integers(0, 6, size=20)
    loss, _ = cross_entropy_loss(logits, labels)
    p = softmax(logits)
    expected = -np.log(p[np.arange(20), labels]).mean()
    assert abs(loss - expected) < 1e-12


def test_cross_entropy_grad_finite_difference():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((8, 4))
    labels = rng.integers(0, 4, size=8)
    _, grad = cross_entropy_loss(logits, labels)
    h = 1e-6
    for _ in range(20):
        i = rng.integers(0, 8)
        j = rng.integers(0, 4)
        lp = logits.copy()
        lm = logits.copy()
        lp[i, j] += h
        lm[i, j] -= h
        fd = (cross_entropy_loss(lp, labels)[0] - cross_entropy_loss(lm, labels)[0]) / (2 * h)
        assert abs(grad[i, j] - fd) < 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([-1, 0]))


# -- power iteration --------------------------------------------------------

def test_power_iteration_matches_svd():
    rng = np.random.default_rng(4)
    for shape in [(5, 5), (8, 3), (3, 8), (12, 12)]:
        w = rng.standard_normal(shape)
        state = SpectralState(shape[0], shape[1], rng)
        sigma = power_iteration(w, state, iters=200)
        top = np.linalg.svd(w, compute_uv=False)[0]
        assert abs(sigma - top) < 1e-8 * max(1.0, top)


def test_power_iteration_zero_matrix():
    rng = np.random.default_rng(5)
    state = SpectralState(4, 4, rng)
    assert power_iteration(np.zeros((4, 4)), state) == 0.0


def test_power_iteration_monotone_improvement():
    # more iterations should not move the estimate away from the true value
    rng = np.random.default_rng(6)
    w = rng.standard_normal((10, 10))
    top = np.linalg.svd(w, compute_uv=False)[0]
    s1 = SpectralState(10, 10, np.random.default_rng(7))
    s2 = SpectralState(10, 10, np.random.default_rng(7))
    e1 = abs(power_iteration(w, s1, iters=5) - top)
    e2 = abs(power_iteration(w, s2, iters=100) - top)
    assert e2 <= e1 + 1e-12


# -- spectral normalization on a layer --------------------------------------

def test_spectral_norm_caps_singular_value():
    rng = np.random.default_rng(8)
    layer = LinearLayer(6, 6, rng, sn_enabled=True, sn_coefficient=1.0)
    layer.weight *= 10.0  # force sigma > c
    w_eff, _ = layer.effective_weight_and_cache(iters=200)
    top = np.linalg.svd(w_eff, compute_uv=False)[0]
    assert top <= 1.0 + 1e-6


def test_spectral_norm_noop_below_cap():
    rng = np.random.default_rng(9)
    layer = LinearLayer(6, 6, rng, sn_enabled=True, sn_coefficient=1.0)
    layer.weight *= 1e-3
    w_eff, _ = layer.effective_weight_and_cache(iters=50)
    assert w_eff is layer.weight


def test_raw_weight_grad_rank_one_correction():
    # differentiate L(W_eff(W)) with u, v frozen and compare against central
    # finite differences of the frozen map W -> c * W / (u^T W v)
    rng = np.random.default_rng(10)
    layer = LinearLayer(4, 5, rng, sn_enabled=True, sn_coefficient=1.0)
    layer.weight *= 3.0
    w_eff, cache = layer.effective_weight_and_cache(update_state=True, iters=50)
    assert cache["clipped"]
    target = rng.standard_normal(w_eff.shape)

    def loss_of(weight):
        sigma = float(cache["u"] @ weight @ cache["v"])
        eff = weight * (layer.sn_coefficient / sigma)
        return float(np.sum(eff * target))

    grad = layer.raw_weight_grad(target, cache)
    h = 1e-6
    for _ in range(25):
        i = rng.integers(0, 4)
        j = rng.integers(0, 5)
        wp = layer.weight.copy()
        wm = layer.weight.copy()
        wp[i, j] += h
        wm[i, j] -= h
        fd = (loss_of(wp) - loss_of(wm)) / (2 * h)
        assert abs(grad[i, j] - fd) < 1e-5


def test_raw_weight_grad_identity_when_not_clipped():
    rng = np.random.default_rng(11)
    layer = LinearLayer(3, 3, rng, sn_enabled=True)
    g = rng.standard_normal((3, 3))
    assert layer.raw_weight_grad(g, {"clipped": False}) is g


# -- plumbing ---------------------------------------------------------------

def test_linear_forward_shape_error():
    rng = np.random.default_rng(12)
    layer = LinearLayer(4, 6, rng)
    with pytest.raises(ShapeError):
        linear_forward(layer, np.zeros((2, 5)))


def test_linear_forward_matches_naive():
    rng = np.random.default_rng(13)
    layer = LinearLayer(4, 6, rng)
    x = rng.standard_normal((7, 6))
    y = linear_forward(layer, x)
    naive = np.array([[x[i] @ layer.weight[o] + layer.bias[o]
                       for o in range(4)] for i in range(7)])
    assert np.allclose(y, naive, atol=1e-12)


def test_leaky_relu_bit_identical_to_select_form():
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan,
                        5e-324, -5e-324, 1e-310, -1e-310])
    x = np.concatenate([rng.standard_normal(10000) * 10.0, special])
    want = np.where(x >= 0.0, x, LEAKY_SLOPE * x)
    assert np.array_equal(leaky_relu(x).view(np.uint64), want.view(np.uint64))


def test_leaky_relu_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(leaky_relu(x), [-0.02, 0.0, 3.0])


# -- optimizer -------------------------------------------------------------

def test_adam_first_step_bias_corrected():
    opt = OptimizerState(lr=0.01)
    p = {"w": np.array([5.0])}
    g = {"w": np.array([3.0])}
    opt.step(p, g)
    # after bias correction, m_hat = g, v_hat = g^2 => step ~ lr * sign(g)
    assert np.allclose(p["w"], [5.0 - 0.01 * 3.0 / (3.0 + 1e-8)])


def test_optimizer_shape_mismatch():
    opt = OptimizerState()
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, {"w": np.zeros(4)})

