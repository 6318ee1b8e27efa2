import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from voxuq.nn_core import (LEAKY_SLOPE, LinearLayer, OptimizerState, ShapeError,
                           SpectralState, cross_entropy_loss, leaky_relu, leaky_relu_grad,
                           linear_forward, power_iteration, softmax)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((50, 7)) * 10
    p = softmax(logits.T).T
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 10))
    shifted = logits + 123.456
    assert np.allclose(softmax(logits), softmax(shifted))


def test_softmax_extreme_logits_finite():
    logits = np.array([[1e4, -1e4, 0.0], [-1e308, 0.0, 1e3]]).T
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=0), 1.0)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-50, 50)))
def test_softmax_property(logits):
    p = softmax(logits)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-9)


def row_major_softmax(logits):
    """The row-wise formula over n x K logits that softmax keeps the bits of."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# class counts of every branch of numpy's pairwise sum: fewer than 8 values
# added in order, 8 partial sums up to 128, and halving above 128
PAIRWISE_CLASSES = [*range(2, 41), 127, 128, 129, 200]


def extreme_logits(k, rows=300):
    """rows x k logits of scales from 0.1 to 40, then rows of extreme values:
    +-1e308, -inf, +inf, NaN, all equal, a spread that underflows exp, and
    subnormal gaps."""
    rng = np.random.default_rng(k)
    logits = rng.standard_normal((rows, k)) * rng.uniform(0.1, 40.0, size=(rows, 1))
    logits[0] = 1e308
    logits[0, ::3] = -1e308
    logits[1, k // 2] = np.nan
    logits[2, 1::2] = -np.inf
    logits[3, k - 1] = np.inf
    logits[4] = -np.inf
    logits[5] = 7.0
    logits[6] = np.linspace(-1e4, 1e4, k)
    logits[7] = np.arange(k) * 5e-324
    return logits


@pytest.mark.parametrize("k", PAIRWISE_CLASSES)
def test_softmax_equals_the_row_major_formula_bit_for_bit(k):
    logits = extreme_logits(k)
    with np.errstate(over="ignore", invalid="ignore"):
        want = row_major_softmax(logits)
        got = softmax(logits.T)
        from_contiguous = softmax(np.ascontiguousarray(logits.T))
    assert got.shape == (k, len(logits))
    assert np.array_equal(got.T, want, equal_nan=True)
    assert np.array_equal(from_contiguous, got, equal_nan=True)
    assert np.isnan(want[[1, 3, 4]]).all() and not np.isnan(want[[0, 2, 5, 6, 7]]).any()


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((20, 6))
    labels = rng.integers(0, 6, size=20)
    loss, _ = cross_entropy_loss(logits, labels)
    p = softmax(logits.T).T
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
    power_iteration(layer.weight, layer.sn_state, 199)
    w_eff, _ = layer.effective_weight_and_cache()
    top = np.linalg.svd(w_eff, compute_uv=False)[0]
    assert top <= 1.0 + 1e-6


def test_spectral_norm_noop_below_cap():
    rng = np.random.default_rng(9)
    layer = LinearLayer(6, 6, rng, sn_enabled=True, sn_coefficient=1.0)
    layer.weight *= 1e-3
    power_iteration(layer.weight, layer.sn_state, 49)
    w_eff, _ = layer.effective_weight_and_cache()
    assert w_eff is layer.weight


def test_raw_weight_grad_rank_one_correction():
    # differentiate L(W_eff(W)) with u, v frozen and compare against central
    # finite differences of the frozen map W -> c * W / (u^T W v)
    rng = np.random.default_rng(10)
    layer = LinearLayer(4, 5, rng, sn_enabled=True, sn_coefficient=1.0)
    layer.weight *= 3.0
    power_iteration(layer.weight, layer.sn_state, 49)
    w_eff, cache = layer.effective_weight_and_cache(update_state=True)
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


def test_leaky_relu_grad_bit_identical_to_select_form():
    """1.0 or LEAKY_SLOPE with the bits of the select over pre >= 0, on
    signed zeros, infinities, NaN and random values of a 2-D block."""
    rng = np.random.default_rng(6)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324])
    for pre in (special, rng.standard_normal((512, 32)), np.resize(special, (4, 6))):
        want = np.where(pre >= 0, 1.0, LEAKY_SLOPE)
        got = leaky_relu_grad(pre)
        assert got.dtype == np.float64 and got.shape == pre.shape
        assert got.tobytes() == want.tobytes()


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


class PerArrayAdam:
    """The per-parameter Adam: the reference the joined flat step keeps the
    bits of."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.slots = {}

    def step(self, params, grads):
        self.step_count += 1
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError("gradient shape %s != parameter shape %s for %s"
                                 % (g.shape, p.shape, name))
            if name not in self.slots:
                self.slots[name] = (np.zeros(p.shape), np.zeros(p.shape))
            m, v = self.slots[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.step_count)
            v_hat = v / (1.0 - self.beta2 ** self.step_count)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


SHAPES = {"w0": (5, 7), "b0": (5,), "w1": (3, 5), "b1": (3,), "s": (), "t": (2, 1, 3)}


def test_adam_bit_identical_to_per_array_oracle():
    """20 steps over parameters of mixed shapes (a 0-d one included), with
    gradients of very different scales, leave the parameters and the (m, v)
    slots with the oracle's bits."""
    rng = np.random.default_rng(14)
    start = {name: rng.standard_normal(shape) for name, shape in SHAPES.items()}
    got = {name: p.copy() for name, p in start.items()}
    want = {name: p.copy() for name, p in start.items()}
    opt, oracle = OptimizerState(lr=0.01), PerArrayAdam(lr=0.01)
    for _ in range(20):
        grads = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4)
                 for name, shape in SHAPES.items()}
        opt.step(got, grads)
        oracle.step(want, grads)
    for name in SHAPES:
        assert got[name].tobytes() == want[name].tobytes(), name
    for flat, i in ((opt._m, 0), (opt._v, 1)):
        joined = np.concatenate([oracle.slots[name][i].ravel() for name in SHAPES])
        assert flat.tobytes() == joined.tobytes()
    assert opt.step_count == oracle.step_count == 20


def test_adam_shape_mismatch_is_the_oracles_error_and_moves_nothing():
    params = {"w": np.ones((2, 3)), "b": np.ones(3)}
    grads = {"w": np.ones((2, 3)), "b": np.ones(4)}
    errors = []
    for opt in (OptimizerState(), PerArrayAdam()):
        with pytest.raises(ShapeError) as info:
            opt.step({name: p.copy() for name, p in params.items()}, grads)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    # every shape is checked before any parameter moves
    opt = OptimizerState()
    with pytest.raises(ShapeError):
        opt.step(params, grads)
    assert np.array_equal(params["w"], np.ones((2, 3))) and opt.step_count == 0
    # the slots are laid out by the first step; other parameters later raise
    opt.step({"w": params["w"]}, {"w": np.ones((2, 3))})
    w = params["w"].copy()
    for other in ({"w": np.ones((3, 2))}, params, {"b": np.ones(6)}):
        with pytest.raises(ShapeError):
            opt.step(other, {name: np.ones_like(p) for name, p in other.items()})
    assert params["w"].tobytes() == w.tobytes() and opt.step_count == 1
