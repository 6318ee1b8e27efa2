import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxuq.head import HeadConfig, ResidualMlpHead
from voxuq.metrics import max_softmax_score, softmax_entropy
from voxuq.nn_core import softmax
from voxuq.ood import MethodBundle, check_methods, parse_method, score_scene

from test_head import dropout_forward
from test_nn_core import PAIRWISE_CLASSES, extreme_logits, row_major_softmax


def rand_probs(rng, n, k):
    """n distributions over k classes, class-major (k x n)."""
    p = rng.random((k, n)) + 1e-6
    return p / p.sum(axis=0)


def test_entropy_uniform_is_log_k():
    for k in (2, 5, 17):
        p = np.full((k, 1), 1.0 / k)
        assert softmax_entropy(p)[0] == pytest.approx(np.log(k), abs=1e-12)


def test_entropy_one_hot_is_zero():
    p = np.zeros((4, 1))
    p[2, 0] = 1.0
    assert softmax_entropy(p)[0] == 0.0


def test_entropy_matches_naive_sum():
    rng = np.random.default_rng(0)
    p = rand_probs(rng, 20, 6)
    naive = np.array([-sum(x * np.log(x) for x in column if x > 0) for column in p.T])
    assert np.allclose(softmax_entropy(p), naive, atol=1e-12)


@pytest.mark.parametrize("k", PAIRWISE_CLASSES)
def test_entropy_equals_the_row_major_sum_bit_for_bit(k):
    """On the softmax of rows of extreme and NaN logits, with exact zeros
    and ones among the probabilities."""
    with np.errstate(over="ignore", invalid="ignore"):
        probs = row_major_softmax(extreme_logits(k))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = -np.where(probs > 0.0, probs * np.log(probs), 0.0).sum(axis=-1)
    assert (probs == 0.0).any() and (probs == 1.0).any()
    assert np.array_equal(softmax_entropy(probs.T), want, equal_nan=True)
    assert np.array_equal(max_softmax_score(probs.T), 1.0 - probs.max(axis=-1), equal_nan=True)


def test_max_softmax_score_values():
    p = np.array([[0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]]).T
    assert np.allclose(max_softmax_score(p), [0.3, 2 / 3])


def test_invalid_distributions_rejected():
    with pytest.raises(ValueError):
        softmax_entropy(np.array([[0.5], [0.6]]))
    with pytest.raises(ValueError):
        max_softmax_score(np.array([[-0.1], [1.1]]))


GRID = 2 ** 20


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(GRID // 2, GRID), st.booleans()),
                min_size=2, max_size=2))
def test_binary_rankings_agree(pair):
    # with K=2 both scores are monotone in max-prob, so orderings coincide.
    # Max-probs lie on a dyadic grid, so every row is exact and two distinct
    # rows differ by far more than the rounding error of the entropy: max-probs
    # a few ulps apart can tie, or swap, in floating-point entropy.
    rows = []
    for top, flip in pair:
        row = [top / GRID, (GRID - top) / GRID]
        rows.append(row[::-1] if flip else row)
    ms = max_softmax_score(np.array(rows).T)
    ent = softmax_entropy(np.array(rows).T)
    assert np.sign(ms[0] - ms[1]) == pytest.approx(np.sign(ent[0] - ent[1]))


# -- ensembles --------------------------------------------------------------

def make_head(seed):
    return ResidualMlpHead(HeadConfig(input_dim=5, hidden_width=5, num_layers=2,
                                      num_classes=3), seed=seed)


def mean_softmax(logits):
    """The mean softmax of n x K `logits` arrays, class-major, in float64."""
    return np.mean([softmax(lg.T) for lg in logits], axis=0)


def float32_logits(head, x, p=0.0, seed=None):
    """Logits of the plain float32 reference pass of `head` over `x`, with
    dropout at rate p whose masks come from default_rng(seed), or none."""
    rngs = None if seed is None else [np.random.default_rng(seed)] * len(head.layers)
    return dropout_forward(head, x, p, rngs, np.float32)[0]


def test_deep_ensemble_mean_of_members():
    heads = [make_head(i) for i in range(3)]
    x = np.random.default_rng(1).standard_normal((8, 5))
    scores, logits = score_scene(["de:n=3"], MethodBundle(head=heads[0], ensemble_heads=heads), x)
    mean = mean_softmax(float32_logits(h, x) for h in heads)
    assert logits["de:n=3"].shape == (8, 3)
    assert np.allclose(logits["de:n=3"], np.log(mean).T)
    assert np.allclose(scores["de:n=3"], softmax_entropy(mean))


def test_deep_ensemble_member_count_mismatch():
    heads = [make_head(i) for i in range(3)]
    x = np.random.default_rng(1).standard_normal((8, 5))
    # de:n reads the first n member heads and needs at least n
    _, logits = score_scene(["de:n=2"], MethodBundle(head=heads[0], ensemble_heads=heads), x)
    assert np.allclose(logits["de:n=2"],
                       np.log(mean_softmax(float32_logits(h, x) for h in heads[:2])).T)
    with pytest.raises(ValueError):
        check_methods(["de:n=3"], MethodBundle(head=heads[0], ensemble_heads=heads[:1]))


def test_mc_dropout_deterministic_and_varied():
    bundle = MethodBundle(head=make_head(0))
    x = np.random.default_rng(2).standard_normal((10, 5))
    method = "mcd:n=4:p=0.2"
    scores_a, logits_a = score_scene([method], bundle, x, base_seed=7)
    scores_b, logits_b = score_scene([method], bundle, x, base_seed=7)
    assert np.array_equal(scores_a[method], scores_b[method])
    assert np.array_equal(logits_a[method], logits_b[method])
    # pass i is seeded base_seed + i, so the passes differ from one another
    passes = [float32_logits(bundle.head, x, 0.2, 7 + i) for i in range(4)]
    assert not np.array_equal(passes[0], passes[1])
    assert np.allclose(logits_a[method], np.log(mean_softmax(passes)).T)


def test_mc_dropout_p_zero_members_identical():
    bundle = MethodBundle(head=make_head(0))
    x = np.random.default_rng(3).standard_normal((6, 5))
    scores, _ = score_scene(["mcd:n=3:p=0"], bundle, x)
    # every pass is the plain float32 pass, so the mean is its softmax
    plain = softmax(float32_logits(bundle.head, x).T)
    assert np.allclose(scores["mcd:n=3:p=0"], softmax_entropy(plain), rtol=0, atol=1e-12)


def test_ensemble_spec_validation():
    bundle = MethodBundle(head=make_head(0), ensemble_heads=[make_head(1), make_head(2)])
    for spec in ("bagging:n=3", "de:n=1", "mcd:n=3:p=1.0"):
        with pytest.raises(ValueError):
            parse_method(spec)
        with pytest.raises(ValueError):
            score_scene([spec], bundle, np.zeros((2, 5)))
