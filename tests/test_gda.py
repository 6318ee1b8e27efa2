import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from voxuq import gda as gda_module
from voxuq.gda import (DEFAULT_EPS_LADDER, LOG_DENSITY_CHUNK, FeatureBank, FitError,
                       GdaModel, _inverse_lower, collect_features, epistemic_score, fit_gda,
                       gmm_param_count)
from voxuq.head import FORWARD_BLOCK, HeadConfig, ResidualMlpHead, feature_blocks


def make_bank(rng, k, d, n_per_class, spread=3.0):
    bank = FeatureBank(num_classes=k, cap_per_class=10 * n_per_class)
    centers = rng.standard_normal((k, d)) * spread
    for c in range(k):
        pts = centers[c] + rng.standard_normal((n_per_class, d))
        bank.vectors[c] = [p for p in pts]
        bank.seen_counts[c] = n_per_class
    return bank


def dense_oracle_log_density(model, z):
    """Independent mixture log-density via explicit inverse covariances."""
    z = np.atleast_2d(z)
    comps = []
    for c in range(model.num_classes):
        cov = model.chols[c] @ model.chols[c].T
        inv = np.linalg.inv(cov)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        diff = z - model.means[c]
        quad = np.einsum("ij,jk,ik->i", diff, inv, diff)
        comps.append(model.log_priors[c]
                     - 0.5 * (model.dim * np.log(2 * np.pi) + logdet + quad))
    comps = np.stack(comps, axis=1)
    m = comps.max(axis=1)
    return m + np.log(np.exp(comps - m[:, None]).sum(axis=1))


def test_fit_means_and_covariances_match_numpy():
    rng = np.random.default_rng(0)
    bank = make_bank(rng, 3, 4, 50)
    model = fit_gda(bank)
    for c in range(3):
        a = bank.class_array(c)
        assert np.allclose(model.means[c], a.mean(axis=0), atol=1e-12)
        cov = model.chols[c] @ model.chols[c].T
        expected = np.cov(a, rowvar=False, ddof=1) + model.eps_used * np.eye(4)
        assert np.allclose(cov, expected, atol=1e-10)


def test_log_density_matches_dense_oracle():
    rng = np.random.default_rng(1)
    bank = make_bank(rng, 4, 5, 60)
    model = fit_gda(bank)
    z = rng.standard_normal((40, 5)) * 4
    got = model.log_density(z)
    want = dense_oracle_log_density(model, z)
    assert np.allclose(got, want, atol=1e-10)


def test_log_density_over_several_chunks_matches_dense_oracle():
    rng = np.random.default_rng(14)
    model = fit_gda(make_bank(rng, 4, 5, 60))
    z = rng.standard_normal((3 * LOG_DENSITY_CHUNK + 17, 5)) * 4
    got = model.log_density(z)
    assert got.shape == (z.shape[0],)
    assert np.allclose(got, dense_oracle_log_density(model, z), rtol=0, atol=1e-10)


def test_log_density_row_ignores_the_rest_of_its_chunk():
    rng = np.random.default_rng(15)
    model = fit_gda(make_bank(rng, 3, 4, 50))
    z = rng.standard_normal((LOG_DENSITY_CHUNK + 9, 4))
    other = rng.standard_normal(z.shape) * 5
    for row in (0, 7, LOG_DENSITY_CHUNK - 1, LOG_DENSITY_CHUNK + 8):
        changed = other.copy()
        changed[row] = z[row]
        assert model.log_density(changed)[row] == model.log_density(z)[row]


def test_log_density_temporaries_do_not_grow_with_rows():
    rng = np.random.default_rng(17)
    model = fit_gda(make_bank(rng, 3, 4, 50))
    z = rng.standard_normal((20 * LOG_DENSITY_CHUNK, 4))
    chunk_bytes = LOG_DENSITY_CHUNK * model.num_classes * model.dim * 8
    tracemalloc.start()
    try:
        out = model.log_density(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result plus a few chunk-sized arrays; a log-sum-exp over all rows
    # at once needs three n x K arrays, five times this margin
    assert peak <= out.nbytes + 3 * chunk_bytes


@pytest.fixture(scope="module")
def wide_model():
    """The paper's shape: 17 classes of 32-dimensional features."""
    return fit_gda(make_bank(np.random.default_rng(18), 17, 32, 100))


def three_step_log_density(model, z):
    """The kernel before the shift joined the GEMM, as an oracle: per chunk,
    y = z W, then y -= shift in place, then a row-major log-sum-exp."""
    inv = [solve_triangular(chol, np.eye(model.dim), lower=True) for chol in model.chols]
    w = np.concatenate([i.T for i in inv], axis=1)
    shift = np.concatenate([mu @ i.T for mu, i in zip(model.means, inv)])
    offset = model.log_priors - 0.5 * (model.dim * np.log(2.0 * np.pi) + model.log_dets)
    out = np.empty(z.shape[0])
    for lo in range(0, z.shape[0], LOG_DENSITY_CHUNK):
        y = z[lo:lo + LOG_DENSITY_CHUNK] @ w
        y -= shift
        y = y.reshape(-1, model.num_classes, model.dim)
        comp = offset - 0.5 * np.einsum("ikj,ikj->ik", y, y)
        m = comp.max(axis=1)
        out[lo:lo + LOG_DENSITY_CHUNK] = m + np.log(np.exp(comp - m[:, None]).sum(axis=1))
    return out


@pytest.mark.parametrize("rows", [1, 2, LOG_DENSITY_CHUNK - 1, LOG_DENSITY_CHUNK,
                                  LOG_DENSITY_CHUNK + 1, 2 * LOG_DENSITY_CHUNK + 17])
def test_wide_log_density_matches_dense_oracle_at_chunk_bounds(wide_model, rows):
    z = np.random.default_rng(rows).standard_normal((rows, 32)) * 2
    got = wide_model.log_density(z)
    assert got.shape == (rows,)
    assert np.allclose(got, dense_oracle_log_density(wide_model, z), rtol=0, atol=1e-10)


@pytest.mark.parametrize("rows", [2304, 65536])
def test_wide_log_density_matches_three_step_kernel(wide_model, rows):
    z = np.random.default_rng(rows).standard_normal((rows, 32)) * 2
    np.testing.assert_allclose(wide_model.log_density(z),
                               three_step_log_density(wide_model, z), rtol=1e-12, atol=0)


def test_wide_log_density_allocates_one_chunk(wide_model):
    z = np.random.default_rng(19).standard_normal((4 * LOG_DENSITY_CHUNK + 5, 32))
    chunk_bytes = LOG_DENSITY_CHUNK * wide_model.num_classes * wide_model.dim * 8
    tracemalloc.start()
    try:
        out = wide_model.log_density(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk-sized GEMM output plus the (rows, d + 1) input and the
    # K x rows log-sum-exp buffer; a second chunk-sized temporary breaks it
    assert peak <= out.nbytes + 1.5 * chunk_bytes


def scored_in_pairs(model, z):
    """Oracle: every row's log-density inside a two-row batch, which BLAS
    scores through GEMM; the last row of an odd batch with its predecessor."""
    pairs = [model.log_density(z[i:i + 2]) for i in range(0, len(z) - 1, 2)]
    if len(z) % 2:
        pairs.append(model.log_density(z[-2:])[1:])
    return np.concatenate(pairs)


@pytest.mark.parametrize("rows", [LOG_DENSITY_CHUNK + 1, 2 * LOG_DENSITY_CHUNK + 2])
def test_log_density_scores_no_row_alone(wide_model, rows):
    """Rows are cut into near-equal chunks, none a single row that BLAS would
    score through gemv, so every row equals its value inside a two-row batch,
    bit for bit. Fixed chunks of LOG_DENSITY_CHUNK rows left the last of
    2,049 rows alone, and at some of these seeds its value then differed."""
    for seed in range(8):
        z = np.random.default_rng([rows, seed]).standard_normal((rows, 32)) * 2
        assert wide_model.log_density(z).tobytes() == scored_in_pairs(wide_model, z).tobytes()


@pytest.mark.parametrize("rows", [LOG_DENSITY_CHUNK + 1, 2 * LOG_DENSITY_CHUNK + 2])
def test_log_density_from_fortran_order_factors_scores_no_row_alone(wide_model, rows):
    """The whitening matrix is C-ordered whatever the factors' layout. A
    Fortran-ordered one sends the GEMM down a transposed BLAS path, where
    a row's bits depend on the batch's row count."""
    m = wide_model
    model = GdaModel(m.means, np.asfortranarray(m.chols), m.log_dets, m.log_priors,
                     m.eps_used, m.counts)
    assert model._w_shift.flags.c_contiguous
    for seed in range(8):
        z = np.random.default_rng([rows, seed]).standard_normal((rows, 32)) * 2
        assert model.log_density(z).tobytes() == scored_in_pairs(model, z).tobytes()


@pytest.mark.parametrize("d", range(2, 65))
def test_inverse_lower_matches_solve_triangular(d):
    """Relative to the largest entry, since an entry that cancels to near 0
    carries the error of its row; above the diagonal the zeros are exact."""
    rng = np.random.default_rng(d)
    bank = make_bank(rng, 3, d, 2 * d)
    chols = fit_gda(bank).chols
    inv = _inverse_lower(chols)
    for c in range(3):
        ref = solve_triangular(chols[c], np.eye(d), lower=True)
        assert np.abs(inv[c] - ref).max() <= 1e-13 * np.abs(ref).max()
        assert not np.triu(inv[c], 1).any()


def test_log_density_of_empty_batch():
    rng = np.random.default_rng(16)
    model = fit_gda(make_bank(rng, 2, 3, 30))
    assert model.log_density(np.zeros((0, 3))).shape == (0,)


def test_log_density_scalar_and_batch_agree():
    rng = np.random.default_rng(2)
    bank = make_bank(rng, 2, 3, 30)
    model = fit_gda(bank)
    z = rng.standard_normal(3)
    assert model.log_density(z) == model.log_density(z[None, :])[0]


def test_log_density_dim_mismatch():
    rng = np.random.default_rng(3)
    model = fit_gda(make_bank(rng, 2, 3, 30))
    with pytest.raises(ValueError):
        model.log_density(np.zeros(4))


def test_single_class_score_monotone_in_mahalanobis_distance():
    rng = np.random.default_rng(4)
    bank = make_bank(rng, 1, 4, 200)
    model = fit_gda(bank)
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    radii = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    scores = [epistemic_score(model, (model.means[0] + r * direction)[None, :])[0]
              for r in radii]
    assert all(s1 < s2 for s1, s2 in zip(scores, scores[1:]))


def test_epistemic_score_is_negated_density():
    rng = np.random.default_rng(5)
    model = fit_gda(make_bank(rng, 2, 3, 40))
    z = rng.standard_normal((10, 3))
    assert np.allclose(epistemic_score(model, z), -model.log_density(z))


def test_missing_class_raises():
    rng = np.random.default_rng(6)
    bank = make_bank(rng, 3, 4, 20)
    bank.vectors[1] = []
    with pytest.raises(FitError):
        fit_gda(bank)


def test_singleton_class_gets_jitter_covariance():
    rng = np.random.default_rng(7)
    bank = make_bank(rng, 3, 4, 30)
    bank.vectors[2] = [rng.standard_normal(4)]
    bank.seen_counts[2] = 1
    model = fit_gda(bank)
    cov = model.chols[2] @ model.chols[2].T
    assert np.allclose(cov, model.eps_used * np.eye(4), atol=1e-12)
    assert np.isfinite(model.log_density(rng.standard_normal(4)))


def test_jitter_ladder_takes_first_working_epsilon():
    rng = np.random.default_rng(8)
    bank = make_bank(rng, 2, 3, 50)
    model = fit_gda(bank)
    diag_means = [np.trace(np.cov(bank.class_array(c), rowvar=False, ddof=1)) / 3
                  for c in range(2)]
    scale = float(np.mean(diag_means))
    assert model.eps_used == pytest.approx(DEFAULT_EPS_LADDER[0] * scale)


def test_priors_from_counts():
    rng = np.random.default_rng(9)
    bank = make_bank(rng, 2, 3, 30)
    bank.vectors[1] = bank.vectors[1][:10]
    bank.seen_counts[1] = 10
    model = fit_gda(bank)
    assert np.allclose(np.exp(model.log_priors), [30 / 40, 10 / 40])


# -- reservoir collection ---------------------------------------------------

def make_head(d=6, k=3):
    return ResidualMlpHead(HeadConfig(input_dim=d, hidden_width=d, num_layers=2,
                                      num_classes=k), seed=0)


def scene_stream(rng, n_scenes, n_voxels, d, k):
    for _ in range(n_scenes):
        yield (rng.standard_normal((n_voxels, d)),
               rng.integers(0, k, size=n_voxels))


def test_collect_keeps_everything_under_cap():
    rng = np.random.default_rng(10)
    head = make_head()
    scenes = list(scene_stream(rng, 3, 40, 6, 3))
    bank = collect_features(head, scenes, cap_per_class=1000, seed=0)
    for c in range(3):
        expected = sum(int((labels == c).sum()) for _, labels in scenes)
        assert len(bank.vectors[c]) == expected
        assert bank.seen_counts[c] == expected


def test_collect_respects_cap_and_counts_seen():
    rng = np.random.default_rng(11)
    head = make_head()
    scenes = list(scene_stream(rng, 4, 60, 6, 3))
    bank = collect_features(head, scenes, cap_per_class=15, seed=0)
    for c in range(3):
        expected_seen = sum(int((labels == c).sum()) for _, labels in scenes)
        assert len(bank.vectors[c]) == 15
        assert bank.seen_counts[c] == expected_seen


def test_collect_stores_penultimate_not_input():
    rng = np.random.default_rng(12)
    head = make_head()
    feats = rng.standard_normal((20, 6))
    labels = np.zeros(20, dtype=int)
    bank = collect_features(head, [(feats, labels)], cap_per_class=100, seed=0)
    pen = head.forward(feats).penultimate_features
    assert np.allclose(bank.class_array(0), pen)


def test_collect_deterministic():
    rng = np.random.default_rng(13)
    head = make_head()
    scenes = list(scene_stream(rng, 4, 60, 6, 3))
    a = collect_features(head, scenes, cap_per_class=20, seed=5)
    b = collect_features(head, scenes, cap_per_class=20, seed=5)
    for c in range(3):
        assert np.array_equal(a.class_array(c), b.class_array(c))



def per_row_reservoir(head, scenes, cap_per_class, seed):
    """Oracle: Algorithm R one row at a time, every kept row its own copy;
    returns (class arrays, seen counts)."""
    rng = np.random.default_rng(seed)
    k = head.config.num_classes
    kept = {c: [] for c in range(k)}
    seen = dict.fromkeys(range(k), 0)
    for features, labels in scenes:
        feats = head.forward(features).penultimate_features
        for c in np.unique(labels):
            res = kept[int(c)]
            for row in feats[labels == c]:
                if len(res) < cap_per_class:
                    res.append(row.copy())
                else:
                    j = int(rng.integers(0, seen[int(c)] + 1))
                    if j < cap_per_class:
                        res[j] = row.copy()
                seen[int(c)] += 1
    return {c: np.array(kept[c]).reshape(-1, head.config.hidden_width) for c in kept}, seen


@pytest.mark.parametrize("cap", [1, 7, 40, 61, 1000])
def test_collect_matches_per_row_reservoir_oracle(cap):
    """Bit for bit, with classes that fill within a scene, at a scene
    boundary, over several scenes and never, and one class never seen. The
    last scene is three row blocks, scored by feature_blocks; the oracle scores
    it in one forward."""
    rng = np.random.default_rng(20)
    head = make_head(k=4)
    scenes = [(rng.standard_normal((n, 6)), rng.integers(0, 3, size=n))
              for n in (30, 45, 3, 60, 25, 2 * FORWARD_BLOCK + 1)]
    assert len(list(feature_blocks(scenes[-1][0]))) == 3
    bank = collect_features(head, scenes, cap_per_class=cap, seed=9)
    kept, seen = per_row_reservoir(head, scenes, cap, seed=9)
    assert bank.seen_counts == seen
    for c in range(4):
        assert np.array_equal(bank.class_array(c), kept[c])
    assert bank.missing_classes == [3]


def test_collect_keeps_no_per_row_arrays():
    """The bank holds one array per class and little else; a reservoir of
    per-row copies costs an object header and a list slot per row."""
    rng = np.random.default_rng(21)
    head = make_head()
    scenes = list(scene_stream(rng, 4, 3000, 6, 3))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        bank = collect_features(head, scenes, cap_per_class=2000, seed=0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = [bank.vectors[c] for c in range(3)]
    assert all(isinstance(r, np.ndarray) and r.shape == (2000, 6) for r in rows)
    assert retained <= sum(r.nbytes for r in rows) + 16384

# -- parameter accounting ---------------------------------------------------

def test_gmm_param_count_formula():
    assert gmm_param_count(2, 3) == 3 * (2 + 4)
    assert gmm_param_count(32, 17) == 17952
    assert gmm_param_count(128, 17) == 280704


def test_gmm_param_count_validation():
    with pytest.raises(ValueError):
        gmm_param_count(0, 3)
    with pytest.raises(ValueError):
        gmm_param_count(4, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 256), st.integers(1, 64))
def test_gmm_param_count_property(d, k):
    # counting oracle: enumerate mean entries plus full covariance entries
    per_class = d + d * d
    assert gmm_param_count(d, k) == sum(per_class for _ in range(k))


def test_exp_skip_below_minus_750_keeps_the_bits_of_exp(monkeypatch):
    """On a grid over [-800, 0] that runs through exp's subnormal results
    (-745.13 to -708.4), -inf and -0.0, _exp_in_place gives np.exp's bits;
    so does log_density over a two-class model whose log-sum-exp arguments
    run over that grid."""
    c = np.concatenate([np.linspace(-800.0, 0.0, 160001),
                        np.linspace(-746.0, -708.0, 38001),
                        [-750.0, np.nextafter(-750.0, 0.0), np.nextafter(-750.0, -np.inf),
                         -745.1332191019412, -np.inf, -0.0]])
    got = c.copy()
    gda_module._exp_in_place(got)
    assert got.tobytes() == np.exp(c).tobytes()
    assert np.count_nonzero((got > 0) & (got < np.finfo(float).tiny)) > 1000  # subnormals
    model = GdaModel(means=np.array([[0.0], [40.0]]), chols=np.ones((2, 1, 1)),
                     log_dets=np.zeros(2), log_priors=np.log([0.5, 0.5]), eps_used=0.0,
                     counts=np.ones(2, dtype=np.int64))
    z = np.linspace(0.0, 20.0, 40001)[:, None]  # second class's argument: 40 z - 800
    skipped = model.log_density(z)
    monkeypatch.setattr(gda_module, "_exp_in_place", lambda c: np.exp(c, out=c))
    assert skipped.tobytes() == model.log_density(z).tobytes()
