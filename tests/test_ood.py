import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from voxuq import head as head_module
from voxuq import ood, pipeline, synthworld
from voxuq.calibration import (LAMBDA_GRID, CalibrationParams, LogitGaps, fit_temperature,
                               tune_lambda)
from voxuq.gda import GdaModel, epistemic_score
from voxuq.head import HeadConfig, ResidualMlpHead
from voxuq.metrics import max_softmax_score, softmax_entropy
from voxuq.nn_core import ShapeError, softmax
from voxuq.ood import (MethodBundle, MethodError, ScoredPopulation, aggregate_region,
                       aggregate_scene, auroc, check_methods, fpr_at_95_tpr,
                       histogram_table, parse_method, run_sweep, score_scene)
from voxuq.pipeline import (build_bundle, calibrate_method, evaluate_calibration,
                            head_config_for_world)

from test_head import dropout_forward
from test_nn_core import row_major_softmax


def all_pairs_auroc(id_scores, ood_scores):
    """O(n^2) oracle: P(ood > id) + 0.5 P(ood == id)."""
    wins = 0.0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def rankdata_auroc(id_scores, ood_scores):
    """Oracle: the Mann-Whitney AUROC from scipy's average (mid) ranks."""
    ranks = rankdata(np.concatenate([id_scores, ood_scores]), method="average")
    n_id, n_ood = len(id_scores), len(ood_scores)
    return float((ranks[n_id:].sum() - n_ood * (n_ood + 1) / 2.0) / (n_id * n_ood))


def exhaustive_fpr95(id_scores, ood_scores, tpr_target=0.95):
    """Enumerate every observed OoD score as threshold; keep the largest with
    TPR >= target, then measure ID false positives at that threshold."""
    ood = np.asarray(ood_scores)
    id_ = np.asarray(id_scores)
    feasible = [tau for tau in np.unique(ood)
                if np.mean(ood >= tau) >= tpr_target]
    tau = max(feasible) if feasible else ood.min()
    return float(np.mean(id_ >= tau))


def test_auroc_matches_all_pairs_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_id = int(rng.integers(3, 200))
        n_ood = int(rng.integers(3, 200))
        # quantized scores force plenty of exact ties
        id_s = np.round(rng.standard_normal(n_id), 1)
        ood_s = np.round(rng.standard_normal(n_ood) + 0.5, 1)
        got = auroc(ScoredPopulation(id_s, ood_s))
        want = all_pairs_auroc(id_s, ood_s)
        assert abs(got - want) < 1e-12


def test_auroc_perfect_and_inverted():
    pop = ScoredPopulation([0.0, 1.0], [2.0, 3.0])
    assert auroc(pop) == 1.0
    pop = ScoredPopulation([2.0, 3.0], [0.0, 1.0])
    assert auroc(pop) == 0.0


def test_auroc_identical_populations_half():
    s = np.arange(10.0)
    assert auroc(ScoredPopulation(s, s.copy())) == 0.5


def test_auroc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    id_s = rng.standard_normal(50)
    ood_s = rng.standard_normal(60) + 1
    base = auroc(ScoredPopulation(id_s, ood_s))
    for f in (np.exp, np.tanh, lambda x: 3 * x + 7):
        assert auroc(ScoredPopulation(f(id_s), f(ood_s))) == pytest.approx(base, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=40),
       st.lists(st.integers(-5, 5), min_size=2, max_size=40))
def test_auroc_property_all_pairs(id_raw, ood_raw):
    id_s = np.array(id_raw, dtype=float)
    ood_s = np.array(ood_raw, dtype=float)
    got = auroc(ScoredPopulation(id_s, ood_s))
    assert abs(got - all_pairs_auroc(id_s, ood_s)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
       st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_auroc_equals_rankdata_oracle_bit_for_bit(id_raw, ood_raw):
    # four distinct values, so most scores share a tie group
    id_s = np.array(id_raw, dtype=float) / 4.0
    ood_s = np.array(ood_raw, dtype=float) / 4.0
    assert auroc(ScoredPopulation(id_s, ood_s)) == rankdata_auroc(id_s, ood_s)


@pytest.mark.parametrize("id_s, ood_s, want", [
    ([2.5] * 7, [2.5] * 3, 0.5),               # all equal
    ([-1.0], [-1.0], 0.5),
    ([0.0], [1.0], 1.0),                       # single elements
    ([1.0], [0.0], 0.0),
    ([3.0], [1.0, 3.0, 3.0, 5.0], 0.5),
    ([1.0, 2.0, 2.0, 9.0], [2.0], 0.5),
    (list(range(5)), list(range(5, 12)), 1.0),   # fully separated
    (list(range(5, 12)), list(range(5)), 0.0),
    ([0.0] * 4, [1.0] * 6, 1.0),
])
def test_auroc_edge_populations_equal_rankdata_oracle(id_s, ood_s, want):
    got = auroc(ScoredPopulation(id_s, ood_s))
    assert got == rankdata_auroc(id_s, ood_s) == want


def test_fpr95_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n_id = int(rng.integers(5, 120))
        n_ood = int(rng.integers(5, 120))
        id_s = np.round(rng.standard_normal(n_id), 1)
        ood_s = np.round(rng.standard_normal(n_ood) + 0.3, 1)
        pop = ScoredPopulation(id_s, ood_s)
        assert fpr_at_95_tpr(pop) == exhaustive_fpr95(id_s, ood_s)


def scan_fpr95(id_scores, ood_scores):
    """The original O(n^2) descending scan: the first sorted OoD score whose
    count of OoD scores >= it reaches 95%."""
    ood = np.sort(ood_scores)[::-1]
    need = 0.95 * ood.size
    tau = None
    for candidate in ood:
        if np.sum(ood_scores >= candidate) >= need:
            tau = candidate
            break
    if tau is None:
        tau = ood[-1]
    return float(np.mean(id_scores >= tau))


# a small integer range forces ties inside and across the populations
SCORE_LISTS = st.one_of(
    st.lists(st.integers(-6, 6).map(lambda v: v * 0.1), min_size=1, max_size=60),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))


@settings(max_examples=400, deadline=None)
@given(SCORE_LISTS, SCORE_LISTS)
def test_fpr95_equals_the_scan_bit_for_bit(id_raw, ood_raw):
    id_s, ood_s = np.array(id_raw), np.array(ood_raw)
    got = fpr_at_95_tpr(ScoredPopulation(id_s, ood_s))
    assert np.float64(got).tobytes() == np.float64(scan_fpr95(id_s, ood_s)).tobytes()


def test_fpr95_separated_populations():
    pop = ScoredPopulation(np.zeros(20), np.ones(20))
    assert fpr_at_95_tpr(pop) == 0.0
    pop = ScoredPopulation(np.ones(20), np.zeros(20))
    assert fpr_at_95_tpr(pop) == 1.0


def test_scored_population_validation():
    with pytest.raises(ValueError):
        ScoredPopulation([], [1.0])
    with pytest.raises(ValueError):
        ScoredPopulation([np.nan], [1.0])
    with pytest.raises(ValueError):
        ScoredPopulation([1.0], [np.inf])


# -- aggregation ------------------------------------------------------------

def test_aggregate_scene_mean():
    assert aggregate_scene([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        aggregate_scene([])


def test_aggregate_region_masked_mean():
    scores = np.array([1.0, 10.0, 100.0, 1000.0])
    mask = np.array([True, False, True, False])
    assert aggregate_region(scores, mask) == pytest.approx(50.5)
    with pytest.raises(ValueError):
        aggregate_region(scores, np.zeros(4, dtype=bool))


# -- histograms -------------------------------------------------------------

def test_histogram_counts_sum_to_population_sizes():
    rng = np.random.default_rng(3)
    pop = ScoredPopulation(rng.standard_normal(200), rng.standard_normal(300) + 2)
    edges, idc, oodc = histogram_table(pop)
    assert len(edges) == 51
    assert idc.sum() == 200
    assert oodc.sum() == 300


def test_histogram_degenerate_scores():
    pop = ScoredPopulation(np.zeros(5), np.zeros(7))
    edges, idc, oodc = histogram_table(pop)
    assert idc.sum() == 5 and oodc.sum() == 7
    assert np.all(np.isfinite(edges))


# -- method registry --------------------------------------------------------

def test_parse_method_grammar():
    assert parse_method("ours") == ("ours", {})
    assert parse_method("mcd:n=5:p=0.1") == ("mcd", {"n": 5, "p": 0.1})
    assert parse_method("de:n=3") == ("de", {"n": 3})
    # omitted parameters take the method's defaults
    assert parse_method("mcd") == ("mcd", {"n": 5, "p": 0.1})
    assert parse_method("mcd:p=0") == ("mcd", {"n": 5, "p": 0.0})
    assert parse_method("mcd:n=2") == ("mcd", {"n": 2, "p": 0.1})
    assert parse_method("de") == ("de", {"n": 3})
    assert type(parse_method("de:n=4")[1]["n"]) is int
    assert type(parse_method("mcd:p=0")[1]["p"]) is float


def test_parse_method_rejects_unknown_and_malformed():
    for spec in ("gradnorm", "bagging", "mcd:n", "mcd:", "de:n=1", "mcd:n=1", "mcd:n=0",
                 "mcd:n=abc", "mcd:n=2.5", "de:n=x", "mcd:p=1.0", "mcd:p=1.5",
                 "mcd:p=-0.1", "mcd:p=nan", "mcd:p=inf", "mcd:p=x", "mcd:foo=1",
                 "de:p=0.1", "entropy:p=2", "ours:n=3", "mcd:n=2:n=3", "de:n=2:n=2"):
        with pytest.raises(ValueError):
            parse_method(spec)


def test_parse_method_rejections_are_method_errors():
    """Every spec parse_method rejects raises MethodError, which the CLI
    maps to exit 2 with one line."""
    for spec in ("gradnorm", "bagging", "mcd:n", "mcd:", "de:n=1", "mcd:n=1", "mcd:n=0",
                 "mcd:n=abc", "mcd:n=2.5", "de:n=x", "mcd:p=1.0", "mcd:p=1.5",
                 "mcd:p=-0.1", "mcd:p=nan", "mcd:p=inf", "mcd:p=x", "mcd:foo=1",
                 "de:p=0.1", "entropy:p=2", "ours:n=3", "mcd:n=2:n=3", "de:n=2:n=2"):
        with pytest.raises(MethodError):
            parse_method(spec)


def test_ours_requires_density_model():
    head = ResidualMlpHead(HeadConfig(input_dim=4, hidden_width=4, num_layers=2,
                                      num_classes=3), seed=0)
    bundle = MethodBundle(head=head, gda_model=None)
    with pytest.raises(MethodError, match="'ours' requires a density model"):
        check_methods(["max-softmax", "ours"], bundle)
    check_methods(["max-softmax", "mcd:n=2"], bundle)


def test_de_requires_enough_members():
    head = ResidualMlpHead(HeadConfig(input_dim=4, hidden_width=4, num_layers=2,
                                      num_classes=3), seed=0)
    bundle = MethodBundle(head=head, ensemble_heads=[head, head])
    with pytest.raises(MethodError, match="'de:n=3' requires 3 ensemble heads"):
        check_methods(["de:n=3"], bundle)
    check_methods(["de:n=2"], bundle)


def stacked_ensemble_mean(members, features, dropout_p=None, base_seed=0, dtype=np.float32):
    """Reference: the mean softmax, n x K, of the plain reference passes in
    `dtype` (float32, as score_scene runs them), the way
    metrics.ensemble_predict averaged them before score_scene ran the members
    itself. Deep-ensemble members run passes without dropout over at most
    65,536 rows; MC-Dropout pass i of the repeated head runs over all rows
    and draws every layer's masks from default_rng(base_seed + i); the (n,
    rows, K) stack of row-wise softmaxes, in float64, is averaged over its
    first axis."""
    member_probs = []
    for i, head in enumerate(members):
        if dropout_p is None:
            member_probs.append(np.concatenate([
                row_major_softmax(dropout_forward(head, features[lo:lo + 65536], 0.0, None,
                                                  dtype)[0].astype(np.float64))
                for lo in range(0, features.shape[0], 65536)]))
        else:
            rngs = [np.random.default_rng(base_seed + i)] * len(head.layers)
            member_probs.append(row_major_softmax(
                dropout_forward(head, features, dropout_p, rngs, dtype)[0].astype(np.float64)))
    return np.stack(member_probs).mean(axis=0)


@pytest.mark.parametrize("rows", [1, 2304, 4097, 65536])
def test_ensemble_scores_match_the_stacked_mean_bit_for_bit(rows):
    """mcd at p = 0.1 and p = 0 and de keep the float32 reference's bits, in a first
    cell that draws the keep masks into a memo and in a second cell, with
    other features and the same pass seeds, that unpacks every one of them
    from it."""
    config = HeadConfig(input_dim=32, hidden_width=32, num_layers=3, num_classes=17)
    heads = [ResidualMlpHead(config, seed=s) for s in range(4)]
    bundle = MethodBundle(head=heads[0], ensemble_heads=heads[1:])
    methods = ["mcd:n=3:p=0.1", "mcd:n=2:p=0", "de:n=3"]
    x = np.random.default_rng(rows).standard_normal((rows, 32))
    masks = {}
    first = score_scene(methods, bundle, x, base_seed=11, masks=masks)
    drawn = dict(masks)
    assert len(drawn) == 5 * 3 * len(list(head_module.feature_blocks(x)))
    y = np.random.default_rng([rows, 1]).standard_normal((rows, 32)).astype(np.float32)
    second = score_scene(methods, bundle, y, base_seed=11, masks=masks)
    assert masks.keys() == drawn.keys() and all(masks[k] is drawn[k] for k in drawn)
    for features, (scores, logits) in ((x, first), (y, second)):
        for method, mean in (
                ("mcd:n=3:p=0.1", stacked_ensemble_mean([heads[0]] * 3, features, 0.1,
                                                        base_seed=11)),
                ("mcd:n=2:p=0", stacked_ensemble_mean([heads[0]] * 2, features, 0.0,
                                                      base_seed=11)),
                ("de:n=3", stacked_ensemble_mean(heads[1:], features))):
            assert np.array_equal(scores[method], softmax_entropy(mean.T)), method
            assert np.array_equal(logits[method], np.log(np.maximum(mean, 1e-12))), method


@pytest.mark.parametrize("hidden_width", [8, 32])
def test_float32_passes_keep_a_rows_bits_in_any_block_cut(monkeypatch, hidden_width):
    """mcd and de score rows 0-2,999 with the same bits whether the scene is
    cut into blocks of 3,000 (6,000 rows), 1,000, 17 or 2 rows, or read in
    one block; and de scores them the same in a 4,096-row scene of the same
    first rows. The float32 weights are C order, their output columns padded
    to a multiple of 16, so that the 17 classes and a hidden width of 8 are
    multiplied as batch-independently as a width of 32."""
    bundle = random_bundle(32, hidden_width, num_classes=17)
    methods = ["mcd:n=2:p=0.2", "de:n=2"]
    x = np.random.default_rng(11).standard_normal((6000, 32)).astype(np.float32)
    want = score_scene(methods, bundle, x, base_seed=3)
    for block in (6000, 1000, 17, 2):
        monkeypatch.setattr(head_module, "FORWARD_BLOCK", block)
        got = score_scene(methods, bundle, x, base_seed=3)
        for m in methods:
            for a, b in zip(got, want):
                assert a[m][:3000].tobytes() == b[m][:3000].tobytes(), (block, m)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 4096)
    scores, logits = score_scene(["de:n=2"], bundle, x[:4096])
    assert scores["de:n=2"][:3000].tobytes() == want[0]["de:n=2"][:3000].tobytes()
    assert logits["de:n=2"][:3000].tobytes() == want[1]["de:n=2"][:3000].tobytes()


# the float32 MC-Dropout and deep-ensemble passes against float64 ones: the
# largest relative move of a scene-mean entropy, the largest absolute move of
# a voxel's entropy and of a calibration logit log(max(p, 1e-12)). The moves
# seen on the world below were 9e-8, 1.5e-6 and 1.0e-5.
DRIFT_BOUNDS = {"scene_entropy_rel": 1e-6, "voxel_entropy_abs": 1e-5, "logit_abs": 1e-4}


def test_float32_passes_stay_within_the_stated_drift_of_float64_passes():
    """On a small generated world, a head and two members trained for 2
    epochs score clean and corrupted test scenes with mcd and de within
    DRIFT_BOUNDS of the stacked-mean oracle of float64 passes."""
    config = synthworld.WorldConfig(grid=(16, 16, 4), train_scenes=6, test_scenes=3, seed=3)
    world = synthworld.generate_world(config)
    train, test = (synthworld.generate_dataset(world, split) for split in ("train", "test"))
    heads = [pipeline.train_on_dataset(head_config_for_world(config), train, seed=s, epochs=2,
                                       log_accuracy=False)[0] for s in range(3)]
    bundle = MethodBundle(head=heads[0], ensemble_heads=heads[1:])
    methods = ["mcd:n=3:p=0.1", "de:n=2"]
    moves = dict.fromkeys(DRIFT_BOUNDS, 0.0)
    for _, _, scenes in synthworld.grid_splits(test, world, ("noise", "fog"), (3,)):
        for i, (features, _) in enumerate(scenes):
            scores, logits = score_scene(methods, bundle, features, base_seed=SWEEP_SEED + i)
            x = features.join() if hasattr(features, "join") else features
            for m, mean in (
                    (methods[0], stacked_ensemble_mean([heads[0]] * 3, x, 0.1, SWEEP_SEED + i,
                                                       dtype=np.float64)),
                    (methods[1], stacked_ensemble_mean(heads[1:], x, dtype=np.float64))):
                entropy = softmax_entropy(mean.T)
                scene, want = aggregate_scene(scores[m]), aggregate_scene(entropy)
                for key, move in (
                        ("scene_entropy_rel", abs(scene - want) / want),
                        ("voxel_entropy_abs", np.abs(scores[m] - entropy).max()),
                        ("logit_abs", np.abs(logits[m] - np.log(np.maximum(mean, 1e-12))).max())):
                    moves[key] = max(moves[key], move)
    assert all(0.0 < moves[key] <= bound for key, bound in DRIFT_BOUNDS.items()), moves


# -- fused sweep ------------------------------------------------------------

SWEEP_SEED = 3


def walk_with(monkeypatch, workers):
    """Run every walk on `workers` threads, whatever the BLAS thread count."""
    monkeypatch.setattr(ood, "walk_workers", lambda: workers)


def same_report(a, b):
    """Whether two sweep reports hold the same cells, means and histograms."""
    return (a.methods == b.methods and a.aggregates == b.aggregates
            and a.region_methods == b.region_methods
            and a.region_aggregates == b.region_aggregates
            and len(a.histograms) == len(b.histograms)
            and all(x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
                    for x, y in zip(a.histograms, b.histograms)))


@pytest.fixture(scope="module")
def tiny():
    config = synthworld.WorldConfig(grid=(8, 8, 2), num_classes=5, feature_dim=8,
                                    objects_min=3, objects_max=3, train_scenes=8,
                                    val_scenes=2, test_scenes=6, seed=7)
    world = synthworld.generate_world(config)
    train = synthworld.generate_dataset(world, "train")
    test = synthworld.generate_dataset(world, "test")
    bundle = build_bundle(head_config_for_world(config), train, seed=7, epochs=2)
    return world, bundle, train, test


def test_region_cells_equal_explicit_front_sector_corruption(tiny):
    """Region cells come from the full-scene cell's scores; scoring a
    front-sector corruption of its own must give the same in-sector bits."""
    world, bundle, _, test = tiny
    methods = ["ours", "max-softmax", "mcd:n=2"]
    report = run_sweep(methods, bundle, world, test, seed=SWEEP_SEED)
    mask = synthworld.front_sector_mask(world.config).reshape(-1)
    sigma_z = synthworld.feature_std(test)
    d = world.config.feature_dim

    def scores(method, scene, i):
        features = scene.features.reshape(-1, d)
        return score_scene([method], bundle, features, base_seed=SWEEP_SEED + i)[0][method]

    def corrupt(kind, severity, region):
        spec = synthworld.CorruptionSpec(kind=kind, severity=severity, region=region)
        return [synthworld.apply_corruption(
                    s, spec, synthworld.corruption_seed(world.config.seed, kind, severity, i),
                    world, sigma_z=sigma_z)
                for i, s in enumerate(test.scenes)]

    for method in methods:
        clean = np.array([aggregate_region(scores(method, s, i), mask)
                          for i, s in enumerate(test.scenes)])
        cells = iter(report.region_methods[method])
        for kind in synthworld.CORRUPTION_KINDS:
            for severity in (1, 2, 3):
                front = corrupt(kind, severity, "front_sector")
                full = corrupt(kind, severity, "full_scene")
                ood = []
                for i, (f, g) in enumerate(zip(front, full)):
                    sf, sg = scores(method, f, i), scores(method, g, i)
                    assert np.array_equal(sf[mask], sg[mask]), (method, kind, severity)
                    ood.append(aggregate_region(sf, mask))
                cell = next(cells)
                assert (cell.corruption, cell.severity) == (kind, severity)
                assert cell.auroc == auroc(ScoredPopulation(clean, np.array(ood)))


def test_method_check_runs_once_before_any_scene(tiny, monkeypatch):
    world, bundle, train, test = tiny
    checks, scored = [], []
    check, score = check_methods, score_scene

    def counting_check(methods, b):
        checks.append(list(methods))
        return check(methods, b)

    def counting_score(*args, **kwargs):
        scored.append(args[0])
        return score(*args, **kwargs)

    for module in (ood, pipeline):
        monkeypatch.setattr(module, "check_methods", counting_check)
    monkeypatch.setattr(ood, "score_scene", counting_score)
    bare = MethodBundle(head=bundle.head)
    with pytest.raises(MethodError):
        run_sweep(["max-softmax", "ours"], bare, world, test, seed=SWEEP_SEED)
    with pytest.raises(MethodError):
        calibrate_method("de:n=2", bare, train, train, seed=SWEEP_SEED)
    with pytest.raises(MethodError):
        evaluate_calibration("ours", bare, world, CalibrationParams(), test, seed=SWEEP_SEED)
    assert scored == []

    checks.clear()
    run_sweep(["ours", "entropy"], bundle, world, test, seed=SWEEP_SEED,
              corruptions=("noise",), severities=(1,))
    assert checks == [["ours", "entropy"]] and len(scored) == 2 * len(test.scenes)


def counting_corruptions(monkeypatch, count):
    """Call count() each time a scene's corrupted rows start to be made."""
    blocks = synthworld.CorruptedRows.blocks

    def counting_blocks(self, max_rows):
        count()
        return blocks(self, max_rows)

    monkeypatch.setattr(synthworld.CorruptedRows, "blocks", counting_blocks)


def joined(features):
    """A scene's features as one array: corrupted rows are joined."""
    return features.join() if hasattr(features, "blocks") else features


def test_sweep_and_calibration_score_each_scene_once(tiny, monkeypatch):
    world, bundle, train, test = tiny
    calls = {"forward": 0, "corruption": 0}
    forward = ResidualMlpHead.forward

    def counting_forward(self, *args, **kwargs):
        calls["forward"] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ResidualMlpHead, "forward", counting_forward)
    counting_corruptions(monkeypatch, lambda: calls.update(corruption=calls["corruption"] + 1))
    run_sweep(["ours", "max-softmax", "entropy"], bundle, world, test, seed=SWEEP_SEED)
    n, cells = len(test.scenes), len(synthworld.CORRUPTION_KINDS) * 3
    assert calls == {"forward": n * (1 + cells), "corruption": n * cells}

    calls.update(forward=0, corruption=0)
    val = synthworld.generate_dataset(world, "val")
    params = calibrate_method("ours", bundle, train, val, seed=SWEEP_SEED)
    evaluate_calibration("ours", bundle, world, params, test, seed=SWEEP_SEED)
    assert calls == {"forward": len(train.scenes) + len(val.scenes) + n * (1 + cells),
                     "corruption": n * cells}


def test_a_walk_draws_each_keep_mask_once(tiny, monkeypatch):
    """run_sweep with mcd:n=2 over k scenes of one row block draws (k + 1) x
    layers keep masks, once for all 16 splits: pass j of scene i is seeded
    seed + i + j in every split. A second run_sweep draws them all again, as
    no memo outlives its walk; evaluate_calibration's walk draws them once."""
    world, bundle, _, test = tiny
    draws = []
    packbits = np.packbits  # each drawn mask is packed once, and nothing else is
    monkeypatch.setattr(np, "packbits",
                        lambda keep: draws.append(keep.tobytes()) or packbits(keep))
    k, layers = len(test.scenes), len(bundle.head.layers)
    run_sweep(["mcd:n=2"], bundle, world, test, seed=SWEEP_SEED)
    assert len(draws) == len(set(draws)) == (k + 1) * layers
    first = list(draws)
    draws.clear()
    run_sweep(["mcd:n=2"], bundle, world, test, seed=SWEEP_SEED)
    assert draws == first
    draws.clear()
    evaluate_calibration("mcd:n=2", bundle, world, CalibrationParams(), test, seed=SWEEP_SEED)
    assert len(draws) == len(set(draws)) == (k + 1) * layers


def test_calibration_scores_the_sweeps_splits_in_order(tiny, monkeypatch):
    """evaluate_calibration walks the grid run_sweep walks: the clean test
    split, then the 15 cells in kind-major order, every scene with the
    sweep's features and base seed."""
    world, bundle, _, test = tiny
    walk_with(monkeypatch, 1)
    calls = []
    score = score_scene

    def recording_score(methods, b, features, base_seed=0, **kwargs):
        features = joined(features)
        calls.append((features.tobytes(), base_seed))
        return score(methods, b, features, base_seed=base_seed, **kwargs)

    monkeypatch.setattr(ood, "score_scene", recording_score)
    run_sweep(["ours"], bundle, world, test, seed=SWEEP_SEED)
    swept = list(calls)
    calls.clear()
    evaluate_calibration("ours", bundle, world, CalibrationParams(), test, seed=SWEEP_SEED)
    assert calls == swept

    n = len(test.scenes)
    cells = [(k, m) for k in synthworld.CORRUPTION_KINDS for m in (1, 2, 3)]
    assert len(swept) == n * (1 + len(cells))
    assert [seed for _, seed in swept] == [SWEEP_SEED + i for i in range(n)] * (1 + len(cells))
    assert [f for f, _ in swept[:n]] == [s.features.tobytes() for s in test.scenes]
    sigma_z = synthworld.feature_std(test)
    for c, (kind, severity) in enumerate(cells, start=1):
        first = synthworld.apply_corruption(
            test.scenes[0], synthworld.CorruptionSpec(kind=kind, severity=severity),
            synthworld.corruption_seed(world.config.seed, kind, severity, 0), world,
            sigma_z=sigma_z)
        assert swept[c * n][0] == first.features.tobytes(), (kind, severity)


def test_calibration_scores_the_sweeps_splits_in_order_at_two_workers(tiny, monkeypatch):
    """At W = 2, run_sweep and evaluate_calibration make the score_scene calls
    of the serial walk, as a multiset, collect each call's result in walk
    order, and return what they return at W = 1."""
    world, bundle, _, test = tiny
    calls, collected, local = [], [], threading.local()
    score, walk = score_scene, ood.walk

    def recording_score(methods, b, features, base_seed=0, **kwargs):
        local.call = (joined(features).tobytes(), base_seed)
        calls.append(local.call)
        return score(methods, b, features, base_seed=base_seed, **kwargs)

    def spying_walk(methods, b, splits, reduce, collect, seed=0):
        """walk, with each result tagged by the call that scored it in its thread."""
        return walk(methods, b, splits, lambda *scored: (local.call, reduce(*scored)),
                    lambda j, i, tagged: collected.append(tagged[0]) or collect(j, i, tagged[1]),
                    seed)

    monkeypatch.setattr(ood, "score_scene", recording_score)
    for module in (ood, pipeline):
        monkeypatch.setattr(module, "walk", spying_walk)
    walks = {"sweep": lambda: run_sweep(["ours"], bundle, world, test, seed=SWEEP_SEED),
             "calibration": lambda: evaluate_calibration("ours", bundle, world,
                                                         CalibrationParams(), test,
                                                         seed=SWEEP_SEED)}
    runs = {}  # (walk, W) -> (its output, its score_scene calls, its collected calls)
    for workers in (1, 2):
        walk_with(monkeypatch, workers)
        for name, run in walks.items():
            output = run()
            runs[name, workers] = output, list(calls), list(collected)
            calls.clear()
            collected.clear()
    serial_order = runs["sweep", 1][1]
    for name in walks:
        (output, serial, _), (parallel, scored, in_order) = runs[name, 1], runs[name, 2]
        assert serial == runs[name, 1][2] == serial_order
        assert sorted(scored) == sorted(serial) and in_order == serial
        assert same_report(parallel, output) if name == "sweep" else parallel == output


def test_a_cell_corrupts_each_scene_as_it_is_scored(tiny, monkeypatch):
    """run_sweep and evaluate_calibration corrupt scene i of a cell while it
    is scored, and no later scene of that cell before: per cell, every
    score_scene call starts one corruption, its own."""
    world, bundle, _, test = tiny
    walk_with(monkeypatch, 1)
    n, cells = len(test.scenes), len(synthworld.CORRUPTION_KINDS) * 3
    corrupted, seen = [0], []
    score = score_scene

    def counting_score(*args, **kwargs):
        before = corrupted[0]
        scored = score(*args, **kwargs)
        seen.append((before, corrupted[0]))
        return scored

    monkeypatch.setattr(ood, "score_scene", counting_score)
    counting_corruptions(monkeypatch, lambda: corrupted.__setitem__(0, corrupted[0] + 1))
    run_sweep(["ours", "entropy"], bundle, world, test, seed=SWEEP_SEED)
    swept = list(seen)
    seen.clear()
    corrupted[0] = 0
    evaluate_calibration("ours", bundle, world, CalibrationParams(), test, seed=SWEEP_SEED)
    assert swept == seen == [(0, 0)] * n + [(i, i + 1) for i in range(n * cells)]


def test_a_cell_corrupts_each_scene_as_it_is_scored_at_two_workers(tiny, monkeypatch):
    """At W = 2, run_sweep and evaluate_calibration still start one corruption
    per score_scene call of a cell, its own, in the call's thread, and no
    clean scene starts one; at most W corruptions are open at once."""
    world, bundle, _, test = tiny
    workers = 2
    walk_with(monkeypatch, workers)
    n, cells = len(test.scenes), len(synthworld.CORRUPTION_KINDS) * 3
    local, lock = threading.local(), threading.Lock()
    open_now, most, seen = [0], [0], []
    score, blocks = score_scene, synthworld.CorruptedRows.blocks

    def counting_blocks(self, max_rows):
        local.started = getattr(local, "started", 0) + 1
        with lock:
            open_now[0] += 1
            most[0] = max(most[0], open_now[0])
        try:
            yield from blocks(self, max_rows)
        finally:
            with lock:
                open_now[0] -= 1

    def counting_score(*args, **kwargs):
        before = getattr(local, "started", 0)
        scored = score(*args, **kwargs)
        seen.append(getattr(local, "started", 0) - before)
        return scored

    monkeypatch.setattr(ood, "score_scene", counting_score)
    monkeypatch.setattr(synthworld.CorruptedRows, "blocks", counting_blocks)
    run_sweep(["ours", "entropy"], bundle, world, test, seed=SWEEP_SEED)
    swept = sorted(seen)
    seen.clear()
    evaluate_calibration("ours", bundle, world, CalibrationParams(), test, seed=SWEEP_SEED)
    assert swept == sorted(seen) == [0] * n + [1] * (n * cells)
    assert open_now == [0] and 1 <= most[0] <= workers


def test_materialised_grid_gives_the_pairs_of_a_lazy_walk(tiny):
    """Every split of list(grid_splits(...)), read only once the walk is
    exhausted, yields the (features, labels) pairs that the lazy walk
    yields: each cell corrupts with its own kind and severity."""
    world, _, _, test = tiny

    def read(walk):
        return [(kind, severity, [(joined(f).tobytes(), y.tobytes()) for f, y in scenes])
                for kind, severity, scenes in walk]

    lazy = read(synthworld.grid_splits(test, world))
    assert read(list(synthworld.grid_splits(test, world))) == lazy
    assert len(lazy) == 1 + len(synthworld.CORRUPTION_KINDS) * 3
    assert all(len(pairs) == len(test.scenes) for _, _, pairs in lazy)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A loaded 16-scene test split whose features (64 per voxel) outweigh
    its logits (3 per voxel), so that a corrupted cell dominates what a walk
    allocates, and an untrained bundle that scores it."""
    config = synthworld.WorldConfig(grid=(16, 16, 2), num_classes=3, feature_dim=64,
                                    train_scenes=4, val_scenes=2, test_scenes=16, seed=5)
    world = synthworld.generate_world(config)
    path = tmp_path_factory.mktemp("wide") / "test"
    synthworld.save_dataset(synthworld.generate_dataset(world, "test"), path)
    head = ResidualMlpHead(HeadConfig(input_dim=64, hidden_width=8, num_classes=3), seed=1)
    gda = GdaModel(means=np.random.default_rng(2).standard_normal((3, 8)),
                   chols=np.stack([np.eye(8)] * 3), log_dets=np.zeros(3),
                   log_priors=np.log(np.full(3, 1 / 3)), eps_used=0.0,
                   counts=np.ones(3, dtype=np.int64))
    return world, MethodBundle(head=head, gda_model=gda), synthworld.load_dataset(path)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def given_sigma_z(test, monkeypatch):
    """Fix feature_std at the test split's value, so that a traced walk
    leaves out the float64 copy of the clean split that feature_std takes."""
    sigma_z = synthworld.feature_std(test)
    monkeypatch.setattr(synthworld, "feature_std", lambda dataset: sigma_z)


def test_grid_walks_hold_one_corrupted_scene_at_a_time(wide, monkeypatch):
    """Over the 15 cells of 16 scenes, run_sweep and evaluate_calibration each
    peak within a quarter scene of their peak over one scene of the cell with
    the most corruption temporaries (blur at severity 3): no corrupted scene
    outlives the corruption of the next, and calibration joins no split."""
    world, bundle, test = wide
    walk_with(monkeypatch, 1)
    given_sigma_z(test, monkeypatch)
    scene = test.scenes[0].features.size * 8  # a corrupted scene is float64
    first = synthworld.FeatureDataset(scenes=test.scenes[:1], config=test.config)
    one = ("blur",), (3,)

    def sweep(ds=test, corruptions=synthworld.CORRUPTION_KINDS, severities=(1, 2, 3)):
        run_sweep(["ours", "entropy"], bundle, world, ds, seed=SWEEP_SEED,
                  corruptions=corruptions, severities=severities)

    sweep()  # a first walk leaves about 27 KiB of numpy caches allocated
    assert traced_peak(sweep) <= traced_peak(lambda: sweep(first, *one)) + scene / 4

    def calibration(ds=test):
        evaluate_calibration("ours", bundle, world, CalibrationParams(), ds, seed=SWEEP_SEED)

    calibration()  # warmed up as the sweep is
    every_cell = traced_peak(calibration)
    grid_splits = synthworld.grid_splits
    monkeypatch.setattr(synthworld, "grid_splits",
                        lambda dataset, w: grid_splits(dataset, w, *one))
    assert every_cell <= traced_peak(lambda: calibration(first)) + scene / 4


def test_grid_walks_hold_w_corrupted_scenes_at_a_time_at_two_workers(wide, monkeypatch):
    """At W = 2, run_sweep and evaluate_calibration over the 15 cells of 16
    scenes each peak within W times their serial peak over one scene of the
    blur-3 cell, plus a quarter scene: at most W scenes are scored at once."""
    world, bundle, test = wide
    given_sigma_z(test, monkeypatch)
    workers, scene = 2, test.scenes[0].features.size * 8
    first = synthworld.FeatureDataset(scenes=test.scenes[:1], config=test.config)
    one = ("blur",), (3,)

    def sweep(ds=test, corruptions=synthworld.CORRUPTION_KINDS, severities=(1, 2, 3)):
        run_sweep(["ours", "entropy"], bundle, world, ds, seed=SWEEP_SEED,
                  corruptions=corruptions, severities=severities)

    def calibration(ds=test):
        evaluate_calibration("ours", bundle, world, CalibrationParams(), ds, seed=SWEEP_SEED)

    walk_with(monkeypatch, workers)
    sweep()  # warmed up as the serial test warms up
    calibration()
    every_cell = traced_peak(sweep), traced_peak(calibration)
    walk_with(monkeypatch, 1)
    grid_splits = synthworld.grid_splits
    one_scene = traced_peak(lambda: sweep(first, *one))
    monkeypatch.setattr(synthworld, "grid_splits",
                        lambda dataset, w: grid_splits(dataset, w, *one))
    one_scene = one_scene, traced_peak(lambda: calibration(first))
    for peak, serial in zip(every_cell, one_scene):
        assert peak <= workers * serial + scene / 4


def test_calibration_walk_holds_no_corrupted_cell(wide, monkeypatch):
    """evaluate_calibration over the 15 cells of 16 scenes peaks below half of
    one cell's float64 features: a cell is read one scene at a time."""
    world, bundle, test = wide
    given_sigma_z(test, monkeypatch)
    cell = sum(s.features.size for s in test.scenes) * 8

    def calibration():
        evaluate_calibration("ours", bundle, world, CalibrationParams(), test, seed=SWEEP_SEED)

    assert traced_peak(calibration) < cell / 2


def test_calibrate_method_joins_no_train_logits(wide, monkeypatch):
    """The train pass keeps scene means only: four times the train scenes
    raise calibrate_method's peak by less than one train split's logits."""
    world, bundle, _ = wide
    walk_with(monkeypatch, 1)
    val = synthworld.generate_dataset(world, "val")
    peaks = {}
    for n in (4, 4, 16):  # a warm-up call, whose peak the second overwrites
        train = synthworld.generate_dataset(world, "train", n_scenes=n)
        peaks[n] = traced_peak(lambda: calibrate_method("ours", bundle, train, val,
                                                        seed=SWEEP_SEED))
    logits = 4 * world.config.voxels_per_scene * world.config.num_classes * 8
    assert peaks[16] < peaks[4] + logits


def test_calibrate_method_joins_no_train_logits_at_two_workers(wide, monkeypatch):
    """At W = 2, four times the train scenes raise calibrate_method's peak by
    less than one train split's logits plus W - 1 scenes' scoring peaks: a
    walk of 4 train scenes may catch one scene in flight at its peak, and a
    walk of 16 may catch W."""
    world, bundle, _ = wide
    workers = 2
    walk_with(monkeypatch, workers)
    val = synthworld.generate_dataset(world, "val")
    peaks = {}
    for n in (4, 4, 16):
        train = synthworld.generate_dataset(world, "train", n_scenes=n)
        peaks[n] = traced_peak(lambda: calibrate_method("ours", bundle, train, val,
                                                        seed=SWEEP_SEED))
    features, _ = next(train.iter_scene_arrays())
    scene = traced_peak(lambda: score_scene(["ours"], bundle, features, with_logits=False))
    logits = 4 * world.config.voxels_per_scene * world.config.num_classes * 8
    assert peaks[16] < peaks[4] + logits + (workers - 1) * scene


@pytest.fixture(scope="module", params=[7, 42])
def calibration_world(request):
    """A world of 4 validation scenes at world seed 7 or 42, and a head and
    density model trained on it well enough that every method fits a
    temperature inside (t_min, t_max) and some fit a nonzero lambda."""
    config = synthworld.WorldConfig(grid=(12, 12, 4), num_classes=5, feature_dim=8,
                                    objects_min=3, objects_max=3, train_scenes=8,
                                    val_scenes=4, test_scenes=1, seed=request.param)
    world = synthworld.generate_world(config)
    train, val = (synthworld.generate_dataset(world, split) for split in ("train", "val"))
    bundle = build_bundle(head_config_for_world(config), train, seed=request.param, epochs=4,
                          lr=0.01)
    return bundle, train, val


def joined_calibration_oracle(method, bundle, val, u_bar_train, seed):
    """(t_train, lambda*) from the joined validation split: one LogitGaps over
    the concatenated logits and labels of its scenes, each row carrying its
    scene's mean score, fitted as one scene with per-row temperatures."""
    scored = [score_scene([method], bundle, f, base_seed=seed + i) + (y,)
              for i, (f, y) in enumerate(val.iter_scene_arrays())]
    logits, labels, u = zip(*((lg[method], y, np.full(len(y), aggregate_scene(s[method])))
                              for s, lg, y in scored))
    gaps = [LogitGaps(np.concatenate(logits), np.concatenate(labels))]
    params = CalibrationParams(t_train=fit_temperature(gaps), u_bar_train=u_bar_train)
    return params.t_train, tune_lambda(gaps, [np.concatenate(u)], params, LAMBDA_GRID)[0]


@pytest.mark.parametrize("method", ["ours", "entropy", "mcd"])
def test_calibrate_method_equals_the_joined_split_oracle(calibration_world, method):
    """Summing each validation scene's bin sums gives the t_train and lambda*
    of the joined split, bit for bit: the sums differ only in the rounding
    of their additions, and the fits only compare them."""
    bundle, train, val = calibration_world
    params = calibrate_method(method, bundle, train, val, seed=SWEEP_SEED)
    oracle = joined_calibration_oracle(method, bundle, val, params.u_bar_train, SWEEP_SEED)
    assert (params.t_train, params.lam) == oracle


def test_scene_larger_than_forward_block_scores_one_forward_per_block(tiny, monkeypatch):
    """Scenes of 128 voxels in blocks of at most 48 rows: three forwards and
    three log-densities per scene, none over 48 rows, and the same report.
    A clean scene is cut into near-equal row blocks, and a corrupted one into
    near-equal blocks of its 8 x-planes of 16 rows: 2, 3 and 3 planes."""
    world, bundle, train, test = tiny
    walk_with(monkeypatch, 1)
    methods = ["ours", "max-softmax", "entropy"]
    whole = run_sweep(methods, bundle, world, test, seed=SWEEP_SEED)
    rows = {"forward": [], "log_density": []}
    forward, log_density = ResidualMlpHead.forward, GdaModel.log_density

    def counting_forward(self, features, *args, **kwargs):
        rows["forward"].append(len(features))
        return forward(self, features, *args, **kwargs)

    def counting_log_density(self, z):
        rows["log_density"].append(len(z))
        return log_density(self, z)

    monkeypatch.setattr(ResidualMlpHead, "forward", counting_forward)
    monkeypatch.setattr(GdaModel, "log_density", counting_log_density)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 48)
    blocked = run_sweep(methods, bundle, world, test, seed=SWEEP_SEED)
    n, cells = len(test.scenes), len(synthworld.CORRUPTION_KINDS) * 3
    assert world.config.voxels_per_scene == 128
    clean, corrupted = [42, 43, 43], [32, 48, 48]
    assert rows["forward"] == rows["log_density"] == clean * n + corrupted * n * cells
    assert blocked.methods == whole.methods and blocked.aggregates == whole.aggregates
    for a, b in zip(blocked.histograms, whole.histograms):
        assert all(np.array_equal(a[k], b[k]) for k in ("edges", "count_id", "count_ood"))

    rows["forward"].clear()
    val = synthworld.generate_dataset(world, "val")
    params = calibrate_method("ours", bundle, train, val, seed=SWEEP_SEED)
    evaluate_calibration("ours", bundle, world, params, test, seed=SWEEP_SEED)
    scenes = len(train.scenes) + len(val.scenes) + n
    assert rows["forward"] == clean * scenes + corrupted * n * cells


def test_scene_larger_than_forward_block_scores_one_forward_per_block_at_two_workers(
        tiny, monkeypatch):
    """At W = 2, scenes of 128 voxels in blocks of at most 48 rows get the
    forwards and log-densities of the serial walk as a multiset, each
    scene's in block order in its own thread, and the same report."""
    world, bundle, train, test = tiny
    methods = ["ours", "max-softmax", "entropy"]
    walk_with(monkeypatch, 1)
    whole = run_sweep(methods, bundle, world, test, seed=SWEEP_SEED)
    walk_with(monkeypatch, 2)
    rows, local = {"forward": [], "log_density": []}, threading.local()
    forward, log_density, score = ResidualMlpHead.forward, GdaModel.log_density, score_scene

    def counting_forward(self, features, *args, **kwargs):
        local.forwards.append(len(features))
        return forward(self, features, *args, **kwargs)

    def counting_log_density(self, z):
        local.log_densities.append(len(z))
        return log_density(self, z)

    def scene_score(*args, **kwargs):
        local.forwards, local.log_densities = [], []
        scored = score(*args, **kwargs)
        rows["forward"].append(tuple(local.forwards))
        rows["log_density"].append(tuple(local.log_densities))
        return scored

    monkeypatch.setattr(ResidualMlpHead, "forward", counting_forward)
    monkeypatch.setattr(GdaModel, "log_density", counting_log_density)
    monkeypatch.setattr(ood, "score_scene", scene_score)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 48)
    blocked = run_sweep(methods, bundle, world, test, seed=SWEEP_SEED)
    n, cells = len(test.scenes), len(synthworld.CORRUPTION_KINDS) * 3
    clean, corrupted = (42, 43, 43), (32, 48, 48)
    want = sorted([clean] * n + [corrupted] * n * cells)
    assert sorted(rows["forward"]) == sorted(rows["log_density"]) == want
    assert same_report(blocked, whole)

    rows["forward"].clear()
    val = synthworld.generate_dataset(world, "val")
    params = calibrate_method("ours", bundle, train, val, seed=SWEEP_SEED)
    evaluate_calibration("ours", bundle, world, params, test, seed=SWEEP_SEED)
    scenes = len(train.scenes) + len(val.scenes) + n
    assert sorted(rows["forward"]) == sorted([clean] * scenes + [corrupted] * n * cells)


def test_one_and_two_workers_give_the_same_bits(tiny, monkeypatch):
    """run_sweep of all five methods over scenes larger than a forward block,
    and calibrate_method and evaluate_calibration of ours and mcd, give the
    same bits at W = 1 and W = 2."""
    world, bundle, train, test = tiny
    members = [ResidualMlpHead(bundle.head.config, seed=20 + i) for i in range(2)]
    bundle = MethodBundle(head=bundle.head, gda_model=bundle.gda_model, ensemble_heads=members)
    val = synthworld.generate_dataset(world, "val")
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 48)
    assert world.config.voxels_per_scene > 48
    runs = []
    for workers in (1, 2):
        walk_with(monkeypatch, workers)
        report = run_sweep(["ours", "max-softmax", "entropy", "mcd:n=2", "de:n=2"], bundle,
                           world, test, seed=SWEEP_SEED)
        calibrated = []
        for method in ("ours", "mcd:n=2"):
            params = calibrate_method(method, bundle, train, val, seed=SWEEP_SEED)
            calibrated.append((params, evaluate_calibration(method, bundle, world, params,
                                                            test, seed=SWEEP_SEED)))
        runs.append((report, calibrated))
    (serial, serial_calibrated), (parallel, parallel_calibrated) = runs
    assert same_report(parallel, serial)
    assert parallel_calibrated == serial_calibrated


def blas_threads():
    """The OpenBLAS thread count in effect, or None where ctypes finds no OpenBLAS."""
    blas = ood._openblas()
    return blas[0]() if blas else None


def test_a_walk_leaves_threads_as_it_found_them(tiny, monkeypatch):
    """After a walk, the OpenBLAS thread count and the number of live
    threads are those before it, whether it ends or a scene raises: a scene
    of features of the wrong width raises the head's ShapeError, and the
    caller gets it as raised."""
    world, bundle, _, test = tiny
    walk_with(monkeypatch, 2)
    before = blas_threads(), threading.active_count()
    run_sweep(["ours", "mcd:n=2"], bundle, world, test, seed=SWEEP_SEED)
    assert (blas_threads(), threading.active_count()) == before

    d = world.config.feature_dim
    pairs = [(s.features.reshape(-1, d), s.labels.reshape(-1)) for s in test.scenes]
    features, labels = pairs[3]
    pairs[3] = features[:, :d - 1], labels
    collected = []
    with pytest.raises(ShapeError):
        ood.walk(["ours"], bundle, [(pairs, False)], lambda s, _, __: s["ours"].mean(),
                 lambda j, i, mean: collected.append(i), seed=SWEEP_SEED)
    assert (blas_threads(), threading.active_count()) == before
    assert collected == [0, 1, 2]


def test_score_scene_holds_no_scene_sized_penultimate():
    """On 8 blocks of rows, score_scene peaks at its outputs plus a few
    blocks, and gives the bits of one whole-scene forward and log-density."""
    head = ResidualMlpHead(HeadConfig(input_dim=16, hidden_width=64, num_classes=3), seed=1)
    rng = np.random.default_rng(2)
    gda = GdaModel(means=rng.standard_normal((3, 64)), chols=np.stack([np.eye(64)] * 3),
                   log_dets=np.zeros(3), log_priors=np.log(np.full(3, 1 / 3)),
                   eps_used=0.0, counts=np.ones(3, dtype=np.int64))
    bundle = MethodBundle(head=head, gda_model=gda)
    x = rng.standard_normal((8 * head_module.FORWARD_BLOCK, 16))
    tracemalloc.start()
    try:
        scores, logits = score_scene(["ours"], bundle, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    whole = head.forward(x)
    assert np.array_equal(logits["ours"], whole.logits)
    assert np.array_equal(scores["ours"], -gda.log_density(whole.penultimate_features))
    # one block's forward and log-density temporaries come to about 4 blocks;
    # a whole-scene penultimate array alone is 8
    block_bytes = head_module.FORWARD_BLOCK * 64 * 8
    outputs = scores["ours"].nbytes + logits["ours"].nbytes
    assert peak <= outputs + 5 * block_bytes


def random_bundle(input_dim, hidden_width, num_classes=3, members=2):
    """Untrained heads and a full-covariance density model over their
    penultimate features."""
    config = HeadConfig(input_dim=input_dim, hidden_width=hidden_width,
                        num_classes=num_classes)
    rng = np.random.default_rng(2)
    chols = np.stack([np.tril(rng.standard_normal((hidden_width, hidden_width))) * 0.1
                      + np.eye(hidden_width) for _ in range(num_classes)])
    gda = GdaModel(means=rng.standard_normal((num_classes, hidden_width)), chols=chols,
                   log_dets=2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1),
                   log_priors=np.log(np.full(num_classes, 1 / num_classes)), eps_used=0.0,
                   counts=np.ones(num_classes, dtype=np.int64))
    return MethodBundle(head=ResidualMlpHead(config, seed=1), gda_model=gda,
                        ensemble_heads=[ResidualMlpHead(config, seed=10 + i)
                                        for i in range(members)])


def test_score_scene_of_float32_features_equals_its_float64_oracle():
    """Every method scores float32 features as their float64 copy, bit for
    bit, on a scene of two row blocks."""
    bundle = random_bundle(16, 16)
    methods = ["ours", "max-softmax", "entropy", "mcd:n=2", "de:n=2"]
    x = (np.random.default_rng(3).standard_normal((head_module.FORWARD_BLOCK + 100, 16))
         * 2).astype(np.float32)
    scores, logits = score_scene(methods, bundle, x, base_seed=4)
    want_scores, want_logits = score_scene(methods, bundle, x.astype(np.float64), base_seed=4)
    for m in methods:
        assert scores[m].tobytes() == want_scores[m].tobytes(), m
        assert logits[m].tobytes() == want_logits[m].tobytes(), m


def eval_pass_oracle(head, features, gda_model=None):
    """Logits of `head`'s eval-mode pass over `features` as one scene-sized
    array and, given `gda_model`, the epistemic score of each block's
    penultimate features: how score_scene scored the eval-mode methods
    before it scored them block by block."""
    n = features.shape[0]
    logits = np.empty((n, head.config.num_classes))
    scores = None if gda_model is None else np.empty(n)
    for lo, hi, x in head_module.feature_blocks(features):
        out = head.forward(x)
        logits[lo:hi] = out.logits
        if gda_model is not None:
            scores[lo:hi] = epistemic_score(gda_model, out.penultimate_features)
        del out
    return logits, scores


def test_block_wise_scores_keep_their_bits_with_or_without_logits():
    """On a scene of two row blocks and 17 rows, every method scores the
    same bits with and without logits, and without them no logits are
    returned. The eval-mode scores and logits keep the bits of the
    scene-sized logits of eval_pass_oracle, and the deep ensemble's those of
    the members' scene-sized float32 reference passes."""
    bundle = random_bundle(16, 16, num_classes=5)
    methods = ["ours", "max-softmax", "entropy", "mcd:n=2", "de:n=2"]
    x = (np.random.default_rng(8).standard_normal((2 * head_module.FORWARD_BLOCK + 17, 16))
         * 2).astype(np.float32)
    scores, logits = score_scene(methods, bundle, x, base_seed=4)
    bare, no_logits = score_scene(methods, bundle, x, base_seed=4, with_logits=False)
    assert no_logits == {} and set(bare) == set(methods)
    for m in methods:
        assert scores[m].tobytes() == bare[m].tobytes(), m
    eval_logits, density = eval_pass_oracle(bundle.head, x, bundle.gda_model)
    probs = softmax(eval_logits.T)
    for m, want in (("ours", density), ("max-softmax", max_softmax_score(probs)),
                    ("entropy", softmax_entropy(probs))):
        assert scores[m].tobytes() == want.tobytes(), m
        assert logits[m].tobytes() == eval_logits.tobytes(), m
    mean = sum(softmax(dropout_forward(h, x, 0.0, None, np.float32)[0].T)
               for h in bundle.ensemble_heads) / 2
    assert scores["de:n=2"].tobytes() == softmax_entropy(mean).tobytes()
    assert logits["de:n=2"].tobytes() == np.log(np.maximum(mean, 1e-12)).T.tobytes()


def test_paper_sized_sweep_holds_its_corrupted_scene_and_no_logits():
    """run_sweep(["ours"]) over one 64x64x16 scene peaks less than one
    scene's logits above one corrupted float64 scene: the sweep builds no
    logits, and every corruption holds one scene-sized float64 array. The
    head is 8 wide, so that the density model's chunk buffer
    (LOG_DENSITY_CHUNK rows of K x 8) is an eighth of the logits."""
    config = synthworld.WorldConfig(grid=(64, 64, 16), test_scenes=1, seed=5)
    world = synthworld.generate_world(config)
    test = synthworld.generate_dataset(world, "test")
    bundle = random_bundle(config.feature_dim, 8, num_classes=config.num_classes)
    n = config.voxels_per_scene
    scene, logits = n * config.feature_dim * 8, n * config.num_classes * 8
    peak = traced_peak(lambda: run_sweep(["ours"], bundle, world, test, seed=SWEEP_SEED,
                                         region_level=False))
    assert peak < scene + logits


def test_eval_pass_holds_no_scene_sized_float64_copy():
    """ours, max-softmax and entropy widen float32 features one row block at
    a time: on 8 blocks of 64 features, with one widened block, the outputs
    and the softmax temporaries, the peak stays below half of the 16 MiB
    that a float64 copy of the scene alone would add."""
    bundle = random_bundle(64, 8)
    x = np.random.default_rng(5).standard_normal(
        (8 * head_module.FORWARD_BLOCK, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        score_scene(["ours", "max-softmax", "entropy"], bundle, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.size * 8 / 2


def test_deep_ensemble_of_a_float32_scene_keeps_its_bits_without_a_float64_copy():
    """de:n=2 on a float32 scene of 8 row blocks of 64 features: the bits of
    the stacked-mean oracle of float32 passes over the whole scene, and a
    peak below what a float64 copy of the scene alone would add, because
    each member reads one row block at a time."""
    bundle = random_bundle(64, 8)
    x = np.random.default_rng(7).standard_normal(
        (8 * head_module.FORWARD_BLOCK, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        scores, logits = score_scene(["de:n=2"], bundle, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mean = stacked_ensemble_mean(bundle.ensemble_heads, x)
    assert scores["de:n=2"].tobytes() == softmax_entropy(mean.T).tobytes()
    assert logits["de:n=2"].tobytes() == np.log(np.maximum(mean, 1e-12)).tobytes()
    assert peak < x.size * 8


def test_blocks_of_2049_rows_score_ours_with_no_row_alone():
    """feature_blocks cuts 4,098 rows into two blocks of 2,049, and the density
    model cuts each into near-equal chunks: every row's score equals its
    value inside a two-row batch, bit for bit."""
    bundle = random_bundle(32, 32)
    n = 4098
    assert [(lo, hi) for lo, hi, _ in head_module.feature_blocks(np.empty((n, 1)))] == [
        (0, 2049), (2049, 4098)]
    for seed in range(4):
        x = np.random.default_rng([6, seed]).standard_normal((n, 32)).astype(np.float32)
        scores, _ = score_scene(["ours"], bundle, x)
        z = bundle.head.forward(x).penultimate_features
        pairs = np.concatenate([bundle.gda_model.log_density(z[i:i + 2])
                                for i in range(0, n, 2)])
        assert scores["ours"].tobytes() == (-pairs).tobytes()


def test_paper_sweep_holds_no_scene_sized_float64_array(tmp_path):
    """run_sweep(["ours"]) over one loaded 64x64x16 scene, with a head as wide
    as its 32 features, as the benchmark's paper grid runs it: sigma_z, each
    corrupted scene and its scores are made a row block at a time, so the
    walk peaks below three quarters of the 16 MiB that one float64 copy of
    the scene would add (the log-density's chunk buffer alone is 5.7 MiB)."""
    config = synthworld.WorldConfig(grid=(64, 64, 16), test_scenes=1, seed=5)
    world = synthworld.generate_world(config)
    synthworld.save_dataset(synthworld.generate_dataset(world, "test"), tmp_path / "test")
    test = synthworld.load_dataset(tmp_path / "test")
    bundle = random_bundle(config.feature_dim, config.feature_dim,
                           num_classes=config.num_classes)

    def sweep():
        run_sweep(["ours"], bundle, world, test, seed=SWEEP_SEED, region_level=False)

    sweep()  # warmed up, as the other walks are
    scene = config.voxels_per_scene * config.feature_dim * 8
    assert traced_peak(sweep) < scene * 3 / 4


@pytest.mark.parametrize("kind", ["noise", "blur"])
def test_baselines_on_corrupted_rows_hold_no_scene_sized_float64_array(kind):
    """mcd:n=2 and de:n=2 without logits on a corrupted 64x64x16 scene (16
    blocks of 4 x-planes) peak below their two score vectors plus one
    scene's mean softmax (8.5 MiB; a block's corruption and scoring
    temporaries come to about 4.5 MiB): every forward reads one corrupted
    block, and no scene-sized features, softmax or logits are held. The
    scores keep the bits of the joined scene's."""
    config = synthworld.WorldConfig(grid=(64, 64, 16), test_scenes=1, seed=5)
    world = synthworld.generate_world(config)
    scene = synthworld.generate_dataset(world, "test").scenes[0]
    rows = synthworld.CorruptedRows(scene, synthworld.CorruptionSpec(kind=kind, severity=3),
                                    9, world, sigma_z=0.5)
    bundle = random_bundle(config.feature_dim, 8, num_classes=config.num_classes)
    methods = ["mcd:n=2", "de:n=2"]

    def score():
        return score_scene(methods, bundle, rows, base_seed=4, with_logits=False)

    score()  # warmed up, as the walks are
    peak = traced_peak(score)
    n = len(rows)
    assert len(list(head_module.feature_blocks(rows))) == 16
    assert peak < 2 * n * 8 + n * config.num_classes * 8
    scores, _ = score()
    whole, _ = score_scene(methods, bundle, rows.join(), base_seed=4, with_logits=False)
    for m in methods:
        assert scores[m].tobytes() == whole[m].tobytes(), m
