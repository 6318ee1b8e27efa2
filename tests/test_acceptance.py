"""Acceptance suite: one test per acceptance criterion, each emitting a single
machine-grepable pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Heavy shared state (the default seed-42 benchmark pipeline) is built once per
session; the full file takes a few minutes on a laptop CPU.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from voxuq import synthworld
from voxuq.calibration import LogitGaps, fit_temperature
from voxuq.cli import main as cli_main
from voxuq.gda import FeatureBank, fit_gda, gmm_param_count
from voxuq.head import HeadConfig, ResidualMlpHead
from voxuq.nn_core import power_iteration, softmax
from voxuq.ood import ScoredPopulation, auroc, fpr_at_95_tpr, run_sweep, score_scene
from voxuq.pipeline import (build_bundle, calibrate_method, evaluate_calibration,
                            head_config_for_world)
from voxuq.store import load_gda, load_head, save_calibration, save_gda, save_head

from oracles import (ece, estimate_lipschitz, lipschitz_upper_bound, load_calibration, nll,
                     scale_logits)

RESULTS = []


def verdict(criterion, ok, detail):
    line = "[criterion %d] %s: %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    RESULTS.append(line)
    assert ok, line


# -- shared default benchmark pipeline (seed 42) -----------------------------

@pytest.fixture(scope="session")
def default_pipeline():
    config = synthworld.WorldConfig(seed=42)
    world = synthworld.generate_world(config)
    train_ds = synthworld.generate_dataset(world, "train")
    val_ds = synthworld.generate_dataset(world, "val")
    test_ds = synthworld.generate_dataset(world, "test")
    head_config = head_config_for_world(config)
    bundle = build_bundle(head_config, train_ds, seed=42)
    return {"config": config, "world": world, "train": train_ds, "val": val_ds,
            "test": test_ds, "bundle": bundle}


@pytest.fixture(scope="session")
def default_sweep(default_pipeline):
    p = default_pipeline
    t0 = time.perf_counter()
    report = run_sweep(["ours", "max-softmax", "entropy"], p["bundle"],
                       p["world"], p["test"], seed=42)
    return report, time.perf_counter() - t0


# -- 1: gradient correctness -------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    probes_checked = 0
    for num_layers in (3, 5):
        for skip in (False, True):
            for sn_enabled in (False, True):
                cfg = HeadConfig(input_dim=6, hidden_width=6,
                                 num_layers=num_layers, skip=skip,
                                 sn_enabled=sn_enabled, sn_coefficient=1.0,
                                 num_classes=4)
                head = ResidualMlpHead(cfg, seed=13)
                if sn_enabled:
                    head.layers[0].weight *= 4.0
                    for layer in head.layers:
                        power_iteration(layer.weight, layer.sn_state, 100)
                feats = rng.standard_normal((4, 6))
                labels = rng.integers(0, 4, size=4)
                _, grads, _ = head.loss_and_grads(feats, labels, update_sn=False)
                params = head.parameters()
                h = 1e-5
                for _ in range(13):
                    name = list(params)[int(rng.integers(0, len(params)))]
                    p = params[name]
                    idx = np.unravel_index(int(rng.integers(0, p.size)), p.shape)
                    orig = p[idx]
                    p[idx] = orig + h
                    lp = head.loss_and_grads(feats, labels, update_sn=False)[0]
                    p[idx] = orig - h
                    lm = head.loss_and_grads(feats, labels, update_sn=False)[0]
                    p[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    g = grads[name][idx]
                    rel = abs(g - fd) / max(abs(fd), abs(g), 1e-8)
                    worst = max(worst, rel)
                    probes_checked += 1
    elapsed = time.perf_counter() - t0
    verdict(1, probes_checked >= 100 and worst < 1e-4 and elapsed < 30.0,
            "analytic vs central-difference gradients over %d probes "
            "(8 head variants): max relative error %.3g (< 1e-4), %.1fs (< 30s)"
            % (probes_checked, worst, elapsed))


# -- 2: spectral bound -------------------------------------------------------

def test_criterion_2_spectral_bound(default_pipeline):
    p = default_pipeline
    head = p["bundle"].head
    assert head.config.sn_enabled and head.config.sn_coefficient == 1.0
    sigmas = []
    for layer in head.layers:
        state = type(layer.sn_state)(layer.out_dim, layer.in_dim,
                                     np.random.default_rng(1))
        sigmas.append(power_iteration(layer.weight, state, iters=500))
    feats, _ = p["test"].voxel_arrays()
    rng = np.random.default_rng(2)
    idx = rng.integers(0, feats.shape[0], size=(1000, 2))
    pairs = [(feats[i], feats[j]) for i, j in idx]
    est = estimate_lipschitz(head, pairs)
    bound = lipschitz_upper_bound(head.config)
    ok = max(sigmas) <= 1.001 and est.upper_ratio <= bound + 1e-6
    verdict(2, ok,
            "trained layers' top singular values max %.6f (<= 1.001); "
            "penultimate Lipschitz ratio max %.4f over %d pairs "
            "(<= (1+c)^L = %.1f)" % (max(sigmas), est.upper_ratio,
                                     est.sample_count, bound))


# -- 3: density oracle -------------------------------------------------------

def dense_oracle(model, z):
    comps = []
    for c in range(model.num_classes):
        cov = model.chols[c] @ model.chols[c].T
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        diff = np.atleast_2d(z) - model.means[c]
        quad = np.einsum("ij,jk,ik->i", diff, inv, diff)
        comps.append(model.log_priors[c]
                     - 0.5 * (model.dim * np.log(2 * np.pi) + logdet + quad))
    comps = np.stack(comps, axis=1)
    m = comps.max(axis=1)
    return m + np.log(np.exp(comps - m[:, None]).sum(axis=1))


def test_criterion_3_density_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = 0
    while cases < 1000:
        k = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        bank = FeatureBank(num_classes=k, cap_per_class=1000)
        for c in range(k):
            n = int(rng.integers(d + 2, 60))
            pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0) \
                + rng.standard_normal(d) * 3
            bank.vectors[c] = list(pts)
            bank.seen_counts[c] = n
        model = fit_gda(bank)
        n_queries = min(20, 1000 - cases)
        z = rng.standard_normal((n_queries, d)) * 4
        got = model.log_density(z)
        want = dense_oracle(model, z)
        worst = max(worst, float(np.abs(got - want).max()))
        cases += n_queries
    verdict(3, worst < 1e-8,
            "mixture log-density vs dense-inverse oracle over %d cases "
            "(dim <= 8, K <= 5): max abs error %.3g (< 1e-8)" % (cases, worst))


# -- 4: metric oracles -------------------------------------------------------

def all_pairs_auroc(id_s, ood_s):
    wins = 0.0
    for o in ood_s:
        for i in id_s:
            wins += 1.0 if o > i else (0.5 if o == i else 0.0)
    return wins / (len(id_s) * len(ood_s))


def exhaustive_fpr95(id_s, ood_s):
    ood = np.asarray(ood_s)
    feasible = [tau for tau in np.unique(ood) if np.mean(ood >= tau) >= 0.95]
    tau = max(feasible) if feasible else ood.min()
    return float(np.mean(np.asarray(id_s) >= tau))


def hand_ece(probs, labels, bins):
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    total = 0.0
    for b in range(bins):
        left, right = b / bins, (b + 1) / bins
        in_bin = (conf <= right) if b == 0 else (conf > left) & (conf <= right)
        if in_bin.sum():
            total += (in_bin.sum() / len(conf)) \
                * abs(correct[in_bin].mean() - conf[in_bin].mean())
    return total


def test_criterion_4_metric_oracles(default_pipeline):
    rng = np.random.default_rng(4)
    worst_auroc = worst_ece = 0.0
    fpr_exact = True
    for _ in range(30):
        n_id = int(rng.integers(5, 200))
        n_ood = int(rng.integers(5, 200))
        id_s = np.round(rng.standard_normal(n_id), 1)     # ties injected
        ood_s = np.round(rng.standard_normal(n_ood) + 0.4, 1)
        pop = ScoredPopulation(id_s, ood_s)
        worst_auroc = max(worst_auroc,
                          abs(auroc(pop) - all_pairs_auroc(id_s, ood_s)))
        fpr_exact &= fpr_at_95_tpr(pop) == exhaustive_fpr95(id_s, ood_s)
        k = int(rng.integers(2, 6))
        raw = rng.random((n_id, k)) + 1e-9
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, k, size=n_id)
        worst_ece = max(worst_ece, abs(ece(probs, labels)
                                       - hand_ece(probs, labels, 15)))

    # null experiment: two disjoint clean scene sets must be inseparable
    p = default_pipeline
    big = synthworld.generate_dataset(
        replace(p["world"], config=replace(p["world"].config, test_scenes=400)), "test")
    scene_scores = np.array([
        score_scene(["ours"], p["bundle"],
                    s.features.reshape(-1, p["config"].feature_dim))[0]["ours"].mean()
        for s in big.scenes])
    null_auroc = auroc(ScoredPopulation(scene_scores[:200], scene_scores[200:]))

    ok = (worst_auroc < 1e-12 and fpr_exact and worst_ece < 1e-12
          and 0.45 <= null_auroc <= 0.55)
    verdict(4, ok,
            "AUROC vs all-pairs max err %.3g (< 1e-12); FPR95 exact match: %s; "
            "ECE vs hand-binned oracle max err %.3g (< 1e-12); "
            "clean-vs-clean AUROC %.4f over 200+200 scenes (in [0.45, 0.55])"
            % (worst_auroc, fpr_exact, worst_ece, null_auroc))


# -- 5: directional OoD reproduction -----------------------------------------

def test_criterion_5_directional_ood(default_sweep):
    report, elapsed = default_sweep
    ours = report.aggregates["ours"]["mauroc"]
    msp = report.aggregates["max-softmax"]["mauroc"]
    ent = report.aggregates["entropy"]["mauroc"]
    noise = sorted([c for c in report.methods["ours"] if c.corruption == "noise"],
                   key=lambda c: c.severity)
    noise_aurocs = [c.auroc for c in noise]
    strictly_increasing = all(a < b for a, b in zip(noise_aurocs, noise_aurocs[1:]))
    region_ours = report.region_aggregates["ours"]["mauroc"]
    region_msp = report.region_aggregates["max-softmax"]["mauroc"]
    ok = (ours > msp and ours > ent and strictly_increasing
          and noise_aurocs[-1] >= 0.95 and region_ours > 0.5
          and region_ours > region_msp and elapsed < 600.0)
    verdict(5, ok,
            "scene mAUROC: density %.4f > max-softmax %.4f, > entropy %.4f; "
            "noise AUROC by severity %s strictly increasing, sev-3 >= 0.95; "
            "front-sector mAUROC %.4f > 0.5 and > max-softmax %.4f; "
            "sweep %.0fs (< 600s)"
            % (ours, msp, ent, ["%.4f" % a for a in noise_aurocs],
               region_ours, region_msp, elapsed))


# -- 6: calibration direction ------------------------------------------------

def test_criterion_6_calibration_direction(default_pipeline):
    p = default_pipeline
    params = calibrate_method("ours", p["bundle"], p["train"], p["val"], seed=42)
    val_logits = np.concatenate([
        score_scene(["ours"], p["bundle"], f)[1]["ours"]
        for f, _ in p["val"].iter_scene_arrays()])
    val_labels = np.concatenate([y for _, y in p["val"].iter_scene_arrays()])
    t_star = fit_temperature([LogitGaps(val_logits, val_labels)])
    nll_star = nll(scale_logits(val_logits, t_star), val_labels)
    nll_one = nll(softmax(val_logits.T).T, val_labels)

    result = evaluate_calibration("ours", p["bundle"], p["world"], params,
                                  p["test"], seed=42)
    mece_ugts = result["corrupted"]["ugts"]["mece"]
    mece_ts = result["corrupted"]["ts"]["mece"]

    base_argmax = np.argmax(val_logits, axis=1)
    argmax_fixed = np.argmax(scale_logits(val_logits, t_star), axis=1)
    per_sample_t = np.linspace(params.t_min, params.t_max, val_logits.shape[0])
    argmax_ugts = np.argmax(scale_logits(val_logits, per_sample_t), axis=1)
    argmax_ok = (np.array_equal(base_argmax, argmax_fixed)
                 and np.array_equal(base_argmax, argmax_ugts))

    ok = nll_star <= nll_one + 1e-12 and mece_ugts <= mece_ts + 1e-12 and argmax_ok
    verdict(6, ok,
            "clean-val NLL at fitted t=%.3f: %.5f <= %.5f at t=1; corrupted-grid "
            "mECE: uncertainty-guided %.5f <= fixed %.5f (lambda*=%g); argmax "
            "bit-identical under scalar and per-sample temperature scaling: %s"
            % (t_star, nll_star, nll_one, mece_ugts, mece_ts, params.lam,
               argmax_ok))


# -- 7: parameter accounting -------------------------------------------------

def test_criterion_7_parameter_accounting():
    v32 = gmm_param_count(32, 17)
    v128 = gmm_param_count(128, 17)
    v64 = gmm_param_count(64, 17)
    # the published d=64 row is inconsistent with K*(d+d^2) and is excluded
    # from parity checks (see the project notes); the formula value is pinned
    # here instead
    ok = v32 == 17952 and v128 == 280704 and v64 == 17 * (64 + 64 * 64)
    verdict(7, ok,
            "gmm_param_count: d=32,K=17 -> %d (expect 17952); d=128,K=17 -> %d "
            "(expect 280704); d=64 row excluded, formula gives %d" % (v32, v128, v64))


# -- 8: ablation harness -----------------------------------------------------

ABLATION_CONFIG = """
[world]
train_scenes = 12
val_scenes = 2
test_scenes = 20
seed = 42
"""


def test_criterion_8_ablation_harness(tmp_path):
    config = tmp_path / "ablate.ini"
    config.write_text(ABLATION_CONFIG)
    out = tmp_path / "ablation"
    runner = CliRunner()
    r = runner.invoke(cli_main, ["ablate", "--config", str(config),
                                 "--out", str(out), "--seed", "42"])
    rows = []
    if r.exit_code == 0:
        rows = json.loads((out / "ablation.json").read_text())["rows"]
    variants = {(row["layers"], row["skip"]) for row in rows}
    table_ok = (r.exit_code == 0 and len(rows) == 4
                and variants == {(3, False), (3, True), (5, False), (5, True)}
                and all({"mauroc", "mfpr95", "params"} <= set(row) for row in rows)
                and (out / "ablation.md").exists())
    deviated = "deviates" in r.output
    verdict(8, table_ok,
            "ablate CLI exit %d, 4-row {3,5}x{skip} table with "
            "mAUROC/mFPR95/params columns; skip-direction deviation warning "
            "emitted: %s (warning only, never a failure)" % (r.exit_code, deviated))


# -- 9: determinism & round-trips --------------------------------------------

SMALL_CONFIG = """
[world]
grid_x = 8
grid_y = 8
grid_z = 2
num_classes = 5
feature_dim = 8
objects_min = 3
objects_max = 3
train_scenes = 8
val_scenes = 2
test_scenes = 4
seed = 7
"""
TRAIN_CONFIG = "[training]\nepochs = 2\n"


def test_criterion_9_determinism_and_round_trips(tmp_path, default_pipeline):
    runner = CliRunner()
    config, train_config = tmp_path / "config.ini", tmp_path / "train.ini"
    config.write_text(SMALL_CONFIG)
    train_config.write_text(TRAIN_CONFIG)
    data = tmp_path / "data"
    models = tmp_path / "models"
    assert runner.invoke(cli_main, ["generate-data", "--config", str(config),
                                    "--out", str(data)]).exit_code == 0
    assert runner.invoke(cli_main, ["train", "--data", str(data), "--config",
                                    str(train_config), "--out", str(models),
                                    "--seed", "7"]).exit_code == 0
    assert runner.invoke(cli_main, ["fit-gmm", "--data", str(data),
                                    "--head", str(models / "head.ocuq"),
                                    "--out", str(models / "gda.ocuq"),
                                    "--seed", "7"]).exit_code == 0
    args = ["eval-ood", "--data", str(data), "--head", str(models / "head.ocuq"),
            "--gda", str(models / "gda.ocuq"), "--methods", "ours,entropy",
            "--corruptions", "noise,fog", "--severities", "1,2", "--seed", "7"]
    assert runner.invoke(cli_main, args + ["--out", str(tmp_path / "a")]).exit_code == 0
    assert runner.invoke(cli_main, args + ["--out", str(tmp_path / "b")]).exit_code == 0
    metrics_identical = ((tmp_path / "a" / "metrics.json").read_bytes()
                         == (tmp_path / "b" / "metrics.json").read_bytes())

    # artifact round trips, bit-exact for every kind
    head = load_head(models / "head.ocuq")
    save_head(head, tmp_path / "head2.ocuq")
    head2 = load_head(tmp_path / "head2.ocuq")
    head_ok = all(np.array_equal(p, head2.parameters()[n])
                  for n, p in head.parameters().items())
    gda = load_gda(models / "gda.ocuq")
    save_gda(gda, tmp_path / "gda2.ocuq")
    gda2 = load_gda(tmp_path / "gda2.ocuq")
    gda_ok = (np.array_equal(gda.means, gda2.means)
              and np.array_equal(gda.chols, gda2.chols)
              and np.array_equal(gda.log_priors, gda2.log_priors))
    from voxuq.calibration import CalibrationParams
    params = CalibrationParams(t_train=1.25, lam=0.05, u_bar_train=7.5)
    save_calibration(params, tmp_path / "calib.ocuq")
    calib_ok = load_calibration(tmp_path / "calib.ocuq") == params

    # severity-0 corruptions are bit-exact identities
    p = default_pipeline
    scene = p["test"].scenes[0]
    identity_ok = True
    for kind in synthworld.CORRUPTION_KINDS:
        spec = synthworld.CorruptionSpec(kind=kind, severity=0)
        out = synthworld.apply_corruption(scene, spec, seed=1, world=p["world"])
        identity_ok &= np.array_equal(out.features, scene.features)
        identity_ok &= np.array_equal(out.labels, scene.labels)

    ok = metrics_identical and head_ok and gda_ok and calib_ok and identity_ok
    verdict(9, ok,
            "seed-identical runs byte-identical metrics.json: %s; bit-exact "
            "round trips head/gda/calibration: %s/%s/%s; severity-0 identity "
            "for all corruption kinds: %s"
            % (metrics_identical, head_ok, gda_ok, calib_ok, identity_ok))
