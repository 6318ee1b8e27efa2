"""End-to-end orchestration: train the head on a synthetic dataset, fit the
density model, assemble method bundles, calibrate, and run the ablation and
feature-dimension sweeps. Shared by the CLI and the acceptance suite.
"""

import functools
from dataclasses import replace

import numpy as np

from . import synthworld
from .calibration import (LAMBDA_GRID, CalibrationParams, LogitGaps, ece_nll,
                          fit_temperature, tune_lambda, ugts_temperature)
from .gda import DEFAULT_CAP_PER_CLASS, collect_features, fit_gda, gmm_param_count
from .head import HeadConfig, ResidualMlpHead, train_head
from .nn_core import OptimizerState
from .ood import MethodBundle, aggregate_scene, check_methods, parse_method, run_sweep, walk

DEFAULT_EPOCHS = 6
DEFAULT_BATCH = 512
DEFAULT_LR = 1e-3


def head_config_for_world(config, **head_keys):
    """HeadConfig for world `config`: its input and output sizes are the
    world's, hidden_width defaults to the world's feature_dim, and every
    other field to HeadConfig's default."""
    head_keys.setdefault("hidden_width", config.feature_dim)
    return HeadConfig(input_dim=config.feature_dim, num_classes=config.num_classes,
                      **head_keys)


def train_on_dataset(head_config, dataset, seed=0, epochs=DEFAULT_EPOCHS,
                     batch_size=DEFAULT_BATCH, lr=DEFAULT_LR, log_accuracy=True):
    head = ResidualMlpHead(head_config, seed=seed)
    log = train_head(head, *dataset.voxel_arrays(), opt=OptimizerState(lr=lr), epochs=epochs,
                     batch_size=batch_size, seed=seed, log_accuracy=log_accuracy)
    return head, log


def fit_density(head, dataset, cap_per_class=DEFAULT_CAP_PER_CLASS, seed=0):
    return fit_gda(collect_features(head, dataset.iter_scene_arrays(), cap_per_class, seed))


def build_bundle(head_config, train_ds, seed=0, **train_kwargs):
    head, _ = train_on_dataset(head_config, train_ds, seed=seed, log_accuracy=False,
                               **train_kwargs)
    return MethodBundle(head=head, gda_model=fit_density(head, train_ds, seed=seed))


# -- calibration -----------------------------------------------------------

def _calibration_spec(method):
    """The method spec scored to calibrate `method`: its logits are scaled,
    and the scene mean of its scores modulates the temperature (epistemic
    density score for 'ours', predictive entropy for mcd/de, softmax entropy
    for the softmax baselines)."""
    return "entropy" if parse_method(method)[0] == "max-softmax" else method


def _scene_gaps(spec, scores, logits, labels):
    """A scene scored for `spec` as (LogitGaps of its logits, or None
    without logits, and the scene mean of its scores): the per-scene
    accumulator of every calibration number, so no split is joined."""
    return (LogitGaps(logits[spec], labels) if logits else None,
            aggregate_scene(scores[spec]))


def calibrate_method(method, bundle, train_ds, val_ds, lam_grid=LAMBDA_GRID, seed=0):
    """Fit t_train on clean validation logits, compute the train-set mean
    uncertainty, and tune lambda on the clean split. Returns the
    CalibrationParams. No temperature at lambda = 0 reads the train-set mean,
    so a grid of zeros scores no train scene (train_ds may be None) and keeps
    u_bar_train at 0. The train and validation scenes are scored in one
    walk; the train split's logits are never built."""
    check_methods([method], bundle)
    spec = _calibration_spec(method)
    splits = [(train_ds.iter_scene_arrays(), False)] if any(lam_grid) else []
    splits.append((val_ds.iter_scene_arrays(), True))
    scenes = [[] for _ in splits]
    walk([spec], bundle, splits, functools.partial(_scene_gaps, spec),
         lambda j, _, scene: scenes[j].append(scene), seed)
    *train, val = scenes
    u_bar_train = float(np.mean([u for _, u in train[0]])) if train else 0.0
    gaps, u_val = zip(*val)
    params = CalibrationParams(t_train=fit_temperature(gaps), u_bar_train=u_bar_train)
    params.lam, _ = tune_lambda(gaps, u_val, params, lam_grid)
    return params


def evaluate_calibration(method, bundle, world, params, test_ds, seed=0):
    """ECE/NLL on the clean split and mECE/mNLL over the corruption grid,
    for uncalibrated, fixed-TS and UGTS logit scaling. The splits are the
    sweep's (synthworld.grid_splits), scored in one walk as the sweep scores
    them. A split's metrics come from bin_sums added scene by scene, each
    scene at its own UGTS temperature."""
    check_methods([method], bundle)
    spec = _calibration_spec(method)
    variants = ("raw", "ts", "ugts")

    def scene_sums(*scored):
        g, u = _scene_gaps(spec, *scored)
        return np.stack([g.sums(t) for t in (1.0, params.t_train, ugts_temperature(params, u))])

    splits = [(scenes, True) for _, _, scenes in synthworld.grid_splits(test_ds, world)]
    sums = [0] * len(splits)

    def add(j, _, scene):
        sums[j] = sums[j] + scene

    walk([spec], bundle, splits, scene_sums, add, seed)
    clean, *cells = [{v: dict(zip(("ece", "nll"), ece_nll(row))) for v, row in zip(variants, s)}
                     for s in sums]
    return {"clean": clean,
            "corrupted": {v: {"mece": float(np.mean([c[v]["ece"] for c in cells])),
                              "mnll": float(np.mean([c[v]["nll"] for c in cells]))}
                          for v in variants}}


# -- ablation and feature-dimension sweeps ---------------------------------

def _ours_sweeps(config, head_configs, seed):
    """Generate the world of `config` and its train and test splits; per head
    config, train a head and fit its density model on train, and sweep
    `ours` scene-level over test. Yields (bundle, ours aggregates). An empty
    train or test split raises GenerationError before anything is generated."""
    if not (config.train_scenes and config.test_scenes):
        raise synthworld.GenerationError(
            "the sweep needs train_scenes and test_scenes >= 1, got %d and %d"
            % (config.train_scenes, config.test_scenes))
    world = synthworld.generate_world(config)
    train_ds = synthworld.generate_dataset(world, "train")
    test_ds = synthworld.generate_dataset(world, "test")
    for head_config in head_configs:
        bundle = build_bundle(head_config, train_ds, seed=seed)
        report = run_sweep(["ours"], bundle, world, test_ds, seed=seed, region_level=False)
        yield bundle, report.aggregates["ours"]


def ablation_table(config, seed=42):
    """Train {3, 5 layers} x {skip} head variants and sweep each: rows carry
    mAUROC / mFPR95 / parameter counts, mirroring the head-depth study."""
    variants = [(num_layers, skip) for num_layers in (3, 5) for skip in (False, True)]
    sweeps = _ours_sweeps(config, [head_config_for_world(config, num_layers=num_layers, skip=skip)
                                   for num_layers, skip in variants], seed)
    return [{"layers": num_layers, "skip": skip, "mauroc": agg["mauroc"],
             "mfpr95": agg["mfpr95"], "params": bundle.head.param_count()}
            for (num_layers, skip), (bundle, agg) in zip(variants, sweeps)]


def ablation_direction_warning(rows):
    """Expected ordering of ablation_table's rows: 5 layers with skip beats 5
    layers without. Returns a warning string when they deviate, else None."""
    by_key = {(r["layers"], r["skip"]): r for r in rows}
    if by_key[(5, True)]["mauroc"] < by_key[(5, False)]["mauroc"]:
        return ("ablation direction deviates: 5-layer head without skip "
                "outscored the 5-layer head with skip (mAUROC %.4f vs %.4f)"
                % (by_key[(5, False)]["mauroc"], by_key[(5, True)]["mauroc"]))
    return None


def feature_dim_sweep(dims, base_config, seed=42):
    """Per feature dimension: regenerate the world at that dimension, train
    a head, fit the density model, run the scene-level sweep, and tabulate
    (dim, mAUROC, mFPR95, gmm params)."""
    rows = []
    for dim in dims:
        config = replace(base_config, feature_dim=dim, seed=seed)
        [(_, agg)] = _ours_sweeps(config, [head_config_for_world(config)], seed)
        rows.append({
            "dim": dim,
            "mauroc": agg["mauroc"],
            "mfpr95": agg["mfpr95"],
            "gmm_params": gmm_param_count(dim, base_config.num_classes),
        })
    return rows
