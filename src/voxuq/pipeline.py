"""End-to-end orchestration: train the head on a synthetic dataset, fit the
density model, assemble method bundles, calibrate, and run the ablation and
feature-dimension sweeps. Shared by the CLI and the acceptance suite.
"""

from dataclasses import replace

import numpy as np

from . import synthworld
from .calibration import (LAMBDA_GRID, CalibrationParams, LogitGaps, fit_temperature,
                          tune_lambda, ugts_temperature)
from .gda import DEFAULT_CAP_PER_CLASS, collect_features, fit_gda, gmm_param_count
from .head import HeadConfig, ResidualMlpHead, accuracy, train_head
from .nn_core import OptimizerState
from .ood import MethodBundle, check_methods, parse_method, run_sweep, score_scene

DEFAULT_EPOCHS = 6
DEFAULT_BATCH = 512
DEFAULT_LR = 1e-3


def head_config_for_world(config, num_layers=3, skip=True, sn_enabled=True,
                          sn_coefficient=1.0, hidden_width=None):
    return HeadConfig(
        input_dim=config.feature_dim,
        hidden_width=config.feature_dim if hidden_width is None else hidden_width,
        num_layers=num_layers,
        skip=skip,
        sn_enabled=sn_enabled,
        sn_coefficient=sn_coefficient,
        num_classes=config.num_classes,
    )


def train_on_dataset(head_config, dataset, seed=0, epochs=DEFAULT_EPOCHS,
                     batch_size=DEFAULT_BATCH, lr=DEFAULT_LR):
    head = ResidualMlpHead(head_config, seed=seed)
    feats, labels = dataset.voxel_arrays()
    opt = OptimizerState(lr=lr)
    log = train_head(head, feats, labels, opt=opt, epochs=epochs,
                     batch_size=batch_size, seed=seed)
    return head, log


def train_ensemble(head_config, dataset, n, base_seed=100, **train_kwargs):
    """Deep-ensemble members differing only by training seed."""
    return [train_on_dataset(head_config, dataset, seed=base_seed + i,
                             **train_kwargs)[0] for i in range(n)]


def fit_density(head, dataset, cap_per_class=DEFAULT_CAP_PER_CLASS, seed=0):
    bank = collect_features(head, dataset.iter_scene_arrays(), cap_per_class, seed)
    return fit_gda(bank), bank


def build_bundle(head_config, train_ds, seed=0, **train_kwargs):
    head, log = train_on_dataset(head_config, train_ds, seed=seed, **train_kwargs)
    gda_model, _ = fit_density(head, train_ds, seed=seed)
    return MethodBundle(head=head, gda_model=gda_model), log


def validation_accuracy(head, dataset):
    return accuracy(head, *dataset.voxel_arrays())


# -- calibration -----------------------------------------------------------

def _scene_passes(method, bundle, dataset, seed):
    """One scoring pass over `dataset`, scene by scene: the method's
    calibration logits, the labels, and the scene's mean uncertainty, which
    modulates the temperature (epistemic density score for 'ours',
    predictive entropy for mcd/de, softmax entropy for the softmax
    baselines)."""
    name, _ = parse_method(method)
    scored = "entropy" if name == "max-softmax" else method
    for i, (f, y) in enumerate(dataset.iter_scene_arrays()):
        scores, scene_logits = score_scene([scored], bundle, f, base_seed=seed + i)
        yield scene_logits[scored], y, float(np.mean(scores[scored]))


def _calibration_pass(method, bundle, dataset, seed):
    """_scene_passes joined over all voxels: (logits, labels, scene means)."""
    logits, labels, u_scene = zip(*_scene_passes(method, bundle, dataset, seed))
    return np.concatenate(logits), np.concatenate(labels), list(u_scene)


def calibrate_method(method, bundle, train_ds, val_ds, lam_grid=LAMBDA_GRID, seed=0):
    """Fit t_train on clean validation logits, compute the train-set mean
    uncertainty, and tune lambda on the clean split. Returns the
    CalibrationParams."""
    check_methods([method], bundle)
    u_bar_train = float(np.mean([u for _, _, u in _scene_passes(method, bundle, train_ds, seed)]))
    logits, labels, u_val = _calibration_pass(method, bundle, val_ds, seed)
    voxels = val_ds.config.voxels_per_scene
    u_per_voxel = np.repeat(u_val, voxels)

    t_train = fit_temperature(logits, labels)
    params = CalibrationParams(t_train=t_train, lam=0.0, u_bar_train=u_bar_train)
    lam_star, _ = tune_lambda(logits, labels, u_per_voxel, params, lam_grid)
    params.lam = lam_star
    return params


def evaluate_calibration(method, bundle, world, params, test_ds, seed=0):
    """ECE/NLL on the clean split and mECE/mNLL over the corruption grid,
    for uncalibrated, fixed-TS and UGTS logit scaling. The grid is the
    sweep's: noise scales with the test split's feature std."""
    check_methods([method], bundle)

    def split_metrics(ds):
        logits, labels, u_scene = _calibration_pass(method, bundle, ds, seed)
        t_ugts = ugts_temperature(params, np.repeat(u_scene, ds.config.voxels_per_scene))
        gaps = LogitGaps(logits, labels)
        return {variant: dict(zip(("ece", "nll"), gaps.metrics(t)))
                for variant, t in (("raw", 1.0), ("ts", params.t_train), ("ugts", t_ugts))}

    result = {"clean": split_metrics(test_ds)}
    sigma_z = synthworld.feature_std(test_ds)
    cells = []
    for _, _, corrupted in synthworld.corrupted_datasets(test_ds, world, sigma_z):
        cells.append(split_metrics(corrupted))
        del corrupted  # before the generator builds the next cell
    result["corrupted"] = {v: {"mece": float(np.mean([c[v]["ece"] for c in cells])),
                               "mnll": float(np.mean([c[v]["nll"] for c in cells]))}
                           for v in result["clean"]}
    return result


# -- ablation and feature-dimension sweeps ---------------------------------

def ablation_table(config, seed=42):
    """Train {3, 5 layers} x {skip} head variants and sweep each: rows carry
    mAUROC / mFPR95 / parameter counts, mirroring the head-depth study."""
    world = synthworld.generate_world(config)
    train_ds = synthworld.generate_dataset(world, "train")
    test_ds = synthworld.generate_dataset(world, "test")
    rows = []
    for num_layers in (3, 5):
        for skip in (False, True):
            head_config = head_config_for_world(config, num_layers=num_layers,
                                                skip=skip)
            bundle, _ = build_bundle(head_config, train_ds, seed=seed)
            report = run_sweep(["ours"], bundle, world, test_ds, seed=seed,
                               region_level=False)
            agg = report.aggregates["ours"]
            rows.append({
                "layers": num_layers,
                "skip": skip,
                "mauroc": agg["mauroc"],
                "mfpr95": agg["mfpr95"],
                "params": bundle.head.param_count(),
            })
    return rows


def ablation_direction_warning(rows):
    """Expected ordering: 5 layers with skip beats 5 layers without. Returns
    a warning string when the observed ordering deviates, else None."""
    by_key = {(r["layers"], r["skip"]): r for r in rows}
    if (5, True) in by_key and (5, False) in by_key:
        if by_key[(5, True)]["mauroc"] < by_key[(5, False)]["mauroc"]:
            return ("ablation direction deviates: 5-layer head without skip "
                    "outscored the 5-layer head with skip (mAUROC %.4f vs %.4f)"
                    % (by_key[(5, False)]["mauroc"], by_key[(5, True)]["mauroc"]))
    return None


def feature_dim_sweep(dims, base_config, seed=42):
    """Per feature dimension: regenerate the world at that dimension, train
    a head, fit the density model, run the scene-level sweep, and tabulate
    (dim, mAUROC, mFPR95, gmm params)."""
    if not dims:
        raise ValueError("dims must be nonempty")
    rows = []
    for dim in dims:
        config = replace(base_config, feature_dim=dim, seed=seed)
        world = synthworld.generate_world(config)
        train_ds = synthworld.generate_dataset(world, "train")
        test_ds = synthworld.generate_dataset(world, "test")
        bundle, _ = build_bundle(head_config_for_world(config), train_ds, seed=seed)
        report = run_sweep(["ours"], bundle, world, test_ds, seed=seed, region_level=False)
        agg = report.aggregates["ours"]
        rows.append({
            "dim": dim,
            "mauroc": agg["mauroc"],
            "mfpr95": agg["mfpr95"],
            "gmm_params": gmm_param_count(dim, base_config.num_classes),
        })
    return rows
