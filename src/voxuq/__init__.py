"""Deterministic uncertainty quantification for voxel-grid semantic
prediction: spectrally normalized residual MLP head, per-class Gaussian
feature density, ensemble baselines, uncertainty-guided temperature scaling,
and a scene/region-level OoD benchmark on a synthetic voxel world.
"""

from .calibration import (CalibrationParams, ece, fit_temperature, nll,
                          scale_logits, tune_lambda, ugts_temperature)
from .gda import (FeatureBank, GdaModel, collect_features, epistemic_score,
                  fit_gda, gmm_param_count)
from .head import (HeadConfig, HeadOutput, ResidualMlpHead, estimate_lipschitz,
                   train_head)
from .metrics import max_softmax_score, softmax_entropy
from .nn_core import (LinearLayer, OptimizerState, SpectralState, cross_entropy_loss,
                      power_iteration, softmax)
from .ood import (BenchmarkReport, OodResult, ScoredPopulation,
                  aggregate_region, aggregate_scene, auroc, fpr_at_95_tpr,
                  run_sweep, score_scene)
from .synthworld import (CorruptionSpec, FeatureDataset, VoxelScene,
                         WorldConfig, apply_corruption, front_sector_mask,
                         generate_dataset, generate_scene, generate_world)

__version__ = "0.1.0"
