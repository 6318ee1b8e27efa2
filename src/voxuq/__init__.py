"""Deterministic uncertainty quantification for voxel-grid semantic
prediction: spectrally normalized residual MLP head, per-class Gaussian
feature density, ensemble baselines, uncertainty-guided temperature scaling,
and a scene/region-level OoD benchmark on a synthetic voxel world.
"""
