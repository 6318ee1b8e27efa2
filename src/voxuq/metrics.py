"""Scalar uncertainty scores: softmax entropy, max-softmax, ensemble
predictive entropy and mutual information.
"""

import numpy as np


def _check_distributions(probs):
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("rows must sum to 1")
    return probs


def softmax_entropy(probs):
    """Shannon entropy per row in nats, with 0*ln(0) treated as 0."""
    probs = _check_distributions(probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def max_softmax_score(probs):
    """Uncertainty 1 - max_k p_k per row."""
    probs = _check_distributions(probs)
    return 1.0 - probs.max(axis=-1)


def predictive_entropy(mean_probs):
    """Entropy of the ensemble-mean predictive distribution."""
    return softmax_entropy(mean_probs)


def mutual_information(member_probs):
    """PE of the mean minus mean member entropy, clamped at >= 0."""
    member_probs = np.asarray(member_probs, dtype=np.float64)
    if member_probs.shape[0] < 2:
        raise ValueError("mutual information needs >= 2 members")
    pe = softmax_entropy(member_probs.mean(axis=0))
    mean_h = np.mean([softmax_entropy(m) for m in member_probs], axis=0)
    mi = pe - mean_h
    if np.any(mi < -1e-12):
        raise ValueError("mutual information below tolerance: %g" % mi.min())
    return np.maximum(mi, 0.0)
