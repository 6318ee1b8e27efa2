"""Scalar uncertainty scores: softmax entropy and max-softmax. The
ensemble baselines score the entropy of their mean softmax.
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
