"""Scalar uncertainty scores of class-major K x n probabilities: softmax
entropy and max-softmax (ensembles score the entropy of their mean softmax).
"""

import numpy as np

from .nn_core import class_sum


def _check_distributions(probs):
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=0) - 1.0) > 1e-6):
        raise ValueError("columns must be nonnegative and sum to 1")
    return probs


def softmax_entropy(probs):
    """Shannon entropy per column in nats, with 0*ln(0) treated as 0: the bits
    of the row-wise sum over the n x K transpose."""
    probs = _check_distributions(probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -class_sum(terms)


def max_softmax_score(probs):
    """Uncertainty 1 - max_k p_k per column."""
    probs = _check_distributions(probs)
    return 1.0 - probs.max(axis=0)
