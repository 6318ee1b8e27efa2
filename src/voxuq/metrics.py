"""Scalar uncertainty scores: softmax entropy, max-softmax, ensemble
predictive entropy and mutual information, plus MC-Dropout / Deep-Ensemble
prediction helpers.
"""

from dataclasses import dataclass

import numpy as np

from .head import dropout_forward, head_probs


@dataclass
class EnsembleSpec:
    kind: str                  # "deep-ensemble" | "mc-dropout"
    n: int
    dropout_p: float = 0.0
    base_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("deep-ensemble", "mc-dropout"):
            raise ValueError("unknown ensemble kind %r" % self.kind)
        if self.n < 2:
            raise ValueError("ensemble scores need n >= 2")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")


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


def ensemble_predict(heads_or_head, spec, features):
    """Mean softmax over ensemble members or dropout passes.

    For deep ensembles, `heads_or_head` is a list of n trained heads; for
    MC-dropout it is the single trained head reused with dropout enabled,
    pass seeds derived as base_seed + pass index.

    Returns (mean_probs, member_probs) with member_probs shaped (n, rows, K).
    """
    members = []
    if spec.kind == "deep-ensemble":
        heads = list(heads_or_head)
        if len(heads) != spec.n:
            raise ValueError("expected %d member heads, got %d" % (spec.n, len(heads)))
        for h in heads:
            members.append(head_probs(h, features))
    else:
        head = heads_or_head
        from .nn_core import softmax
        for i in range(spec.n):
            out = dropout_forward(head, features, spec.dropout_p, seed=spec.base_seed + i)
            members.append(softmax(out.logits))
    member_probs = np.stack(members)
    return member_probs.mean(axis=0), member_probs


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
