"""Per-class Gaussian density over penultimate features: reservoir-sampled
feature collection, full-covariance fitting with a jitter ladder, stabilized
mixture log-density, and the epistemic uncertainty score.
"""

from dataclasses import dataclass, field

import numpy as np

from .head import FORWARD_BLOCK, feature_blocks
from .nn_core import near_equal_blocks

DEFAULT_EPS_LADDER = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
DEFAULT_CAP_PER_CLASS = 20000
# rows per log-density GEMM, a ninth of a forward block, so that the (rows,
# K*d) buffers of a walk's two workers take the room one third-block buffer
# took: against a serial walk at a third, paper_grid's peak RSS read +1.0%
# (median of 7 runs, 2 cores, 2 workers), and +2.8% at a sixth (one run)
LOG_DENSITY_CHUNK = -(-FORWARD_BLOCK // 9)


class FitError(RuntimeError):
    """Raised when a model cannot be fitted to its data: the Gaussian density
    or a calibration temperature."""


@dataclass
class FeatureBank:
    """Per-class reservoirs of feature vectors, capped per class."""

    num_classes: int
    cap_per_class: int
    vectors: dict = field(default_factory=dict)      # class id -> rows (n x d)
    seen_counts: dict = field(default_factory=dict)  # class id -> total seen

    def class_array(self, c):
        return np.asarray(self.vectors.get(c, []), dtype=np.float64)

    @property
    def missing_classes(self):
        return [c for c in range(self.num_classes) if len(self.vectors.get(c, ())) == 0]


class GdaModel:
    """One full-covariance Gaussian per class plus class priors.

    Covariances are stored through their (regularized) Cholesky factors; the
    inverse factors are precomputed, side by side in one d x Kd matrix, for
    fast batched queries. Instances are immutable after fitting and safe for
    concurrent reads.
    """

    def __init__(self, means, chols, log_dets, log_priors, eps_used, counts):
        self.means = means            # (K, d)
        self.chols = chols            # (K, d, d) lower triangular
        self.log_dets = log_dets      # (K,)
        self.log_priors = log_priors  # (K,)
        self.eps_used = eps_used
        self.counts = counts          # (K,) samples used per class
        self.dim = means.shape[1]
        self.num_classes = means.shape[0]
        inv_chols = _inverse_lower(chols)
        # y_c = (z - mu_c) L_c^-T for every class at once: y = [z | 1] [W; -shift]
        w = np.concatenate([inv.T for inv in inv_chols], axis=1)
        shift = np.concatenate([mu @ inv.T for mu, inv in zip(means, inv_chols)])
        # C order, not the Fortran order the inv.T blocks give: on BLAS's
        # transposed path a row's bits depend on its batch's row count
        self._w_shift = np.ascontiguousarray(np.vstack([w, -shift]))
        self._offset = log_priors - 0.5 * (self.dim * np.log(2.0 * np.pi) + log_dets)

    def log_density(self, z):
        """Mixture log-density log sum_c pi_c N(z; mu_c, Sigma_c), log-sum-exp
        stabilized, of each row of the n x d batch `z`: a length-n vector.

        Rows go through in near_equal_blocks of at most LOG_DENSITY_CHUNK
        rows, each one GEMM of [z | 1] against all K whitening factors and
        shifts at once, followed by its own log-sum-exp. The chunk buffers
        are allocated once per call, so memory use does not grow with the
        row count. The log-sum-exp runs class-major, because numpy reduces a
        K x rows array over axis 0 several times faster than a rows x K array
        over axis 1. No chunk of a batch is a single row, which BLAS would
        route through gemv, so a row scores the same in any batch of two or
        more rows.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError("query of shape %s, model dim %d" % (z.shape, self.dim))
        n, k, d = z.shape[0], self.num_classes, self.dim
        chunks = near_equal_blocks(n, LOG_DENSITY_CHUNK)
        rows = -(-n // len(chunks))
        z1 = np.ones((rows, d + 1))
        y = np.empty((rows, k * d))
        comp = np.empty((k, rows))
        out = np.empty(n)
        for lo, hi in chunks:
            m = hi - lo
            z1[:m, :d] = z[lo:hi]
            yk = np.matmul(z1[:m], self._w_shift, out=y[:m]).reshape(m, k, d)
            c = comp[:, :m]
            np.einsum("ikj,ikj->ik", yk, yk, out=c.T)
            c *= -0.5
            c += self._offset[:, None]
            top = c.max(axis=0)
            c -= top
            _exp_in_place(c)
            res = out[lo:lo + m]
            np.sum(c, axis=0, out=res)
            np.log(res, out=res)
            res += top
        return out


def _exp_in_place(c):
    """np.exp(c) into c, writing the +0 it gives below -750 without its slow path."""
    low = c < -750.0
    np.exp(c, out=c, where=~low)
    c[low] = 0.0


def _inverse_lower(chols):
    """Inverses of a K x d x d stack of lower triangular factors, by forward
    substitution one row at a time for all K at once: row i of L^-1 solves
    L[i, :i+1] . X[:i+1, j] = [i == j] for j <= i. Entries above the diagonal
    stay exact zeros."""
    k, d, _ = chols.shape
    inv = np.zeros((k, d, d))
    for i in range(d):
        known = np.matmul(chols[:, i:i + 1, :i], inv[:, :i, :i + 1])[:, 0]
        inv[:, i, :i + 1] = (np.eye(d)[i, :i + 1] - known) / chols[:, i, i, None]
    return inv


def collect_features(head, scenes, cap_per_class, seed):
    """One deterministic pass over `scenes`, reservoir-sampling penultimate
    feature vectors per ground-truth class (Algorithm R).

    `scenes` yields (features, labels) pairs with features n x d_in and
    integer labels of length n; a scene's penultimate features are joined
    from the head's forward of each of its feature_blocks. A class keeps its
    first cap_per_class rows, taken from those arrays scene by scene and
    joined into one array when the class fills or the pass ends. Each later
    row draws j from rng.integers and replaces row j of that array if
    j < cap_per_class: one draw call per scene and class, whose j are those
    of one call per row, and of two rows that draw one j the later is kept.
    """
    rng = np.random.default_rng(seed)
    k = head.config.num_classes
    blocks = {c: [] for c in range(k)}  # kept rows of classes not yet full
    full = {}                           # class id -> cap_per_class x d reservoir
    seen = dict.fromkeys(range(k), 0)
    for features, labels in scenes:
        feats = np.concatenate([head.forward(x).penultimate_features
                                for _, _, x in feature_blocks(features)])
        labels = np.asarray(labels).ravel()
        for c in np.unique(labels).tolist():
            idx = np.flatnonzero(labels == c)
            if c not in full:
                kept = feats[idx[:cap_per_class - seen[c]]]
                blocks[c].append(kept)
                seen[c] += len(kept)
                if seen[c] == cap_per_class:
                    full[c] = np.concatenate(blocks.pop(c))
                idx = idx[len(kept):]
            if len(idx):
                j = rng.integers(0, seen[c] + 1 + np.arange(len(idx)))
                last = np.flatnonzero(j < cap_per_class)[::-1]  # the last draw of a j first
                j, first = np.unique(j[last], return_index=True)
                full[c][j] = feats[idx[last[first]]]
                seen[c] += len(idx)
    empty = np.empty((0, head.config.hidden_width))
    vectors = {c: full.pop(c) if c in full else np.concatenate(blocks.pop(c) + [empty])
               for c in range(k)}
    return FeatureBank(num_classes=k, cap_per_class=cap_per_class, vectors=vectors,
                       seen_counts=seen)


def fit_gda(bank):
    """Fit means, covariances (denominator n-1) and priors from the bank.

    The smallest ladder entry eps for which Sigma_c + eps*scale*I is
    Cholesky-factorizable for every class is applied, where scale is the mean
    covariance diagonal across non-degenerate classes (1.0 if none).
    """
    missing = bank.missing_classes
    if missing:
        raise FitError("no feature vectors for class(es): %s" % missing)
    k = bank.num_classes
    arrays = [bank.class_array(c) for c in range(k)]
    dim = arrays[0].shape[1]
    means = np.stack([a.mean(axis=0) for a in arrays])
    covs = []
    for a, mu in zip(arrays, means):
        if a.shape[0] == 1:
            covs.append(np.zeros((dim, dim)))
        else:
            d = a - mu
            covs.append(d.T @ d / (a.shape[0] - 1))
    covs = np.stack(covs)
    diag_means = [np.trace(cov) / dim for a, cov in zip(arrays, covs) if a.shape[0] > 1]
    scale = float(np.mean(diag_means)) if diag_means else 1.0
    if scale <= 0.0:
        scale = 1.0

    for eps in DEFAULT_EPS_LADDER:
        try:
            chols = np.stack([np.linalg.cholesky(cov + eps * scale * np.eye(dim))
                              for cov in covs])
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise FitError("no ladder epsilon produced SPD covariances")

    log_dets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    counts = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    log_priors = np.log(counts / counts.sum())
    return GdaModel(means=means, chols=chols, log_dets=log_dets,
                    log_priors=log_priors, eps_used=eps * scale, counts=counts)


def epistemic_score(model, features):
    """Negative mixture log-density per row; larger means more uncertain."""
    return -model.log_density(features)


def gmm_param_count(dim, k):
    """Mean plus full covariance parameters per class: K * (d + d^2)."""
    if dim < 1 or k < 1:
        raise ValueError("dim and k must be >= 1")
    return k * (dim + dim * dim)
