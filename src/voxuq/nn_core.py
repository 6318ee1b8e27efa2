"""Dense float64 numeric core: linear layers, spectral normalization via power
iteration, softmax / cross-entropy, and the Adam optimizer.

Everything here is deterministic given a seed. Random state uses numpy's
PCG64 generator throughout.
"""

import math

import numpy as np

LEAKY_SLOPE = 0.01


class ShapeError(ValueError):
    """Raised when operand dimensions do not line up."""


def leaky_relu(x):
    out = LEAKY_SLOPE * x
    return np.maximum(x, out, out=out)


def leaky_relu_grad(pre):
    """1.0 where pre >= 0, else LEAKY_SLOPE (NaN included), as one maximum
    of the mask and the slope rather than a select over the mask."""
    return np.maximum(pre >= 0.0, LEAKY_SLOPE)


def pairwise_sum(leaf, lo, hi, size=128):
    """The sum of the values lo:hi in numpy's pairwise order: np.sum halves a
    run of more than `size` at n//2 - (n//2) % 8; leaf(lo, hi) adds one."""
    if hi - lo <= size:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
    return pairwise_sum(leaf, lo, mid, size) + pairwise_sum(leaf, mid, hi, size)


def class_sum(a):
    """Column sums of a class-major K x n array with the bits of a.T.sum(axis=1):
    np.sum adds a run of 8 to 128 as 8 interleaved sums, then the rest in order."""

    def run(lo, hi):
        whole = hi - (hi - lo) % 8
        total = 0.0
        if whole > lo:
            r = a[lo:lo + 8].copy()
            for i in range(lo + 8, whole, 8):
                r += a[i:i + 8]
            for step in (1, 2, 4):  # in place: ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
                r[::2 * step] += r[step::2 * step]
            total = r[0]
        for row in a[whole:hi]:
            total += row
        return total

    return pairwise_sum(run, 0, len(a))


def softmax(logits):
    """Softmax over the classes of class-major K x n logits (the .T of n x K
    ones), max-subtracted for stability: the bits of the row-wise formula."""
    e = np.array(logits, dtype=np.float64, order="C")
    e -= e.max(axis=0)
    np.exp(e, out=e)
    return np.divide(e, class_sum(e), out=e)


def cross_entropy_loss(logits, labels):
    """Mean cross-entropy over rows plus its gradient wrt the logits.

    Returns (loss, grad) with grad = (softmax - onehot) / n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("label out of range [0, %d)" % k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


class SpectralState:
    """Persistent power-iteration vectors for one weight matrix."""

    def __init__(self, out_dim, in_dim, rng):
        u = rng.standard_normal(out_dim)
        v = rng.standard_normal(in_dim)
        self.u = u / np.linalg.norm(u)
        self.v = v / np.linalg.norm(v)


def power_iteration(weight, state, iters=1):
    """Estimate the top singular value of `weight` by alternating power steps.

    Updates state.u / state.v in place and returns sigma = u^T W v.
    An all-zero matrix returns 0 with the state untouched.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if not np.any(weight):
        return 0.0
    u, v = state.u, state.v
    for _ in range(iters):
        v = weight.T @ u
        v_norm = math.sqrt(v @ v)  # np.linalg.norm's formula for a vector
        if v_norm == 0.0:
            break
        v = v / v_norm
        u = weight @ v
        u_norm = math.sqrt(u @ u)
        if u_norm == 0.0:
            break
        u = u / u_norm
    state.u, state.v = u, v
    return float(u @ weight @ v)


class LinearLayer:
    """Dense layer y = x W^T + b with optional spectral normalization.

    The raw weight is what the optimizer updates; the effective weight used
    in the forward pass is W * min(1, c / sigma_hat) when SN is enabled.
    """

    def __init__(self, out_dim, in_dim, rng, sn_enabled=False, sn_coefficient=1.0):
        self.weight = rng.standard_normal((out_dim, in_dim)) * np.sqrt(2.0 / in_dim)
        self.bias = np.zeros(out_dim)
        self.sn_enabled = sn_enabled
        self.sn_coefficient = float(sn_coefficient)
        self.sn_state = SpectralState(out_dim, in_dim, rng)

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]

    def effective_weight_and_cache(self, update_state=True):
        """Forward-pass weight plus the quantities backward needs.

        Returns (w_eff, cache) where cache holds the SN scale, sigma and the
        u/v snapshot used, so the backward pass can differentiate through
        sigma_hat = u^T W v with u, v held fixed.
        """
        if not self.sn_enabled:
            return self.weight, {"scale": 1.0, "clipped": False}
        state = self.sn_state
        # power_iteration's sigma is u^T W v over the u, v it leaves in state
        sigma = (power_iteration(self.weight, state) if update_state
                 else float(state.u @ self.weight @ state.v))
        u = state.u.copy()
        v = state.v.copy()
        c = self.sn_coefficient
        if sigma <= c or sigma == 0.0:
            return self.weight, {"scale": 1.0, "clipped": False, "u": u, "v": v, "sigma": sigma}
        w_eff = self.weight * (c / sigma)
        return w_eff, {"scale": c / sigma, "clipped": True, "u": u, "v": v, "sigma": sigma}

    def raw_weight_grad(self, grad_eff, cache):
        """Map a gradient wrt the effective weight back to the raw weight.

        When the SN rescale was active, W_eff = c W / (u^T W v), so the
        product rule contributes a rank-one correction along u v^T.
        """
        if not cache.get("clipped", False):
            return grad_eff
        scale = cache["scale"]
        sigma = cache["sigma"]
        inner = float(np.sum(grad_eff * self.weight))
        return scale * grad_eff - (scale / sigma) * inner * np.outer(cache["u"], cache["v"])


def near_equal_blocks(n, size):
    """(lo, hi) bounds of the fewest near-equal blocks of at most `size` rows
    that cover n rows; one block when n <= size. When there are several,
    each holds at least half of `size` rows, never the single row that BLAS
    would route through gemv instead of GEMM, so a row's bits do not depend
    on where the cuts fall.
    """
    blocks = max(1, -(-n // size))
    bounds = [i * n // blocks for i in range(blocks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def linear_forward(layer, x, cache=None, update_sn=True):
    """y = x W_eff^T + b; appends (x, W_eff, SN cache) to the list `cache`
    when given, for the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise ShapeError(
            "linear_forward: input has %s columns, layer expects %d"
            % (x.shape[1] if x.ndim == 2 else "?", layer.in_dim)
        )
    w_eff, sn_cache = layer.effective_weight_and_cache(update_state=update_sn)
    y = x @ w_eff.T
    y += layer.bias
    if cache is not None:
        cache.append((x, w_eff, sn_cache))
    return y


class OptimizerState:
    """Adam over a dict of named parameter arrays, as whole-vector operations
    on one flat (m, v) slot pair: the gradients are joined in the dict's
    order and each parameter takes its slice of the update. Every operation
    is elementwise, so each element has the bits of a per-array Adam."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self._layout = None   # (name, shape) of each parameter, in order
        self._m = self._v = None

    def step(self, params, grads):
        """In-place update of every parameter in `params` from `grads`. The
        first step lays the slots out for its parameters; a later step over
        other names or shapes raises ShapeError and moves nothing."""
        for name, p in params.items():
            if grads[name].shape != p.shape:
                raise ShapeError("gradient shape %s != parameter shape %s for %s"
                                 % (grads[name].shape, p.shape, name))
        layout = [(name, p.shape) for name, p in params.items()]
        if self._layout is None:
            self._layout = layout
            self._m = np.zeros(sum(p.size for p in params.values()))
            self._v = np.zeros_like(self._m)
        elif layout != self._layout:
            raise ShapeError("parameters %s are not the %s this optimizer steps"
                             % (layout, self._layout))
        self.step_count += 1
        g = np.concatenate([grads[name].ravel() for name in params])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        gg = (1.0 - self.beta2) * g
        gg *= g
        v += gg
        update = m / (1.0 - self.beta1 ** self.step_count)
        update *= self.lr
        denom = v / (1.0 - self.beta2 ** self.step_count)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        lo = 0
        for p in params.values():
            p -= update[lo:lo + p.size].reshape(p.shape)
            lo += p.size
