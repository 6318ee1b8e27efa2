"""Uncertainty-aware prediction head: residual MLP blocks with optional skip
connections and spectral normalization, a classifier layer, manual backprop,
a minibatch training loop, and Lipschitz-ratio probing.
"""

from dataclasses import dataclass, field

import numpy as np

from .nn_core import (
    LinearLayer,
    OptimizerState,
    cross_entropy_loss,
    leaky_relu,
    leaky_relu_grad,
    linear_forward,
    near_equal_blocks,
    power_iteration,
)

# rows per block of feature_blocks; bounds the temporaries of an eval pass
FORWARD_BLOCK = 4096


@dataclass
class HeadConfig:
    input_dim: int = 32
    hidden_width: int = 32
    num_layers: int = 3          # hidden linear layers, classifier excluded
    skip: bool = True
    sn_enabled: bool = True
    sn_coefficient: float = 1.0
    num_classes: int = 17

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError("num_layers must be >= 2, got %r" % self.num_layers)
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1, got %r" % self.hidden_width)
        if not self.sn_coefficient > 0:
            raise ValueError("sn_coefficient must be positive, got %r" % self.sn_coefficient)


@dataclass
class HeadOutput:
    logits: np.ndarray
    penultimate_features: np.ndarray


@dataclass
class LipschitzEstimate:
    lower_ratio: float
    upper_ratio: float
    sample_count: int
    skipped_pairs: int = 0


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)


class ResidualMlpHead:
    """MLP head g: blocks compute x + act(x W^T + b) when skip is enabled and
    the block is square; the first layer projects input_dim -> hidden_width
    without a skip when the dimensions differ. Penultimate features are the
    output of the last hidden block, before the classifier.
    """

    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.layers = []
        in_dim = config.input_dim
        for _ in range(config.num_layers):
            self.layers.append(
                LinearLayer(config.hidden_width, in_dim, rng,
                            sn_enabled=config.sn_enabled,
                            sn_coefficient=config.sn_coefficient)
            )
            in_dim = config.hidden_width
        self.classifier = LinearLayer(config.num_classes, config.hidden_width, rng,
                                      sn_enabled=False)

    # -- parameter plumbing ------------------------------------------------

    def parameters(self):
        """Named views of every trainable array (mutating them mutates the head)."""
        params = {}
        for i, layer in enumerate(self.layers):
            params["layer%d.weight" % i] = layer.weight
            params["layer%d.bias" % i] = layer.bias
        params["classifier.weight"] = self.classifier.weight
        params["classifier.bias"] = self.classifier.bias
        return params

    def param_count(self):
        return sum(p.size for p in self.parameters().values())

    def _block_has_skip(self, i):
        return self.config.skip and self.layers[i].in_dim == self.layers[i].out_dim

    # -- forward / backward ------------------------------------------------

    def forward(self, features, cache=None, update_sn=False, dropout_p=0.0, dropout_rngs=None):
        """Logits and penultimate features of n x input_dim `features`, in one
        pass over all rows; passes over many rows run it on each of their
        feature_blocks instead.

        dropout_p > 0 applies inverted dropout after every hidden activation,
        with layer i's keep masks drawn from `dropout_rngs[i]` (MC-Dropout
        passes); a rate outside [0, 1) raises ValueError. With a list `cache`,
        each hidden layer appends its linear_forward entry and then its
        pre-activation, and the classifier appends its entry last.

        Features of another float dtype are widened to float64 as each layer
        reads them, so float32 features give the bits of their float64 copy.
        """
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError("dropout p must be in [0, 1), got %r" % dropout_p)
        x = features
        for i, layer in enumerate(self.layers):
            pre = linear_forward(layer, x, cache, update_sn)
            act = leaky_relu(pre)
            if dropout_p > 0.0:
                keep = dropout_rngs[i].random(act.shape) >= dropout_p
                act = act * keep / (1.0 - dropout_p)
            if self._block_has_skip(i):
                act += x
            if cache is not None:
                cache.append(pre)
            x = act
        penultimate = x
        logits = linear_forward(self.classifier, x, cache, update_sn=False)
        return HeadOutput(logits=logits, penultimate_features=penultimate)

    def loss_and_grads(self, features, labels, update_sn=False):
        """Mean cross-entropy of one training forward, the gradient of every
        named parameter, and the forward's output. The gradients are
        backpropagated over the forward's cache, from the classifier back
        through the hidden layers."""
        cache = []
        out = self.forward(features, cache, update_sn)
        loss, g = cross_entropy_loss(out.logits, labels)
        grads = {}

        def linear_backward(name, layer, entry, g):
            x, w_eff, sn_cache = entry
            grads[name + ".weight"] = layer.raw_weight_grad(g.T @ x, sn_cache)
            grads[name + ".bias"] = g.sum(axis=0)
            return g @ w_eff

        g = linear_backward("classifier", self.classifier, cache[-1], g)
        for i in reversed(range(len(self.layers))):
            upstream = g
            g = upstream * leaky_relu_grad(cache[2 * i + 1])
            g = linear_backward("layer%d" % i, self.layers[i], cache[2 * i], g)
            if self._block_has_skip(i):
                # identity path of the residual add rejoins the branch here
                g = g + upstream
        return loss, grads, out

    def round_weights_to_f32(self):
        """Snap parameters to float32-representable values.

        The artifact format stores head weights as float32; rounding here
        makes save/load round-trips bit-exact for trained heads.
        """
        for p in self.parameters().values():
            p[...] = p.astype(np.float32).astype(np.float64)

    def finalize_spectral_norm(self, iters=200):
        """Bake converged SN rescaling into the raw weights (post-training)."""
        if not self.config.sn_enabled:
            return
        for layer in self.layers:
            sigma = power_iteration(layer.weight, layer.sn_state, iters)
            c = layer.sn_coefficient
            if sigma > c:
                layer.weight *= c / sigma


def train_head(head, features, labels, opt=None, epochs=10, batch_size=512, seed=0,
               log_accuracy=True):
    """Minibatch cross-entropy training; SN re-applied every step when enabled.

    `features` is n x input_dim, `labels` length n. Returns a TrainLog with
    per-epoch mean loss and, with log_accuracy, full-pass accuracy; without
    it the accuracies stay empty, and as that pass draws no random number
    and moves no SN state, the head has the same bits. Each forward widens
    its minibatch, so float32 features train as their float64 copy,
    unwidened.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise ValueError("empty training set")
    if labels.max(initial=0) >= head.config.num_classes:
        raise ValueError("label exceeds num_classes")
    if opt is None:
        opt = OptimizerState(lr=1e-3)
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    log = TrainLog()
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, grads, _ = head.loss_and_grads(features[idx], labels[idx], update_sn=True)
            opt.step(head.parameters(), grads)
            losses.append(loss)
        log.epochs.append(epoch)
        log.losses.append(float(np.mean(losses)))
        if log_accuracy:
            log.accuracies.append(accuracy(head, [(features, labels)]))
    head.finalize_spectral_norm()
    head.round_weights_to_f32()
    return log


def feature_blocks(features):
    """(lo, hi, rows lo:hi) of `features` in row order, in blocks of at most
    FORWARD_BLOCK rows: the near_equal_blocks of an n x d array, or the
    blocks of a source that makes its rows a block at a time
    (synthworld.CorruptedRows). Rows do not interact, so a forward of each
    block keeps every row's bits."""
    if hasattr(features, "blocks"):
        return features.blocks(FORWARD_BLOCK)
    bounds = near_equal_blocks(len(features), FORWARD_BLOCK)
    return ((lo, hi, features[lo:hi]) for lo, hi in bounds)


def dropout_streams(head, seed, rows):
    """One Generator per hidden layer, layer i's PCG64(seed) advanced past the
    i * rows * hidden_width draws of the layers before it: forwards of
    consecutive row blocks draw the masks of one forward over all `rows`
    rows with default_rng(seed) for every layer."""
    width = rows * head.config.hidden_width
    return [np.random.Generator(np.random.PCG64(seed).advance(i * width))
            for i in range(len(head.layers))]


def accuracy(head, pairs):
    """Fraction of rows whose argmax logit is their label, over the
    (features, labels) `pairs`, from a forward of each feature_blocks block,
    so that no pair's penultimate array is held."""
    correct = total = 0
    for features, labels in pairs:
        for lo, hi, x in feature_blocks(features):
            predicted = head.forward(x).logits.argmax(axis=1)
            correct += int(np.count_nonzero(predicted == labels[lo:hi]))
        total += len(labels)
    return correct / total


def estimate_lipschitz(head, probe_pairs):
    """Min / max ratio of penultimate-feature distance to input distance.

    Coincident pairs are skipped and counted rather than raising.
    """
    if len(probe_pairs) == 0:
        raise ValueError("need at least one probe pair")
    ratios = []
    skipped = 0
    for x1, x2 in probe_pairs:
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        d_in = np.linalg.norm(x1 - x2)
        if d_in == 0.0:
            skipped += 1
            continue
        f1 = head.forward(x1[None, :], update_sn=False).penultimate_features[0]
        f2 = head.forward(x2[None, :], update_sn=False).penultimate_features[0]
        ratios.append(np.linalg.norm(f1 - f2) / d_in)
    if not ratios:
        raise ValueError("all probe pairs were coincident")
    return LipschitzEstimate(lower_ratio=float(min(ratios)),
                             upper_ratio=float(max(ratios)),
                             sample_count=len(ratios),
                             skipped_pairs=skipped)


def lipschitz_upper_bound(config):
    """Product over hidden blocks of (1 + c): composition bound for SN blocks."""
    return (1.0 + config.sn_coefficient) ** config.num_layers

