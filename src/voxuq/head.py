"""Uncertainty-aware prediction head: residual MLP blocks with optional skip
connections and spectral normalization, a classifier layer, manual backprop,
a minibatch training loop, and an evaluation form with fixed weights.
"""

from dataclasses import dataclass, field

import numpy as np

from .nn_core import (
    LinearLayer,
    OptimizerState,
    ShapeError,
    cross_entropy_loss,
    leaky_relu,
    leaky_relu_grad,
    linear_forward,
    near_equal_blocks,
    power_iteration,
)

# rows per block of feature_blocks; bounds the temporaries of an eval pass
FORWARD_BLOCK = 4096
SN_FINAL_ITERS = 200  # power-iteration steps of finalize_spectral_norm


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
        for name, least in (("input_dim", 1), ("hidden_width", 1), ("num_layers", 2),
                            ("num_classes", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError("%s must be an integer, got %r" % (name, value))
            if value < least:
                raise ValueError("%s must be >= %d, got %r" % (name, least, value))
        if not self.sn_coefficient > 0:
            raise ValueError("sn_coefficient must be positive, got %r" % self.sn_coefficient)


def tensor_shapes(config):
    """Yields (name, shape) of every array a head of `config` is made of, in
    layer order: each layer's parameters() and each hidden layer's
    power-iteration vectors, layer<i>.sn_u and layer<i>.sn_v."""
    in_dim, width, k = config.input_dim, config.hidden_width, config.num_classes
    for i in range(config.num_layers):
        yield from {"layer%d.weight" % i: (width, in_dim), "layer%d.bias" % i: (width,),
                    "layer%d.sn_u" % i: (width,), "layer%d.sn_v" % i: (in_dim,)}.items()
        in_dim = width
    yield from {"classifier.weight": (k, width), "classifier.bias": (k,)}.items()


@dataclass
class HeadOutput:
    logits: np.ndarray
    penultimate_features: np.ndarray


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
        shapes = dict(tensor_shapes(config))
        self.layers = [LinearLayer(*shapes["layer%d.weight" % i], rng,
                                   sn_enabled=config.sn_enabled,
                                   sn_coefficient=config.sn_coefficient)
                       for i in range(config.num_layers)]
        self.classifier = LinearLayer(*shapes["classifier.weight"], rng, sn_enabled=False)
        self.fix_weights()

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

    # -- evaluation form ---------------------------------------------------

    def fix_weights(self):
        """Fix the evaluation form, which eval passes read and nothing else: each
        layer's effective weight from the live weights (sigma from the stored
        power-iteration vectors) and bias, as (w, b) with x @ w + b its map. The
        float64 w is W_eff.T, the view training multiplies by, so a row keeps
        its bits; the float32 w is a C-order rounding with its columns
        zero-padded to a multiple of 16, a layout in which a row's bits do not
        depend on its batch. Run when the head is built, when its weights are
        rounded (train_head's last step) and by store.load_head."""
        self.fixed = {np.float64: [], np.float32: []}
        for layer in (*self.layers, self.classifier):
            w_eff, _ = layer.effective_weight_and_cache(update_state=False)
            padded = np.zeros((layer.in_dim, -(-layer.out_dim // 16) * 16), np.float32)
            padded[:, :layer.out_dim] = w_eff.T
            self.fixed[np.float64].append((w_eff.copy().T, layer.bias.copy()))
            self.fixed[np.float32].append((padded, layer.bias.astype(np.float32)))

    def _passes(self, x, dtype, p=0.0, keeps=(None,)):
        """The one eval-mode layer loop, over the fixed weights of `dtype`: yields
        (logits, penultimate features) of a pass over the rows `x` per item of
        `keeps`, None for the plain pass (given alone) or the hidden layers'
        keep masks (rows x hidden_width, bool) of an MC-Dropout pass: inverted
        dropout at rate p in [0, 1), else ValueError, after each activation.
        Layer 0's map and activation run once for all passes."""
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1), got %r" % p)
        x = np.asarray(x)
        if not np.can_cast(x.dtype, dtype):  # rounded once, for every layer and pass
            x = x.astype(dtype)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ShapeError("input of shape %s, head expects %d columns"
                             % (x.shape, self.config.input_dim))
        *hidden, classifier = self.fixed[dtype]
        # widened as layer 0 reads it, so that no widened copy outlives layer 0
        first = leaky_relu(_affine(x.astype(dtype, copy=False), *hidden[0]))
        for masks in keeps:
            h = x
            for i, (layer, keep) in enumerate(zip(hidden, masks or [None] * len(hidden))):
                act = first if i == 0 else leaky_relu(_affine(h, *layer))
                if masks is not None:  # never in place on first, which every pass reads
                    act = np.multiply(act, keep, out=None if i == 0 else act)
                    act /= 1.0 - p
                elif i == 0:
                    first = None  # the plain pass is alone: act is layer 0's only holder
                if self._block_has_skip(i):
                    act += h
                h = act
            yield _affine(h, *classifier), h

    def forward(self, features, dtype=np.float64):
        """Logits and penultimate features of the eval-mode pass over n x
        input_dim `features` read as `dtype` (float32 ones give the bits of
        their float64 copy); a pass over many rows runs it per feature_block."""
        return HeadOutput(*next(self._passes(features, dtype)))

    def dropout_logits(self, x, p, keeps):
        """Yields the logits of the float32 MC-Dropout pass over the rows `x` of
        each item of `keeps` (see _passes)."""
        return (logits for logits, _ in self._passes(x, np.float32, p, keeps))

    # -- training ----------------------------------------------------------

    def loss_and_grads(self, features, labels, update_sn=False):
        """Mean cross-entropy of one training forward over the live weights, the
        gradient of every named parameter, and the logits. Each hidden layer
        caches its linear_forward entry, then its pre-activation, and the
        classifier its entry last; backward runs over that cache."""
        cache = []
        x = features
        for i, layer in enumerate(self.layers):
            pre = linear_forward(layer, x, cache, update_sn)
            act = leaky_relu(pre)
            if self._block_has_skip(i):
                act += x
            cache.append(pre)
            x = act
        logits = linear_forward(self.classifier, x, cache, update_sn=False)
        loss, g = cross_entropy_loss(logits, labels)
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
        return loss, grads, logits

    def round_weights_to_f32(self):
        """Snap parameters to float32-representable values.

        The artifact format stores head weights as float32; rounding here
        makes save/load round-trips bit-exact for trained heads. It fixes
        the evaluation form anew.
        """
        for p in self.parameters().values():
            p[...] = p.astype(np.float32).astype(np.float64)
        self.fix_weights()

    def finalize_spectral_norm(self):
        """Bake converged SN rescaling into the raw weights (post-training)."""
        if not self.config.sn_enabled:
            return
        for layer in self.layers:
            sigma = power_iteration(layer.weight, layer.sn_state, SN_FINAL_ITERS)
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
            head.fix_weights()  # the eval form of this epoch's weights
            log.accuracies.append(accuracy(head, [(features, labels)]))
    head.finalize_spectral_norm()
    head.round_weights_to_f32()  # fixes the evaluation form of the trained head
    return log


def _affine(x, w, b):
    """x @ w + b of a fixed (w, b), over the b.size columns that are not padding."""
    y = (x @ w)[:, :b.size]
    y += b
    return y


def block_bounds(features):
    """The (lo, hi) of feature_blocks(features), without making any rows."""
    if hasattr(features, "bounds"):
        return features.bounds(FORWARD_BLOCK)
    return near_equal_blocks(len(features), FORWARD_BLOCK)


def feature_blocks(features):
    """(lo, hi, rows lo:hi) of `features` in row order, in blocks of at most
    FORWARD_BLOCK rows: the near_equal_blocks of an n x d array, or the
    blocks of a source that makes its rows a block at a time
    (synthworld.CorruptedRows). Rows do not interact, so a forward of each
    block keeps every row's bits."""
    if hasattr(features, "blocks"):
        return features.blocks(FORWARD_BLOCK)
    return ((lo, hi, features[lo:hi]) for lo, hi in block_bounds(features))


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
