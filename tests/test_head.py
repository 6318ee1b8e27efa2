import tracemalloc

import numpy as np
import pytest

from voxuq import head as head_module
from voxuq import nn_core, pipeline, synthworld
from voxuq.head import (HeadConfig, ResidualMlpHead, accuracy, feature_blocks,
                        train_head)
from voxuq.nn_core import (OptimizerState, ShapeError, leaky_relu, linear_forward,
                           power_iteration)
from voxuq.ood import keep_masks

from oracles import estimate_lipschitz, lipschitz_upper_bound


def small_config(**kwargs):
    defaults = dict(input_dim=6, hidden_width=6, num_layers=3, skip=True,
                    sn_enabled=True, sn_coefficient=1.0, num_classes=4)
    defaults.update(kwargs)
    return HeadConfig(**defaults)


def numeric_grads(head, features, labels, probes, h=1e-5, rng=None):
    """Central finite differences of the training loss at `probes` entries."""
    rng = rng or np.random.default_rng(0)
    params = head.parameters()
    out = []
    for name, flat_idx in probes:
        p = params[name]
        idx = np.unravel_index(flat_idx, p.shape)
        orig = p[idx]
        p[idx] = orig + h
        lp, _, _ = head.loss_and_grads(features, labels, update_sn=False)
        p[idx] = orig - h
        lm, _, _ = head.loss_and_grads(features, labels, update_sn=False)
        p[idx] = orig
        out.append((lp - lm) / (2 * h))
    return np.array(out)


@pytest.mark.parametrize("num_layers, skip, sn_enabled, hidden_width", [
    pytest.param(n, skip, sn, 6, id="%s-%s-%d" % (sn, skip, n))
    for sn in (False, True) for skip in (False, True) for n in (2, 3)
] + [
    pytest.param(n, True, sn, 4, id="%s-projection-%d" % (sn, n))
    for sn in (False, True) for n in (2, 3)
])
def test_backward_matches_finite_differences(num_layers, skip, sn_enabled, hidden_width):
    """hidden_width 4 makes the first layer a projection without a skip,
    followed by square layers with one."""
    rng = np.random.default_rng(99)
    cfg = small_config(num_layers=num_layers, skip=skip, sn_enabled=sn_enabled,
                       hidden_width=hidden_width)
    head = ResidualMlpHead(cfg, seed=7)
    if sn_enabled:
        # push at least one layer past the cap so the rescale branch is live
        head.layers[0].weight *= 4.0
        for layer in head.layers:
            power_iteration(layer.weight, layer.sn_state, 100)
    features = rng.standard_normal((5, cfg.input_dim))
    labels = rng.integers(0, cfg.num_classes, size=5)
    _, grads, _ = head.loss_and_grads(features, labels, update_sn=False)
    probes = []
    for name, p in head.parameters().items():
        for _ in range(3):
            probes.append((name, int(rng.integers(0, p.size))))
    numeric = numeric_grads(head, features, labels, probes)
    for (name, flat_idx), fd in zip(probes, numeric):
        g = grads[name].ravel()[flat_idx]
        denom = max(abs(fd), abs(g), 1e-8)
        assert abs(g - fd) / denom < 1e-4, (name, flat_idx, g, fd)


def test_forward_shapes_and_penultimate():
    cfg = small_config()
    head = ResidualMlpHead(cfg, seed=0)
    x = np.random.default_rng(1).standard_normal((10, 6))
    out = head.forward(x)
    assert out.logits.shape == (10, 4)
    assert out.penultimate_features.shape == (10, cfg.hidden_width)


def test_skip_block_is_identity_plus_activation():
    cfg = small_config(num_layers=2, sn_enabled=False)
    head = ResidualMlpHead(cfg, seed=3)
    x = np.random.default_rng(2).standard_normal((4, 6))
    # manual forward: first block has square dims => skip applies
    h1 = x + leaky_relu(x @ head.layers[0].weight.T + head.layers[0].bias)
    h2 = h1 + leaky_relu(h1 @ head.layers[1].weight.T + head.layers[1].bias)
    out = head.forward(x)
    assert np.allclose(out.penultimate_features, h2, atol=1e-12)


def test_first_layer_projection_has_no_skip():
    cfg = small_config(input_dim=5, hidden_width=8)
    head = ResidualMlpHead(cfg, seed=0)
    assert not head._block_has_skip(0)
    assert head._block_has_skip(1)


def row_blocks(n):
    """The (lo, hi) bounds of the feature_blocks of an array of n rows."""
    return [(lo, hi) for lo, hi, _ in feature_blocks(np.empty((n, 1)))]


def blocked_forward(head, x):
    """The forwards of the feature_blocks of `x` joined back into whole arrays."""
    blocks = [(lo, hi, head.forward(rows)) for lo, hi, rows in feature_blocks(x)]
    assert [(lo, hi) for lo, hi, _ in blocks] == row_blocks(len(x))
    return (np.concatenate([out.logits for _, _, out in blocks]),
            np.concatenate([out.penultimate_features for _, _, out in blocks]))


@pytest.mark.parametrize("n", [17, 49, 107])
def test_eval_forward_in_blocks_keeps_bits(monkeypatch, n):
    head = ResidualMlpHead(small_config(), seed=3)
    x = np.random.default_rng(5).standard_normal((n, 6)) * 3
    whole = head.forward(x)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    assert len(row_blocks(n)) > 1
    logits, penultimate = blocked_forward(head, x)
    assert np.array_equal(logits, whole.logits)
    assert np.array_equal(penultimate, whole.penultimate_features)


@pytest.mark.parametrize("n", [17, 49, 107])
def test_forward_of_float32_features_keeps_the_bits_of_their_float64_copy(monkeypatch, n):
    """Float32 features, through feature_blocks or one forward, give the bits
    of the same features widened to float64: each block is widened exactly
    as a layer reads it, and the skip connection widens exactly too."""
    head = ResidualMlpHead(small_config(), seed=3)
    x = (np.random.default_rng(5).standard_normal((n, 6)) * 3).astype(np.float32)
    want = head.forward(x.astype(np.float64))
    got = head.forward(x)
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.penultimate_features.tobytes() == want.penultimate_features.tobytes()
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    logits, penultimate = blocked_forward(head, x)
    assert logits.tobytes() == want.logits.tobytes()
    assert penultimate.tobytes() == want.penultimate_features.tobytes()


def test_eval_forward_temporaries_are_block_sized():
    """A consumer that drops each forward of a feature_blocks block before
    the next peaks at a few blocks; one forward over the 8 blocks of rows
    holds several arrays the size of the input."""
    head = ResidualMlpHead(HeadConfig(), seed=0)
    x = np.random.default_rng(6).standard_normal((8 * head_module.FORWARD_BLOCK, 32))
    blocks = 0
    tracemalloc.start()
    try:
        for _, _, rows in feature_blocks(x):
            out = head.forward(rows)
            blocks += 1
            del out
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks == 8
    block_bytes = head_module.FORWARD_BLOCK * 32 * 8
    assert peak <= 4 * block_bytes


@pytest.mark.parametrize("n", [0, 1, 16, 17, 31, 32, 33, 107])
def test_row_blocks_cover_rows_in_near_equal_blocks(monkeypatch, n):
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    blocks = row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert len(blocks) == max(1, -(-n // 16)) and max(sizes) - min(sizes) <= 1
    assert max(sizes) <= 16 and (len(blocks) == 1 or min(sizes) >= 8)


def whole_forward_accuracy(head, x, y):
    """Oracle: the argmax of one unblocked forward over every row."""
    logits = head.forward(x).logits
    return float((logits.argmax(axis=1) == y).mean())


def test_accuracy_equals_whole_forward_argmax(monkeypatch):
    head = ResidualMlpHead(small_config(), seed=4)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((107, 6)), rng.integers(0, 4, size=107)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    assert accuracy(head, [(x, y)]) == whole_forward_accuracy(head, x, y)
    # pairs of 40 and 67 rows: blocks of each pair, counted over both
    assert accuracy(head, [(x[:40], y[:40]), (x[40:], y[40:])]) == accuracy(head, [(x, y)])


def test_train_log_accuracy_equals_whole_forward_argmax(monkeypatch):
    """The logged accuracy is taken before the post-training spectral-norm
    bake and f32 rounding, which are switched off here to compare."""
    head = ResidualMlpHead(small_config(), seed=5)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((107, 6)), rng.integers(0, 4, size=107)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    monkeypatch.setattr(head, "finalize_spectral_norm", lambda: None)
    monkeypatch.setattr(head, "round_weights_to_f32", lambda: None)
    log = train_head(head, x, y, epochs=1, batch_size=32, seed=0)
    assert log.accuracies == [whole_forward_accuracy(head, x, y)]


def test_validation_accuracy_of_loaded_split_streams_blocks(tmp_path):
    """The accuracy of a loaded split of 8 scenes of one block of rows each,
    read scene by scene: the whole-forward argmax accuracy, with no copy of
    the split and no split-sized penultimate array."""
    config = synthworld.WorldConfig(grid=(32, 32, 4), test_scenes=8, seed=3)
    world = synthworld.generate_world(config)
    synthworld.save_dataset(synthworld.generate_dataset(world, "test"), tmp_path / "test")
    ds = synthworld.load_dataset(tmp_path / "test")
    head = ResidualMlpHead(pipeline.head_config_for_world(config), seed=6)
    x, y = ds.voxel_arrays()
    assert len(y) == 8 * head_module.FORWARD_BLOCK
    tracemalloc.start()
    try:
        acc = accuracy(head, ds.iter_scene_arrays())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acc == whole_forward_accuracy(head, x, y)
    # one block's forward is about 3 blocks; a copy of the split alone is 8
    assert peak <= 4 * head_module.FORWARD_BLOCK * config.feature_dim * 8

def test_forward_rejects_wrong_width():
    head = ResidualMlpHead(small_config(), seed=0)
    with pytest.raises(ShapeError):
        head.forward(np.zeros((3, 7)))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(num_layers=1)
    with pytest.raises(ValueError):
        small_config(sn_coefficient=0.0)


@pytest.mark.parametrize("field, value", [
    ("input_dim", 6.0), ("input_dim", True), ("input_dim", 0), ("input_dim", "6"),
    ("hidden_width", 6.0), ("hidden_width", False), ("hidden_width", 0),
    ("num_layers", 3.0), ("num_layers", True),
    ("num_classes", 4.0), ("num_classes", True), ("num_classes", 1), ("num_classes", None)])
def test_config_names_the_bad_field(field, value):
    """A non-integer or bool size, input_dim below 1, hidden_width below 1
    or num_classes below 2 is a ValueError that names the field."""
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


def test_float_width_is_a_config_error_not_a_numpy_one():
    with pytest.raises(ValueError, match="hidden_width must be an integer, got 6.0"):
        ResidualMlpHead(HeadConfig(input_dim=6, hidden_width=6.0, num_classes=4))
    assert small_config(hidden_width=np.int64(6)).hidden_width == 6


def test_param_count():
    cfg = small_config(input_dim=6, hidden_width=6, num_layers=3, num_classes=4)
    head = ResidualMlpHead(cfg, seed=0)
    expected = 3 * (6 * 6 + 6) + (4 * 6 + 4)
    assert head.param_count() == expected


# -- dropout ----------------------------------------------------------------

def reference_linear(layer, h, dtype=np.float64):
    """One layer's eval-mode map in `dtype`. float64 is linear_forward's, over
    the transposed view of W_eff; float32 multiplies h by W_eff^T rounded to
    float32, as a C-order matrix whose output columns are zero-padded to a
    multiple of 16, and adds the float32 bias."""
    if dtype is np.float64:
        return linear_forward(layer, h, update_sn=False)
    w_eff, _ = layer.effective_weight_and_cache(update_state=False)
    padded = np.zeros((layer.in_dim, -(-layer.out_dim // 16) * 16), np.float32)
    padded[:, :layer.out_dim] = w_eff.T
    return (h @ padded)[:, :layer.out_dim] + layer.bias.astype(np.float32)


def dropout_forward(head, x, p, rngs, dtype=np.float64):
    """Reference eval-mode pass over the rows `x`, read as `dtype`, with
    inverted dropout after every hidden activation, layer i's keep mask drawn
    from rngs[i] as random() >= p (the forward's dropout before
    dropout_logits), or none without `rngs`; as logits and penultimate
    features."""
    h = np.asarray(x, dtype=dtype)
    for i, layer in enumerate(head.layers):
        act = leaky_relu(reference_linear(layer, h, dtype))
        if rngs is not None:
            keep = rngs[i].random(act.shape) >= p
            act = act * keep / (1.0 - p)
        if head._block_has_skip(i):
            act += h
        h = act
    return reference_linear(head.classifier, h, dtype), h


def drawn_masks(head, rng, rows, p):
    """The keep masks of one pass over `rows` rows that draws every layer's
    from the one generator `rng`, in layer order."""
    return [rng.random((rows, head.config.hidden_width)) >= p for _ in head.layers]


def test_dropout_p_zero_is_plain_forward():
    head = ResidualMlpHead(small_config(), seed=0)
    x = np.random.default_rng(5).standard_normal((6, 6))
    a = head.forward(x, np.float32).logits
    [b] = head.dropout_logits(x, 0.0, [drawn_masks(head, np.random.default_rng(1), 6, 0.0)])
    assert np.array_equal(a, b)


def test_dropout_deterministic_per_seed():
    head = ResidualMlpHead(small_config(), seed=0)
    x = np.random.default_rng(6).standard_normal((20, 6))

    def logits(seed):
        [out] = head.dropout_logits(
            x, 0.3, [drawn_masks(head, np.random.default_rng(seed), 20, 0.3)])
        return out

    a, b, c = logits(11), logits(11), logits(12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [17, 49, 107])
def test_keep_masks_draw_the_masks_of_one_generator_for_every_layer(monkeypatch, n):
    """dropout_logits of each row block with ood.keep_masks gives the bits of
    the reference pass over all rows that draws every layer's masks, in
    layer order, from a single default_rng(seed): the draw order of an
    unblocked pass."""
    head = ResidualMlpHead(small_config(hidden_width=5), seed=3)
    x = np.random.default_rng(5).standard_normal((n, 6))
    whole, _ = dropout_forward(head, x, 0.3, [np.random.default_rng(9)] * len(head.layers),
                               np.float32)
    monkeypatch.setattr(head_module, "FORWARD_BLOCK", 16)
    assert len(row_blocks(n)) > 1
    masks = {}
    blocks = [next(head.dropout_logits(rows, 0.3, [keep_masks(masks, head, 0.3, 9, n, lo, hi)]))
              for lo, hi, rows in feature_blocks(x)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_dropout_logits_equal_the_reference_pass_bit_for_bit():
    """Every pass of one dropout_logits call, which runs layer 0 once for all
    of them, has the bits of the float32 reference pass with its own
    generator."""
    head = ResidualMlpHead(small_config(), seed=4)
    x = np.random.default_rng(8).standard_normal((40, 6)).astype(np.float32)
    got = head.dropout_logits(x, 0.25, [drawn_masks(head, np.random.default_rng(s), 40, 0.25)
                                        for s in range(3)])
    for s, logits in enumerate(got):
        want, _ = dropout_forward(head, x, 0.25, [np.random.default_rng(s)] * 3, np.float32)
        assert logits.tobytes() == want.tobytes(), s


@pytest.mark.parametrize("hidden_width", [5, 16, 32])
def test_float32_passes_equal_the_reference_pass_bit_for_bit(hidden_width):
    """forward in float32 and dropout_logits, on float64 rows that they round
    once, have the bits of the plain float32 reference pass; the float64
    forward has those of the linear_forward pass."""
    head = ResidualMlpHead(small_config(hidden_width=hidden_width, num_classes=17), seed=5)
    x = np.random.default_rng(9).standard_normal((60, 6))
    want, _ = dropout_forward(head, x, 0.0, None, np.float32)
    assert want.dtype == np.float32
    assert head.forward(x, np.float32).logits.tobytes() == want.tobytes()
    assert head.forward(x).logits.tobytes() == dropout_forward(head, x, 0.0, None)[0].tobytes()
    got = head.dropout_logits(x, 0.2, [drawn_masks(head, np.random.default_rng(s), 60, 0.2)
                                       for s in range(2)])
    for s, logits in enumerate(got):
        want, _ = dropout_forward(head, x, 0.2, [np.random.default_rng(s)] * 3, np.float32)
        assert logits.tobytes() == want.tobytes(), s


def test_eval_passes_compute_no_sigma(monkeypatch):
    """After the head is built, its eval-mode passes in either dtype read the
    fixed weights: no effective weight, power iteration or SN cache."""
    head = ResidualMlpHead(small_config(), seed=0)
    x = np.random.default_rng(1).standard_normal((10, 6))

    def forbidden(*args, **kwargs):
        raise AssertionError("an eval pass computed sigma")

    monkeypatch.setattr(nn_core.LinearLayer, "effective_weight_and_cache", forbidden)
    monkeypatch.setattr(nn_core, "power_iteration", forbidden)
    monkeypatch.setattr(head_module, "linear_forward", forbidden)
    for dtype in (np.float64, np.float32):
        head.forward(x, dtype)
    list(head.dropout_logits(x, 0.5, [drawn_masks(head, np.random.default_rng(2), 10, 0.5)]))
    assert accuracy(head, [(x, np.zeros(10, dtype=np.int64))]) >= 0.0


def test_dropout_invalid_p():
    head = ResidualMlpHead(small_config(), seed=0)
    for p in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            next(head.dropout_logits(np.zeros((1, 6)), p,
                                     [drawn_masks(head, np.random.default_rng(0), 1, 0.5)]))


# -- training ---------------------------------------------------------------

def blobs(rng, n_per_class, k, d, spread=4.0):
    centers = rng.standard_normal((k, d)) * spread
    feats = np.concatenate([centers[c] + rng.standard_normal((n_per_class, d))
                            for c in range(k)])
    labels = np.repeat(np.arange(k), n_per_class)
    return feats, labels


def test_train_head_learns_blobs():
    rng = np.random.default_rng(7)
    feats, labels = blobs(rng, 150, 4, 6)
    head = ResidualMlpHead(small_config(), seed=1)
    opt = OptimizerState(lr=1e-2)
    log = train_head(head, feats, labels, opt=opt, epochs=30, batch_size=64, seed=1)
    assert log.losses[-1] < log.losses[0]
    assert log.accuracies[-1] > 0.9


def test_train_head_finalizes_spectral_norm():
    rng = np.random.default_rng(8)
    feats, labels = blobs(rng, 80, 4, 6)
    head = ResidualMlpHead(small_config(), seed=2)
    train_head(head, feats, labels, epochs=3, batch_size=64, seed=2)
    for layer in head.layers:
        top = np.linalg.svd(layer.weight, compute_uv=False)[0]
        assert top <= layer.sn_coefficient * (1.0 + 1e-3)


def test_train_head_weights_are_f32_representable():
    rng = np.random.default_rng(9)
    feats, labels = blobs(rng, 40, 4, 6)
    head = ResidualMlpHead(small_config(), seed=3)
    train_head(head, feats, labels, epochs=2, batch_size=64, seed=3)
    for p in head.parameters().values():
        assert np.array_equal(p, p.astype(np.float32).astype(np.float64))


def test_train_head_rejects_empty_and_bad_labels():
    head = ResidualMlpHead(small_config(), seed=0)
    with pytest.raises(ValueError):
        train_head(head, np.zeros((0, 6)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train_head(head, np.zeros((2, 6)), np.array([0, 9]))


# -- Lipschitz probing ------------------------------------------------------

def test_estimate_lipschitz_skips_coincident_pairs():
    head = ResidualMlpHead(small_config(), seed=5)
    x = np.random.default_rng(12).standard_normal(6)
    est = estimate_lipschitz(head, [(x, x), (x, x + 0.5)])
    assert est.skipped_pairs == 1
    assert est.sample_count == 1


def test_estimate_lipschitz_all_coincident_raises():
    head = ResidualMlpHead(small_config(), seed=5)
    x = np.zeros(6)
    with pytest.raises(ValueError):
        estimate_lipschitz(head, [(x, x)])


def test_lipschitz_upper_bound_formula():
    cfg = small_config(num_layers=3, sn_coefficient=1.0)
    assert lipschitz_upper_bound(cfg) == 8.0
    cfg = small_config(num_layers=2, sn_coefficient=0.5)
    assert lipschitz_upper_bound(cfg) == 2.25


def test_training_holds_no_float64_copy_of_its_split(tmp_path):
    """train_on_dataset on a generated and on a loaded float32 split of 16
    scenes: training reads the split's own array and widens each minibatch
    as it is read, so it peaks below the bytes of the float32 features, which
    a joined copy alone would take (one accuracy block's forward, about 3
    blocks of float64 rows, fits in half of them), and the head and its log
    have the bits of training on the split widened to float64."""
    config = synthworld.WorldConfig(grid=(32, 32, 4), train_scenes=16, seed=3)
    generated = synthworld.generate_dataset(synthworld.generate_world(config), "train")
    synthworld.save_dataset(generated, tmp_path / "train")
    head_config = pipeline.head_config_for_world(config)
    x, y = generated.voxel_arrays()
    assert x.dtype == np.float32
    assert 4 * head_module.FORWARD_BLOCK * config.feature_dim * 8 <= x.nbytes
    want = ResidualMlpHead(head_config, seed=4)
    want_log = train_head(want, x.astype(np.float64), y,
                          opt=OptimizerState(lr=pipeline.DEFAULT_LR), epochs=1,
                          batch_size=pipeline.DEFAULT_BATCH, seed=4)
    for ds in (generated, synthworld.load_dataset(tmp_path / "train")):
        tracemalloc.start()
        try:
            head, log = pipeline.train_on_dataset(head_config, ds, seed=4, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes
        assert log.losses == want_log.losses and log.accuracies == want_log.accuracies
        for name, p in head.parameters().items():
            assert p.tobytes() == want.parameters()[name].tobytes(), name
