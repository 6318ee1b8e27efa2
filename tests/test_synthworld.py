import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxuq import synthworld
from voxuq.synthworld import (BIAS_COEF, FOG_COEF, NOISE_COEF, CorruptionSpec, WorldConfig,
                              apply_corruption,
                              corruption_seed, feature_std, front_sector_mask,
                              generate_dataset, generate_scene, generate_world,
                              load_dataset, save_dataset, scene_seed)


def small_config(**kwargs):
    defaults = dict(grid=(8, 8, 2), num_classes=5, feature_dim=6,
                    objects_min=1, objects_max=3, seed=11,
                    train_scenes=3, val_scenes=2, test_scenes=3)
    defaults.update(kwargs)
    return WorldConfig(**defaults)


@pytest.fixture(scope="module")
def world():
    return generate_world(small_config())


@pytest.fixture(scope="module")
def scene(world):
    return generate_scene(world, seed=123, scene_id=0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(num_classes=1)
    with pytest.raises(ValueError):
        small_config(feature_dim=1)


def test_generation_deterministic():
    cfg = small_config()
    w1 = generate_world(cfg)
    w2 = generate_world(cfg)
    assert np.array_equal(w1.anchors, w2.anchors)
    s1 = generate_scene(w1, seed=55)
    s2 = generate_scene(w2, seed=55)
    assert np.array_equal(s1.labels, s2.labels)
    assert np.array_equal(s1.features, s2.features)


def test_anchor_layout_base_separation_and_pair_offsets(world):
    cfg = world.config
    anchors = world.anchors
    assert anchors.shape == (cfg.num_classes, cfg.feature_dim)
    # object classes come in consecutive confusable pairs
    n_pairs = (cfg.num_classes - 1) // 2
    for k in range(n_pairs):
        a, b = anchors[1 + 2 * k], anchors[2 + 2 * k]
        assert np.linalg.norm(a - b) == pytest.approx(cfg.pair_offset)
    # pair bases (and the background anchor) keep the full separation
    bases = [anchors[0]] + [anchors[1 + 2 * k] for k in range(n_pairs)]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert np.linalg.norm(bases[i] - bases[j]) >= cfg.anchor_separation


def test_scene_labels_and_features_shapes(scene, world):
    cfg = world.config
    assert scene.labels.shape == cfg.grid
    assert scene.features.shape == cfg.grid + (cfg.feature_dim,)
    assert scene.labels.min() >= 0
    assert scene.labels.max() < cfg.num_classes


def test_scene_background_is_class_zero(world):
    # with no objects possible the whole grid stays unoccupied
    cfg = small_config(objects_min=0, objects_max=0)
    w = generate_world(cfg)
    s = generate_scene(w, seed=9)
    assert np.all(s.labels == 0)


def test_scene_seed_distinct_across_splits_and_indices():
    seeds = {scene_seed(42, split, i)
             for split in ("train", "val", "test") for i in range(10)}
    assert len(seeds) == 30


def test_scene_seed_keeps_the_builtin_split_codes():
    for code, split in enumerate(("", "train", "val", "test")):
        ss = np.random.SeedSequence([42, code, 3])
        want = int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)
        assert scene_seed(42, split, 3) == want


def test_scene_seed_of_custom_split_is_stable_across_processes():
    src = str(Path(synthworld.__file__).resolve().parents[1])
    code = "from voxuq.synthworld import scene_seed; print(scene_seed(42, 'holdout', 3))"
    seeds = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        seeds.add(int(proc.stdout))
    assert seeds == {scene_seed(42, "holdout", 3)}


def test_generate_dataset_sizes(world):
    cfg = world.config
    assert len(generate_dataset(world, "train").scenes) == cfg.train_scenes
    assert len(generate_dataset(world, "val").scenes) == cfg.val_scenes
    seven = replace(world, config=replace(cfg, test_scenes=7))
    assert len(generate_dataset(seven, "test").scenes) == 7


def test_voxel_arrays_flattening(world):
    ds = generate_dataset(world, "val")
    feats, labels = ds.voxel_arrays()
    voxels = world.config.voxels_per_scene
    assert feats.shape == (2 * voxels, world.config.feature_dim)
    assert labels.shape == (2 * voxels,)
    assert np.array_equal(feats[:voxels].reshape(ds.scenes[0].features.shape),
                          ds.scenes[0].features)


# -- corruptions ------------------------------------------------------------

def test_severity_zero_identity_all_kinds(world, scene):
    for kind in synthworld.CORRUPTION_KINDS:
        spec = CorruptionSpec(kind=kind, severity=0)
        out = apply_corruption(scene, spec, seed=1, world=world)
        assert np.array_equal(out.features, scene.features)
        assert np.array_equal(out.labels, scene.labels)
        assert out.features is not scene.features  # a copy, not an alias


def test_sector_drop_severity3_zeroes_everything(world, scene):
    spec = CorruptionSpec(kind="sector_drop", severity=3)
    out = apply_corruption(scene, spec, seed=2, world=world)
    assert np.all(out.features == 0.0)


def test_corruption_severity_monotone_perturbation(world):
    # mean ||z_corrupt - z_clean|| strictly increases with severity for the
    # magnitude-scaled kinds, checked over >= 20 scenes
    scenes = [generate_scene(world, seed=1000 + i) for i in range(20)]
    for kind in ("noise", "fog", "bias_shift"):
        deltas = []
        for sev in (1, 2, 3):
            spec = CorruptionSpec(kind=kind, severity=sev)
            norms = []
            for i, s in enumerate(scenes):
                out = apply_corruption(s, spec, seed=corruption_seed(7, kind, sev, i),
                                       world=world, sigma_z=1.0)
                norms.append(np.linalg.norm(out.features - s.features, axis=-1).mean())
            deltas.append(np.mean(norms))
        assert deltas[0] < deltas[1] < deltas[2], kind


def test_blur_reduces_spatial_variation(world, scene):
    spec = CorruptionSpec(kind="blur", severity=2)
    out = apply_corruption(scene, spec, seed=3, world=world)
    assert out.features.std() < scene.features.std()


def test_front_sector_region_limits_corruption(world, scene):
    spec = CorruptionSpec(kind="bias_shift", severity=3, region="front_sector")
    out = apply_corruption(scene, spec, seed=4, world=world)
    mask = front_sector_mask(world.config)
    assert not np.array_equal(out.features[mask], scene.features[mask])
    assert np.array_equal(out.features[~mask], scene.features[~mask])


def test_corruption_deterministic_per_seed(world, scene):
    spec = CorruptionSpec(kind="noise", severity=2)
    a = apply_corruption(scene, spec, seed=5, world=world, sigma_z=1.0)
    b = apply_corruption(scene, spec, seed=5, world=world, sigma_z=1.0)
    c = apply_corruption(scene, spec, seed=6, world=world, sigma_z=1.0)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(kind="rain", severity=1)
    with pytest.raises(ValueError):
        CorruptionSpec(kind="noise", severity=4)
    with pytest.raises(ValueError):
        CorruptionSpec(kind="noise", severity=1, region="rear")


def test_front_sector_mask_geometry():
    cfg = small_config()
    mask = front_sector_mask(cfg)
    gx, gy, gz = cfg.grid
    # +x edge voxels on the center line are inside, -x edge voxels are not
    assert mask[gx - 1, gy // 2, 0]
    assert not mask[0, gy // 2, 0]
    # symmetric about the x axis
    assert np.array_equal(mask, mask[:, ::-1, :])


def loop_neighborhood_histogram(labels, num_classes):
    """The original 3x3x3 neighborhood class histogram: 27 shifted,
    border-clamped one-hot sums divided by 27."""
    gx, gy, gz = labels.shape
    onehot = np.zeros((gx, gy, gz, num_classes))
    idx = np.indices(labels.shape)
    onehot[idx[0], idx[1], idx[2], labels] = 1.0
    counts = np.zeros_like(onehot)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                xs = np.clip(np.arange(gx) + dx, 0, gx - 1)
                ys = np.clip(np.arange(gy) + dy, 0, gy - 1)
                zs = np.clip(np.arange(gz) + dz, 0, gz - 1)
                counts += onehot[np.ix_(xs, ys, zs)]
    return counts / 27.0


@pytest.mark.parametrize("grid, num_classes", [((1, 1, 1), 2), ((2, 3, 1), 3), ((8, 8, 2), 5),
                                               ((24, 24, 4), 17), ((64, 64, 16), 17)])
def test_neighborhood_histogram_is_the_unit_box_blur(grid, num_classes):
    # generate_scene builds the histogram as a radius-1 box blur of the one-hot labels
    labels = np.random.default_rng(sum(grid)).integers(0, num_classes, grid)
    got = synthworld._box_blur(np.eye(num_classes)[labels], 1)
    assert got.tobytes() == loop_neighborhood_histogram(labels, num_classes).tobytes()


def loop_box_blur(features, m):
    """The original blur: (2m+1)^3 border-clamped shifted copies summed, then
    divided once."""
    gx, gy, gz, _ = features.shape
    acc = np.zeros_like(features)
    n = 0
    for dx in range(-m, m + 1):
        for dy in range(-m, m + 1):
            for dz in range(-m, m + 1):
                xs = np.clip(np.arange(gx) + dx, 0, gx - 1)
                ys = np.clip(np.arange(gy) + dy, 0, gy - 1)
                zs = np.clip(np.arange(gz) + dz, 0, gz - 1)
                acc += features[np.ix_(xs, ys, zs)]
                n += 1
    return acc / n


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("grid", [(1, 1, 1), (2, 3, 1), (8, 8, 2), (24, 24, 4)])
def test_box_blur_matches_the_shifted_copy_loop(grid, m):
    # the separable sums add in another order: allow a few ulps of max|x|
    x = np.random.default_rng(m + sum(grid)).standard_normal(grid + (5,)) * 3.0
    got = synthworld._box_blur(x, m)
    assert got.shape == x.shape
    assert np.abs(got - loop_box_blur(x, m)).max() <= 1e-14 * np.abs(x).max()


def test_box_blur_allocates_at_most_two_buffers():
    # 16 MiB of input: the result and a slab of at most SLAB_BYTES (1/16 of it)
    x = np.random.default_rng(0).standard_normal((64, 64, 16, 32))
    tracemalloc.start()
    try:
        synthworld._box_blur(x, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes


@pytest.fixture(scope="module")
def paper_scene():
    w = generate_world(small_config(grid=(64, 64, 16), feature_dim=32))
    return w, generate_scene(w, 3)


@pytest.mark.parametrize("kind", synthworld.CORRUPTION_KINDS)
def test_full_scene_corruption_allocates_at_most_two_scenes(paper_scene, kind):
    w, scene = paper_scene
    spec = CorruptionSpec(kind=kind, severity=3)
    tracemalloc.start()
    try:
        apply_corruption(scene, spec, 5, w, sigma_z=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, a slab of at most SLAB_BYTES (1/16 of a scene here) for
    # fog and blur, and grid-sized (1/32 of a scene) arrays: the labels'
    # copy, and fog's weights; a cell is float64 whatever the scene's
    # dtype, so the unit is a scene in float64
    assert peak <= 1.3 * scene.features.size * 8


def test_feature_std_positive(world):
    ds = generate_dataset(world, "val")
    assert feature_std(ds) > 0.0


def test_generated_and_loaded_scenes_hold_float32(tmp_path, world, scene):
    """A scene holds the float32 values features.bin stores, in process and
    after a save and load, where a loaded split's scenes are views of one
    array."""
    assert scene.features.dtype == np.float32
    ds = generate_dataset(world, "val")
    save_dataset(ds, tmp_path / "val")
    back = load_dataset(tmp_path / "val")
    for a, b in zip(ds.scenes, back.scenes):
        assert a.features.dtype == b.features.dtype == np.float32
        assert np.array_equal(a.features, b.features)
        assert b.features.base is back.scenes[0].features.base


def test_generate_dataset_writes_each_scene_into_its_slot():
    """A generated split holds each scene once: generation peaks below the
    split's arrays plus half a scene (slab temporaries), where a scene made
    apart and copied in would add a whole one, and its scenes have the bits
    of generate_scene's own."""
    cfg = small_config(grid=(64, 64, 16), feature_dim=32, test_scenes=1)
    world = generate_world(cfg)
    tracemalloc.start()
    try:
        ds = generate_dataset(world, "test")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes + ds.labels.nbytes + ds.features.nbytes / 2
    alone = generate_scene(world, scene_seed(cfg.seed, "test", 0))
    assert ds.scenes[0].features.tobytes() == alone.features.tobytes()
    assert np.array_equal(ds.scenes[0].labels, alone.labels)


def test_load_dataset_holds_about_five_bytes_per_feature(tmp_path):
    """Loading keeps the float32 array it reads: at its peak it holds that
    array and the byte-per-feature finiteness mask, not a float64 copy."""
    cfg = small_config(grid=(16, 16, 4), feature_dim=64, test_scenes=8)
    save_dataset(generate_dataset(generate_world(cfg), "test"), tmp_path / "test")
    features = 8 * cfg.voxels_per_scene * cfg.feature_dim
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path / "test")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.scenes[0].features.dtype == np.float32
    assert peak <= 5.2 * features


@pytest.mark.parametrize("kind", synthworld.CORRUPTION_KINDS)
def test_every_cell_of_a_float32_scene_equals_its_float64_copy(world, scene, kind):
    """Widening is exact, so each corrupted cell of a float32 scene holds
    the bits of the same cell of the scene widened to float64, as float64."""
    x = scene.features.astype(np.float32)
    narrow, wide = (synthworld.VoxelScene(labels=scene.labels, features=f,
                                          scene_id=scene.scene_id, seed=scene.seed)
                    for f in (x, x.astype(np.float64)))
    for severity in (1, 2, 3):
        spec = CorruptionSpec(kind=kind, severity=severity)
        got = apply_corruption(narrow, spec, 9, world, sigma_z=0.7)
        want = apply_corruption(wide, spec, 9, world, sigma_z=0.7)
        assert got.features.dtype == np.float64
        assert got.features.tobytes() == want.features.tobytes(), (kind, severity)


@pytest.mark.parametrize("scenes, grid, dim", [(1, (8, 8, 2), 6), (3, (16, 16, 4), 32),
                                               (5, (24, 24, 4), 32), (2, (40, 40, 8), 16)])
def test_feature_std_keeps_the_bits_of_np_std_in_one_float64_copy(tmp_path, scenes, grid, dim):
    """feature_std equals np.std of the split's features widened to float64,
    bit for bit, on generated and loaded splits of several sizes, and holds
    no more than that one float64 copy (np.std adds a second)."""
    cfg = small_config(grid=grid, feature_dim=dim, test_scenes=scenes)
    generated = generate_dataset(generate_world(cfg), "test")
    save_dataset(generated, tmp_path / "test")
    for ds in (generated, load_dataset(tmp_path / "test")):
        want = float(ds.voxel_arrays()[0].astype(np.float64).std())
        tracemalloc.start()
        try:
            got = feature_std(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert peak <= scenes * cfg.voxels_per_scene * dim * 8 + 4096


# -- dataset directory round trip -------------------------------------------

def test_save_load_round_trip(tmp_path, world):
    ds = generate_dataset(world, "val")
    save_dataset(ds, tmp_path / "val")
    back = load_dataset(tmp_path / "val")
    assert back.split == "val"
    assert back.config == ds.config
    for a, b in zip(ds.scenes, back.scenes):
        assert np.array_equal(a.labels, b.labels)
        # features are stored as float32 on disk
        assert np.array_equal(a.features.astype(np.float32).astype(np.float64),
                              b.features)
        assert a.seed == b.seed



def test_voxel_arrays_are_views_of_the_split(tmp_path, world):
    """voxel_arrays() of a generated and of a loaded split: views of the
    split's own arrays, allocating nothing, that hold the bytes of its
    scenes joined in order, features as float32."""
    generated = generate_dataset(world, "test")
    save_dataset(generated, tmp_path / "test")
    d = world.config.feature_dim
    for ds in (generated, load_dataset(tmp_path / "test")):
        tracemalloc.start()
        try:
            feats, labels = ds.voxel_arrays()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert feats.dtype == np.float32 and feats.shape == (len(labels), d)
        for s in ds.scenes:
            assert np.shares_memory(feats, s.features) and np.shares_memory(labels, s.labels)
        assert feats.tobytes() == np.concatenate([s.features.reshape(-1, d)
                                                  for s in ds.scenes]).tobytes()
        assert labels.tobytes() == np.concatenate([s.labels.reshape(-1)
                                                   for s in ds.scenes]).tobytes()


def test_load_rejects_future_schema(tmp_path, world):
    import json
    ds = generate_dataset(world, "val")
    save_dataset(ds, tmp_path / "val")
    manifest_path = tmp_path / "val" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "val")


# ways to damage a manifest, each applied to its parsed JSON in place
MANIFEST_DAMAGE = {
    "no schema_version": lambda m: m.pop("schema_version"),
    "no config": lambda m: m.pop("config"),
    "no scenes": lambda m: m.pop("scenes"),
    "no split": lambda m: m.pop("split"),
    "no scene_id": lambda m: m["scenes"][0].pop("scene_id"),
    "no seed": lambda m: m["scenes"][-1].pop("seed"),
    "unknown config key": lambda m: m["config"].update(scene_scale=2.0),
    "config not an object": lambda m: m.update(config=[8, 8, 2]),
    "schema_version not a number": lambda m: m.update(schema_version="1"),
}


@pytest.mark.parametrize("damage", list(MANIFEST_DAMAGE))
def test_load_rejects_malformed_manifest(tmp_path, world, damage):
    import json
    save_dataset(generate_dataset(world, "val"), tmp_path / "val")
    path = tmp_path / "val" / "manifest.json"
    manifest = json.loads(path.read_text())
    MANIFEST_DAMAGE[damage](manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json"):
        load_dataset(tmp_path / "val")


@pytest.mark.parametrize("name, change", [("features.bin", -4), ("labels.bin", -2),
                                          ("features.bin", 4)])
def test_load_rejects_wrong_size_files(tmp_path, world, name, change):
    save_dataset(generate_dataset(world, "val"), tmp_path / "val")
    path = tmp_path / "val" / name
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + b"\0" * change)
    with pytest.raises(ValueError, match=name):
        load_dataset(tmp_path / "val")


# -- block-wise generation, corruption and sigma_z ----------------------------

def whole_scene_generation(world, seed):
    """generate_scene's labels and features from whole-scene passes: the
    neighbourhood histogram of all labels at once and one noise draw for the
    whole scene, then one cast to float32."""
    cfg = world.config
    rng = np.random.default_rng(seed)
    gx, gy, gz = cfg.grid
    labels = np.zeros((gx, gy, gz), dtype=np.int64)
    x, y, z = np.indices((gx, gy, gz))
    for _ in range(int(rng.integers(cfg.objects_min, cfg.objects_max + 1))):
        cls = int(rng.integers(1, cfg.num_classes))
        cx, cy, cz = rng.uniform(0, gx), rng.uniform(0, gy), rng.uniform(0, gz)
        sx = rng.uniform(1.0, max(1.0, gx / 5.0))
        sy = rng.uniform(1.0, max(1.0, gy / 5.0))
        sz = rng.uniform(0.8, max(1.0, gz / 2.0))
        if rng.integers(0, 2) == 0:
            inside = (np.abs(x - cx) <= sx) & (np.abs(y - cy) <= sy) & (np.abs(z - cz) <= sz)
        else:
            inside = ((x - cx) / sx) ** 2 + ((y - cy) / sy) ** 2 + ((z - cz) / sz) ** 2 <= 1.0
        labels[inside] = cls
    features = loop_neighborhood_histogram(labels, cfg.num_classes) @ world.projection.T
    features += world.anchors[labels]
    noise = rng.standard_normal((gx, gy, gz, cfg.feature_dim))
    noise *= cfg.noise_scale
    features += noise
    return labels, features.astype(np.float32)


@pytest.mark.parametrize("slab_bytes", [1, 720, synthworld.SLAB_BYTES])
@pytest.mark.parametrize("grid", [(1, 4, 4), (7, 5, 3), (3, 9, 2), (24, 24, 4)])
def test_slab_wise_generation_keeps_the_bits_of_a_whole_scene_pass(monkeypatch, grid,
                                                                   slab_bytes):
    """Slabs of one plane (narrower than the two halo planes around them), of
    a few planes, and of the whole grid give a whole-scene pass's bits."""
    monkeypatch.setattr(synthworld, "SLAB_BYTES", slab_bytes)
    world = generate_world(small_config(grid=grid, objects_min=3, objects_max=6))
    for seed in (42, 7):
        got = generate_scene(world, seed)
        labels, features = whole_scene_generation(world, seed)
        assert got.labels.tobytes() == labels.tobytes()
        assert got.features.tobytes() == features.tobytes(), (grid, slab_bytes, seed)


def test_generate_scene_peaks_at_half_its_output_above_it():
    world = generate_world(small_config(grid=(64, 64, 16), feature_dim=32, num_classes=17))
    tracemalloc.start()
    try:
        scene = generate_scene(world, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scene.features.dtype == np.float32
    assert peak <= 1.5 * scene.features.nbytes


def whole_scene_corruption(scene, spec, seed, world, sigma_z):
    """apply_corruption's features from whole-scene passes: one noise draw,
    and the blur as three whole-scene axis passes, each element adding its
    taps in the order centre, +1, -1, +2, -2, ..."""
    x, m, cfg = scene.features, spec.severity, world.config
    z = x.astype(np.float64)
    if spec.kind == "noise":
        z = np.random.default_rng(seed).standard_normal(x.shape) * (NOISE_COEF * m * sigma_z) + x
    elif spec.kind == "blur":
        for axis in range(3):
            src = z.copy() if axis else x
            idx = np.arange(x.shape[axis])
            for k in range(1, m + 1):
                z += np.take(src, np.minimum(idx + k, len(idx) - 1), axis=axis)
                z += np.take(src, np.maximum(idx - k, 0), axis=axis)
        z /= (2 * m + 1) ** 3
    elif spec.kind == "sector_drop":
        z[...] = 0.0
    elif spec.kind == "fog":
        i, j, k = np.indices(cfg.grid)
        r = np.sqrt((i - (cfg.grid[0] - 1) / 2.0) ** 2 + (j - (cfg.grid[1] - 1) / 2.0) ** 2
                    + (k - (cfg.grid[2] - 1) / 2.0) ** 2)
        w = np.minimum(1.0, FOG_COEF * m * r / r.max())[..., None]
        z *= 1.0 - w
        z += w * world.fog_vector
    else:
        z += BIAS_COEF * m * world.bias_vector
    if spec.region == "front_sector":
        z = np.where(front_sector_mask(cfg)[..., None], z, x.astype(np.float64))
    return z


@pytest.mark.parametrize("grid, max_rows", [((9, 7, 3), 13), ((9, 7, 3), 50), ((2, 3, 2), 5),
                                            ((5, 4, 2), 4096)])
def test_corrupted_rows_keep_the_bits_of_a_whole_scene_pass(grid, max_rows):
    """Every kind, severity and region, in blocks of one x-plane (of 21 rows
    at 9x7x3, more than max_rows), of a few planes, or of the whole scene,
    and with m larger than the two planes of a 2x3x2 grid: the blocks, their
    join and apply_corruption hold the bits of whole_scene_corruption."""
    world = generate_world(small_config(grid=grid))
    scene = generate_scene(world, 5)
    n = scene.labels.size
    for kind in synthworld.CORRUPTION_KINDS:
        for severity in (1, 2, 3):
            for region in synthworld.REGIONS:
                spec = CorruptionSpec(kind=kind, severity=severity, region=region)
                want = whole_scene_corruption(scene, spec, 9, world, 0.7).reshape(n, -1)
                rows = synthworld.CorruptedRows(scene, spec, 9, world, 0.7)
                blocks = [z for _, _, z in rows.blocks(max_rows)]
                assert all(b.dtype == np.float64 for b in blocks)
                assert np.concatenate(blocks).tobytes() == want.tobytes(), (kind, severity, region)
                assert rows.join().tobytes() == want.tobytes()
                got = apply_corruption(scene, spec, 9, world, sigma_z=0.7).features
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [(9, 7, 3), (8, 8, 2), (1, 4, 4), (64, 64, 16)])
@pytest.mark.parametrize("max_rows", [1, 20, 21, 48, 100, 4096])
def test_corrupted_blocks_are_whole_x_planes_covering_the_scene(grid, max_rows):
    """blocks(max_rows) cuts a scene into consecutive blocks of whole
    x-planes, as few as hold at most max(max_rows, one plane) rows each, of
    near-equal plane counts, from row 0 to the last row."""
    world = generate_world(small_config(grid=grid, feature_dim=4))
    scene = synthworld.VoxelScene(labels=np.zeros(grid, dtype=np.int64),
                                  features=np.zeros(grid + (4,), dtype=np.float32),
                                  scene_id=0, seed=0)
    rows = synthworld.CorruptedRows(scene, CorruptionSpec(kind="bias_shift", severity=1),
                                    9, world)
    plane = grid[1] * grid[2]
    bounds = [(lo, hi) for lo, hi, z in rows.blocks(max_rows) if len(z) == hi - lo]
    assert len(bounds) == -(-grid[0] // max(1, max_rows // plane))
    assert bounds[0][0] == 0 and bounds[-1][1] == len(rows)
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    sizes = [hi - lo for lo, hi in bounds]
    assert all(lo % plane == 0 and size % plane == 0 for (lo, _), size in zip(bounds, sizes))
    assert max(sizes) <= max(max_rows, plane) and max(sizes) - min(sizes) <= plane


@settings(max_examples=60, deadline=None)
@given(scenes=st.integers(1, 6), voxels=st.integers(1, 900),
       leaf=st.integers(128, 700), seed=st.integers(0, 2 ** 32 - 1))
def test_feature_std_in_leaves_keeps_the_bits_of_np_std(scenes, voxels, leaf, seed):
    """Leaves of 128 values or more, cut from the flat split wherever they
    fall, sum to the bits of np.std over its features widened to float64."""
    rng = np.random.default_rng(seed)
    features = (rng.standard_normal((scenes, voxels, 1, 1, 2)) * 5 + 3).astype(np.float32)
    ds = synthworld.FeatureDataset(features, np.zeros(features.shape[:-1], dtype=np.int64),
                                   [(i, i) for i in range(scenes)],
                                   small_config(grid=(voxels, 1, 1), feature_dim=2))
    want = features.astype(np.float64).std()
    with mock.patch.object(synthworld, "STD_LEAF", leaf):
        got = feature_std(ds)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_feature_std_holds_one_leaf(tmp_path):
    cfg = small_config(grid=(40, 40, 8), feature_dim=16, test_scenes=2)
    save_dataset(generate_dataset(generate_world(cfg), "test"), tmp_path / "test")
    ds = load_dataset(tmp_path / "test")
    tracemalloc.start()
    try:
        feature_std(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= synthworld.STD_LEAF * 8 + 4096


@pytest.mark.parametrize("kind", synthworld.CORRUPTION_KINDS)
def test_one_voxel_grid_corrupts_to_finite_features(kind):
    """A 1x1x1 grid's one voxel is its center: fog weight 0 (r_max is 0),
    so fog leaves it as it is, and every kind gives finite features."""
    world = generate_world(small_config(grid=(1, 1, 1)))
    scene = generate_scene(world, 3)
    for severity in (1, 2, 3):
        out = apply_corruption(scene, CorruptionSpec(kind=kind, severity=severity),
                               seed=5, world=world)
        assert np.isfinite(out.features).all()
        if kind == "fog":
            np.testing.assert_array_equal(out.features, scene.features)
