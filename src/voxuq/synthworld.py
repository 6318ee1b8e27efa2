"""Frozen synthetic backbone stand-in: voxel scenes with semantic labels,
class-informative per-voxel features, and a corruption suite with scene-level
and frontal-sector variants at three severities.

Dataset directory layout: manifest.json plus features.bin (little-endian
float32, scenes concatenated, voxel order x -> y -> z then channel) and
labels.bin (little-endian uint16, same voxel order); in process, a split
holds the same order in one array each.
"""

import json
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .nn_core import near_equal_blocks, pairwise_sum

CORRUPTION_KINDS = ("noise", "blur", "sector_drop", "fog", "bias_shift")
SEVERITIES = (1, 2, 3)  # the severity grid every sweep walks by default
REGIONS = ("full_scene", "front_sector")

# Per-severity corruption magnitudes (scaled by severity m in {1,2,3}).
# Tuned once on the default world so that severity 1 stays ambiguous for the
# density method while severity 3 separates near-completely; frozen here.
NOISE_COEF = 0.012
FOG_COEF = 0.25
BIAS_COEF = 0.4
# bytes of float64 in one slab of x-planes (scene generation, blur's y and
# z passes) or one block of CorruptedRows.join
SLAB_BYTES = 1 << 20
# values per leaf of feature_std's pairwise sums
STD_LEAF = 1 << 15


class GenerationError(RuntimeError):
    """Raised when world generation cannot satisfy its constraints."""


@dataclass
class WorldConfig:
    grid: tuple = (24, 24, 4)
    num_classes: int = 17
    feature_dim: int = 32
    objects_min: int = 4
    objects_max: int = 10
    anchor_separation: float = 4.0
    neighborhood_scale: float = 0.5
    noise_scale: float = 0.5
    pair_offset: float = 1.0
    seed: int = 42
    train_scenes: int = 60
    val_scenes: int = 20
    test_scenes: int = 100

    def __post_init__(self):
        self.grid = tuple(int(g) for g in self.grid)
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes (class 0 is Unoccupied)")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2")
        if len(self.grid) != 3 or min(self.grid) < 1:
            raise ValueError("grid sizes must be three integers >= 1, got %s" % (self.grid,))
        if not 0 <= self.objects_min <= self.objects_max:
            raise ValueError("objects_min and objects_max need 0 <= min <= max")
        if min(self.seed, self.train_scenes, self.val_scenes, self.test_scenes) < 0:
            raise ValueError("seed and scene counts must be >= 0")
        if not all(0.0 <= s < np.inf for s in (self.anchor_separation, self.neighborhood_scale,
                                                self.noise_scale, self.pair_offset)):
            raise ValueError("anchor_separation, neighborhood_scale, noise_scale and "
                             "pair_offset must be finite and >= 0")

    @property
    def voxels_per_scene(self):
        gx, gy, gz = self.grid
        return gx * gy * gz


@dataclass
class World:
    """Frozen per-dataset state: class anchors, neighborhood projection and
    the fixed corruption direction vectors."""

    config: WorldConfig
    anchors: np.ndarray        # (K, d)
    projection: np.ndarray     # (d, K) applied to the neighborhood histogram
    fog_vector: np.ndarray     # (d,)
    bias_vector: np.ndarray    # (d,) unit norm


@dataclass
class VoxelScene:
    labels: np.ndarray        # (gx, gy, gz) int
    features: np.ndarray      # (gx, gy, gz, d) float32 when generated or loaded
    scene_id: int
    seed: int


@dataclass
class CorruptionSpec:
    kind: str
    severity: int
    region: str = "full_scene"

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError("unknown corruption kind %r" % self.kind)
        if self.severity not in (0, 1, 2, 3):
            raise ValueError("severity must be in {0,1,2,3}")
        if self.region not in REGIONS:
            raise ValueError("unknown region %r" % self.region)


@dataclass(eq=False)
class FeatureDataset:
    """One split, held once: features (scenes, gx, gy, gz, d) float32 and
    labels (scenes, gx, gy, gz) int64, with `scenes` the VoxelScene views of
    each slot, scene i carrying ids[i] as its (scene_id, seed)."""

    features: np.ndarray
    labels: np.ndarray
    ids: list
    config: WorldConfig
    split: str = ""

    def __post_init__(self):
        self.scenes = [VoxelScene(labels=y, features=x, scene_id=i, seed=s)
                       for x, y, (i, s) in zip(self.features, self.labels, self.ids)]

    def voxel_arrays(self):
        """Views of the split as (n_voxels, d) features and n_voxels labels."""
        return self.features.reshape(-1, self.config.feature_dim), self.labels.reshape(-1)

    def iter_scene_arrays(self):
        for s in self.scenes:
            yield (s.features.reshape(-1, self.config.feature_dim),
                   s.labels.reshape(-1))


def scene_seed(dataset_seed, split, index):
    """Deterministic per-scene seed from (dataset seed, split, scene index)."""
    split_code = {"train": 1, "val": 2, "test": 3, "": 0}.get(
        split, zlib.crc32(split.encode()) & 0xFFFF)
    ss = np.random.SeedSequence([dataset_seed, split_code, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


def generate_world(config):
    """Draw the frozen world state once per dataset seed.

    Anchor layout: base anchors are rejection-sampled from N(0, s^2 I) until
    all pairwise distances are >= s (the anchor separation). The background
    class keeps its base; object classes are grouped into consecutive
    confusable pairs (1,2), (3,4), ... whose two anchors sit only
    `pair_offset` apart, so pair members genuinely overlap under the feature
    noise and attainable accuracy stays below 1.
    """
    rng = np.random.default_rng(config.seed)
    s = config.anchor_separation
    n_pairs = (config.num_classes - 1) // 2
    leftover = (config.num_classes - 1) % 2
    bases = np.empty((1 + n_pairs + leftover, config.feature_dim))
    placed = attempts = 0
    while placed < len(bases):
        cand = rng.standard_normal(config.feature_dim) * s
        attempts += 1
        if attempts > 100000:
            raise GenerationError("could not place class anchors with separation %g" % s)
        # the distance to the nearest placed base, in the bits of np.linalg.norm
        if np.sqrt(np.square(cand - bases[:placed]).sum(axis=1).min(initial=np.inf)) >= s:
            bases[placed] = cand
            placed += 1
    anchors = [bases[0]]
    for k in range(n_pairs):
        offset = rng.standard_normal(config.feature_dim)
        offset *= config.pair_offset / np.linalg.norm(offset)
        anchors.append(bases[1 + k])
        anchors.append(bases[1 + k] + offset)
    if leftover:
        anchors.append(bases[-1])
    anchors = np.stack(anchors)
    projection = (rng.standard_normal((config.feature_dim, config.num_classes))
                  * config.neighborhood_scale)
    fog_vector = rng.standard_normal(config.feature_dim)
    bias = rng.standard_normal(config.feature_dim)
    bias_vector = bias / np.linalg.norm(bias)
    return World(config=config, anchors=anchors, projection=projection,
                 fog_vector=fog_vector, bias_vector=bias_vector)


def generate_scene(world, seed, scene_id=0, out=None):
    """Labels: background class 0 plus random boxes and ellipsoids of classes
    1..K-1 (later objects overwrite earlier). Features per voxel:
    anchor[label] + P @ neighborhood_histogram + noise_scale * N(0, I), where
    the histogram holds the class proportions over the border-clamped 3x3x3
    neighborhood.

    Features are made a slab of x-planes at a time (_slab_planes) into a
    preallocated float32 scene: a slab's histogram reads one halo plane of
    one-hot labels on each side, and its noise is drawn in slab order, so
    the scene has the bits of a whole-scene pass. It is written into `out`,
    a (labels, features) pair of int64 and float32 arrays, when given.
    """
    cfg = world.config
    rng = np.random.default_rng(seed)
    gx, gy, gz = cfg.grid
    # features hold the values features.bin stores, so a split holds the
    # same numbers in process as after a save and load
    labels, features = out or (np.empty((gx, gy, gz), dtype=np.int64),
                               np.empty((gx, gy, gz, cfg.feature_dim), dtype=np.float32))
    labels[...] = 0
    n_obj = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    x, y, z = np.indices((gx, gy, gz), sparse=True)
    for _ in range(n_obj):
        cls = int(rng.integers(1, cfg.num_classes))
        cx = rng.uniform(0, gx)
        cy = rng.uniform(0, gy)
        cz = rng.uniform(0, gz)
        sx = rng.uniform(1.0, max(1.0, gx / 5.0))
        sy = rng.uniform(1.0, max(1.0, gy / 5.0))
        sz = rng.uniform(0.8, max(1.0, gz / 2.0))
        shape = rng.integers(0, 2)  # 0 = box, 1 = ellipsoid
        if shape == 0:
            inside = ((np.abs(x - cx) <= sx) & (np.abs(y - cy) <= sy)
                      & (np.abs(z - cz) <= sz))
        else:
            inside = (((x - cx) / sx) ** 2 + ((y - cy) / sy) ** 2
                      + ((z - cz) / sz) ** 2) <= 1.0
        labels[inside] = cls
    step = _slab_planes(features)
    for lo in range(0, gx, step):
        hi = min(lo + step, gx)
        a, b = max(lo - 1, 0), min(hi + 1, gx)
        # hist P^T + anchors + noise_scale * noise, summed in place; the first
        # sum is commutative, so starting from hist P^T gives the same bits
        hist = _box_blur(np.eye(cfg.num_classes)[labels[a:b]], 1, lo - a, hi - a)
        slab = hist @ world.projection.T
        del hist
        slab += world.anchors[labels[lo:hi]]
        noise = rng.standard_normal(slab.shape)
        noise *= cfg.noise_scale
        slab += noise
        features[lo:hi] = slab
        del slab, noise  # before the next slab is made
    return VoxelScene(labels=labels, features=features, scene_id=scene_id, seed=seed)


def generate_dataset(world, split):
    cfg = world.config
    n_scenes = {"train": cfg.train_scenes, "val": cfg.val_scenes,
                "test": cfg.test_scenes}[split]
    ids = [(i, scene_seed(cfg.seed, split, i)) for i in range(n_scenes)]
    features = np.empty((n_scenes,) + cfg.grid + (cfg.feature_dim,), dtype=np.float32)
    labels = np.empty((n_scenes,) + cfg.grid, dtype=np.int64)
    for i, seed in ids:
        generate_scene(world, seed, scene_id=i, out=(labels[i], features[i]))
    return FeatureDataset(features, labels, ids, cfg, split)


def front_sector_mask(config):
    """True where the voxel azimuth from the grid center lies within +/- 45
    degrees of the +x axis; all z layers included."""
    gx, gy, gz = config.grid
    x, y = np.indices((gx, gy))
    az = np.arctan2(y - (gy - 1) / 2.0, x - (gx - 1) / 2.0)
    return np.repeat((np.abs(az) <= np.deg2rad(45.0))[:, :, None], gz, axis=2)


def feature_std(dataset):
    """Per-dataset feature standard deviation (single scalar), used to scale
    the noise corruption.

    The bits of np.std over the split's features widened to float64, with no
    split-sized array: both sums split the flat features as np.sum does
    (nn_core.pairwise_sum) down to leaves of at most STD_LEAF values (128 or
    more, numpy's unsplit run), and np.sum adds each leaf. A leaf is
    widened, and centred and squared for the second sum, as it is read.
    """
    flat = dataset.features.reshape(-1)

    def leaf(lo, hi):
        return flat[lo:hi].astype(np.float64)

    def square_sum(lo, hi):
        x = leaf(lo, hi)
        x -= mean
        x *= x
        return x.sum()

    n = flat.size
    mean = pairwise_sum(lambda lo, hi: leaf(lo, hi).sum(), 0, n, STD_LEAF) / n
    return float(np.sqrt(pairwise_sum(square_sum, 0, n, STD_LEAF) / n))


def apply_corruption(scene, spec, seed, world, sigma_z=1.0):
    """Return a corrupted copy of `scene`; severity 0 is a bit-exact identity.
    At severity 1-3 the features of the copy are the CorruptedRows of the
    scene joined into one float64 array, whatever the float dtype of the
    scene's: widening is exact, so a float32 scene and its float64 copy give
    the same cell.

    Transforms at severity m in {1,2,3} over the affected voxels:
      noise:      z += NOISE_COEF m sigma_z * N(0, I)
      blur:       z <- spatial mean over the (2m+1)^3 window
      sector_drop z <- 0
      fog:        z <- (1-w) z + w f,  w = min(1, FOG_COEF m r / r_max)
      bias_shift: z += BIAS_COEF m b
    """
    features = (CorruptedRows(scene, spec, seed, world, sigma_z).join()
                .reshape(scene.features.shape) if spec.severity else scene.features.copy())
    return VoxelScene(labels=scene.labels.copy(), features=features,
                      scene_id=scene.scene_id, seed=scene.seed)


class CorruptedRows:
    """The n x d features of `scene` under the corruption `spec` (see
    apply_corruption), made one block of whole x-planes at a time.

    blocks(max_rows) yields (lo, hi, rows lo:hi) over the bounds(max_rows),
    near_equal_blocks of the x-planes, as many to a block as fit in max_rows
    and at least one: float64 at severity 1-3, the scene's own rows at
    severity 0. Each call makes the rows afresh; join() holds all of them in one
    array. Noise is drawn in row order and blur sums a block's planes from the
    scene's planes around them, so a block keeps the bits of a whole-scene pass.
    """

    def __init__(self, scene, spec, seed, world, sigma_z=1.0):
        self.scene, self.spec, self.seed, self.world = scene, spec, seed, world
        self.sigma_z = sigma_z

    def __len__(self):
        return self.scene.labels.size

    def join(self):
        z = np.empty((len(self), self.world.config.feature_dim))
        for lo, hi, block in self.blocks(max(1, SLAB_BYTES // z[0].nbytes)):
            z[lo:hi] = block
        return z

    def bounds(self, max_rows):
        planes, per_plane = len(self.scene.labels), self.scene.labels[0].size
        return [(lo * per_plane, hi * per_plane)
                for lo, hi in near_equal_blocks(planes, max(1, max_rows // per_plane))]

    def blocks(self, max_rows):
        world, m, kind = self.world, self.spec.severity, self.spec.kind
        x = self.scene.features.reshape(len(self), -1)
        per_plane = self.scene.labels[0].size
        # each transform as one expression over a block of x, which widens to
        # float64 as it is read: the bits of the in-place whole-scene passes
        if m == 0:
            rows = lambda lo, hi: x[lo:hi]
        elif kind == "noise":
            rng, scale = np.random.default_rng(self.seed), NOISE_COEF * m * self.sigma_z
            rows = lambda lo, hi: rng.standard_normal((hi - lo, x.shape[1])) * scale + x[lo:hi]
        elif kind == "blur":
            rows = lambda lo, hi: _box_blur(self.scene.features, m, lo // per_plane,
                                            hi // per_plane).reshape(hi - lo, -1)
        elif kind == "sector_drop":
            rows = lambda lo, hi: np.zeros((hi - lo, x.shape[1]))
        elif kind == "fog":
            w = _fog_weight(world.config.grid, m).reshape(-1, 1)
            rows = lambda lo, hi: x[lo:hi] * (1.0 - w[lo:hi]) + w[lo:hi] * world.fog_vector
        else:
            rows = lambda lo, hi: x[lo:hi] + BIAS_COEF * m * world.bias_vector
        outside = (~front_sector_mask(world.config).reshape(-1)
                   if self.spec.region == "front_sector" and m else None)
        for lo, hi in self.bounds(max_rows):
            z = rows(lo, hi)
            if outside is not None:
                keep = outside[lo:hi]
                z[keep] = x[lo:hi][keep]
            yield lo, hi, z


def _fog_weight(grid, m):
    """The fog weight w = min(1, FOG_COEF m r / r_max) of every voxel, as a
    (gx, gy, gz, 1) array; r is the distance from the grid center, and w is 0
    on a one-voxel grid, where r_max is 0."""
    gx, gy, gz = grid
    x, y, zz = np.indices((gx, gy, gz), sparse=True)
    center = np.array([(gx - 1) / 2.0, (gy - 1) / 2.0, (gz - 1) / 2.0])
    r = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2 + (zz - center[2]) ** 2)
    return np.minimum(1.0, FOG_COEF * m * r / (r.max() or 1.0))[..., None]


def _slab_planes(a):
    """x-planes (first-axis slices) of `a` per slab: as many as fit in
    SLAB_BYTES as float64, and at least one."""
    return max(1, SLAB_BYTES // (8 * max(1, a[0].size)))


def _box_blur(features, m, lo=0, hi=None):
    """Mean over the (2m+1)^3 border-clamped spatial window, per channel, of
    the x-planes lo:hi of `features` (all of them by default).

    Separable: each plane's border-clamped (2m+1)-tap sum along x, read from
    the planes of `features` around it, into one float64 buffer, then the y
    and z tap sums slab by slab (_slab_planes; neither crosses an x-plane)
    through one slab-sized buffer, written back into the first, then one
    division: the result and that slab are the only float64 arrays it holds.
    Each tap adds a slice view (a tap past the border adds the edge plane by
    broadcast), and every element gets its additions in the order of
    whole-array axis passes, so any planes lo:hi keep their bits. Taps are
    clamped to the axis length, so grids smaller than m work. Integer-valued
    input gives exact partial sums, hence the same bits as summing the
    (2m+1)^3 shifted copies.
    """
    acc = features[lo:hi].astype(np.float64)
    _add_taps(acc, features, 0, m, lo)
    step = _slab_planes(acc)
    buffer = np.empty_like(acc[:step])
    for a in range(0, len(acc), step):
        slab = acc[a:a + step]
        y_sums = buffer[:len(slab)]
        y_sums[...] = slab
        _add_taps(y_sums, slab, 1, m)
        slab[...] = y_sums
        _add_taps(slab, y_sums, 2, m)
    acc /= (2 * m + 1) ** 3
    return acc


def _add_taps(dst, src, axis, m, lo=0):
    """Add src shifted by -m..-1 and 1..m along `axis`, border-clamped, to
    dst, which holds src's values at positions lo..lo + len(dst) of that
    axis: dst becomes the (2m+1)-tap sum there."""
    src, dst = np.moveaxis(src, axis, 0), np.moveaxis(dst, axis, 0)
    n, hi = len(src), lo + len(dst)
    for k in range(1, m + 1):
        cut = min(max(n - k, lo), hi)  # positions below cut add src[i + k]
        dst[:cut - lo] += src[lo + k:cut + k]
        dst[cut - lo:] += src[n - 1:]
        cut = max(min(k, hi), lo)  # positions from cut add src[i - k]
        dst[cut - lo:] += src[cut - k:hi - k]
        dst[:cut - lo] += src[:1]


def corruption_seed(dataset_seed, kind, severity, scene_index):
    kind_code = CORRUPTION_KINDS.index(kind) + 1
    ss = np.random.SeedSequence([dataset_seed, 7919, kind_code, severity, scene_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


def grid_splits(dataset, world, corruptions=CORRUPTION_KINDS, severities=SEVERITIES):
    """Yield the splits of the corruption grid as (kind, severity, scenes),
    `scenes` yielding one (features, labels) pair per scene: first the clean
    split (None, 0, dataset.iter_scene_arrays()), then every full-scene cell
    in order, whose features are CorruptedRows: a scene is corrupted a block
    of x-planes at a time as it is read. The noise scales with the clean
    split's feature std; scene i of a cell is corrupted with
    corruption_seed(world seed, kind, severity, i)."""
    yield None, 0, dataset.iter_scene_arrays()
    sigma_z = feature_std(dataset)
    for kind in corruptions:
        for severity in severities:
            yield kind, severity, _corrupted_scenes(dataset, world, kind, severity, sigma_z)


def _corrupted_scenes(dataset, world, kind, severity, sigma_z):
    spec = CorruptionSpec(kind=kind, severity=severity)
    for i, s in enumerate(dataset.scenes):
        seed = corruption_seed(world.config.seed, kind, severity, i)
        yield CorruptedRows(s, spec, seed, world, sigma_z), s.labels.reshape(-1)


# -- dataset directory I/O -------------------------------------------------

SCHEMA_VERSION = 1


def save_dataset(dataset, out_dir):
    """Write manifest.json / features.bin / labels.bin for one split."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = dataset.config
    voxels = cfg.voxels_per_scene
    index = [{"scene_id": scene_id, "seed": seed,
              "feature_offset": i * voxels * cfg.feature_dim * 4, "label_offset": i * voxels * 2}
             for i, (scene_id, seed) in enumerate(dataset.ids)]
    (out_dir / "features.bin").write_bytes(np.ascontiguousarray(dataset.features, dtype="<f4"))
    (out_dir / "labels.bin").write_bytes(dataset.labels.astype("<u2", order="C"))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "split": dataset.split,
        "config": asdict(cfg),
        "class_names": ["unoccupied"] + ["class_%d" % c
                                         for c in range(1, cfg.num_classes)],
        "scenes": index,
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_dataset(in_dir):
    in_dir = Path(in_dir)
    with open(in_dir / "manifest.json") as f:
        manifest = json.load(f)
    try:
        if manifest["schema_version"] > SCHEMA_VERSION:
            raise ValueError("unsupported dataset schema version %s"
                             % manifest["schema_version"])
        cfg = WorldConfig(**manifest["config"])
        ids = [(entry["scene_id"], entry["seed"]) for entry in manifest["scenes"]]
        split = manifest["split"]
    except (KeyError, TypeError) as e:
        raise ValueError("malformed manifest.json: %r" % e)
    gx, gy, gz = cfg.grid
    n = len(ids)
    if n == 0:
        raise ValueError("manifest.json lists no scenes")
    for name, expected in (("features.bin", n * cfg.voxels_per_scene * cfg.feature_dim * 4),
                           ("labels.bin", n * cfg.voxels_per_scene * 2)):
        size = (in_dir / name).stat().st_size
        if size != expected:
            raise ValueError("%s holds %d bytes; the manifest (%d scenes of %dx%dx%d "
                             "voxels, feature_dim %d) needs %d"
                             % (name, size, n, gx, gy, gz, cfg.feature_dim, expected))
    features = np.fromfile(in_dir / "features.bin", dtype="<f4")
    if not np.isfinite(features).all():
        raise ValueError("features.bin holds non-finite values (NaN or inf)")
    labels = np.fromfile(in_dir / "labels.bin", dtype="<u2")
    if labels.max(initial=0) >= cfg.num_classes:
        raise ValueError("labels.bin holds a label outside [0, %d)" % cfg.num_classes)
    # held as stored; the scoring and training code widens what it reads
    features = features.reshape(n, gx, gy, gz, cfg.feature_dim)
    labels = labels.reshape(n, gx, gy, gz).astype(np.int64)
    return FeatureDataset(features, labels, ids, cfg, split)
