"""OoD detection metrics (AUROC, FPR@95TPR), scene/region aggregation,
severity sweeps over the corruption suite, and histogram export for ID/OoD
separation plots.
"""

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import synthworld
from .gda import epistemic_score
from .head import feature_blocks
from .metrics import max_softmax_score, softmax_entropy
from .nn_core import softmax

HISTOGRAM_BINS = 50


@dataclass
class ScoredPopulation:
    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        self.id_scores = np.asarray(self.id_scores, dtype=np.float64)
        self.ood_scores = np.asarray(self.ood_scores, dtype=np.float64)
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValueError("both populations must be nonempty")
        if not (np.isfinite(self.id_scores).all() and np.isfinite(self.ood_scores).all()):
            raise ValueError("scores must be finite")


@dataclass
class OodResult:
    corruption: str
    severity: int
    auroc: float
    fpr95: float
    n_id: int
    n_ood: int


@dataclass
class BenchmarkReport:
    methods: dict = field(default_factory=dict)   # method -> list of OodResult
    aggregates: dict = field(default_factory=dict)  # method -> {mauroc, mfpr95}
    histograms: list = field(default_factory=list)
    region_methods: dict = field(default_factory=dict)
    region_aggregates: dict = field(default_factory=dict)
    sweep_seconds: float = 0.0
    config: dict = field(default_factory=dict)
    seed: int = 0


def auroc(pop):
    """Mann-Whitney AUROC with midrank tie handling, OoD as positive class."""
    scores = np.concatenate([pop.id_scores, pop.ood_scores])
    order = np.argsort(scores)
    ordered = scores[order]
    # tie groups are runs of equal sorted scores; the group in sorted
    # positions [lo, hi) shares the 1-based midrank (lo + 1 + hi) / 2
    lo = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    hi = np.r_[lo[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((lo + 1 + hi) / 2.0, hi - lo)
    n_id = pop.id_scores.size
    n_ood = pop.ood_scores.size
    rank_sum = ranks[n_id:].sum()
    u = rank_sum - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


def fpr_at_95_tpr(pop):
    """FPR on ID at the largest threshold tau (among observed OoD scores)
    with at least 95% of OoD scores >= tau. Step function, no interpolation.

    That tau is the ceil(0.95 n)-th largest OoD score: at least that many
    scores are >= it, and any larger observed score has fewer, ties included.
    """
    ood = np.sort(pop.ood_scores)[::-1]
    tau = ood[math.ceil(0.95 * ood.size) - 1]
    return float(np.mean(pop.id_scores >= tau))


def aggregate_scene(voxel_scores):
    """Mean per-voxel uncertainty over one scene."""
    voxel_scores = np.asarray(voxel_scores, dtype=np.float64)
    if voxel_scores.size == 0:
        raise ValueError("empty scene")
    return float(voxel_scores.mean())


def aggregate_region(voxel_scores, region_mask):
    """Mean uncertainty over the masked voxels only."""
    voxel_scores = np.asarray(voxel_scores, dtype=np.float64)
    region_mask = np.asarray(region_mask, dtype=bool).reshape(voxel_scores.shape)
    if not region_mask.any():
        raise ValueError("empty region mask")
    return float(voxel_scores[region_mask].mean())


def histogram_table(pop):
    """Shared-edge ID/OoD histograms over the pooled score range."""
    pooled = np.concatenate([pop.id_scores, pop.ood_scores])
    lo, hi = pooled.min(), pooled.max()
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    id_counts, _ = np.histogram(pop.id_scores, bins=edges)
    ood_counts, _ = np.histogram(pop.ood_scores, bins=edges)
    return edges, id_counts, ood_counts


# -- method scoring --------------------------------------------------------

class MethodError(ValueError):
    """A method spec that does not parse, or whose artifacts a bundle lacks."""


def parse_method(spec):
    """Parse a method string name[:key=value...] into (name, params).

    params holds every parameter the method takes, typed, defaulted and
    validated: mcd takes n (passes, an integer >= 2, default 5) and p (drop
    rate in [0, 1), default 0.1), de takes n (member heads, an integer >= 2,
    default 3), and the other methods take none. A malformed, unknown,
    repeated or out-of-range parameter raises MethodError.
    """
    defaults = {"ours": {}, "max-softmax": {}, "entropy": {},
                "mcd": {"n": 5, "p": 0.1}, "de": {"n": 3}}
    checks = {"n": (int, lambda v: v >= 2, "an integer >= 2"),
              "p": (float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")}
    name, *parts = spec.split(":")
    if name not in defaults:
        raise MethodError("unknown method %r" % name)
    params = dict(defaults[name])
    given = set()
    for part in parts:
        key, sep, raw = part.partition("=")
        if not sep:
            raise MethodError("malformed method parameter %r" % part)
        if key not in params:
            raise MethodError("method %r takes no parameter %r" % (name, key))
        if key in given:
            raise MethodError("method %r gives %r more than once" % (spec, key))
        given.add(key)
        cast, valid, want = checks[key]
        try:
            value = cast(raw)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise MethodError("method %r: %s must be %s, got %r" % (spec, key, want, raw))
        params[key] = value
    return name, params


@dataclass
class MethodBundle:
    """Trained artifacts a sweep needs: the main head + GDA model, and the
    ensemble member heads for DE baselines."""

    head: object
    gda_model: object = None
    ensemble_heads: list = field(default_factory=list)


def check_methods(methods, bundle):
    """Raise MethodError for the first method in `methods` that `bundle`
    cannot score: ours without a density model, or de:n with fewer than n
    ensemble heads. Sweeps and calibration run it once, before any scene."""
    for method in methods:
        name, params = parse_method(method)
        if name == "ours" and bundle.gda_model is None:
            raise MethodError("method 'ours' requires a density model (--gda)")
        if name == "de" and len(bundle.ensemble_heads) < params["n"]:
            raise MethodError("method %r requires %d ensemble heads (--members), have %d"
                              % (method, params["n"], len(bundle.ensemble_heads)))


# the scores of the main head's eval-mode pass that read its softmax; ours,
# scored in the same pass, reads its penultimate features
_SOFTMAX_SCORES = {"max-softmax": max_softmax_score, "entropy": softmax_entropy}


def keep_masks(masks, head, p, seed, rows, lo, hi):
    """The keep masks of `head`'s hidden layers for rows lo:hi of a pass at
    rate p over `rows` rows that draws every layer's, in layer order, from
    default_rng(seed); each is drawn once into the memo dict `masks`."""
    width = head.config.hidden_width
    for i in range(len(head.layers)):
        key = (p, seed, rows, lo, hi, i)
        if key not in masks:
            rng = np.random.Generator(np.random.PCG64(seed).advance((i * rows + lo) * width))
            masks[key] = np.packbits(rng.random((hi - lo, width)) >= p)
        yield np.unpackbits(masks[key], count=(hi - lo) * width).view(bool).reshape(hi - lo, width)


def score_scene(methods, bundle, features, base_seed=0, with_logits=True, masks=None):
    """Per-voxel scores of every method in `methods` on one scene's n x d
    features, and the logits calibration uses for each, as two dicts keyed
    by method spec: (scores, logits). Without `with_logits` the logits dict
    is empty and no scene-sized logits array is built.

    `features` (an array, or CorruptedRows) is read in one feature_blocks
    pass. ours, max-softmax and entropy score a block from the main head's
    eval-mode forward (ours from its penultimate features). de:n and mcd:n
    score it from n passes: the first n ensemble heads' forwards, or the main
    head's dropout_logits with the keep_masks of base seeds base_seed + i in
    the memo `masks` (or a new one); the mean p of their softmaxes gives the
    predictive entropy and the logits log(max(p, 1e-12)). Every score is
    row-wise, so a row keeps the bits of a whole-scene pass, and float32
    features score as their float64 copy, widened a block at a time. The
    bundle must pass check_methods(methods, bundle).
    """
    n, k = len(features), bundle.head.config.num_classes
    masks = {} if masks is None else masks
    shared = [m for m in ("ours", *_SOFTMAX_SCORES) if m in methods]
    ensembles = {m: parse_method(m) for m in methods if parse_method(m)[0] in ("de", "mcd")}
    scores = {m: np.empty(n) for m in (*shared, *ensembles)}
    eval_logits = np.empty((n, k)) if shared and with_logits else None
    logits = {}
    if with_logits:
        logits = dict.fromkeys(shared, eval_logits)
        logits.update((m, np.empty((n, k))) for m in ensembles)
    for lo, hi, x in feature_blocks(features):
        if shared:
            out = bundle.head.forward(x)
            probs = softmax(out.logits.T) if shared != ["ours"] else None
            for m in shared:
                scores[m][lo:hi] = (epistemic_score(bundle.gda_model, out.penultimate_features)
                                    if m == "ours" else _SOFTMAX_SCORES[m](probs))
            if with_logits:
                eval_logits[lo:hi] = out.logits
            del out, probs
        x = np.asarray(x, dtype=np.float64) if ensembles else x  # once for every pass
        for method, (name, params) in ensembles.items():
            if name == "de":
                passes = (h.forward(x).logits for h in bundle.ensemble_heads[:params["n"]])
            else:
                passes = bundle.head.dropout_logits(x, params["p"], (
                    keep_masks(masks, bundle.head, params["p"], seed, n, lo, hi)
                    for seed in range(base_seed, base_seed + params["n"])))
            # a running sum in pass order: the bits of a mean over stacked passes
            mean = sum(softmax(pass_logits.T) for pass_logits in passes) / params["n"]
            scores[method][lo:hi] = softmax_entropy(mean)
            if with_logits:
                logits[method][lo:hi] = np.log(np.maximum(mean, 1e-12)).T
    return scores, logits


def _cell_result(kind, severity, pop):
    return OodResult(corruption=kind, severity=severity,
                     auroc=auroc(pop), fpr95=fpr_at_95_tpr(pop),
                     n_id=pop.id_scores.size, n_ood=pop.ood_scores.size)


def _mean_metrics(cells):
    return {"mauroc": float(np.mean([c.auroc for c in cells])),
            "mfpr95": float(np.mean([c.fpr95 for c in cells]))}


def score_split(methods, bundle, scenes, seed, masks=None, with_logits=True):
    """score_scene over the (features, labels) pairs of `scenes` in order, scene
    i with base seed `seed + i`: yields (scores, logits, labels) per scene."""
    for features, labels in scenes:
        scored = score_scene(methods, bundle, features, base_seed=seed,
                             with_logits=with_logits, masks=masks)
        del features  # before the next scene is read; an enumerate would hold it
        yield scored + (labels,)
        seed += 1


def run_sweep(methods, bundle, world, clean_test, seed=0,
              corruptions=synthworld.CORRUPTION_KINDS,
              severities=synthworld.SEVERITIES, region_level=True):
    """Score clean vs corrupted test scenes for every (method, corruption,
    severity) cell; fills AUROC/FPR95 grids, unweighted means, histogram
    tables, and (optionally) frontal-sector region-level grids, which a grid
    without a front-sector voxel lacks: GenerationError before any scoring.

    Every scene is scored once for all methods, without logits, and every
    keep mask once. Region cells are read from the full-scene cells: a
    front-sector corruption equals the full-scene one inside the sector, and
    every score is per voxel.
    """
    t0 = time.perf_counter()
    check_methods(methods, bundle)
    report = BenchmarkReport(seed=seed)
    report.config = {
        "corruptions": list(corruptions),
        "severities": list(severities),
        "n_scenes": len(clean_test.scenes),
        "histogram_bins": HISTOGRAM_BINS,
    }
    # each level's scene mean, and the grids it fills: the scene, then the front sector
    aggregates = [aggregate_scene]
    grids = [(report.methods, report.aggregates)]
    if region_level:
        mask = synthworld.front_sector_mask(world.config).reshape(-1)
        if not mask.any():
            raise synthworld.GenerationError("grid %s has no front-sector voxel to score"
                                             % "x".join(map(str, world.config.grid)))
        aggregates.append(functools.partial(aggregate_region, region_mask=mask))
        grids.append((report.region_methods, report.region_aggregates))
    # (kind, severity) -> scenes x methods x levels of scene means
    means = {}
    masks = {}  # scene i of every split runs the same MC-Dropout passes
    for kind, severity, scenes in synthworld.grid_splits(clean_test, world, corruptions,
                                                         severities):
        means[kind, severity] = np.array([
            [[aggregate(s[m]) for aggregate in aggregates] for m in methods]
            for s, _, _ in score_split(methods, bundle, scenes, seed, masks, with_logits=False)])
    clean = means.pop((None, 0))

    cells = list(itertools.product(corruptions, severities))
    for j, method in enumerate(methods):
        pops = [[ScoredPopulation(clean[:, j, level], means[c][:, j, level]) for c in cells]
                for level in range(len(grids))]
        for (grid, grid_means), level_pops in zip(grids, pops):
            grid[method] = [_cell_result(*c, pop) for c, pop in zip(cells, level_pops)]
            grid_means[method] = _mean_metrics(grid[method])
        for (kind, severity), pop in zip(cells, pops[0]):  # histograms of the scene level
            edges, idc, oodc = histogram_table(pop)
            report.histograms.append({
                "method": method, "corruption": kind, "severity": severity,
                "edges": edges, "count_id": idc, "count_ood": oodc,
            })
    report.sweep_seconds = time.perf_counter() - t0
    return report
