"""Command-line entry point: dataset generation, head training, density
fitting, OoD evaluation, calibration, report rendering, and the ablation /
feature-dimension sweeps.

Exit codes: 0 success, 2 usage or configuration error, 3 data or fit error.
"""

import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import click

from . import pipeline, report as report_mod, store, synthworld
from .calibration import LAMBDA_GRID
from .gda import FitError, gmm_param_count
from .head import HeadConfig, accuracy
from .ood import MethodBundle, MethodError, parse_method, run_sweep

# config keys are the fields of the dataclasses they fill; [world]'s grid is
# split into grid_x/y/z, and the head's input and output sizes come from the world
WORLD_KEYS = dict({"grid_x": int, "grid_y": int, "grid_z": int},
                  **{f.name: f.type for f in fields(synthworld.WorldConfig) if f.name != "grid"})
HEAD_KEYS = {f.name: f.type for f in fields(HeadConfig)
             if f.name not in ("input_dim", "num_classes")}
TRAINING_KEYS = {"epochs": int, "batch_size": int, "lr": float}

SECTION_KEYS = {"world": WORLD_KEYS, "head": HEAD_KEYS, "training": TRAINING_KEYS}
COUNT = click.IntRange(min=0)  # a seed or count: click checks these option types
IN_FILE = click.Path(exists=True, dir_okay=False)  # an input file that exists


def usage_error(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(2)


def data_error(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(3)


def output_dir(path):
    """`path` as a directory, created with its parents; a path that cannot
    be one (an existing file, a path under a file) is a usage error."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        usage_error("cannot create output directory %s: %s" % (path, e.strerror))
    return path


def load_config(path):
    """Sectioned key-value config, every section empty when `path` is None;
    unknown sections/keys are rejected with the offending name."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path or [])
    except (configparser.Error, UnicodeDecodeError) as e:
        usage_error("malformed config file %s: %s" % (path, str(e).splitlines()[0]))
    if parser.defaults():
        usage_error("unknown config section [DEFAULT]")
    out = {section: {} for section in SECTION_KEYS}
    for section in parser.sections():
        if section not in SECTION_KEYS:
            usage_error("unknown config section [%s]" % section)
        for key, raw in parser.items(section):
            if key not in SECTION_KEYS[section]:
                usage_error("unknown config key '%s' in section [%s]" % (key, section))
            caster = SECTION_KEYS[section][key]
            try:
                out[section][key] = (parser.getboolean(section, key) if caster is bool
                                     else caster(raw))
            except ValueError:
                usage_error("bad value %r for config key '%s'" % (raw, key))
    return out


def world_config_from(config, seed=None):
    w = dict(config.get("world", {}))
    grid = tuple(w.pop(key, default) for key, default
                 in zip(("grid_x", "grid_y", "grid_z"), synthworld.WorldConfig.grid))
    if seed is not None:
        w["seed"] = seed
    try:
        return synthworld.WorldConfig(grid=grid, **w)
    except (TypeError, ValueError) as e:
        usage_error(str(e))


def _config_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _load_split(data_dir, split):
    path = Path(data_dir) / split
    if not (path / "manifest.json").is_file():
        usage_error("missing dataset split %s under %s" % (split, data_dir))
    try:
        return synthworld.load_dataset(path)
    except (OSError, ValueError) as e:
        data_error("dataset split %s: %s" % (split, e))


def _reject_repeats(name, keys, given):
    """A key that occurs more than once in `keys` is a usage error naming
    the entries of `given` (its spellings) that repeat."""
    repeated = sorted({g for g, key in zip(given, keys) if keys.count(key) > 1})
    if repeated:
        usage_error("--%s names %s more than once" % (name, ", ".join(repeated)))


def _int_list(raw, name, lo, hi=None):
    """Comma-separated distinct integers, each >= lo and (if given) <= hi;
    anything else is a usage error."""
    try:
        values = tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError:
        values = ()
    if not values or any(v < lo or (hi is not None and v > hi) for v in values):
        usage_error("--%s must be comma-separated integers %s, got %r" % (
            name, ">= %d" % lo if hi is None else "in %d-%d" % (lo, hi), raw))
    _reject_repeats(name, values, [str(v) for v in values])
    return values


class ExitCodeGroup(click.Group):
    """Click group that maps each error of parsing or of a command to one `error:` line
    and an exit code: click's usage errors, class anchors that cannot be placed, a sweep's
    world without train or test scenes or front-sector voxel, and a malformed method or
    one without its artifacts exit 2; an unfittable density or bad artifact file exit 3."""

    def parse_args(self, ctx, args):
        return self._exit_codes(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return self._exit_codes(super().invoke, ctx)

    @staticmethod
    def _exit_codes(call, *args):
        try:
            return call(*args)
        except click.exceptions.NoArgsIsHelpError:  # bare `voxuq` prints the help
            raise
        except click.UsageError as e:
            usage_error(e.format_message())
        except (synthworld.GenerationError, MethodError) as e:
            usage_error(str(e))
        except (FitError, store.StoreError) as e:
            data_error(str(e))


@click.group(cls=ExitCodeGroup)
def main():
    """Uncertainty quantification toolkit for voxel-grid semantic prediction."""


@main.command("generate-data")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=None)
@click.option("--force", is_flag=True)
def cmd_generate_data(config_path, out, seed, force):
    """Generate train/val/test splits of the synthetic voxel world."""
    config = load_config(config_path)
    world_config = world_config_from(config, seed=seed)
    if Path(out).is_dir() and any(Path(out).iterdir()) and not force:
        usage_error("output directory %s is not empty (use --force)" % out)
    world = synthworld.generate_world(world_config)
    out_dir = output_dir(out)
    for split in ("train", "val", "test"):
        ds = synthworld.generate_dataset(world, split)
        synthworld.save_dataset(ds, out_dir / split)
    click.echo("wrote dataset (train=%d val=%d test=%d scenes) to %s"
               % (world_config.train_scenes, world_config.val_scenes,
                  world_config.test_scenes, out))


@main.command("train")
@click.option("--data", required=True, type=click.Path())
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=42)
@click.option("--epochs", type=int, default=None)
@click.option("--ensemble", type=COUNT, default=0)
def cmd_train(data, config_path, out, seed, epochs, ensemble):
    """Train the prediction head (and optional deep-ensemble members)."""
    config = load_config(config_path)
    kwargs = dict({"epochs": pipeline.DEFAULT_EPOCHS, "batch_size": pipeline.DEFAULT_BATCH,
                   "lr": pipeline.DEFAULT_LR}, **config["training"])
    if epochs is not None:
        kwargs["epochs"] = epochs
    if not (kwargs["epochs"] >= 1 and kwargs["batch_size"] >= 1 and 0 < kwargs["lr"] < math.inf):
        usage_error("need epochs >= 1, batch_size >= 1 and a finite lr > 0, got %(epochs)d, "
                    "%(batch_size)d and %(lr)r" % kwargs)
    train_ds, val_ds = (_load_split(data, split) for split in ("train", "val"))
    try:
        head_config = pipeline.head_config_for_world(train_ds.config, **config["head"])
    except ValueError as e:
        usage_error(str(e))
    head, log = pipeline.train_on_dataset(head_config, train_ds, seed=seed, **kwargs)
    out_dir = output_dir(out)
    store.save_head(head, out_dir / "head.ocuq")
    with open(out_dir / "train_log.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "loss", "accuracy"])
        for e, l, a in zip(log.epochs, log.losses, log.accuracies):
            writer.writerow([e, format(l, ".17g"), format(a, ".17g")])
    click.echo("validation accuracy: %.4f" % accuracy(head, val_ds.iter_scene_arrays()))
    for i in range(ensemble):  # deep-ensemble members differ only by training seed
        member, _ = pipeline.train_on_dataset(head_config, train_ds, seed=seed + 100 + i,
                                              log_accuracy=False, **kwargs)
        store.save_head(member, out_dir / ("member_%d.ocuq" % i))
    if ensemble:
        click.echo("wrote %d ensemble members" % ensemble)


@main.command("fit-gmm")
@click.option("--data", required=True, type=click.Path())
@click.option("--head", "head_path", required=True, type=IN_FILE)
@click.option("--cap", type=click.IntRange(min=1), default=20000)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--seed", type=COUNT, default=42)
def cmd_fit_gmm(data, head_path, cap, out, seed):
    """Fit the per-class Gaussian density model from penultimate features."""
    train_ds = _load_split(data, "train")
    head = _bundle_from_artifacts(head_path, None, None, [], train_ds.config,
                                  Path(data) / "train").head
    model = pipeline.fit_density(head, train_ds, cap_per_class=cap, seed=seed)
    output_dir(Path(out).parent)
    store.save_gda(model, out)
    for c in range(model.num_classes):
        click.echo("class %d: %d vectors" % (c, model.counts[c]))


def _agree(sizes, path, other_sizes, other_path, what="input dim and classes"):
    """Input files whose sizes must agree and do not are a data error."""
    if sizes != other_sizes:
        data_error("%s has %s %s, but %s has %s" % (path, what, sizes, other_path, other_sizes))


def _io_sizes(head):
    return head.config.input_dim, head.config.num_classes


def _member_index(path):
    """Sort key of a member_<i>.ocuq path: i as an integer, so member_2
    comes before member_10; a name without an integer index sorts last."""
    index = path.stem[len("member_"):]
    return (0, int(index), path.name) if index.isdecimal() else (1, 0, path.name)


def _bundle_from_artifacts(head_path, gda_path, members_dir, methods, config, split_dir):
    """The artifacts `methods` score with, checked once against the world
    `config` of the dataset split in `split_dir` and against each other.
    The density model is loaded only if a method is ours, as loading it
    inverts K Cholesky factors, and the members only if a method is de:n,
    in the order of the index in their names."""
    head = store.load_head(head_path)
    _agree(_io_sizes(head), head_path, (config.feature_dim, config.num_classes),
           split_dir / "manifest.json")
    names = {parse_method(m)[0] for m in methods}
    gda_model = None
    if gda_path and "ours" in names:
        gda_model = store.load_gda(gda_path)
        _agree((gda_model.dim, gda_model.num_classes), gda_path,
               (head.config.hidden_width, head.config.num_classes), head_path,
               "feature dim and classes")
    paths = []
    if members_dir and "de" in names:
        paths = sorted(Path(members_dir).glob("member_*.ocuq"), key=_member_index)
    members = [store.load_head(p) for p in paths]
    for path, member in zip(paths, members):
        _agree(_io_sizes(member), path, _io_sizes(head), head_path)
    return MethodBundle(head=head, gda_model=gda_model, ensemble_heads=members)


def _param_count(method, bundle):
    """Parameters a method scores with: the head, plus the density model for
    ours; the n member heads for de:n."""
    name, params = parse_method(method)
    if name == "de":
        return sum(h.param_count() for h in bundle.ensemble_heads[:params["n"]])
    count = bundle.head.param_count()
    if name == "ours":
        count += gmm_param_count(bundle.gda_model.dim, bundle.gda_model.num_classes)
    return count


@main.command("eval-ood")
@click.option("--data", required=True, type=click.Path())
@click.option("--head", "head_path", required=True, type=IN_FILE)
@click.option("--gda", "gda_path", type=IN_FILE, default=None)
@click.option("--members", "members_dir", type=click.Path(), default=None)
@click.option("--methods", default="ours,max-softmax,entropy")
@click.option("--corruptions", default=",".join(synthworld.CORRUPTION_KINDS))
@click.option("--severities", default=",".join(map(str, synthworld.SEVERITIES)))
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=42)
def cmd_eval_ood(data, head_path, gda_path, members_dir, methods, corruptions,
                 severities, out, seed):
    """Run the clean-vs-corrupted sweep and write metrics.json + histograms.csv."""
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    if not method_list:
        usage_error("--methods must name at least one method, got %r" % methods)
    # repeats are found among parsed specs, so "mcd" repeats "mcd:n=5:p=0.1"
    keys = [(name, tuple(params.items())) for name, params in map(parse_method, method_list)]
    _reject_repeats("methods", keys, method_list)
    kinds = tuple(k.strip() for k in corruptions.split(",") if k.strip())
    if not kinds:
        usage_error("--corruptions must name at least one corruption, got %r" % corruptions)
    for k in kinds:
        if k not in synthworld.CORRUPTION_KINDS:
            usage_error("unknown corruption %r" % k)
    _reject_repeats("corruptions", kinds, kinds)
    sevs = _int_list(severities, "severities", 0, 3)
    test_ds = _load_split(data, "test")
    bundle = _bundle_from_artifacts(head_path, gda_path, members_dir, method_list,
                                    test_ds.config, Path(data) / "test")
    world = synthworld.generate_world(test_ds.config)
    rep = run_sweep(method_list, bundle, world, test_ds, seed=seed,
                    corruptions=kinds, severities=sevs)
    out_dir = output_dir(out)
    param_counts = {m: _param_count(m, bundle) for m in method_list}
    doc = report_mod.report_to_metrics(
        rep, config_hash=_config_hash(asdict(test_ds.config)),
        param_counts=param_counts)
    report_mod.write_metrics(doc, out_dir / "metrics.json")
    report_mod.write_histograms_csv(rep, out_dir / "histograms.csv")
    report_mod.write_timings(rep, out_dir / "timing.json")
    for m in method_list:
        agg = rep.aggregates[m]
        click.echo("%s: mAUROC=%.4f mFPR95=%.4f" % (m, agg["mauroc"], agg["mfpr95"]))


@main.command("calibrate")
@click.option("--data", required=True, type=click.Path())
@click.option("--head", "head_path", required=True, type=IN_FILE)
@click.option("--gda", "gda_path", type=IN_FILE, default=None)
@click.option("--members", "members_dir", type=click.Path(), default=None)
@click.option("--method", default="ours")
@click.option("--mode", type=click.Choice(["ts", "ugts"]), default="ugts")
@click.option("--lambda-grid", "lambda_grid", default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=42)
def cmd_calibrate(data, head_path, gda_path, members_dir, method, mode,
                  lambda_grid, out, seed):
    """Fit temperature scaling (and UGTS lambda), then report ECE/NLL on the
    clean and corrupted evaluation sets."""
    parse_method(method)
    if mode == "ts" and lambda_grid is not None:
        usage_error("--lambda-grid applies only to --mode ugts")
    grid = [0.0] if mode == "ts" else LAMBDA_GRID
    if lambda_grid is not None:
        try:
            grid = [float(x) for x in lambda_grid.split(",") if x.strip()]
        except ValueError:
            grid = []
        if not grid or not all(map(math.isfinite, grid)):
            usage_error("--lambda-grid must be comma-separated finite numbers, got %r"
                        % lambda_grid)
    # no temperature at lambda = 0 reads the train-set mean, so then no train scene is read
    train_ds = _load_split(data, "train") if any(grid) else None
    val_ds, test_ds = (_load_split(data, split) for split in ("val", "test"))
    bundle = _bundle_from_artifacts(head_path, gda_path, members_dir, [method],
                                    test_ds.config, Path(data) / "test")
    world = synthworld.generate_world(test_ds.config)
    params = pipeline.calibrate_method(method, bundle, train_ds, val_ds,
                                       lam_grid=grid, seed=seed)
    del train_ds, val_ds  # evaluation reads only the test split
    result = pipeline.evaluate_calibration(method, bundle, world, params,
                                           test_ds, seed=seed)
    out_dir = output_dir(out)
    store.save_calibration(params, out_dir / "calib.ocuq")
    doc = {
        "schema_version": report_mod.METRICS_SCHEMA_VERSION,
        "method": method, "mode": mode,
        "t_train": params.t_train, "lambda": params.lam,
        "u_bar_train": params.u_bar_train if any(grid) else None,
        "results": result,
    }
    report_mod.write_metrics(doc, out_dir / "calibration.json")
    click.echo("t_train=%.4f lambda=%.4f" % (params.t_train, params.lam))
    click.echo("clean ECE raw/ts/ugts: %.4f / %.4f / %.4f" % (
        result["clean"]["raw"]["ece"], result["clean"]["ts"]["ece"],
        result["clean"]["ugts"]["ece"]))
    click.echo("corrupt mECE ts/ugts: %.4f / %.4f" % (
        result["corrupted"]["ts"]["mece"], result["corrupted"]["ugts"]["mece"]))


@main.command("report")
@click.option("--metrics", "metrics_path", required=True, type=IN_FILE)
@click.option("--histograms", "histograms_path", type=IN_FILE, default=None)
@click.option("--out-dir", required=True, type=click.Path())
def cmd_report(metrics_path, histograms_path, out_dir):
    """Render markdown tables and SVG histograms from metrics.json."""
    try:
        files = report_mod.read_report(
            metrics_path, histograms_path or Path(metrics_path).parent / "histograms.csv")
    except report_mod.HistogramsError as e:
        usage_error(e)
    except (ValueError, KeyError) as e:
        usage_error("metrics schema mismatch: %s" % e)
    written = report_mod.write_report(files, output_dir(out_dir))
    click.echo("wrote %d files to %s" % (len(written), out_dir))


@main.command("ablate")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=None)
def cmd_ablate(config_path, out, seed):
    """Train {3,5}-layer x {skip} head variants and tabulate OoD performance."""
    config = load_config(config_path)
    world_config = world_config_from(config, seed=seed)  # --seed, else [world] seed
    rows = pipeline.ablation_table(world_config, seed=world_config.seed)
    out_dir = output_dir(out)
    report_mod.write_metrics({"rows": rows}, out_dir / "ablation.json")
    (out_dir / "ablation.md").write_text(report_mod.ablation_table_markdown(rows))
    warning = pipeline.ablation_direction_warning(rows)
    if warning:
        click.echo("warning: %s" % warning, err=True)
    click.echo(report_mod.ablation_table_markdown(rows))


@main.command("dim-sweep")
@click.option("--dims", default="16,32")
@click.option("--config", "config_path", type=IN_FILE, default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=COUNT, default=None)
def cmd_dim_sweep(dims, config_path, out, seed):
    """Sweep the feature/penultimate dimension and tabulate OoD metrics plus
    density-model parameter counts."""
    dim_list = _int_list(dims, "dims", 2)
    config = load_config(config_path)
    world_config = world_config_from(config, seed=seed)  # --seed, else [world] seed
    rows = pipeline.feature_dim_sweep(dim_list, world_config, seed=world_config.seed)
    out_dir = output_dir(out)
    report_mod.write_metrics({"rows": rows}, out_dir / "dim_sweep.json")
    (out_dir / "dim_sweep.md").write_text(report_mod.dim_sweep_table_markdown(rows))
    click.echo(report_mod.dim_sweep_table_markdown(rows))


if __name__ == "__main__":
    main()
