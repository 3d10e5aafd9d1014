"""Operator surface: aggregate, synth, train, evaluate, benchmark.

Each command reads an optional plain-text config file (``key = value``
lines, # comments) with command-line flags taking precedence, echoes the
fully resolved configuration into its output directory, and never
overwrites a non-empty output directory unless --force is given.

The train command's hyperparameter keys are the ``ModelSpec`` fields that
hold one value (``--batch-size`` sets ``batch_size``), with three names of
its own: ``method`` is the spec's ``kind``, ``schedule`` is the schedule's
text form (constant | step:P:G | cosine:T0:ETA), peaking at ``lr``, and
``toy_widths`` selects ``ArchWidths.toy()``. The echo pins every one of
them, as resolved.

``synth`` writes a dataset directory: the feature store ``features.npys``
(numpy arrays that train, evaluate and benchmark map read-only),
``yields.csv`` and ``adjacency.tsv``. Their ``--features`` takes the store
or a feature CSV, the import form that ``aggregate`` writes fragments of;
the two are told apart by the file's first byte.

Exit codes: 0 success, 2 input/config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import math
import os
import sys

# BLAS is pinned before numpy is first imported: a run's bits must not depend on the CPU count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from yieldgraph.autodiff import NonFiniteError  # noqa: E402
from yieldgraph.data import (  # noqa: E402
    DataFormatError,
    WindowUnavailableError,
    YearSplit,
    csv_rows,
    generate_synthetic,
    load_dataset,
    normalize,
    save_dataset,
)
from yieldgraph.evaluation import MetricError, emit_report, evaluate  # noqa: E402
from yieldgraph.geo import (  # noqa: E402
    GeoFormatError,
    aggregate_to_county,
    build_weight_map,
    daily_to_weekly,
    read_ascii_grid,
)
from yieldgraph.graph import GraphFormatError  # noqa: E402
from yieldgraph.models import (  # noqa: E402
    KIND_TABLE,
    ArchWidths,
    ConfigurationError,
    ModelCheckpoint,
    ModelSpec,
    TrainingAbort,
    default_spec,
    format_field,
    parse_field,
)
from yieldgraph.models import train as train_model  # noqa: E402
from yieldgraph.optim import LrSchedule  # noqa: E402

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_INPUT_ERRORS = (
    DataFormatError, GeoFormatError, GraphFormatError, ConfigurationError, MetricError,
    WindowUnavailableError, FileNotFoundError, NotADirectoryError, ValueError, KeyError,
)


class CliError(ValueError):
    pass


def read_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            values[key.strip()] = value.strip()
    return values


# Parsed attributes that are not config keys.
_NOT_KEYS = ("command", "func", "config", "force")


def resolve_config(args, required=()):
    """File values first, then CLI flags on top; returns {key: str}. The
    config keys are the command's flag names."""
    keys = [key for key in vars(args) if key not in _NOT_KEYS]
    resolved = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(keys) - {"command"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_values)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = str(flag)
    missing = [k for k in required if k not in resolved]
    if missing:
        raise CliError(f"missing required option(s): {missing}")
    return resolved


def config_switch(cfg, key):
    """A switch's resolved value: true when its flag was given or its
    config value is 1, true or yes."""
    return cfg.get(key, "false").lower() in ("1", "true", "yes")


def echo_config(resolved, command, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"command = {command}\n")
        for key in sorted(resolved):
            f.write(f"{key} = {resolved[key]}\n")
    return path


def prepare_out_dir(out_dir, force):
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise CliError(f"output directory {out_dir!r} is not empty; pass --force to reuse")
    os.makedirs(out_dir, exist_ok=True)


def parse_schedule(text):
    """constant | step:PERIOD:GAMMA | cosine:T0:ETA_MIN; the peak is the spec's lr."""
    parts = text.split(":")
    if parts[0] == "constant" and len(parts) == 1:
        return LrSchedule(kind="constant")
    if parts[0] == "step" and len(parts) == 3:
        return LrSchedule(kind="step", period=int(parts[1]), gamma=float(parts[2]))
    if parts[0] == "cosine" and len(parts) == 3:
        return LrSchedule(kind="cosine", t0=int(parts[1]), eta_min=float(parts[2]))
    raise CliError(f"bad schedule {text!r}; use constant, step:P:G, or cosine:T0:ETA")


# -- synth ---------------------------------------------------------------------


def cmd_synth(args):
    cfg = resolve_config(args, required=("counties", "years", "out"))
    counties = int(cfg["counties"])
    years = int(cfg["years"])
    seed = int(cfg.get("seed", "0"))
    start_year = int(cfg.get("start_year", "2000"))
    side = math.isqrt(counties)
    ds = generate_synthetic(counties, years, side, seed=seed, start_year=start_year)
    prepare_out_dir(cfg["out"], args.force)
    save_dataset(ds, cfg["out"])
    cfg.setdefault("seed", str(seed))
    cfg.setdefault("start_year", str(start_year))
    echo_config(cfg, "synth", cfg["out"])
    print(f"wrote {counties}-county, {years}-year dataset to {cfg['out']}")
    return EXIT_OK


# -- aggregate -------------------------------------------------------------------


def _read_manifest(path):
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv_rows(f, path, CliError)
        header = next(reader, None)
        if header != ["column", "source", "kind"]:
            raise CliError(f"{path}: manifest header must be column,source,kind")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise CliError(f"{path}:{lineno}: expected 3 fields")
            column, source, kind = row
            if kind not in ("static", "daily-flux", "daily-state"):
                raise CliError(f"{path}:{lineno}: kind must be static/daily-flux/daily-state")
            entries.append((column, source, kind))
    return entries


def cmd_aggregate(args):
    cfg = resolve_config(args, required=("rasters", "weights", "manifest", "year", "out"))
    weights = build_weight_map(cfg["weights"], None)
    counties = sorted(weights)
    year = int(cfg["year"])
    entries = _read_manifest(cfg["manifest"])

    columns = []
    table = {}
    for column, source, kind in entries:
        if kind == "static":
            raster = read_ascii_grid(os.path.join(cfg["rasters"], source))
            columns.append(column)
            for county in counties:
                table.setdefault(county, {})[column] = aggregate_to_county(
                    raster, weights, county
                )
            continue
        paths = sorted(glob.glob(os.path.join(cfg["rasters"], source)))
        if len(paths) not in (365, 366):
            raise CliError(
                f"daily source {source!r} matched {len(paths)} rasters; need 365 or 366"
            )
        per_day = {county: [] for county in counties}
        for p in paths:
            raster = read_ascii_grid(p)
            for county in counties:
                per_day[county].append(aggregate_to_county(raster, weights, county))
        variable_kind = "flux" if kind == "daily-flux" else "state"
        week_cols = [f"{column}_{w}" for w in range(52)]
        columns.extend(week_cols)
        for county in counties:
            series = per_day[county]
            if any(v is None for v in series):
                for col in week_cols:
                    table.setdefault(county, {})[col] = None
                continue
            weekly = daily_to_weekly(np.array(series), variable_kind)
            for col, v in zip(week_cols, weekly):
                table.setdefault(county, {})[col] = float(v)

    out_path = cfg["out"]
    out_dir = os.path.dirname(out_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(out_path) and not args.force:
        raise CliError(f"output file {out_path!r} exists; pass --force to overwrite")
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["county", "year"] + columns)
        for county in counties:
            row = [county, year]
            for col in columns:
                v = table.get(county, {}).get(col)
                row.append("" if v is None else repr(float(v)))
            writer.writerow(row)
    echo_config(cfg, "aggregate", out_dir)
    print(f"wrote county features fragment to {out_path}")
    return EXIT_OK


# -- train -----------------------------------------------------------------------


# {train key: field} for the ModelSpec fields set from one value. Each is
# a flag and config key of its own name, except kind, called method here.
_SPEC_FIELDS = {
    "method" if f.name == "kind" else f.name: f
    for f in dataclasses.fields(ModelSpec) if f.type in ("int", "float", "str")
}


def _spec_from_config(cfg):
    values = {f.name: parse_field(f, cfg[key]) for key, f in _SPEC_FIELDS.items() if key in cfg}
    test_year = int(cfg["test_year"])
    if config_switch(cfg, "toy_widths"):
        values["widths"] = ArchWidths.toy()
    spec = default_spec(values.pop("kind"), test_year=test_year, **values)
    if "schedule" in cfg:
        spec = dataclasses.replace(spec, schedule=parse_schedule(cfg["schedule"]))
    return spec, test_year


def _schedule_text(schedule):
    if schedule.kind == "constant":
        return "constant"
    if schedule.kind == "step":
        return f"step:{schedule.period}:{schedule.gamma!r}"
    return f"cosine:{schedule.t0}:{schedule.eta_min!r}"


def _load_dataset_cfg(cfg):
    return load_dataset(cfg["features"], cfg["yields"], cfg["adjacency"])


def cmd_train(args):
    cfg = resolve_config(
        args, required=("features", "yields", "adjacency", "method", "test_year", "out"),
    )
    spec, test_year = _spec_from_config(cfg)
    prepare_out_dir(cfg["out"], args.force)
    split = YearSplit(test_year=test_year)
    dataset, _ = normalize(_load_dataset_cfg(cfg), split)  # no raw copy outlives this line
    checkpoint = train_model(spec, dataset, split)
    ckpt_path = os.path.join(cfg["out"], "checkpoint.ckpt")
    checkpoint.save(ckpt_path)
    log_path = os.path.join(cfg["out"], "training_log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_rmse", "lr"])
        for h in checkpoint.history:
            writer.writerow([h["epoch"], repr(h["train_loss"]), repr(h["val_rmse"]),
                             repr(h["lr"])])
    for key, f in _SPEC_FIELDS.items():  # pin every effective hyperparameter
        cfg.setdefault(key, format_field(f, getattr(spec, f.name)))
    cfg.setdefault("schedule", _schedule_text(spec.schedule))
    cfg.setdefault("toy_widths", str(spec.widths == ArchWidths.toy()).lower())
    echo_config(cfg, "train", cfg["out"])
    best = checkpoint.history[checkpoint.best_epoch]
    print(f"trained {spec.kind} ({spec.crop}, test {test_year}); "
          f"best epoch {checkpoint.best_epoch} val_rmse {best['val_rmse']:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


# -- evaluate ---------------------------------------------------------------------


def cmd_evaluate(args):
    cfg = resolve_config(args,
                         required=("checkpoint", "features", "yields", "adjacency", "out"))
    checkpoint = ModelCheckpoint.load(cfg["checkpoint"])
    dataset = _load_dataset_cfg(cfg)
    test_year = int(cfg.get("test_year", checkpoint.test_year))
    early = config_switch(cfg, "early")
    prepare_out_dir(cfg["out"], args.force)
    report = evaluate(checkpoint, dataset, YearSplit(test_year=test_year), early=early)
    emit_report(report, cfg["out"])
    cfg.setdefault("early", "false")
    cfg.setdefault("test_year", str(test_year))
    echo_config(cfg, "evaluate", cfg["out"])
    print(f"{report.method} ({report.crop}, {report.test_year}): "
          f"rmse {report.rmse_normalized:.4f} r2 {report.r2:.4f} corr {report.corr:.4f} "
          f"n {report.n_counties}")
    return EXIT_OK


# -- benchmark --------------------------------------------------------------------


def _benchmark_cell(spec, prepared, dataset, split, early):
    """Train on the run's normalized copy, evaluate on the raw dataset."""
    checkpoint = train_model(spec, prepared, split)
    report = evaluate(checkpoint, dataset, split)
    masked = evaluate(checkpoint, dataset, split, early=True) if early else None
    return report, masked


def cmd_benchmark(args):
    cfg = resolve_config(
        args, required=("features", "yields", "adjacency", "methods", "test_year", "out"),
    )
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    if not methods:
        raise CliError(f"methods {cfg['methods']!r} names no method")
    seeds = [int(s) for s in cfg.get("seeds", "0").split(",")]
    crop = cfg.get("crop", ModelSpec.crop)
    test_year = int(cfg["test_year"])
    early = config_switch(cfg, "early")

    overrides = {}
    if "epochs" in cfg:
        overrides["epochs"] = int(cfg["epochs"])

    unknown = [m for m in methods if m not in KIND_TABLE]
    if unknown:
        raise CliError(f"unknown method {unknown[0]!r}")
    # A bad spec is bad input to the whole run, not a failed cell.
    specs = {(method, seed): default_spec(method, crop, test_year, seed=seed, **overrides)
             for method in methods for seed in seeds}

    dataset = _load_dataset_cfg(cfg)
    split = YearSplit(test_year=test_year)
    prepared, _ = normalize(dataset, split)
    prepare_out_dir(cfg["out"], args.force)
    results = {}
    for (method, seed), spec in specs.items():
        try:
            results[(method, seed)] = _benchmark_cell(spec, prepared, dataset, split, early)
        except _INPUT_ERRORS + (TrainingAbort, NonFiniteError) as e:
            results[(method, seed)] = e  # a cell failure must not sink the table
            print(f"benchmark cell {method} seed {seed} failed: "
                  f"{type(e).__name__}: {e}", file=sys.stderr)

    rows = []
    for method in methods:
        group = "5y" if KIND_TABLE[method].history_years else "1y"
        cells = [results[(method, s)] for s in seeds]
        failures = [c for c in cells if isinstance(c, Exception)]
        good = [c for c in cells if not isinstance(c, Exception)]
        row = {"method": method, "group": group, "seeds": len(seeds),
               "failed": len(failures)}
        if good:
            for name, pick in (("rmse", lambda r: r[0].rmse_normalized),
                               ("r2", lambda r: r[0].r2),
                               ("corr", lambda r: r[0].corr)):
                vals = np.array([pick(c) for c in good])
                row[f"{name}_mean"] = float(vals.mean())
                row[f"{name}_std"] = float(vals.std())
            if early:
                masked = np.array([c[1].r2 for c in good])
                row["r2_masked_mean"] = float(masked.mean())
                row["r2_masked_std"] = float(masked.std())
        row["status"] = "ok" if not failures else f"failed:{len(failures)}"
        rows.append(row)

    metric_cols = ["rmse_mean", "rmse_std", "r2_mean", "r2_std", "corr_mean", "corr_std"]
    if early:
        metric_cols += ["r2_masked_mean", "r2_masked_std"]
    csv_path = os.path.join(cfg["out"], "benchmark.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "group", "seeds", "failed"] + metric_cols + ["status"])
        for row in rows:
            writer.writerow(
                [row["method"], row["group"], row["seeds"], row["failed"]]
                + [repr(row[c]) if c in row else "" for c in metric_cols]
                + [row["status"]]
            )

    txt_path = os.path.join(cfg["out"], "benchmark.txt")
    with open(txt_path, "w", encoding="utf-8") as f:
        header = (f"{'method':<14}{'group':<7}" +
                  "".join(f"{c:>16}" for c in metric_cols) + "  status")
        f.write(header + "\n")
        f.write("-" * len(header) + "\n")
        for group in ("1y", "5y"):
            for row in rows:
                if row["group"] != group:
                    continue
                cells = "".join(
                    f"{row[c]:>16.4f}" if c in row else f"{'-':>16}" for c in metric_cols
                )
                f.write(f"{row['method']:<14}{row['group']:<7}{cells}  {row['status']}\n")
    cfg.setdefault("seeds", ",".join(str(s) for s in seeds))
    cfg.setdefault("crop", crop)
    cfg.setdefault("early", "false")
    echo_config(cfg, "benchmark", cfg["out"])
    print(open(txt_path, encoding="utf-8").read(), end="")
    return EXIT_OK


# -- entry ------------------------------------------------------------------------


_FEATURES_HELP = "feature store (synth writes features.npys) or feature CSV"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="yieldgraph",
        description="County-level crop yield prediction pipeline (desk scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--counties", type=int)
    p.add_argument("--years", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--start-year", dest="start_year", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="aggregate rasters to county features")
    add_common(p)
    p.add_argument("--rasters", help="directory holding raster files")
    p.add_argument("--weights", help="county weight CSV")
    p.add_argument("--manifest", help="column,source,kind manifest CSV")
    p.add_argument("--year", type=int, help="year stamped on the output rows")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train", help="train one model")
    add_common(p)
    p.add_argument("--features", help=_FEATURES_HELP)
    p.add_argument("--yields", dest="yields")
    p.add_argument("--adjacency")
    p.add_argument("--test-year", dest="test_year", type=int)
    for key, f in _SPEC_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type={"int": int, "float": float}.get(f.type),
                       choices=f.metadata.get("choices"))
    p.add_argument("--schedule", help="constant | step:P:G | cosine:T0:ETA")
    p.add_argument("--toy-widths", dest="toy_widths", action="store_const", const="true",
                   help="tiny architecture for smoke runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on its test year")
    add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--features", help=_FEATURES_HELP)
    p.add_argument("--yields", dest="yields")
    p.add_argument("--adjacency")
    p.add_argument("--test-year", dest="test_year", type=int)
    p.add_argument("--early", action="store_const", const="true",
                   help="mask post-cutoff weather at test time")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="train/evaluate a method x seed matrix")
    add_common(p)
    p.add_argument("--features", help=_FEATURES_HELP)
    p.add_argument("--yields", dest="yields")
    p.add_argument("--adjacency")
    p.add_argument("--methods", help="comma-separated method kinds")
    p.add_argument("--seeds", help="comma-separated seeds (default 0)")
    p.add_argument("--crop", choices=_SPEC_FIELDS["crop"].metadata["choices"])
    p.add_argument("--test-year", dest="test_year", type=int)
    p.add_argument("--epochs", type=int, help="epoch override applied to every cell")
    p.add_argument("--early", action="store_const", const="true",
                   help="also report masked-R2 columns")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingAbort, NonFiniteError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
