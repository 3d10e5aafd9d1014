"""Metrics, year-split evaluation, early-season masking, report emission.

RMSE is reported in units of the crop's yield standard deviation across
all dataset years so crops are comparable. Early prediction replaces the
test year's weather and land-surface weeks at or beyond the cutoff with
that county's training-period weekly means (features from earlier window
years are untouched), then evaluates the unmodified checkpoint.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from yieldgraph.autodiff import NonFiniteError
from yieldgraph.data import apply_norm_stats, enumerate_windows

CUTOFF_WEEK = 22  # June 1


class MetricError(ValueError):
    """Metric preconditions violated (empty or zero-variance input)."""


def rmse(true, pred, yield_std=1.0):
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if true.size == 0 or true.shape != pred.shape:
        raise MetricError(f"rmse needs matching non-empty vectors, got {true.shape}, {pred.shape}")
    if yield_std <= 0:
        raise MetricError(f"yield_std must be positive, got {yield_std}")
    return float(np.sqrt(np.mean((true - pred) ** 2)) / yield_std)


def r_squared(true, pred):
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if true.size == 0 or true.shape != pred.shape:
        raise MetricError("r_squared needs matching non-empty vectors")
    ss_tot = float(np.sum((true - true.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("r_squared undefined: true values have zero variance")
    ss_res = float(np.sum((true - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson_corr(true, pred):
    true = np.asarray(true, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if true.size == 0 or true.shape != pred.shape:
        raise MetricError("pearson_corr needs matching non-empty vectors")
    a = true - true.mean()
    b = pred - pred.mean()
    sa = float(np.sqrt(np.sum(a * a)))
    sb = float(np.sqrt(np.sum(b * b)))
    if sa == 0.0 or sb == 0.0:
        raise MetricError("pearson_corr undefined: zero variance input")
    return float(np.dot(a, b) / (sa * sb))


@dataclass
class EvalReport:
    crop: str
    test_year: int
    method: str
    seed: int
    rmse_normalized: float
    r2: float
    corr: float
    n_counties: int
    yield_std: float
    records: list = field(default_factory=list)  # (county, true, predicted, residual)
    skipped: int = 0  # labeled counties without a complete feature window


@dataclass
class MaskingPlan:
    """Replacement values for weather/land weeks >= cutoff: per-county
    training-period weekly means (in the dataset's representation)."""

    cutoff_week: int = CUTOFF_WEEK
    weather_means: dict = field(default_factory=dict)  # county -> [7, 52]
    land_means: dict = field(default_factory=dict)     # county -> [16, 52]


def build_masking_plan(dataset, split, cutoff_week=CUTOFF_WEEK):
    """Per-county means over training years of every (channel, week) cell."""
    train_idx = [dataset.year_index[y] for y in split.train_years(dataset.years)]
    plan = MaskingPlan(cutoff_week=cutoff_week)
    for county in dataset.counties:
        ci = dataset.county_index[county]
        rows = [t for t in train_idx if dataset.present[ci, t]]
        if not rows:
            continue
        with np.errstate(invalid="ignore"):
            plan.weather_means[county] = np.nanmean(dataset.weather[ci, rows], axis=0)
            plan.land_means[county] = np.nanmean(dataset.land[ci, rows], axis=0)
    return plan


def mask_dataset_year(dataset, plan, year):
    """Dataset copy with one year's weather/land masked for every county."""
    weather = dataset.weather.copy()
    land = dataset.land.copy()
    yi = dataset.year_index[year]
    cut = plan.cutoff_week
    for county, means in plan.weather_means.items():
        ci = dataset.county_index[county]
        if dataset.present[ci, yi]:
            weather[ci, yi, :, cut:] = means[:, cut:]
            land[ci, yi, :, cut:] = plan.land_means[county][:, cut:]
    return type(dataset)(
        dataset.counties, dataset.years, weather, land,
        dataset.soil, dataset.extras, dataset.present,
        dataset.yields, dataset.graph,
        normalized=dataset.normalized, norm_stats=dataset.norm_stats,
    )


def evaluate(predictor, dataset, split, early=False):
    """Score a predictor on the split's test year.

    ``predictor`` needs: crop, history_years, seed, method_name,
    norm_stats (None to skip normalization), and
    predict_year(dataset, counties, year) -> raw-unit predictions.
    Predictions cover the test-year samples of ``enumerate_windows``:
    every labeled county with a complete window; the rest are counted as
    skipped. Unlabeled counties stay available as graph message sources.
    A test year outside the dataset raises ``MetricError``; a non-finite
    prediction, RMSE or R^2 (an absurd but finite input can overflow them)
    raises ``NonFiniteError``.
    """
    test_year = split.test_year
    crop = predictor.crop
    if test_year not in dataset.year_index:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}: "
                          f"not a dataset year")
    if predictor.norm_stats is not None:
        ds = apply_norm_stats(dataset, predictor.norm_stats)
    else:
        ds = dataset
    if early:
        plan = build_masking_plan(ds, split)
        ds = mask_dataset_year(ds, plan, test_year)

    samples, skipped = enumerate_windows(ds, [test_year], crop, predictor.history_years)
    counties = [c for c, _ in samples]
    if not counties:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}")

    preds = np.asarray(predictor.predict_year(ds, counties, test_year), dtype=np.float64)
    true = np.array([ds.yields.get(c, test_year, crop) for c in counties])
    yield_std = ds.yields.std_all_years(crop)
    where = f"{predictor.method_name} on {crop} {test_year}"
    if not np.all(np.isfinite(preds)):
        raise NonFiniteError(f"non-finite predictions from {where}")
    with np.errstate(over="ignore", invalid="ignore"):
        rmse_value = rmse(true, preds, yield_std)
        r2 = r_squared(true, preds)
    if not (math.isfinite(rmse_value) and math.isfinite(r2)):
        raise NonFiniteError(f"metrics of {where} overflowed: rmse {rmse_value}, r2 {r2}")
    records = [
        (c, float(t), float(p), float(t - p)) for c, t, p in zip(counties, true, preds)
    ]
    try:
        corr = pearson_corr(true, preds)
    except MetricError:
        corr = float("nan")  # constant predictions leave corr undefined
    return EvalReport(
        crop=crop,
        test_year=test_year,
        method=predictor.method_name,
        seed=predictor.seed,
        rmse_normalized=rmse_value,
        r2=r2,
        corr=corr,
        n_counties=len(counties),
        yield_std=yield_std,
        records=records,
        skipped=skipped,
    )


# -- report emission ----------------------------------------------------------


def emit_report(report, out_dir):
    """Write metrics.txt (key = value), predictions.csv, and scatter.svg;
    returns the three paths."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.txt")
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(f"rmse = {report.rmse_normalized!r}\n")
        f.write(f"r2 = {report.r2!r}\n")
        f.write(f"corr = {report.corr!r}\n")
        f.write(f"n = {report.n_counties}\n")
        f.write(f"crop = {report.crop}\n")
        f.write(f"year = {report.test_year}\n")
        f.write(f"method = {report.method}\n")
        f.write(f"seed = {report.seed}\n")
        f.write(f"yield_std = {report.yield_std!r}\n")
        f.write(f"skipped = {report.skipped}\n")

    csv_path = os.path.join(out_dir, "predictions.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("county,year,true,predicted\n")
        for county, true, pred, _ in report.records:
            f.write(f"{county},{report.test_year},{true!r},{pred!r}\n")

    svg_path = os.path.join(out_dir, "scatter.svg")
    with open(svg_path, "w", encoding="utf-8") as f:
        f.write(_scatter_svg(report))
    return metrics_path, csv_path, svg_path


def parse_metrics(path):
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            key, _, value = line.partition(" = ")
            value = value.strip()
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def _scatter_svg(report, size=800, margin=60):
    vals = [v for _, t, p, _ in report.records for v in (t, p)]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    span = hi - lo
    inner = size - 2 * margin

    def sx(v):
        return margin + (v - lo) / span * inner

    def sy(v):
        return size - margin - (v - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
        'stroke="gray" stroke-dasharray="6,4"/>',
        f'<text x="{size / 2:.0f}" y="{size - 15}" text-anchor="middle" font-size="16">'
        f"true yield ({report.crop}, {report.test_year})</text>",
        f'<text x="20" y="{size / 2:.0f}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 20 {size / 2:.0f})">predicted yield</text>',
    ]
    for county, true, pred, _ in report.records:
        parts.append(
            f'<circle cx="{sx(true):.2f}" cy="{sy(pred):.2f}" r="3" '
            f'fill="steelblue" fill-opacity="0.6"><title>{county}</title></circle>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
