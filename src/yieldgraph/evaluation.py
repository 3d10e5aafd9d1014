"""Metrics, year-split evaluation, early-season masking, report emission.

RMSE is reported in units of the crop's yield standard deviation across
all dataset years so crops are comparable. Early prediction replaces the
test year's weather and land-surface weeks at or beyond the cutoff with
that county's training-period weekly means (features from earlier window
years are untouched), then evaluates the unmodified checkpoint.

``evaluate`` takes the raw dataset and the predictor's norm stats, and
touches only the years it scores. It slices the window years
[test - history_years, test] and normalizes that slice. An early evaluate
builds its masking plan from the raw training years, normalizing only the
weeks it replaces, and masks a copy of the normalized window. The reports
are bit for bit those of normalizing and masking the whole dataset.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from yieldgraph.autodiff import NonFiniteError
from yieldgraph.data import BLOCKS, apply_norm_stats, enumerate_windows

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
    """Replacement values for the weather/land weeks >= cutoff of a test
    year, one row per county with a present training record.

    ``rows`` are those counties' dataset rows, ascending. ``weather``
    [rows, 7, 52 - cutoff] and ``land`` [rows, 16, 52 - cutoff] hold each
    county's mean over its present training years of every (channel, week)
    cell, NaN cells skipped, in the normalized representation of the norm
    stats the plan was built with.
    """

    cutoff_week: int
    rows: np.ndarray
    weather: np.ndarray
    land: np.ndarray


def _training_means(block, norm, present, rows, train_idx, cut):
    """[rows, channels, weeks >= cut] NaN-skipping means over the present
    training years of ``block`` [county, year, channels, 52], each year
    normalized by ``norm`` = (mean, std) as ``apply_norm_stats`` does. The
    years are summed in order from zero, the order of ``np.nanmean`` over
    axis 0, so the means are its bits."""
    total = np.zeros((rows.size, block.shape[2], block.shape[3] - cut))
    nans = np.zeros(total.shape, dtype=np.intp)
    years = np.zeros(rows.size, dtype=np.intp)
    mean, std = (np.ascontiguousarray(a[:, cut:]) for a in norm)
    for t in train_idx:
        hit = np.flatnonzero(present[rows, t])
        x = block[rows[hit], t, :, cut:]  # a copy: normalized in place
        x -= mean
        x /= std
        missing = np.isnan(x)
        if missing.any():
            x[missing] = 0.0
            nans[hit] += missing
        if hit.size == rows.size:
            total += x
        else:
            total[hit] += x
        years[hit] += 1
    with np.errstate(invalid="ignore"):
        return total / (years[:, None, None] - nans)


def build_masking_plan(dataset, split, stats, cutoff_week=CUTOFF_WEEK):
    """The plan for the raw ``dataset``: per-county means over the training
    years, each year normalized by ``stats``. One pass over the
    training-year slices; a county with no present training record gets no
    row and stays unmasked."""
    train_idx = [dataset.year_index[y] for y in split.train_years(dataset.years)]
    rows = np.flatnonzero(dataset.present[:, train_idx].any(axis=1))

    def means(b):
        return _training_means(getattr(dataset, b), (stats.mean[b], stats.std[b]),
                               dataset.present, rows, train_idx, cutoff_week)

    return MaskingPlan(cutoff_week, rows, means("weather"), means("land"))


def mask_dataset_year(dataset, plan, year):
    """Copy of ``dataset`` with ``year``'s weather/land weeks >= cutoff set
    to the plan's means, for every planned county with a record that year;
    ``dataset`` is untouched. Only its blocks are copied, so pass it the
    window years alone."""
    yi = dataset.year_index[year]
    cut = plan.cutoff_week
    here = dataset.present[plan.rows, yi]
    blocks = {b: getattr(dataset, b) for b in BLOCKS}
    for b in ("weather", "land"):
        blocks[b] = blocks[b].copy()
        blocks[b][plan.rows[here], yi, :, cut:] = getattr(plan, b)[here]
    return type(dataset)(
        dataset.counties, dataset.years, *blocks.values(), dataset.present,
        dataset.yields, dataset.graph, norm_stats=dataset.norm_stats,
    )


def evaluate(predictor, dataset, split, early=False):
    """Score a predictor on the raw ``dataset``'s test year of the split.

    ``predictor`` needs three members: ``spec`` (a ``ModelSpec``; its crop,
    history_years, seed and kind are read), ``norm_stats`` (the stats its
    inputs are normalized with) and predict_year(dataset, counties, year) ->
    raw-unit predictions.
    Predictions cover the test-year samples of ``enumerate_windows``:
    every labeled county with a complete window; the rest are counted as
    skipped. Unlabeled counties stay available as graph message sources.
    A test year outside the dataset raises ``MetricError``; a non-finite
    prediction, RMSE or R^2 (an absurd but finite input can overflow them)
    raises ``NonFiniteError``.
    """
    test_year = split.test_year
    spec = predictor.spec
    crop = spec.crop
    if test_year not in dataset.year_index:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}: "
                          f"not a dataset year")
    stats = predictor.norm_stats
    ds = apply_norm_stats(dataset.year_range(test_year - spec.history_years, test_year), stats)
    if early:
        plan = build_masking_plan(dataset, split, stats)
        ds = mask_dataset_year(ds, plan, test_year)

    samples, skipped = enumerate_windows(ds, [test_year], crop, spec.history_years)
    counties = [c for c, _ in samples]
    if not counties:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}")

    preds = np.asarray(predictor.predict_year(ds, counties, test_year), dtype=np.float64)
    true = np.array([ds.yields.get(c, test_year, crop) for c in counties])
    yield_std = ds.yields.std_all_years(crop)
    where = f"{spec.kind} on {crop} {test_year}"
    if not np.isfinite(preds).all():
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
        method=spec.kind,
        seed=spec.seed,
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
