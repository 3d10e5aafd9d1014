"""The benchmark's workloads: inputs made from a seed, a timed loop, checks.

graph-5y       gnn-rnn-5y at the paper defaults on a 20x20 grid: the conv
               embedder, the neighbour sampler and the SAGE layers all work.
weekly-rnn-1y  lstm-1y over 52 weekly steps: per-op autodiff overhead and
               the recurrent cell dominate; no graph, only the soil conv.
ingest-linear  the in-season weekly update: a week of daily rasters -> geo ->
               season save/load -> normalize -> windows -> ridge + lasso ->
               evaluate -> checkpoint, with no autodiff.

Every workload runs in one process. A "step" is one optimizer step on the
training workloads and one full ingest round on ingest-linear. Each
operation and check goes through ``Record``, which counts it and files a
failure under its error class instead of ending the run.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import os
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from yieldgraph import data, evaluation, geo, models, optim

CROP = "corn"
NODATA = -9999.0
# Share of nodata cells in a raster: the 1405 x 621 PRISM 4 km grid of the
# conterminous US carries data in about 481,600 of its 872,505 cells.
NODATA_SHARE = 0.45
# daily_to_weekly kind of each weather channel: precip accumulates over a
# week, the temperatures and vapour-pressure deficits are states.
KINDS = tuple("flux" if name == "precip" else "state" for name in data.WEATHER_VARS)
DAYS = 365
# ingest-linear rounds are the in-season weekly update for week 26 (early July).
UPDATE_DAYS = list(range(26 * 7, 27 * 7))

END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_counties_per_s", "1/s"),
    ("test_rmse", "std"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Sizes:
    grid_side: int = 20          # training workloads: grid_side**2 counties
    n_years: int = 8
    widths: models.ArchWidths = field(default_factory=models.ArchWidths)
    graph_steps: int = 12        # steps before the evaluated snapshot, run however long
    weekly_steps: int = 40
    reload_counties: int = 64    # counties predicted twice by the checkpoint check
    setup_reps: int = 5
    ingest_side: int = 10        # ingest-linear: ingest_side**2 counties, about Iowa's 99
    ingest_years: int = 8
    county_cells: int = 10       # cells per county side; an Iowa county has about 92 4-km cells
    lasso_sweeps: int = 25       # fixed coordinate-descent sweeps: bounded, repeatable work
    ingest_rounds: int = 2       # rounds run however long they take


FULL = Sizes()
SMOKE = Sizes(grid_side=4, widths=models.ArchWidths.toy(), graph_steps=2, weekly_steps=2,
              reload_counties=8, setup_reps=2, ingest_side=3,
              county_cells=2, lasso_sweeps=3, ingest_rounds=1)

# The shared host the benchmark was tuned on changes speed by up to 2x
# within seconds and by up to 1.6x over a whole run, for every kind of
# work alike. So a fixed reference job that does not touch yieldgraph,
# ``host_probe``, runs between the measured jobs for PROBE_SHARE of each
# run. Each measured time is scaled by PROBE_REF_MS over the probe's time
# just before and just after it (``host_scale``): it reads as on a host where
# the probe takes PROBE_REF_MS. The unscaled figures are in the summary line.
PROBE_SHARE = 0.1
PROBE_REF_MS = 12.0
PROBE_SIDE = 5
_PROBE_W = np.random.default_rng(0).standard_normal((64, 64)) / 8

# Share of the time after the snapshot that the training workloads spend on
# (plain, early) evaluate pairs; they are interleaved with the steps, so
# both are measured across the whole run.
EVAL_SHARE = 0.4


class Record:
    """Operations attempted and failures by error class."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as e:  # one failed operation must not end the run
            self.failures[type(e).__name__] += 1
            traceback.print_exc(file=sys.stderr)
            return False, None

    def check(self, error_class, ok):
        self.attempted += 1
        if not ok:
            self.failures[error_class] += 1
        return ok

    @property
    def failed(self):
        return sum(self.failures.values())


@dataclass
class Outcome:
    """Every timed job of a run, each with the perf_counter() it started at;
    a step is timed as the segments between its laps."""
    setups: list = field(default_factory=list)   # (start, seconds)
    steps: list = field(default_factory=list)    # ([(start, seconds)], samples, traced) if ok
    evals: list = field(default_factory=list)    # (start, seconds, counties scored)
    probes: list = field(default_factory=list)   # (start, seconds) of each host_probe
    test_rmse: float | None = None

    @property
    def eval_s(self):
        return sum(dt for _, dt, _ in self.evals)


def host_probe():
    """Seconds of one run of the reference job: small matrix ops and float
    arithmetic in a Python loop, the mix the library itself runs. It makes
    no object the garbage collector tracks and runs with the collector off,
    so the heap the library leaves behind does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    a, s = _PROBE_W, 0.0
    for i in range(400):
        a = np.tanh(a @ _PROBE_W) + 0.5
        for j in range(20):
            s = s * 0.5 + i * j
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t0, dt


def timed_loop(step, seconds, min_steps, tracer, outcome, set_up, setup_reps, evaluate=None):
    """Call ``step(lap)`` until ``seconds`` have passed and ``min_steps`` ran.

    ``step`` returns (ok, samples). It may call ``lap()`` between its stages:
    the step is timed as segments, and in an untraced run host probes may
    run between them, so that a long step is matched to the host's speed
    along it. In a traced run every second step runs with the wrappers
    removed, which gives the tracing overhead; no probe runs inside its
    steps, so that both kinds of step run alike. Between
    steps, ``set_up()`` runs until, with the set-up made before the loop,
    there were ``setup_reps``, spread evenly over the run. Once ``min_steps``
    ran, ``evaluate()`` (if given) runs whenever evaluation has had less
    than EVAL_SHARE of the time since; it runs at least once. Spreading
    set-ups and evaluations over the run keeps a slow spell of the host
    from landing on one kind of measurement only. Between any two jobs or
    laps, ``host_probe`` runs until it has had PROBE_SHARE of the time so far.
    """
    clock = time.perf_counter
    start = clock()
    i = 0
    setups = 1
    since = None
    probe_s = 0.0

    def probe():
        nonlocal probe_s
        while probe_s <= PROBE_SHARE * (clock() - start):
            outcome.probes.append(host_probe())
            probe_s += outcome.probes[-1][1]

    def side_job(job):
        if tracer is not None:
            tracer.install()
        job()

    while (clock() - start < seconds or i < min_steps or setups < setup_reps
           or (evaluate and not outcome.eval_s)):
        probe()
        if setups < setup_reps and setups * seconds / setup_reps <= clock() - start:
            side_job(set_up)
            setups += 1
            continue
        if evaluate is not None and i >= min_steps:
            since = since or clock()
            if outcome.eval_s <= EVAL_SHARE * (clock() - since):
                side_job(evaluate)
                continue
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        segments = []
        t0 = clock()

        def lap():
            nonlocal t0
            segments.append((t0, clock() - t0))
            if tracer is None:
                probe()
            t0 = clock()

        ok, samples = tracer.step(step, lap) if traced else step(lap)
        lap()
        if ok:
            outcome.steps.append((segments, samples, traced))
        i += 1
    if tracer is not None:
        tracer.install()


def _same_arrays(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)
    )


def _dataset_arrays(ds):
    return (ds.weather, ds.land, ds.soil, ds.extras, ds.present)


def _datasets_equal(a, b):
    return (
        a.counties == b.counties
        and a.years == b.years
        and _same_arrays(_dataset_arrays(a), _dataset_arrays(b))
        and a.yields.entries == b.yields.entries
        and a.graph.node_ids == b.graph.node_ids
        and _same_arrays(a.graph.neighbors, b.graph.neighbors)
    )


def _targets(ds, samples):
    stats = ds.norm_stats
    return np.array(
        [stats.standardize_target(CROP, ds.yields.get(c, y, CROP)) for c, y in samples]
    )


def _evaluate_pair(rec, outcome, ckpt, ds, split):
    """Plain and early-masked evaluate; returns the plain RMSE or None."""
    plain = None
    for early in (False, True):
        t0 = time.perf_counter()
        ok, report = rec.op(evaluation.evaluate, ckpt, ds, split, early=early)
        outcome.evals.append((t0, time.perf_counter() - t0, report.n_counties if ok else 0))
        if not ok:
            continue
        rec.check("NonFinitePrediction", all(math.isfinite(p) for _, _, p, _ in report.records))
        if not early:
            plain = report.rmse_normalized
    return plain


def _check_reload(rec, ckpt, nds, counties, year, path):
    """A checkpoint reloaded from disk predicts bit for bit the same."""
    ckpt.save(path)
    loaded = models.ModelCheckpoint.load(path)
    before = ckpt.predict_year(nds, counties, year)
    after = loaded.predict_year(nds, counties, year)
    rec.check("CheckpointMismatch", before.tobytes() == after.tobytes())


# -- training workloads ------------------------------------------------------------


def _epochs(samples, batch_size, rng, by_year):
    """Endless seeded shuffles; graph batches hold a single target year."""
    while True:
        groups = {}
        for i in rng.permutation(len(samples)):
            s = samples[i]
            groups.setdefault(s[1] if by_year else None, []).append(s)
        for group in groups.values():
            for k in range(0, len(group), batch_size):
                yield group[k : k + batch_size]


def run_training(kind, batch_size, min_steps, sizes, seed, seconds, tracer, rec, workdir):
    spec = models.default_spec(kind, crop=CROP, batch_size=batch_size, seed=seed,
                               widths=sizes.widths)
    side = sizes.grid_side
    outcome = Outcome()

    def set_up():
        t0 = time.perf_counter()
        ds = data.generate_synthetic(side * side, sizes.n_years, side, seed)
        split = data.YearSplit(test_year=ds.years[-1])
        nds, stats = data.normalize(ds, split)
        samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), CROP,
                                            spec.history_years)
        init_rng, order_rng, sample_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
        )
        model = models.build_model(spec, init_rng)
        outcome.setups.append((t0, time.perf_counter() - t0))
        return ds, split, nds, stats, samples, order_rng, sample_rng, model

    ds, split, nds, stats, samples, order_rng, sample_rng, model = set_up()

    def set_up_again():
        ok, again = rec.op(set_up)
        if ok:
            rec.check("SeedNondeterminism", _datasets_equal(ds, again[0]))

    params = model.parameters()
    adam = optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    batches = _epochs(samples, spec.batch_size, order_rng, kind in models.GRAPH_KINDS)
    held = []   # the checkpoint of the parameters after min_steps steps

    def train_step(batch, lap):
        preds = model.forward_samples(nds, batch, training=True, rng=sample_rng)
        loss = optim.logcosh_loss(preds, _targets(nds, batch))
        if tracer is not None:
            tracer.on_loss(loss)
        lap()
        for p in params.values():
            p.zero_grad()
        loss.backward()
        optim.adam_step(params, adam)

    attempts = itertools.count(1)

    def step(lap):
        batch = next(batches)
        ok, _ = rec.op(train_step, batch, lap)
        if next(attempts) == min_steps:
            snapshot = {name: p.data.copy() for name, p in params.items()}
            held.append(models.ModelCheckpoint(spec=spec, params=snapshot, norm_stats=stats,
                                               history=[], best_epoch=0,
                                               test_year=split.test_year))
        return ok, len(batch)

    def evaluate():
        rmse = _evaluate_pair(rec, outcome, held[0], ds, split)
        if outcome.test_rmse is None:
            outcome.test_rmse = rmse

    timed_loop(step, seconds, min_steps, tracer, outcome, set_up_again, sizes.setup_reps,
               evaluate)
    counties = ds.labeled_counties(split.test_year, CROP)[: sizes.reload_counties]
    rec.op(_check_reload, rec, held[0], nds, counties, split.test_year,
           os.path.join(workdir, "model.ckpt"))
    return outcome


# -- ingest-linear ---------------------------------------------------------------------


def _write_rasters(ds, sizes, seed, workdir):
    """One week of daily rasters of every weather variable for the test year.

    The tile holds ingest_side**2 counties of county_cells**2 cells each,
    with nodata columns either side so that NODATA_SHARE of it is nodata.
    Cell values are the county's daily value plus noise, kept to two
    decimals as gridded products store them; cell weights are seeded agland
    fractions. Returns an ``IngestInputs``.
    """
    rng = np.random.default_rng([seed, 1])
    side, c = sizes.ingest_side, sizes.county_cells
    n = side * c
    margin = round(n * NODATA_SHARE / (1 - NODATA_SHARE) / 2)
    cols = n + 2 * margin
    row, col = np.divmod(np.arange(n * n), n)
    county_of_cell = (row // c) * side + col // c
    cell_index = row * cols + margin + col
    weight = rng.uniform(0.2, 1.0, size=county_of_cell.size)
    weights = {county: [] for county in ds.counties}
    for cell, k, w in zip(cell_index, county_of_cell, weight):
        weights[ds.counties[k]].append((int(cell), float(w)))
    weights_path = os.path.join(workdir, "county_cells.csv")
    geo.save_weight_map(weights, weights_path)

    yi = ds.year_index[ds.years[-1]]
    week_of_day = np.minimum(np.arange(DAYS) // 7, 51)
    days_in_week = np.bincount(week_of_day, minlength=52)
    den = np.bincount(county_of_cell, weights=weight, minlength=side * side)
    history, paths, expected = [], [], []
    for channel, kind in enumerate(KINDS):
        daily = ds.weather[:, yi, channel, week_of_day]
        if kind == "flux":
            daily = daily / days_in_week[week_of_day]
        history.append(daily)
        paths.append([])
        expected.append(np.empty((side * side, len(UPDATE_DAYS))))
        for j, day in enumerate(UPDATE_DAYS):
            values = np.full(n * cols, NODATA)
            cell_values = np.round(daily[county_of_cell, day]
                                   + rng.normal(scale=0.05, size=county_of_cell.size), 2)
            values[cell_index] = cell_values
            expected[channel][:, j] = np.bincount(
                county_of_cell, weights=weight * cell_values, minlength=side * side) / den
            path = os.path.join(workdir, f"ch{channel}_day{day:03d}.asc")
            geo.write_ascii_grid(geo.RasterGrid(0.0, 0.0, 1.0, n, cols, values, nodata=NODATA),
                                 path)
            paths[channel].append(path)
    return IngestInputs(weights_path, paths, history, expected)


@dataclass
class IngestInputs:
    weights_path: str
    paths: list      # per weather channel, the raster path of each update day
    history: list    # per weather channel, counties x DAYS values ingested before
    expected: list   # per weather channel, counties x update days of exact aggregates


def _aggregate(rec, ds, inputs, lap):
    """The week's rasters -> daily county values -> weekly test-year weather."""
    weights = geo.build_weight_map(inputs.weights_path, None)
    weather = ds.weather.copy()
    yi = ds.year_index[ds.years[-1]]
    for channel, kind in enumerate(KINDS):
        daily = inputs.history[channel].copy()
        for day, path in zip(UPDATE_DAYS, inputs.paths[channel]):
            raster = geo.read_ascii_grid(path)
            for k, county in enumerate(ds.counties):
                value = geo.aggregate_to_county(raster, weights, county)
                daily[k, day] = np.nan if value is None else value
        rec.check("AggregateMismatch", np.allclose(daily[:, UPDATE_DAYS], inputs.expected[channel],
                                                   rtol=1e-9, atol=0))
        for k in range(len(ds.counties)):
            weather[k, yi, channel] = geo.daily_to_weekly(daily[k], kind)
        lap()
    return data.Dataset(ds.counties, ds.years, weather, ds.land, ds.soil, ds.extras,
                        ds.present, ds.yields, ds.graph)


def _season(ds, year):
    """The county-year records of one year, as a dataset of their own."""
    b = ds.year_index[year]
    arrays = (a[:, b : b + 1] for a in _dataset_arrays(ds))
    yields = data.YieldTable({k: v for k, v in ds.yields.entries.items() if k[1] == year})
    return data.Dataset(ds.counties, [year], *arrays, yields, ds.graph)


def _with_season(ds, season):
    """``ds`` with the records of ``season``'s one year replaced by it."""
    b = ds.year_index[season.years[0]]
    arrays = []
    for full, part in zip(_dataset_arrays(ds), _dataset_arrays(season)):
        full = full.copy()
        full[:, b] = part[:, 0]
        arrays.append(full)
    return data.Dataset(ds.counties, ds.years, *arrays, ds.yields, ds.graph)


def run_ingest(sizes, seed, seconds, tracer, rec, workdir):
    side = sizes.ingest_side
    outcome = Outcome()

    def set_up():
        t0 = time.perf_counter()
        ds = data.generate_synthetic(side * side, sizes.ingest_years, side, seed)
        inputs = _write_rasters(ds, sizes, seed, workdir)
        outcome.setups.append((t0, time.perf_counter() - t0))
        return ds, inputs

    ds, inputs = set_up()

    def set_up_again():
        ok, again = rec.op(set_up)
        if ok:
            rec.check("SeedNondeterminism",
                      _same_arrays(_dataset_arrays(ds) + tuple(inputs.expected),
                                   _dataset_arrays(again[0]) + tuple(again[1].expected)))

    split = data.YearSplit(test_year=ds.years[-1])
    round_dir = os.path.join(workdir, "dataset")

    def ingest_round(lap):
        season = _season(_aggregate(rec, ds, inputs, lap), split.test_year)
        loaded = data.load_dataset(*data.save_dataset(season, round_dir))
        rec.check("DatasetRoundTripMismatch", _datasets_equal(season, loaded))
        lap()
        loaded = _with_season(ds, loaded)
        nds, stats = data.normalize(loaded, split)
        samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), CROP, 0)
        X = models.flatten_blocks(*models.gather_year_blocks(nds, samples, CROP))
        y = _targets(nds, samples)
        rmses = []
        for kind in ("ridge-1y", "lasso-1y"):
            spec = models.default_spec(kind, crop=CROP, seed=seed)
            if kind == "ridge-1y":
                linear = models.fit_ridge(X, y, spec.ridge_lambda)
            else:
                linear = models.fit_lasso(X, y, spec.lasso_lambda, max_iter=sizes.lasso_sweeps)
            params = {"linear.coef": linear.coef, "linear.intercept": np.array([linear.intercept])}
            ckpt = models.ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=[],
                                          best_epoch=0, test_year=split.test_year,
                                          lasso_converged=linear.converged)
            rmses.append(_evaluate_pair(rec, outcome, ckpt, loaded, split))
            _check_reload(rec, ckpt, nds, nds.labeled_counties(split.test_year, CROP),
                          split.test_year, os.path.join(workdir, f"{kind}.ckpt"))
            lap()
        if outcome.test_rmse is None and None not in rmses:
            outcome.test_rmse = statistics.fmean(rmses)
        return len(rmses) * len(samples)

    timed_loop(lambda lap: rec.op(ingest_round, lap), seconds, sizes.ingest_rounds, tracer,
               outcome, set_up_again, sizes.setup_reps)
    return outcome


def run(workload, sizes, seed, seconds, tracer, rec, workdir):
    if workload == "graph-5y":
        return run_training("gnn-rnn-5y", 32, sizes.graph_steps, sizes, seed, seconds, tracer,
                            rec, workdir)
    if workload == "weekly-rnn-1y":
        return run_training("lstm-1y", 64, sizes.weekly_steps, sizes, seed, seconds, tracer,
                            rec, workdir)
    return run_ingest(sizes, seed, seconds, tracer, rec, workdir)


def host_scale(outcome):
    """``scale(start, seconds)``: the factor from a job's measured time to
    its time at the reference host speed. The host can change speed within
    a job, so its speed is taken at both ends: PROBE_REF_MS over the mean of
    the median of the PROBE_SIDE probes run just before the job and that of
    the PROBE_SIDE run just after it (one side alone at an end of the run).
    Probes run only between jobs, never during one."""
    probes = sorted(outcome.probes)
    starts = [t for t, _ in probes]

    def scale(start, seconds):
        i = bisect.bisect_left(starts, start)
        j = bisect.bisect_left(starts, start + seconds)
        sides = (probes[max(0, i - PROBE_SIDE):i], probes[j:j + PROBE_SIDE])
        ms = [1e3 * statistics.median(dt for _, dt in side) for side in sides if side]
        return PROBE_REF_MS / statistics.fmean(ms)

    return scale


def end_to_end(outcome, peak_rss_mb, scale=lambda start, seconds: 1.0):
    """The end-to-end metrics, from the untraced steps only; each job's time
    is multiplied by ``scale(start, seconds)``."""
    steps = [(sum(dt * scale(t, dt) for t, dt in segments), n)
             for segments, n, traced in outcome.steps if not traced]
    step_ms = sorted(1e3 * dt for dt, _ in steps)
    step_s = sum(dt for dt, _ in steps)
    eval_s = sum(dt * scale(t, dt) for t, dt, _ in outcome.evals)

    def pct(q):
        return float(np.percentile(step_ms, q)) if step_ms else None

    return {
        "setup_s": statistics.median(dt * scale(t, dt) for t, dt in outcome.setups),
        "train_samples_per_s": sum(n for _, n in steps) / step_s if step_s else None,
        "step_ms_p50": pct(50),
        "step_ms_p90": pct(90),
        "eval_counties_per_s": (sum(n for *_, n in outcome.evals) / eval_s
                                if eval_s else None),
        "test_rmse": outcome.test_rmse,
        "peak_rss_mb": peak_rss_mb,
    }
