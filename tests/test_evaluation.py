import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldgraph import models
from yieldgraph.data import (
    YearSplit,
    apply_norm_stats,
    compute_norm_stats,
    enumerate_windows,
    generate_synthetic,
    normalize,
)
from yieldgraph.evaluation import (
    CUTOFF_WEEK,
    EvalReport,
    MetricError,
    build_masking_plan,
    emit_report,
    evaluate,
    mask_dataset_year,
    parse_metrics,
    pearson_corr,
    r_squared,
    rmse,
)
from tests.helpers import (
    apply_early_mask,
    identity_stats,
    plan_row,
    record,
    reference_evaluate,
    reference_mask_dataset_year,
    reference_masking_plan,
)
from tests.test_data import make_dataset


class OraclePredictor:
    """Predicts the stored truth (optionally shifted / held constant); the
    spec's kind sets only the window length. Its identity norm stats keep
    the features evaluate sees bit for bit the stored ones."""

    def __init__(self, dataset, crop="corn", mode="truth", kind="cnn-1y"):
        self.dataset = dataset
        self.spec = models.ModelSpec(kind=kind, crop=crop)
        self.norm_stats = identity_stats(dataset, YearSplit(test_year=dataset.years[-1]))
        self.mode = mode

    def predict_year(self, ds, counties, year):
        truth = np.array([self.dataset.yields.get(c, year, self.spec.crop) for c in counties])
        if self.mode == "truth":
            return truth
        if self.mode == "constant":
            return np.full(len(counties), truth.mean() + 5.0)
        if self.mode == "noisy":
            return truth + np.sin(np.arange(len(counties)) + 1.0)
        raise ValueError(self.mode)


def _vectors():
    return (
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.floats(0.5, 3.0),
        st.floats(-20, 20),
    )


def test_rmse_hand_values():
    assert rmse([1.0, 2.0], [1.0, 2.0], 1.0) == 0.0
    assert abs(rmse([0.0, 0.0], [3.0, 4.0], 1.0) - np.sqrt(12.5)) < 1e-12
    assert rmse([0.0, 0.0], [3.0, 4.0], 2.0) == rmse([0.0, 0.0], [3.0, 4.0], 1.0) / 2.0


def test_rmse_scale_identity():
    rng = np.random.default_rng(0)
    t = rng.normal(size=20)
    p = rng.normal(size=20)
    s = 3.7
    assert abs(rmse(t, p, s) - rmse(t / s, p / s, 1.0)) <= 1e-12


def test_rmse_errors():
    with pytest.raises(MetricError):
        rmse([], [], 1.0)
    with pytest.raises(MetricError):
        rmse([1.0], [1.0], 0.0)


def test_r_squared_hand_values():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
    assert abs(r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.5) < 1e-12
    with pytest.raises(MetricError):
        r_squared([2.0, 2.0], [1.0, 2.0])


def test_r_squared_cross_metric_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.normal(size=15)
        p = rng.normal(size=15)
        n = t.size
        ss_tot = np.sum((t - t.mean()) ** 2)
        identity = 1.0 - n * rmse(t, p, 1.0) ** 2 / ss_tot
        assert abs(r_squared(t, p) - identity) <= 1e-12


def test_pearson_hand_values():
    t = np.array([1.0, 2.0, 3.0])
    assert abs(pearson_corr(t, 2 * t + 3) - 1.0) < 1e-12
    assert abs(pearson_corr(t, -(t - 2.0) + 2.0) + 1.0) < 1e-12
    assert abs(pearson_corr(t, [1.0, 3.0, 2.0]) - 0.5) < 1e-12
    with pytest.raises(MetricError):
        pearson_corr(t, [1.0, 1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(*_vectors())
def test_pearson_affine_invariance(values, scale, shift):
    t = np.array(values)
    p = np.sin(t) + 0.1 * t  # deterministic partner with spread
    if np.std(t) < 1e-6 or np.std(p) < 1e-6:
        return
    base = pearson_corr(t, p)
    assert abs(pearson_corr(t * scale + shift, p) - base) <= 1e-9
    assert abs(pearson_corr(t, p * scale + shift) - base) <= 1e-9


def _labeled_dataset(seed=0):
    counties = ("00000", "00001", "00002", "00003")
    years = tuple(range(2000, 2008))
    yields = {}
    rng = np.random.default_rng(seed)
    for i, c in enumerate(counties):
        for y in years:
            yields[(c, y, "corn")] = 80.0 + 5 * i + 0.5 * (y - 2000) + rng.uniform(0, 3)
    return make_dataset(
        counties=counties, years=years, seed=seed,
        edges=[("00000", "00001"), ("00001", "00002"), ("00002", "00003")],
        yields=yields,
    )


def test_evaluate_oracle_checkpoint_perfect_metrics():
    ds = _labeled_dataset()
    report = evaluate(OraclePredictor(ds), ds, YearSplit(test_year=2007))
    assert report.rmse_normalized == 0.0
    assert report.r2 == 1.0
    assert abs(report.corr - 1.0) < 1e-12
    assert report.n_counties == 4


def test_evaluate_skips_county_with_a_blank_cell():
    ds = _labeled_dataset()
    ds.soil[ds.county_index["00001"], ds.year_index[2007], 0, 0] = np.nan
    report = evaluate(OraclePredictor(ds), ds, YearSplit(test_year=2007))
    assert (report.n_counties, report.skipped) == (3, 1)
    assert [r[0] for r in report.records] == ["00000", "00002", "00003"]


def _gappy_dataset():
    """16 counties x 2000-2009 with one gap per kind: a NaN cell in each
    block, a +inf cell and an absent record, over train (2000-2007),
    validation (2008) and test (2009) years."""
    ds = generate_synthetic(16, 10, 4, seed=5)
    t = ds.year_index
    ds.weather[1, t[2003], 2, 30] = np.nan
    ds.land[5, t[2008], 0, 0] = np.nan
    ds.soil[9, t[2009], 19, 5] = np.nan
    ds.extras[12, t[2006], 3] = np.nan
    ds.weather[3, t[2009], 6, 51] = np.inf
    ds.present[7, t[2005]] = False
    return ds


def _complete_by_brute_force(ds, year, dt):
    def usable(ci, y):
        yi = ds.year_index.get(y)
        return yi is not None and ds.present[ci, yi] and all(
            np.isfinite(block[ci, yi]).all()
            for block in (ds.weather, ds.land, ds.soil, ds.extras)
        )
    return [c for ci, c in enumerate(ds.counties)
            if all(usable(ci, y) for y in range(year - dt, year + 1))]


@pytest.mark.parametrize("dt,kind", [(0, "gnn-1y"), (4, "gnn-rnn-5y")])
def test_window_rule_parity_across_training_evaluation_and_graph(monkeypatch, dt, kind):
    """enumerate_windows, evaluate and the graph block select the same
    counties: those whose every window year has a present, all-finite record."""
    ds = _gappy_dataset()
    allowed = []
    real_full_block = models.full_block

    def spy(*args, **kwargs):
        allowed.append(set(kwargs["allowed_nodes"]))
        return real_full_block(*args, **kwargs)

    monkeypatch.setattr(models, "full_block", spy)
    spec = models.default_spec(kind, widths=models.ArchWidths.toy(), batch_size=64)
    model = models.build_model(spec, np.random.default_rng(0))
    predictor = OraclePredictor(ds, kind=kind)
    nds, _ = normalize(ds, YearSplit(test_year=ds.years[-1]))  # models read normalized features
    for year in ds.years[dt:]:
        expected = _complete_by_brute_force(ds, year, dt)
        samples, skipped = enumerate_windows(ds, [year], "corn", dt)
        assert samples == [(c, year) for c in expected]
        assert skipped == len(ds.counties) - len(expected)
        report = evaluate(predictor, ds, YearSplit(test_year=year))
        assert [r[0] for r in report.records] == expected
        assert report.skipped == skipped
        model.forward_samples(nds, samples)
        assert allowed.pop() == set(expected)
    gaps = set(ds.counties) - set(_complete_by_brute_force(ds, 2009, 4))
    assert gaps == {"00003", "00005", "00007", "00009", "00012"}


def test_evaluate_without_labeled_counties_raises_metric_error():
    ds = _labeled_dataset()
    with pytest.raises(MetricError):
        evaluate(OraclePredictor(ds, crop="soybean"), ds, YearSplit(test_year=2007))


def test_evaluate_constant_predictor_nonpositive_r2():
    ds = _labeled_dataset()
    report = evaluate(OraclePredictor(ds, mode="constant"), ds, YearSplit(test_year=2007))
    assert report.r2 <= 0.0


def test_evaluate_metrics_recomputable_from_records():
    ds = _labeled_dataset()
    report = evaluate(OraclePredictor(ds, mode="noisy"), ds, YearSplit(test_year=2007))
    true = np.array([r[1] for r in report.records])
    pred = np.array([r[2] for r in report.records])
    assert abs(report.rmse_normalized - rmse(true, pred, report.yield_std)) <= 1e-12
    assert abs(report.r2 - r_squared(true, pred)) <= 1e-12
    assert abs(report.corr - pearson_corr(true, pred)) <= 1e-12


def test_masking_plan_cutoff_52_is_identity():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split), cutoff_week=52)
    feats = record(ds, "00000", 2007)
    masked = apply_early_mask(feats, plan, ds)
    assert np.array_equal(masked.weather, feats.weather)
    assert np.array_equal(masked.land_surface, feats.land_surface)


def test_masking_boundary_week():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split))
    feats = record(ds, "00000", 2007)
    masked = apply_early_mask(feats, plan, ds)
    assert np.array_equal(masked.weather[:, :22], feats.weather[:, :22])
    assert np.array_equal(masked.weather[:, 22], plan.weather[plan_row(plan, ds, "00000")][:, 0])
    assert np.array_equal(masked.soil, feats.soil)
    assert np.array_equal(masked.extras, feats.extras, equal_nan=True)


def test_masking_idempotent():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split))
    feats = record(ds, "00001", 2007)
    once = apply_early_mask(feats, plan, ds)
    twice = apply_early_mask(once, plan, ds)
    assert np.array_equal(once.weather, twice.weather)
    assert np.array_equal(once.land_surface, twice.land_surface)


def test_masking_unknown_county_errors():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split))
    feats = record(ds, "00000", 2007)._replace(county="99999")
    with pytest.raises(KeyError):
        apply_early_mask(feats, plan, ds)


def test_early_mask_oracle_matches_mask_dataset_year():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split))
    masked = mask_dataset_year(ds, plan, 2007)
    yi = ds.year_index[2007]
    for ci, county in enumerate(ds.counties):
        one = apply_early_mask(record(ds, county, 2007), plan, ds)
        assert np.array_equal(one.weather, masked.weather[ci, yi])
        assert np.array_equal(one.land_surface, masked.land[ci, yi])
        assert np.array_equal(one.soil, masked.soil[ci, yi])


def test_mask_dataset_year_touches_only_target_year():
    ds = _labeled_dataset()
    split = YearSplit(test_year=2007)
    plan = build_masking_plan(ds, split, identity_stats(ds, split))
    masked = mask_dataset_year(ds, plan, 2007)
    yi = ds.year_index[2007]
    assert not np.array_equal(masked.weather[:, yi], ds.weather[:, yi])
    assert np.array_equal(masked.weather[:, : yi], ds.weather[:, : yi])
    assert np.array_equal(masked.soil, ds.soil)


# -- window-only evaluate against the whole-dataset flow --------------------------

_PARITY_TEST_YEAR = 2011  # train 2000..2009: more than 8 summed years per cell


def _parity_dataset():
    """16 counties x 2000..2011 with the cases the masking plan must carry:
    NaN training cells (one cell NaN in every training year of a county),
    absent records, a county with no present training record, and a county
    absent in the test year."""
    ds = generate_synthetic(16, 12, 4, seed=5)
    train = slice(0, 10)
    ds.weather[1, 2, 3, 30] = np.nan
    ds.weather[1, 7, 3, 30:34] = np.nan
    ds.land[2, 4, 5, 10:45] = np.nan
    ds.weather[3, train, 0, 40] = np.nan
    for ci, years in ((4, [1, 5]), (5, list(range(10))), (6, [11])):
        ds.present[ci, years] = False
        for block in (ds.weather, ds.land, ds.soil, ds.extras):
            block[ci, years] = np.nan
    return ds


def _random_checkpoint(kind, stats, test_year):
    """A checkpoint of freshly initialized parameters: the parity below
    is about the inputs predict_year sees, not about training."""
    spec = models.default_spec(kind, crop="corn", widths=models.ArchWidths.toy(), seed=0)
    if kind not in ("ridge-1y", "lasso-1y"):
        live = models.build_model(spec, np.random.default_rng(1)).parameters()
        params = {name: t.data.copy() for name, t in live.items()}
    else:
        rng = np.random.default_rng(2)
        params = {"linear.coef": rng.normal(scale=0.01, size=models.FLAT_WIDTH),
                  "linear.intercept": np.array([0.3])}
    return models.ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=[],
                                  best_epoch=0, test_year=test_year)


def _scored(run, early):
    """run(early): (prediction bytes, rmse, n, skipped), or the MetricError's text."""
    try:
        return run(early)
    except MetricError as e:
        return f"MetricError: {e}"


@pytest.mark.parametrize("test_year", [_PARITY_TEST_YEAR, 2003])  # 2003: 5y windows start in 1999
@pytest.mark.parametrize("kind", models.ALL_KINDS)
def test_evaluate_matches_the_whole_dataset_flow_bit_for_bit(kind, test_year):
    ds = _parity_dataset()
    split = YearSplit(test_year=test_year)
    stats = compute_norm_stats(ds, split)

    def window_only(early):
        report = evaluate(_random_checkpoint(kind, stats, test_year), ds, split, early=early)
        preds = np.array([p for _, _, p, _ in report.records])
        return preds.tobytes(), report.rmse_normalized, report.n_counties, report.skipped

    def whole_dataset(early):
        preds, value, n, skipped = reference_evaluate(
            _random_checkpoint(kind, stats, test_year), ds, split, early=early)
        return preds.tobytes(), value, n, skipped

    outcomes = []
    for early in (False, True):
        got = _scored(window_only, early)
        assert got == _scored(whole_dataset, early)
        outcomes.append(got)
    five = models.ModelSpec(kind=kind).history_years == 4
    if five and test_year == 2003:
        assert outcomes == ["MetricError: no evaluable counties for corn in 2003"] * 2
        return
    # Skipped: 00006 is absent in 2011 and 00005 before 2010; 00001 has NaN
    # cells in 2007 and 00003 in 2000..2009. Early masks 00003's 2011 record
    # with the NaN mean of that cell.
    skipped = {(2011, False): (1, 2), (2011, True): (4, 4), (2003, False): (2, 2)}[
        test_year, five]
    assert tuple(o[3] for o in outcomes) == skipped
    assert tuple(o[2] for o in outcomes) == (16 - skipped[0], 16 - skipped[1])


@pytest.mark.parametrize("cutoff", [CUTOFF_WEEK, 52])
def test_masking_plan_and_window_mask_match_the_loop_oracle(cutoff):
    ds = _parity_dataset()
    split = YearSplit(test_year=_PARITY_TEST_YEAR)
    stats = compute_norm_stats(ds, split)
    full = apply_norm_stats(ds, stats)
    ref = reference_masking_plan(full, split, cutoff_week=cutoff)
    plan = build_masking_plan(ds, split, stats, cutoff_week=cutoff)

    assert [ds.counties[r] for r in plan.rows] == sorted(ref[1])
    assert "00005" not in ref[1]
    if cutoff <= 40:
        assert np.isnan(plan.weather[plan_row(plan, ds, "00003"), 0, 40 - cutoff])
    for k, ci in enumerate(plan.rows):
        county = ds.counties[ci]
        assert plan.weather[k].tobytes() == ref[1][county][:, cutoff:].tobytes()
        assert plan.land[k].tobytes() == ref[2][county][:, cutoff:].tobytes()

    window = full.year_range(_PARITY_TEST_YEAR - 4, _PARITY_TEST_YEAR)
    before = window.weather.tobytes(), window.land.tobytes()
    masked = mask_dataset_year(window, plan, _PARITY_TEST_YEAR)
    assert (window.weather.tobytes(), window.land.tobytes()) == before
    expected = reference_mask_dataset_year(full, ref, _PARITY_TEST_YEAR)
    assert masked.weather.tobytes() == expected.weather[:, -5:].tobytes()
    assert masked.land.tobytes() == expected.land[:, -5:].tobytes()
    if cutoff == 52:
        assert masked.weather.tobytes() == before[0]


def test_emit_report_files_and_roundtrip(tmp_path):
    ds = _labeled_dataset()
    report = evaluate(OraclePredictor(ds, mode="noisy"), ds, YearSplit(test_year=2007))
    metrics_path, csv_path, svg_path = emit_report(report, tmp_path / "out")

    lines = open(csv_path, encoding="utf-8").read().splitlines()
    assert lines[0] == "county,year,true,predicted"
    assert len(lines) == 1 + report.n_counties

    parsed = parse_metrics(metrics_path)
    assert parsed["rmse"] == report.rmse_normalized
    assert parsed["r2"] == report.r2
    assert parsed["corr"] == report.corr
    assert parsed["n"] == report.n_counties

    true, pred = [], []
    for line in lines[1:]:
        _, _, t, p = line.split(",")
        true.append(float(t))
        pred.append(float(p))
    assert abs(rmse(true, pred, report.yield_std) - parsed["rmse"]) <= 1e-12
    assert abs(r_squared(true, pred) - parsed["r2"]) <= 1e-12

    tree = ET.parse(svg_path)
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == report.n_counties


def test_emit_report_empty_scatter_guard(tmp_path):
    report = EvalReport(
        crop="corn", test_year=2007, method="m", seed=0,
        rmse_normalized=0.0, r2=1.0, corr=1.0, n_counties=1, yield_std=1.0,
        records=[("c", 5.0, 5.0, 0.0)],
    )
    _, _, svg_path = emit_report(report, tmp_path / "one")
    ET.parse(svg_path)  # well-formed even with a degenerate range
