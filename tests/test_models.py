import hashlib
import pathlib

import numpy as np
import pytest

from yieldgraph import models
from yieldgraph.data import (
    BLOCK_SHAPES,
    BLOCKS,
    CROPS,
    N_WEATHER,
    NormStats,
    YearSplit,
    apply_norm_stats,
    enumerate_windows,
    generate_synthetic,
    normalize,
)
from yieldgraph.evaluation import evaluate
from yieldgraph.graph import CountyGraph
from yieldgraph.models import (
    ArchWidths,
    ALL_KINDS,
    ConfigurationError,
    GRAPH_KINDS,
    KIND_TABLE,
    LrSchedule,
    ModelCheckpoint,
    ModelSpec,
    build_model,
    default_spec,
    fit_lasso,
    fit_ridge,
    lasso_objective,
    train,
)
from tests.helpers import (
    batched_predict_std,
    identity_stats,
    normalized,
    reference_fit_lasso,
    reference_fit_ridge,
)
from tests.test_data import make_dataset

DEEP_KINDS = tuple(k for k in ALL_KINDS if k not in ("ridge-1y", "lasso-1y"))


def tiny_dataset(side=4, years=10, seed=0, start_year=2000):
    return generate_synthetic(side * side, years, side, seed=seed, start_year=start_year)


def tiny_spec(kind, **kw):
    base = dict(
        widths=ArchWidths.toy(), epochs=2, batch_size=8, lr=1e-3,
        fanout=4, edge_dropout=0.1, aggregator="mean", seed=0,
    )
    base.update(kw)
    return default_spec(kind, **base)


# -- linear solvers ------------------------------------------------------------


def test_ridge_exact_interpolation_at_zero_lambda():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 3)) + np.eye(3)
    y = rng.normal(size=3)
    model = fit_ridge(X, y, 0.0)
    assert np.max(np.abs(X @ model.coef + model.intercept - y)) < 1e-9


def test_ridge_large_lambda_shrinks_to_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    y = rng.normal(size=20) + 3.0
    model = fit_ridge(X, y, 1e12)
    assert np.max(np.abs(model.coef)) < 1e-6
    assert np.allclose(X @ model.coef + model.intercept, y.mean(), atol=1e-4)


def test_ridge_hand_solved_normal_equations():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 2.0, 4.0])
    model = fit_ridge(X, y, 0.5)
    assert abs(model.intercept - 7.0 / 3.0) < 1e-12
    assert np.max(np.abs(model.coef - np.array([-2.0 / 21.0, 4.0 / 7.0]))) < 1e-10


def test_ridge_singular_suggests_regularization():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="lam > 0"):
        fit_ridge(X, np.array([1.0, 2.0, 3.0]), 0.0)


def test_lasso_threshold_kills_all_coefficients():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    yc = y - y.mean()
    lam_max = np.max(np.abs(X.T @ yc)) / 30
    model = fit_lasso(X, y, lam_max * 1.0001)
    assert np.all(model.coef == 0.0)


def test_lasso_matches_ridge_at_zero_lambda():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.normal(size=40)
    lasso = fit_lasso(X, y, 0.0, max_iter=50_000, tol=1e-12)
    ridge = fit_ridge(X, y, 0.0)
    assert np.max(np.abs(lasso.coef - ridge.coef)) < 1e-6


def test_lasso_objective_non_increasing_across_sweeps():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(25, 6))
    y = rng.normal(size=25)
    objectives = [
        lasso_objective(X, y, fit_lasso(X, y, 0.05, max_iter=iters), 0.05)
        for iters in (1, 2, 5, 20, 200)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_lasso_sparsity_non_increasing_in_lambda():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 8))
    y = X @ rng.normal(size=8) + 0.1 * rng.normal(size=40)
    nnz = [
        int(np.sum(fit_lasso(X, y, lam).coef != 0.0))
        for lam in (0.001, 0.01, 0.05, 0.2, 1.0)
    ]
    assert all(a >= b for a, b in zip(nnz, nnz[1:]))


def test_lasso_non_convergence_flags_model():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 10))
    y = rng.normal(size=30)
    model = fit_lasso(X, y, 1e-6, max_iter=1, tol=1e-15)
    assert not model.converged


@pytest.mark.parametrize("fit", (fit_ridge, fit_lasso))
@pytest.mark.parametrize("lam", (-0.5, float("nan"), float("inf")))
def test_linear_fits_reject_bad_lambda(fit, lam):
    X = np.eye(3)
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        fit(X, np.ones(3), lam)


@pytest.mark.parametrize("X, y", [(np.zeros((3, 2)), np.zeros(4)), (np.zeros(3), np.zeros(3)),
                                  (np.zeros((0, 2)), np.zeros(0))])
def test_lasso_rejects_bad_shapes(X, y):
    with pytest.raises(ValueError, match=r"need X \[n,p\] and y \[n\]"):
        fit_lasso(X, y, 0.1)


@pytest.fixture(scope="module")
def ingest_xy():
    """The in-season refit's problem: 100 counties x 6 training years of
    flattened features (600 x 1323) and their standardized targets."""
    ds = tiny_dataset(side=10, years=8, seed=21)
    split = YearSplit(test_year=ds.years[-1])
    nds, _ = normalize(ds, split)
    samples, _ = enumerate_windows(nds, split.train_years(nds.years), "corn", 0)
    X = models.flatten_blocks(*models.gather_year_blocks(nds, samples, "corn"))
    return X, models._standardized_targets(nds, samples, "corn")


@pytest.mark.parametrize("rows", (None, 32))
def test_ridge_bit_identical_to_explicit_identity_formula(ingest_xy, rows):
    X, y = ingest_xy[0][:rows], ingest_xy[1][:rows]
    got, want = fit_ridge(X, y, 1.0), reference_fit_ridge(X, y, 1.0)
    assert np.array_equal(got.coef, want.coef)
    assert got.intercept == want.intercept


# The covariance-update lasso keeps the gradient where the oracle keeps
# the residual, so the two round differently: each coefficient may differ
# by LASSO_PARITY_TOL * (1 + max |oracle coefficient|). Measured: at most
# 2.3e-15 on the seeded problems, 1.9e-14 on the ingest-size one.
LASSO_PARITY_TOL = 1e-12


# (n, p) of each seeded lasso problem; its seed is its position here.
_LASSO_CASES = {"n<p": (24, 60), "n>p": (80, 12), "zero-column": (40, 10), "lam-zero": (60, 8),
                "above-lam-max": (30, 15)}


def _lasso_problem(case):
    n, p = _LASSO_CASES[case]
    rng = np.random.default_rng(list(_LASSO_CASES).index(case))
    X = rng.normal(size=(n, p))
    if case == "zero-column":
        X[:, 3] = 0.0
    y = X[:, :5] @ rng.normal(size=5) + 0.3 * rng.normal(size=n)
    if case == "lam-zero":
        return X, y, 0.0
    if case == "above-lam-max":
        return X, y, np.max(np.abs(X.T @ (y - y.mean()))) / n * (1 + 1e-9)
    return X, y, 0.05


def _assert_lasso_parity(got, want):
    assert got.converged == want.converged
    assert np.array_equal(got.coef != 0.0, want.coef != 0.0)
    bound = LASSO_PARITY_TOL * (1.0 + np.max(np.abs(want.coef)))
    assert np.max(np.abs(got.coef - want.coef)) <= bound
    assert got.intercept == want.intercept


@pytest.mark.parametrize("max_iter", (1, 2, 5, 25, 10_000))
@pytest.mark.parametrize("case", _LASSO_CASES)
def test_lasso_matches_residual_update_oracle(case, max_iter):
    X, y, lam = _lasso_problem(case)
    got = fit_lasso(X, y, lam, max_iter=max_iter)
    _assert_lasso_parity(got, reference_fit_lasso(X, y, lam, max_iter=max_iter))
    if max_iter == 10_000:
        assert got.converged
    if case == "above-lam-max":
        assert not got.coef.any()
    if case == "zero-column":
        assert got.coef[3] == 0.0


def test_lasso_matches_residual_update_oracle_at_ingest_size(ingest_xy):
    X, y = ingest_xy
    got = fit_lasso(X, y, ModelSpec.lasso_lambda, max_iter=25)
    _assert_lasso_parity(got, reference_fit_lasso(X, y, ModelSpec.lasso_lambda, max_iter=25))


# -- spec and defaults -----------------------------------------------------------


def test_spec_history_years_invariant():
    assert ModelSpec(kind="cnn-1y").history_years == 0
    assert ModelSpec(kind="gnn-rnn-5y").history_years == 4
    with pytest.raises(ConfigurationError):
        ModelSpec(kind="transformer-1y")
    with pytest.raises(ConfigurationError):
        ModelSpec(kind="cnn-1y", crop="wheat")
    with pytest.raises(ConfigurationError):
        ModelSpec(kind="cnn-1y", aggregator="bogus")


_GATES = {"gru": 3, "lstm": 4}  # gate blocks stacked in a cell's w_x rows


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kind_table_fixes_model_class_window_and_cell(kind):
    entry = KIND_TABLE[kind]
    spec = ModelSpec(kind=kind, widths=ArchWidths.toy())
    model = build_model(spec, np.random.default_rng(0))
    assert type(model) is entry.model
    assert spec.history_years == entry.history_years
    # a window of several years needs a cell to run over them
    assert entry.history_years == 0 or entry.cell is not None
    rows = [p.data.shape[0] for name, p in model.parameters().items() if name.endswith(".w_x")]
    hidden = spec.widths.rnn_hidden
    assert rows == ([] if entry.cell is None else [_GATES[entry.cell] * hidden])


def test_default_spec_matches_tuned_tables():
    spec = default_spec("gnn-rnn-5y", "corn", 2019)
    assert spec.batch_size == 32
    assert spec.lr == 5e-5
    assert spec.schedule.kind == "cosine"
    assert spec.schedule.t0 == 200
    assert spec.schedule.eta_min == 1e-6
    assert spec.weight_decay == 1e-5
    assert spec.edge_dropout == 0.1
    assert spec.aggregator == "pool"
    cnn = default_spec("cnn-rnn-5y", "corn")
    assert cnn.batch_size == 128 and cnn.schedule.kind == "step"
    assert cnn.schedule.period == 25 and cnn.schedule.gamma == 0.5


def test_bare_lr_override_resets_schedule():
    spec = default_spec("gnn-rnn-5y", "corn", 2019, lr=1e-3)
    assert spec.schedule == LrSchedule()
    assert spec.lr == 1e-3


@pytest.mark.parametrize("bad", [
    dict(lr=0.0, schedule=LrSchedule("step")), dict(lr=-1e-4), dict(lr=float("nan")),
    dict(batch_size=0), dict(batch_size=-3), dict(epochs=0), dict(seed=-1),
], ids=["zero-lr-step", "negative-lr", "nan-lr", "zero-batch", "negative-batch", "zero-epochs",
        "negative-seed"])
def test_spec_rejects_bad_lr_batch_size_and_epochs(bad):
    with pytest.raises(ConfigurationError):
        ModelSpec(kind="cnn-rnn-5y", **bad)


# -- models ----------------------------------------------------------------------


def test_gather_year_blocks_reads_each_window_year():
    yields = {("00000", 2016, "corn"): 100.0, ("00001", 2016, "corn"): 120.0,
              ("00000", 2017, "corn"): 130.0, ("00000", 2018, "corn"): 90.0}
    raw = make_dataset(years=(2015, 2016, 2017, 2018), yields=yields)
    stats = identity_stats(raw, YearSplit(test_year=2018))  # features keep their bits
    stats.target_mean["corn"], stats.target_std["corn"] = 100.0, 5.0
    ds = apply_norm_stats(raw, stats)
    samples = [("00001", 2018), ("00000", 2018)]
    rows = [1, 0]
    for offset in range(-3, 1):
        weekly, s, e = models.gather_year_blocks(ds, samples, "corn", offset)
        yi = ds.year_index[2018 + offset]
        assert np.array_equal(weekly[:, :N_WEATHER], ds.weather[rows, yi])
        assert np.array_equal(weekly[:, N_WEATHER:], ds.land[rows, yi])
        assert np.array_equal(s, ds.soil[rows, yi])
        assert np.array_equal(e[:, :6], ds.extras[rows, yi])
        prev = ds.prev_year_national_mean("corn", 2018 + offset)
        assert e[:, 6].tolist() == [stats.standardize_target("corn", prev)] * 2
    _, _, e = models.gather_year_blocks(ds, samples, "corn", -1)
    assert e[:, 6].tolist() == [2.0, 2.0]  # the 2016 yields' mean, 110, standardized
    with pytest.raises(ConfigurationError, match="normalized"):
        models.gather_year_blocks(raw, samples, "corn")


@pytest.mark.parametrize("kind", DEEP_KINDS)
def test_forward_shapes_and_determinism(kind):
    ds_raw = tiny_dataset()
    split = YearSplit(test_year=2009)
    ds, _ = normalize(ds_raw, split)
    model = build_model(tiny_spec(kind), np.random.default_rng(0))
    counties = ds.counties[:5]
    year = 2009
    samples = [(c, year) for c in counties]
    a = model.forward_samples(ds, samples).data
    b = model.forward_samples(ds, samples).data
    assert a.shape == (5,)
    assert np.array_equal(a, b)
    with pytest.raises(ConfigurationError, match="normalized"):
        model.forward_samples(ds_raw, samples)


def test_gnn_full_fanout_equals_dense_inference():
    ds_raw = tiny_dataset()
    ds, _ = normalize(ds_raw, YearSplit(test_year=2009))
    spec = tiny_spec("gnn-rnn-5y", fanout=99, edge_dropout=0.0)
    model = build_model(spec, np.random.default_rng(1))
    samples = [(c, 2009) for c in ds.counties[:6]]
    sampled = model.forward_samples(ds, samples, training=True,
                                    rng=np.random.default_rng(5)).data
    dense = model.forward_samples(ds, samples, training=False).data
    assert np.array_equal(sampled, dense)


def test_gnn_reorders_seed_outputs_to_caller_order():
    ds_raw = tiny_dataset()
    ds, _ = normalize(ds_raw, YearSplit(test_year=2009))
    model = build_model(tiny_spec("gnn-1y"), np.random.default_rng(2))
    counties = ds.counties[:4]
    fwd = model.forward_samples(ds, [(c, 2009) for c in counties]).data
    rev = model.forward_samples(ds, [(c, 2009) for c in reversed(counties)]).data
    assert np.array_equal(fwd[::-1], rev)


def test_cnn_history_sensitive_to_oldest_year():
    ds_raw = tiny_dataset()
    ds, _ = normalize(ds_raw, YearSplit(test_year=2009))
    model = build_model(tiny_spec("cnn-rnn-5y"), np.random.default_rng(3))
    sample = [(ds.counties[0], 2009)]
    base = model.forward_samples(ds, sample).data.copy()
    ci = ds.county_index[ds.counties[0]]
    yi = ds.year_index[2005]  # oldest year of the window
    ds.weather[ci, yi] += 0.5
    moved = model.forward_samples(ds, sample).data
    assert not np.array_equal(base, moved)


def test_gnn_edgeless_graph_ignores_other_counties():
    ds_raw = tiny_dataset()
    ds, _ = normalize(ds_raw, YearSplit(test_year=2009))
    ds.graph = CountyGraph(ds.counties, [])  # no edges anywhere
    model = build_model(tiny_spec("gnn-1y"), np.random.default_rng(4))
    sample = [(ds.counties[0], 2009)]
    base = model.forward_samples(ds, sample).data.copy()
    for c in ds.counties[1:]:
        ds.weather[ds.county_index[c]] += 1.23
    after = model.forward_samples(ds, sample).data
    assert np.array_equal(base, after)


@pytest.mark.parametrize("aggregator", ["mean", "pool"])
@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_graph_inference_embeds_each_county_year_once(monkeypatch, kind, aggregator):
    """One forward per year, embedding every (input county, window year) once
    in chunks, matches per-batch blocks up to BLAS row-blocking rounding."""
    ds, _ = normalize(tiny_dataset(side=5), YearSplit(test_year=2009))
    model = build_model(tiny_spec(kind, aggregator=aggregator), np.random.default_rng(6))
    samples = [(c, 2009) for c in ds.counties]
    monkeypatch.setattr(models, "EMBED_CHUNK_ROWS", 7)
    rows = []
    embed = model.embedder.embed
    monkeypatch.setattr(model.embedder, "embed",
                        lambda *blocks: rows.append(len(blocks[0].data)) or embed(*blocks))
    once = models._predict_std(model, ds, samples, batch_size=4)
    assert max(rows) == 7 and sum(rows) == len(ds.counties) * (1 + model.spec.history_years)
    batched = batched_predict_std(model, ds, samples, batch_size=4)
    assert np.max(np.abs(once - batched)) <= 1e-12


@pytest.mark.parametrize("kind", [k for k in DEEP_KINDS if k not in GRAPH_KINDS])
def test_non_graph_inference_bit_identical_to_taped_batches(kind):
    ds, _ = normalize(tiny_dataset(), YearSplit(test_year=2009))
    model = build_model(tiny_spec(kind), np.random.default_rng(7))
    samples = [(c, 2009) for c in ds.counties]
    assert np.array_equal(models._predict_std(model, ds, samples, 5),
                          batched_predict_std(model, ds, samples, 5))


def test_predict_year_builds_one_block_and_rejects_mixed_years(monkeypatch):
    ds, stats = normalize(tiny_dataset(), YearSplit(test_year=2009))
    spec = tiny_spec("gnn-rnn-5y", batch_size=3)
    model = build_model(spec, np.random.default_rng(8))
    ckpt = ModelCheckpoint(spec, {k: v.data.copy() for k, v in model.parameters().items()},
                           stats, history=[], best_epoch=0, test_year=2009)
    calls = []
    real_full_block = models.full_block
    monkeypatch.setattr(models, "full_block",
                        lambda *a, **kw: calls.append(a[1]) or real_full_block(*a, **kw))
    preds = ckpt.predict_year(ds, ds.counties, 2009)
    assert preds.shape == (len(ds.counties),) and calls == [ds.counties]
    with pytest.raises(ConfigurationError):
        models._predict_std(model, ds, [(ds.counties[0], 2008), (ds.counties[1], 2009)], 3)


# -- training -------------------------------------------------------------------


def test_train_split_resolution_and_history():
    ds = tiny_dataset(side=2, years=8)
    split = YearSplit(test_year=2007)
    ckpt = train(tiny_spec("cnn-1y", epochs=3), normalized(ds, split), split)
    assert ckpt.norm_stats.train_years == tuple(range(2000, 2006))
    assert len(ckpt.history) == 3
    val = [h["val_rmse"] for h in ckpt.history]
    assert ckpt.history[ckpt.best_epoch]["val_rmse"] == min(val)


def test_train_deterministic_checkpoint_bytes(tmp_path):
    ds = tiny_dataset(side=2, years=8)
    split = YearSplit(test_year=2007)
    paths = []
    for run in range(2):
        ckpt = train(tiny_spec("gnn-1y", epochs=2), normalized(ds, split), split)
        p = tmp_path / f"run{run}.ckpt"
        ckpt.save(p)
        paths.append(p)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checkpoint_roundtrip_bit_identical_predictions(tmp_path, kind):
    ds = tiny_dataset(side=2, years=10)
    split = YearSplit(test_year=2009)
    ckpt = train(tiny_spec(kind, epochs=2), normalized(ds, split), split)
    ds_norm = apply_norm_stats(ds, ckpt.norm_stats)
    counties = [c for c, ok in zip(ds_norm.counties, ds_norm.window_mask(2009, 0)) if ok][:3]
    before = ckpt.predict_year(ds_norm, counties, 2009)
    path = tmp_path / "model.ckpt"
    ckpt.save(path)
    loaded = ModelCheckpoint.load(path)
    after = loaded.predict_year(ds_norm, counties, 2009)
    assert np.array_equal(before, after)
    resaved = tmp_path / "model2.ckpt"
    loaded.save(resaved)
    assert open(path, "rb").read() == open(resaved, "rb").read()


def test_train_records_skipped_windows():
    ds = tiny_dataset(side=2, years=8)
    ds.weather[0, 0, 0, 0] = np.nan  # breaks the earliest window for county 0
    split = YearSplit(test_year=2007)
    ckpt = train(tiny_spec("gru-5y", epochs=1), normalized(ds, split), split)
    assert ckpt.skipped_windows >= 1


def test_train_empty_training_set_errors():
    ds = make_dataset(years=(2000, 2001, 2002))  # no yields at all
    split = YearSplit(test_year=2002)
    prepared = normalized(ds, split)
    with pytest.raises(ConfigurationError):
        train(tiny_spec("cnn-1y"), prepared, split)


@pytest.mark.parametrize("kind", ["cnn-1y", "ridge-1y"])
def test_train_rejects_a_raw_dataset_and_one_normalized_for_another_split(monkeypatch, kind):
    ds = tiny_dataset(side=2, years=8)
    split = YearSplit(test_year=2007)
    built = []
    real_build = models.build_model
    monkeypatch.setattr(models, "build_model", lambda *a: built.append(a) or real_build(*a))
    for wrong in (ds, normalized(ds, YearSplit(test_year=2006))):
        with pytest.raises(ConfigurationError, match="normalized for years"):
            train(tiny_spec(kind), wrong, split)
    assert built == []
    train(tiny_spec(kind, epochs=1), normalized(ds, split), split)
    assert len(built) == 1


# The oracle's widths and rates were calibrated on this fixed task at
# spec seeds 0-9: every kind ends below the gate at every seed. Seed 0 is
# the one the suite runs. ArchWidths.toy() (4-channel convs, 8 hidden
# units) is too narrow for this oracle: a unit or channel that is dead
# from init can cut a whole path (the last weekly conv block at seed 4,
# 3 of 8 head units of lstm-5y at seed 0), and with it 11 of 40 toy-width
# cells over seeds 0-4 plateau above the gate.
_MEMORIZE_WIDTHS = ArchWidths(
    weekly_channels=(8, 8, 8, 8), weekly_out=16,
    soil_channels=(8, 8, 8), soil_out=8,
    rnn_hidden=16, gnn_hidden=16, head_hidden=32,
)
_MEMORIZE_LR = {
    "gru-1y": 3e-3, "lstm-1y": 3e-3, "cnn-1y": 3e-3, "gnn-1y": 1e-3,
    "gru-5y": 1e-3, "lstm-5y": 1e-3, "cnn-rnn-5y": 5e-3, "gnn-rnn-5y": 3e-3,
}


@pytest.mark.slow
@pytest.mark.parametrize("kind", DEEP_KINDS)
def test_memorization_overfit_oracle(kind):
    ds = tiny_dataset(side=2, years=10, seed=4)
    split = YearSplit(test_year=2009)
    spec = tiny_spec(kind, widths=_MEMORIZE_WIDTHS, epochs=200, lr=_MEMORIZE_LR[kind],
                     batch_size=32, edge_dropout=0.0, weight_decay=0.0)
    ckpt = train(spec, normalized(ds, split), split)
    losses = [h["train_loss"] for h in ckpt.history]
    best = int(np.argmin(losses))
    assert losses[best] < 0.01, (
        f"{kind}: min train loss {losses[best]:.4g} at epoch {best} "
        f"(epoch 0: {losses[0]:.4g}, epoch {len(losses) - 1}: {losses[-1]:.4g})"
    )


# -- evaluation plumbing ---------------------------------------------------------


def test_evaluate_trained_checkpoint_runs():
    ds = tiny_dataset(side=3, years=10)
    split = YearSplit(test_year=2009)
    ckpt = train(tiny_spec("cnn-1y", epochs=2), normalized(ds, split), split)
    report = evaluate(ckpt, ds, split)
    assert report.n_counties == 9
    assert report.method == "cnn-1y"
    assert np.isfinite(report.rmse_normalized)


def test_destandardize_roundtrip():
    ds = tiny_dataset(side=2, years=8)
    _, stats = normalize(ds, YearSplit(test_year=2007))
    y = np.array([80.0, 120.0, 155.0])
    back = stats.destandardize_target("corn", stats.standardize_target("corn", y))
    assert np.max(np.abs(back - y)) < 1e-9


def test_mixed_year_graph_batch_rejected():
    ds = tiny_dataset(side=2, years=10)
    ds_norm, _ = normalize(ds, YearSplit(test_year=2009))
    model = build_model(tiny_spec("gnn-1y"), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        model.forward_samples(ds_norm, [(ds.counties[0], 2008), (ds.counties[1], 2009)])


# -- checkpoint format -------------------------------------------------------------


def _all_fields_checkpoint():
    """A checkpoint whose spec sets every hyperparameter away from its default."""
    spec = ModelSpec(
        kind="gnn-rnn-5y", crop="soybean", lr=3e-4, batch_size=16, epochs=7,
        weight_decay=2.5e-5,
        schedule=LrSchedule("step", period=5, gamma=0.7, t0=50, eta_min=2e-6),
        fanout=3, edge_dropout=0.25, aggregator="mean", seed=11,
        ridge_lambda=2.5, lasso_lambda=0.05,
        widths=ArchWidths(weekly_channels=(3, 5, 6, 7), weekly_out=9, soil_channels=(2, 3, 4),
                          soil_out=5, rnn_hidden=6, gnn_hidden=7, head_hidden=10),
    )
    params = build_model(spec, np.random.default_rng(0)).parameters()
    z = {b: np.zeros(shape) for b, shape in BLOCK_SHAPES.items()}
    stats = NormStats(train_years=(2000, 2001, 2002), mean=z, std=z)
    stats.target_mean["soybean"] = 40.0
    stats.target_std["soybean"] = 5.0
    return ModelCheckpoint(
        spec=spec, params={k: np.full(t.data.shape, 0.5) for k, t in params.items()},
        norm_stats=stats,
        history=[{"epoch": 0, "train_loss": 0.25, "val_rmse": 0.5, "lr": 3e-4}],
        best_epoch=0, test_year=2004, skipped_windows=2, lasso_converged=False,
    )


_GOLDEN_HEADER = """yieldgraph-checkpoint v1
kind = gnn-rnn-5y
crop = soybean
lr = 0.0003
batch_size = 16
epochs = 7
weight_decay = 2.5e-05
schedule_kind = step
schedule_period = 5
schedule_gamma = 0.7
schedule_t0 = 50
schedule_eta_min = 2e-06
fanout = 3
edge_dropout = 0.25
aggregator = mean
seed = 11
ridge_lambda = 2.5
lasso_lambda = 0.05
weekly_channels = 3,5,6,7
weekly_out = 9
soil_channels = 2,3,4
soil_out = 5
rnn_hidden = 6
gnn_hidden = 7
head_hidden = 10
best_epoch = 0
test_year = 2004
skipped_windows = 2
lasso_converged = False
train_years = 2000,2001,2002
blocks = 42

"""


def test_checkpoint_header_golden(tmp_path):
    ckpt = _all_fields_checkpoint()
    path = tmp_path / "golden.ckpt"
    ckpt.save(path)
    raw = path.read_bytes()
    assert raw[: raw.index(b"\n\n") + 2].decode("utf-8") == _GOLDEN_HEADER
    assert hashlib.sha256(raw).hexdigest() == (
        "e7b6eb1f2fe0d18ad0ab953e1bcc4b66b5b6fb46b8cf88b6f571fdfeffe1d5de"
    )
    loaded = ModelCheckpoint.load(path)
    assert loaded.spec == ckpt.spec
    assert (loaded.best_epoch, loaded.test_year, loaded.skipped_windows,
            loaded.lasso_converged) == (0, 2004, 2, False)


def test_checkpoint_roundtrip_keeps_norm_stats(tmp_path):
    ds = tiny_dataset(side=2, years=8)
    ds.soil[:, :, 0, 0] = 4.2  # a constant feature
    ds.weather[1, 2, 3, 4] = np.nan  # a missing cell in a training year
    split = YearSplit(test_year=2007)
    ckpt = train(tiny_spec("ridge-1y"), normalized(ds, split), split)
    saved = ckpt.norm_stats
    assert np.isfinite(saved.mean["weather"]).all()
    loaded = ModelCheckpoint.load(ckpt.save(tmp_path / "model.ckpt")).norm_stats
    assert loaded.train_years == saved.train_years
    for b in BLOCKS:
        assert np.array_equal(loaded.mean[b], saved.mean[b])
        assert np.array_equal(loaded.std[b], saved.std[b])
    # only the spec's crop is saved
    crop = ckpt.spec.crop
    assert set(saved.target_mean) == set(CROPS)
    assert loaded.target_mean == {crop: saved.target_mean[crop]}
    assert loaded.target_std == {crop: saved.target_std[crop]}


# A toy-width corn cnn-1y checkpoint from an earlier v1 writer (commit
# da8a96e), which also wrote norm/const_<block> flags and both crops'
# targets: train(tiny_spec("cnn-1y"), tiny_dataset(side=2, years=10),
# YearSplit(test_year=2009)).save(...). Its predictions for the four
# counties in 2009, as that writer's code gave them.
_LEGACY_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "cnn-1y-v1-legacy.ckpt"
_LEGACY_PREDICTIONS = [
    127.70821865439328, 126.27540009963509, 126.38820064968401, 127.76908997263764,
]


def test_legacy_checkpoint_loads_with_identical_predictions(tmp_path):
    raw = _LEGACY_CHECKPOINT.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "6359d550971d76627655f0245e7080ba1ad6badc7f144de2a3d5378d770f687d"
    )
    assert raw.count(b"norm/const_") == 4 and b"norm/target_soybean 1 2\n" in raw
    ckpt = ModelCheckpoint.load(_LEGACY_CHECKPOINT)
    assert set(ckpt.norm_stats.target_mean) == {"corn"}
    ds = apply_norm_stats(tiny_dataset(side=2, years=10), ckpt.norm_stats)
    preds = ckpt.predict_year(ds, ds.counties, 2009)
    assert preds.tolist() == _LEGACY_PREDICTIONS
    resaved = ModelCheckpoint.load(ckpt.save(tmp_path / "resaved.ckpt"))
    assert np.array_equal(resaved.predict_year(ds, ds.counties, 2009), preds)


def test_checkpoint_save_rejects_a_parameter_off_the_layout(tmp_path):
    # a broadcastable shape fills the model, so it predicts; save refuses it
    spec = tiny_spec("cnn-1y")
    params = {k: t.data.copy() for k, t in build_model(spec, np.random.default_rng(0))
              .parameters().items()}
    params["head.fc1.bias"] = params["head.fc1.bias"].reshape(1, -1)
    ds = tiny_dataset(side=2, years=10)
    ds_norm, stats = normalize(ds, YearSplit(test_year=2009))
    ckpt = ModelCheckpoint(spec=spec, params=params, norm_stats=stats,
                           history=[{"epoch": 0, "train_loss": 0.5, "val_rmse": 0.5, "lr": 1e-3}],
                           best_epoch=0, test_year=2009)
    assert np.isfinite(ckpt.predict_year(ds_norm, ds.counties, 2009)).all()
    path = tmp_path / "model.ckpt"
    with pytest.raises(ConfigurationError, match="head.fc1.bias"):
        ckpt.save(path)
    assert not path.exists()


def _header_end(raw):
    return raw.index(b"\n\n") + 2


_CORRUPTIONS = {
    "empty": lambda raw: b"",
    "in-magic": lambda raw: raw[:10],
    "mid-header": lambda raw: raw[: _header_end(raw) // 2],
    "no-blank-line": lambda raw: raw[: _header_end(raw) - 1],
    "no-blocks": lambda raw: raw[: _header_end(raw)],
    "mid-block-line": lambda raw: raw[: _header_end(raw) + 6],
    "mid-block": lambda raw: raw[: raw.index(b"\n", _header_end(raw)) + 5],
    "last-byte": lambda raw: raw[:-1],
    "dropped-line": lambda raw: raw.replace(b"fanout = 3\n", b""),
    "extra-line": lambda raw: raw.replace(b"blocks = ", b"extra = 1\nblocks = "),
    "bad-value": lambda raw: raw.replace(b"epochs = 7", b"epochs = seven"),
    "fewer-blocks": lambda raw: raw.replace(b"blocks = 42", b"blocks = 41"),
    "more-blocks": lambda raw: raw.replace(b"blocks = 42", b"blocks = 43"),
    "trailing-bytes": lambda raw: raw + b"\0",
    "bad-block-line": lambda raw: raw.replace(b"head.fc2.bias 1 1", b"head.fc2.bias 2 1"),
    "renamed-block": lambda raw: raw.replace(b"history/lr", b"history/lx"),
    "renamed-target": lambda raw: raw.replace(b"norm/target_soybean", b"norm/target_soybeax"),
    "bad-flag": lambda raw: raw.replace(b"lasso_converged = False", b"lasso_converged = Fals"),
    "reshaped-param": lambda raw: raw.replace(b"head.fc1.bias 1 10", b"head.fc1.bias 2 1 10"),
    "transposed-norm": lambda raw: raw.replace(b"norm/soil_mean 2 20 6", b"norm/soil_mean 2 6 20"),
    # the last block, history/lr, keeps 0 of its 1 rows
    "short-history": lambda raw: raw[:-8].replace(b"history/lr 1 1", b"history/lr 1 0"),
    "legacy-renamed-const": lambda raw: _LEGACY_CHECKPOINT.read_bytes().replace(
        b"norm/const_soil", b"norm/const_soix"),
}


@pytest.mark.parametrize("damage", sorted(_CORRUPTIONS))
def test_checkpoint_load_rejects_damaged_file(tmp_path, damage):
    path = tmp_path / "good.ckpt"
    _all_fields_checkpoint().save(path)
    raw = path.read_bytes()
    damaged = _CORRUPTIONS[damage](raw)
    assert damaged != raw
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(damaged)
    with pytest.raises(ConfigurationError):
        ModelCheckpoint.load(bad)
