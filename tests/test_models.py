import hashlib

import numpy as np
import pytest

from yieldgraph import models
from yieldgraph.data import NormStats, YearSplit, assemble_window, generate_synthetic, normalize
from yieldgraph.evaluation import evaluate
from yieldgraph.graph import CountyGraph
from yieldgraph.models import (
    ALL_KINDS,
    ArchWidths,
    ConfigurationError,
    DEEP_KINDS,
    FLAT_WIDTH,
    GRAPH_KINDS,
    GraphContext,
    LrSchedule,
    ModelCheckpoint,
    ModelSpec,
    build_model,
    default_spec,
    fit_lasso,
    fit_ridge,
    lasso_objective,
    predict_1y,
    predict_5y,
    train,
)
from tests.helpers import batched_predict_std
from tests.test_data import make_dataset


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
    assert np.max(np.abs(model.predict(X) - y)) < 1e-9


def test_ridge_large_lambda_shrinks_to_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    y = rng.normal(size=20) + 3.0
    model = fit_ridge(X, y, 1e12)
    assert np.max(np.abs(model.coef)) < 1e-6
    assert np.allclose(model.predict(X), y.mean(), atol=1e-4)


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
        lasso_objective(X, y, fit_lasso(X, y, 0.05, max_iter=iters))
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
    assert spec.schedule.kind == "constant"
    assert spec.schedule.lr_max == 1e-3


# -- models ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", DEEP_KINDS)
def test_forward_shapes_and_determinism(kind):
    ds_raw = tiny_dataset()
    split = YearSplit(test_year=2009)
    ds, _ = normalize(ds_raw, split)
    model = build_model(tiny_spec(kind), np.random.default_rng(0))
    counties = ds.counties[:5]
    year = 2009 if kind.endswith("-5y") else 2009
    samples = [(c, year) for c in counties]
    a = model.forward_samples(ds, samples).data
    b = model.forward_samples(ds, samples).data
    assert a.shape == (5,)
    assert np.array_equal(a, b)


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
    ckpt = train(tiny_spec("cnn-1y", epochs=3), ds, split)
    assert ckpt.norm_stats.train_years == tuple(range(2000, 2006))
    assert len(ckpt.history) == 3
    val = [h["val_rmse"] for h in ckpt.history]
    assert ckpt.history[ckpt.best_epoch]["val_rmse"] == min(val)


def test_train_deterministic_checkpoint_bytes(tmp_path):
    ds = tiny_dataset(side=2, years=8)
    split = YearSplit(test_year=2007)
    paths = []
    for run in range(2):
        ckpt = train(tiny_spec("gnn-1y", epochs=2), ds, split)
        p = tmp_path / f"run{run}.ckpt"
        ckpt.save(p)
        paths.append(p)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


@pytest.mark.parametrize("kind", ["cnn-1y", "gnn-rnn-5y", "ridge-1y", "lasso-1y"])
def test_checkpoint_roundtrip_bit_identical_predictions(tmp_path, kind):
    ds = tiny_dataset(side=2, years=10)
    split = YearSplit(test_year=2009)
    ckpt = train(tiny_spec(kind, epochs=2), ds, split)
    from yieldgraph.data import apply_norm_stats

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
    ckpt = train(tiny_spec("gru-5y", epochs=1), ds, YearSplit(test_year=2007))
    assert ckpt.skipped_windows >= 1


def test_train_empty_training_set_errors():
    ds = make_dataset(years=(2000, 2001, 2002))  # no yields at all
    with pytest.raises(ConfigurationError):
        train(tiny_spec("cnn-1y"), ds, YearSplit(test_year=2002))


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
    ckpt = train(spec, ds, split)
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
    ckpt = train(tiny_spec("cnn-1y", epochs=2), ds, split)
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


# -- single-sample prediction surface ---------------------------------------------


def _normalized_with_ckpt(kind, tmp_kind_epochs=1):
    ds = tiny_dataset(side=2, years=10)
    split = YearSplit(test_year=2009)
    ckpt = train(tiny_spec(kind, epochs=tmp_kind_epochs), ds, split)
    from yieldgraph.data import apply_norm_stats, assemble_window

    ds_norm = apply_norm_stats(ds, ckpt.norm_stats)
    return ds, ds_norm, ckpt, assemble_window


def test_predict_1y_contracts():
    ds, ds_norm, ckpt, assemble_window = _normalized_with_ckpt("cnn-1y")
    feats = assemble_window(ds_norm, ds.counties[0], 2009, 0, "corn")[0]
    value = predict_1y(ckpt, feats)
    assert np.isfinite(value)
    with pytest.raises(ConfigurationError):
        predict_1y(ckpt, feats, GraphContext(ds_norm))  # non-graph forbids context


def test_predict_1y_graph_requires_context():
    ds, ds_norm, ckpt, assemble_window = _normalized_with_ckpt("gnn-1y")
    feats = assemble_window(ds_norm, ds.counties[0], 2009, 0, "corn")[0]
    with pytest.raises(ConfigurationError):
        predict_1y(ckpt, feats)
    value = predict_1y(ckpt, feats, GraphContext(ds_norm))
    assert np.isfinite(value)


def test_predict_1y_gnn_isolated_county_matches_degenerate_forward():
    ds, ds_norm, ckpt, assemble_window = _normalized_with_ckpt("gnn-1y")
    ds_norm.graph = CountyGraph(ds_norm.counties, [])
    feats = assemble_window(ds_norm, ds_norm.counties[0], 2009, 0, "corn")[0]
    got = predict_1y(ckpt, feats, GraphContext(ds_norm))
    model = ckpt.model()
    want = model.forward_samples(ds_norm, [(ds_norm.counties[0], 2009)]).data[0]
    assert got == want


def test_predict_5y_contracts():
    ds, ds_norm, ckpt, assemble_window = _normalized_with_ckpt("cnn-rnn-5y")
    window = assemble_window(ds_norm, ds.counties[0], 2009, 4, "corn")
    a = predict_5y(ckpt, window)
    b = predict_5y(ckpt, window)
    assert a == b  # determinism; order matters so only this is asserted
    with pytest.raises(ConfigurationError):
        predict_5y(ckpt, window[:3])
    with pytest.raises(ConfigurationError):
        predict_5y(ckpt, [window[0]] * 5)
    with pytest.raises(ConfigurationError):
        predict_1y(ckpt, window[-1])


def test_mixed_year_graph_batch_rejected():
    ds = tiny_dataset(side=2, years=10)
    ds_norm, _ = normalize(ds, YearSplit(test_year=2009))
    model = build_model(tiny_spec("gnn-1y"), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        model.forward_samples(ds_norm, [(ds.counties[0], 2008), (ds.counties[1], 2009)])


def test_single_sample_prediction_equals_forward_samples():
    """predict_1y / predict_5y on an assembled window give exactly the
    batched forward's value, for every kind and county of a 3x3 grid."""
    ds = tiny_dataset(side=3, years=10)
    ds_norm, stats = normalize(ds, YearSplit(test_year=2009))
    for kind in ALL_KINDS:
        spec = tiny_spec(kind)
        rng = np.random.default_rng(7)
        if kind in DEEP_KINDS:
            params = {k: v.data for k, v in build_model(spec, rng).parameters().items()}
        else:
            params = {"linear.coef": rng.normal(size=FLAT_WIDTH) * 0.01,
                      "linear.intercept": np.array([0.3])}
        ckpt = ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=[],
                               best_epoch=0, test_year=2009)
        context = GraphContext(ds_norm) if kind in GRAPH_KINDS else None
        for county in ds_norm.counties:
            window = assemble_window(ds_norm, county, 2009, spec.history_years, "corn")
            if spec.history_years:
                got = predict_5y(ckpt, window, context)
            else:
                got = predict_1y(ckpt, window[0], context)
            want = ckpt.model().forward_samples(ds_norm, [(county, 2009)]).data[0]
            assert got == want, (kind, county)


# -- checkpoint format -------------------------------------------------------------


def _all_fields_checkpoint():
    """A checkpoint whose spec sets every hyperparameter away from its default."""
    spec = ModelSpec(
        kind="gnn-rnn-5y", crop="soybean", lr=3e-4, batch_size=16, epochs=7,
        weight_decay=2.5e-5,
        schedule=LrSchedule("step", 3e-4, period=5, gamma=0.7, t0=50, eta_min=2e-6),
        fanout=3, edge_dropout=0.25, aggregator="mean", seed=11, head_dropout=0.125,
        ridge_lambda=2.5, lasso_lambda=0.05,
        widths=ArchWidths(weekly_channels=(3, 5, 6, 7), weekly_kernels=(5, 3, 3, 1),
                          weekly_out=9, soil_channels=(2, 3, 4), soil_out=5, rnn_hidden=6,
                          gnn_hidden=7, head_hidden=10),
    )
    z = np.zeros(1)
    stats = NormStats(train_years=(2000, 2001, 2002), weather_mean=z, weather_std=z,
                      land_mean=z, land_std=z, soil_mean=z, soil_std=z, extras_mean=z,
                      extras_std=z, constant_flags={})
    stats.target_mean["soybean"] = 40.0
    stats.target_std["soybean"] = 5.0
    return ModelCheckpoint(
        spec=spec, params={"head.fc2.b": np.array([0.5])}, norm_stats=stats,
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
schedule_lr_max = 0.0003
schedule_period = 5
schedule_gamma = 0.7
schedule_t0 = 50
schedule_eta_min = 2e-06
fanout = 3
edge_dropout = 0.25
aggregator = mean
seed = 11
head_dropout = 0.125
ridge_lambda = 2.5
lasso_lambda = 0.05
weekly_channels = 3,5,6,7
weekly_kernels = 5,3,3,1
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
blocks = 13

"""


def test_checkpoint_header_golden(tmp_path):
    ckpt = _all_fields_checkpoint()
    path = tmp_path / "golden.ckpt"
    ckpt.save(path)
    raw = path.read_bytes()
    assert raw[: raw.index(b"\n\n") + 2].decode("utf-8") == _GOLDEN_HEADER
    assert hashlib.sha256(raw).hexdigest() == (
        "2d2cccfb4c28c4103dd3cd0f58875663fb7a7d051ed192fe844b4da924f49d2c"
    )
    loaded = ModelCheckpoint.load(path)
    assert loaded.spec == ckpt.spec
    assert (loaded.best_epoch, loaded.test_year, loaded.skipped_windows,
            loaded.lasso_converged) == (0, 2004, 2, False)


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
    "fewer-blocks": lambda raw: raw.replace(b"blocks = 13", b"blocks = 12"),
    "more-blocks": lambda raw: raw.replace(b"blocks = 13", b"blocks = 14"),
    "trailing-bytes": lambda raw: raw + b"\0",
    "bad-block-line": lambda raw: raw.replace(b"head.fc2.b 1 1", b"head.fc2.b 2 1"),
    "renamed-block": lambda raw: raw.replace(b"history/lr", b"history/lx"),
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
