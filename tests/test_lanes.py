"""Two-lane inference: whole jobs on the caller and the conv worker.

``layers.in_lanes`` runs a list of independent jobs on two lanes, the
caller and the conv worker, under ``no_grad()``; a conv block that splits
by its shape runs both halves on the thread of the lane whose job it is
in, the same GEMM calls it makes on two threads. A graph model hands
``in_lanes`` its (window year, chunk) embedder calls and then its
per-year SAGE stacks; a CNN model its per-year embeds. These tests check
the contract (job order, when no worker is started, how failures come
back) and that predictions and training keep their bits: on two CPUs
against one, and in training against embedding and refining one window
year after the other. They claim two CPUs whatever the host has (the
``splits`` fixture, which also counts the jobs posted to the worker).
"""

import contextlib
import functools
import threading
import time

import numpy as np
import pytest

from yieldgraph import data, evaluation, layers, models, optim
from yieldgraph.autodiff import NonFiniteError, Tensor, no_grad
from yieldgraph.graph import gnn_forward
from tests.test_conv_split import (  # noqa: F401 (splits is a fixture)
    _SHAPE,
    _block,
    _one_thread,
    splits,
)
from tests.test_models import tiny_dataset, tiny_spec

EMBED_KINDS = ("gnn-rnn-5y", "gnn-1y", "cnn-rnn-5y", "cnn-1y")


def _both_lanes_start(barrier):
    """A job that waits until the other lane has taken a job too."""
    barrier.wait(timeout=30)
    return threading.get_ident()


def test_results_come_back_in_job_order(splits):
    # The first job, on one lane, sleeps longest, so jobs finish out of order.
    barrier = threading.Barrier(2)
    finished = []

    def job(i):
        if i < 2:
            _both_lanes_start(barrier)
        time.sleep(0.02 * (8 - i))
        finished.append((i, threading.get_ident()))
        return i * i

    with no_grad():
        got = layers.in_lanes([functools.partial(job, i) for i in range(8)])
    assert got == [i * i for i in range(8)]
    assert len(splits) == 1  # one lane runs on the worker
    assert len({ident for _, ident in finished}) == 2
    assert [i for i, _ in finished] != sorted(i for i, _ in finished)


def _recorded_jobs(n):
    ran = []

    def job(i):
        ran.append((i, threading.get_ident()))
        return i

    return ran, [functools.partial(job, i) for i in range(n)]


@pytest.mark.parametrize("case", ["taped", "one cpu", "one job"])
def test_jobs_run_in_order_on_the_caller_and_start_no_worker(monkeypatch, splits, case):
    monkeypatch.setattr(layers, "_worker", None)
    if case == "one cpu":
        monkeypatch.setattr(layers, "_cpus", lambda: 1)
    ran, jobs = _recorded_jobs(1 if case == "one job" else 4)
    with contextlib.nullcontext() if case == "taped" else no_grad():
        assert layers.in_lanes(jobs) == list(range(len(jobs)))
    assert ran == [(i, threading.get_ident()) for i in range(len(jobs))]
    assert layers._worker is None and not splits


def test_a_nested_call_runs_in_order_on_its_own_lane(splits):
    barrier = threading.Barrier(2)
    inner = []

    def outer(i):
        here = _both_lanes_start(barrier) if i < 2 else threading.get_ident()
        ran, jobs = _recorded_jobs(3)
        got = layers.in_lanes(jobs)
        inner.append(ran == [(j, here) for j in range(3)])
        return got

    with no_grad():
        assert layers.in_lanes([functools.partial(outer, i) for i in range(4)]) == [[0, 1, 2]] * 4
    assert inner == [True] * 4
    assert len(splits) == 1  # only the outer call posts to the worker


def _conv_job():
    x, w, b, _, pool = _block(_SHAPE)
    return layers.conv1d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b), pool).data.tobytes()


def test_blocks_in_lanes_run_their_halves_on_the_lanes_thread(monkeypatch, splits):
    # _SHAPE's block splits by default: while taped, each of the two jobs
    # posts its second half; in lanes, each lane runs both halves of its
    # jobs' blocks itself, and the one post is the worker's lane. A post
    # from the worker would wait on itself, so it fails here instead.
    post = layers._post

    def from_the_caller(job):
        assert threading.current_thread().name != "yieldgraph-conv", "the worker posted"
        return post(job)

    monkeypatch.setattr(layers, "_post", from_the_caller)
    taped = layers.in_lanes([_conv_job, _conv_job])
    assert len(splits) == 2
    del splits[:]
    with no_grad():
        assert layers.in_lanes([_conv_job, _conv_job]) == taped
    assert len(splits) == 1


def _lane_jobs(behaviour):
    """Two jobs, one per lane: each waits for the other lane to take its
    job, then runs ``behaviour[lane]`` (lane: "caller" or "worker")."""
    barrier, caller = threading.Barrier(2), threading.get_ident()

    def job():
        lane = "caller" if _both_lanes_start(barrier) == caller else "worker"
        return behaviour[lane](lane)

    return [job, job]


def _fail(lane):
    raise ValueError(lane)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failure_is_raised_once_both_lanes_have_stopped(splits, failing):
    finished = []

    def slow(lane):
        time.sleep(0.2)
        finished.append(lane)

    other = "caller" if failing == "worker" else "worker"
    with no_grad(), pytest.raises(ValueError, match=failing):
        layers.in_lanes(_lane_jobs({failing: _fail, other: slow}))
    assert finished == [other]


def test_the_lowest_failed_job_index_wins(splits):
    barrier = threading.Barrier(2)
    ran = []

    def job(i):
        if i < 2:
            _both_lanes_start(barrier)
        ran.append(i)
        raise KeyError(i)

    with no_grad(), pytest.raises(KeyError) as failure:
        layers.in_lanes([functools.partial(job, i) for i in range(5)])
    assert failure.value.args == (0,)
    assert sorted(ran) == [0, 1]  # neither lane takes a job after a failure


def _prepared(side=12, years=7, seed=5):
    ds = data.generate_synthetic(side * side, years, side, seed=seed)
    split = data.YearSplit(test_year=ds.years[-1])
    nds, stats = data.normalize(ds, split)
    return ds, split, nds, stats


def _checkpoint(kind, stats, split, seed=7):
    spec = models.default_spec(kind, seed=seed)
    model = models.build_model(spec, np.random.default_rng(seed))
    params = {name: p.data.copy() for name, p in model.parameters().items()}
    return models.ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=[],
                                  best_epoch=0, test_year=split.test_year)


def _predictions(ckpt, ds, split):
    """Plain and early test-year predictions, as bytes."""
    return [np.array([p for _, _, p, _ in evaluation.evaluate(ckpt, ds, split, early).records])
            .tobytes() for early in (False, True)]


@pytest.mark.parametrize("kind", EMBED_KINDS)
def test_predictions_on_two_cpus_match_one_bit_for_bit(monkeypatch, splits, kind):
    ds, split, _, stats = _prepared()
    two = _predictions(_checkpoint(kind, stats, split), ds, split)
    assert splits  # lanes ran, or (cnn-1y, one job per forward) blocks split
    calls = len(splits)
    _one_thread(monkeypatch)
    assert _predictions(_checkpoint(kind, stats, split), ds, split) == two
    assert len(splits) == calls


def _window_samples(nds, split, spec):
    samples, _ = data.enumerate_windows(nds, [split.test_year], spec.crop, spec.history_years)
    return samples


def test_the_predict_after_a_failed_lane_gives_the_same_bytes(splits):
    _, split, nds, stats = _prepared()
    model = _checkpoint("gnn-rnn-5y", stats, split).model()
    samples = _window_samples(nds, split, model.spec)
    want = models._predict_std(model, nds, samples, model.spec.batch_size).tobytes()
    assert splits
    # The window masks are cached by now, so the county stays in the block
    # and its NaN fails the input tensor of one (window year, chunk) job.
    ci, yi = nds.county_index[samples[-1][0]], nds.year_index[split.test_year - 2]
    saved = nds.weather[ci, yi, 3, 10]
    nds.weather[ci, yi, 3, 10] = np.nan
    with pytest.raises(NonFiniteError, match="tensor construction"):
        models._predict_std(model, nds, samples, model.spec.batch_size)
    nds.weather[ci, yi, 3, 10] = saved
    assert models._predict_std(model, nds, samples, model.spec.batch_size).tobytes() == want


def _year_by_year(model, ds, samples, rng):
    """gnn-rnn-5y's training forward as it was before lanes: embed one
    window year's input rows, then run its SAGE stack, year by year."""
    counties, year = [c for c, _ in samples], samples[0][1]
    years = list(range(year - model.spec.history_years, year + 1))
    block = model._block(ds, counties, years, True, rng)
    input_ids = [ds.graph.node_ids[i] for i in block.input_nodes]
    zs = []
    for y in years:
        blocks = models.gather_year_blocks(ds, [(c, y) for c in input_ids], model.spec.crop)
        zs.append(gnn_forward(model.stack, block, models._embed(model.embedder, blocks)))
    return model.head(models._reorder(block, ds, counties, models._over_years(model.cell, zs)))


def _adam_steps(nds, split, forward, steps=3, seed=5):
    spec = models.default_spec("gnn-rnn-5y", batch_size=16, seed=seed)
    samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop,
                                        spec.history_years)
    model = models.build_model(spec, np.random.default_rng(seed))
    params = model.parameters()
    adam = optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    rng = np.random.default_rng(seed + 1)
    years = sorted({y for _, y in samples})[:steps]
    assert len(years) == steps
    for y in years:
        batch = [s for s in samples if s[1] == y][:16]
        targets = [nds.norm_stats.standardize_target(spec.crop, nds.yields.get(c, y, spec.crop))
                   for c, _ in batch]
        loss = optim.logcosh_loss(forward(model, nds, batch, rng), np.array(targets))
        for p in params.values():
            p.zero_grad()
        loss.backward()
        optim.adam_step(params, adam)
    return {name: p.data.tobytes() for name, p in params.items()}


def test_graph_training_keeps_the_bits_of_refining_year_by_year(splits):
    # Embedding every window year before the SAGE stacks makes the tape's
    # nodes in another order, but the backward sweep follows the graph.
    _, split, nds, _ = _prepared(years=9)
    lanes = _adam_steps(nds, split, lambda m, ds, batch, rng:
                        m.forward_samples(ds, batch, training=True, rng=rng))
    assert splits  # blocks split and hand their dw and db to the worker
    assert _adam_steps(nds, split, _year_by_year) == lanes


@pytest.mark.parametrize("kind", ["lstm-1y", "gru-1y", "lstm-5y", "gru-5y", "ridge-1y",
                                  "lasso-1y"])
def test_kinds_without_an_embedder_never_call_in_lanes(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(models, "in_lanes", lambda jobs: calls.append(jobs) or [])
    ds, _ = data.normalize(tiny_dataset(), data.YearSplit(test_year=2009))
    model = models.build_model(tiny_spec(kind), np.random.default_rng(0))
    samples = _window_samples(ds, data.YearSplit(test_year=2009), model.spec)
    models._predict_std(model, ds, samples, batch_size=4)
    assert calls == []
