"""Two lanes: whole jobs on the caller and the conv worker.

``layers.in_lanes`` runs a list of jobs on two lanes, the caller and the
conv worker, in training and at inference alike; a conv block that splits
by its shape runs both halves on the thread of the lane whose job it is
in, the same GEMM calls it makes on two threads. Each lane runs in a copy
of its caller's context, so a job records tape nodes exactly when its
caller would, and a ``no_grad()`` inside one job leaves the other lane's
ops recorded. A job may need earlier jobs' results; a lane that takes it
waits for them. A graph model hands ``in_lanes`` its (window year, chunk)
embedder calls and its per-year SAGE stacks, each stack needing its
year's embeds; a CNN model its per-year embeds. These tests check the
contract (job order, needs, when no worker is started, how failures come
back, whose ops are recorded) and that predictions and training keep
their bits: on two CPUs against one, and against running the jobs in
order on one thread. They claim two CPUs whatever the host has (the
``splits`` fixture, which also counts the jobs posted to the worker).
"""

import contextlib
import functools
import itertools
import sys
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

    def job(i, parts=None):
        ran.append((i, threading.get_ident()))
        return i

    return ran, [functools.partial(job, i) for i in range(n)]


@pytest.mark.parametrize("case", ["one cpu", "one job", "one job that needs none"])
def test_jobs_run_in_order_on_the_caller_and_start_no_worker(monkeypatch, splits, case):
    # One job that needs none: gnn-1y's embed and the SAGE stack that needs it.
    monkeypatch.setattr(layers, "_worker", None)
    if case == "one cpu":
        monkeypatch.setattr(layers, "_cpus", lambda: 1)
    ran, jobs = _recorded_jobs({"one cpu": 4, "one job": 1}.get(case, 3))
    needs = [(), (0,), (0, 1)] if case == "one job that needs none" else None
    with no_grad():
        assert layers.in_lanes(jobs, needs) == list(range(len(jobs)))
    assert ran == [(i, threading.get_ident()) for i in range(len(jobs))]
    assert layers._worker is None and not splits


def test_taped_jobs_run_on_both_lanes_and_start_the_worker(monkeypatch, splits):
    # While a tape is recorded, as under no_grad(), the jobs go to both
    # lanes, and each job's op is recorded on the thread that runs it.
    monkeypatch.setattr(layers, "_worker", None)
    barrier, leaf = threading.Barrier(2), Tensor(np.arange(3.0), requires_grad=True)
    ran = []

    def job(i):
        if i < 2:
            _both_lanes_start(barrier)
        ran.append(threading.get_ident())
        return leaf * float(i + 1)

    got = layers.in_lanes([functools.partial(job, i) for i in range(4)])
    assert [t.data.tolist() for t in got] == [[0.0, i, 2.0 * i] for i in range(1, 5)]
    assert all(t.requires_grad and t.node is not None for t in got)
    assert len(set(ran)) == 2
    assert layers._worker is not None and len(splits) == 1


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


def _needs_jobs(first):
    """Three jobs: 0 and 1 start together, one per lane, 0 then sleeps and
    runs ``first``; 2 needs 0 and 1. Returns (jobs, needs, ran)."""
    barrier, ran = threading.Barrier(2), []

    def job(i, parts=None):
        if i < 2:
            _both_lanes_start(barrier)
        if i == 0:
            time.sleep(0.1)
            first()
        ran.append(i)
        return i if parts is None else parts

    jobs = [functools.partial(job, i) for i in range(3)]
    return jobs, [(), (), (0, 1)], ran


def test_a_job_runs_once_the_jobs_it_needs_are_done(splits):
    # Job 1's lane takes job 2 while job 0 still sleeps on the other lane.
    jobs, needs, ran = _needs_jobs(lambda: None)
    assert layers.in_lanes(jobs, needs) == [0, 1, [0, 1]]
    assert ran == [1, 0, 2]


def test_a_job_whose_need_failed_does_not_run(splits):
    jobs, needs, ran = _needs_jobs(functools.partial(_fail, "needed"))
    with pytest.raises(ValueError, match="needed"):
        layers.in_lanes(jobs, needs)
    assert ran == [1]


def _conv_job():
    x, w, b, _, pool = _block(_SHAPE)
    return layers.conv1d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b), pool).data.tobytes()


def test_blocks_in_lanes_run_their_halves_on_the_lanes_thread(monkeypatch, splits):
    # _SHAPE's block splits by default: alone, it posts its second half;
    # in lanes, taped or under no_grad(), each lane runs both halves of its
    # jobs' blocks itself, and the one post is the worker's lane. A post
    # from the worker would wait on itself, so it fails here instead.
    post = layers._post

    def from_the_caller(job):
        assert threading.current_thread().name != "yieldgraph-conv", "the worker posted"
        return post(job)

    monkeypatch.setattr(layers, "_post", from_the_caller)
    alone = _conv_job()
    assert len(splits) == 1
    for mode in (contextlib.nullcontext, no_grad):
        del splits[:]
        with mode():
            assert layers.in_lanes([_conv_job, _conv_job]) == [alone, alone]
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


def _forward(model, ds, batch, rng):
    return model.forward_samples(ds, batch, training=True, rng=rng)


def _adam_steps(nds, split, forward, spec, steps):
    """Parameter bytes after one Adam step on each of the first ``steps``
    training target years (16 samples each)."""
    samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop,
                                        spec.history_years)
    model = models.build_model(spec, np.random.default_rng(spec.seed))
    params = model.parameters()
    adam = optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    rng = np.random.default_rng(spec.seed + 1)
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
    spec = models.default_spec("gnn-rnn-5y", batch_size=16, seed=5)
    lanes = _adam_steps(nds, split, _forward, spec, steps=3)
    assert splits  # lanes ran, and blocks hand their dw and db to the worker
    assert _adam_steps(nds, split, _year_by_year, spec, steps=3) == lanes


def _in_order(jobs, needs=None):
    results = []
    for i, job in enumerate(jobs):
        need = needs[i] if needs else ()
        results.append(job([results[j] for j in need]) if need else job())
    return results


@pytest.mark.parametrize("kind", ["gnn-rnn-5y", "cnn-rnn-5y"])
def test_training_in_lanes_keeps_the_bits_of_one_cpu_and_of_jobs_in_order(monkeypatch, splits,
                                                                          kind):
    _, split, nds, _ = _prepared(years=11)
    spec = models.default_spec(kind, batch_size=16, seed=5, widths=models.ArchWidths.toy())
    embed, barrier, calls, threads = models._embed, threading.Barrier(2), itertools.count(), []

    def watched(embedder, blocks):
        if next(calls) < 2:  # the first two embeds wait for each other, one per lane
            barrier.wait(timeout=30)
        threads.append(threading.current_thread().name)
        return embed(embedder, blocks)

    monkeypatch.setattr(models, "_embed", watched)
    lanes = _adam_steps(nds, split, _forward, spec, steps=5)
    assert "yieldgraph-conv" in threads and threading.current_thread().name in threads
    monkeypatch.setattr(models, "_embed", embed)
    with monkeypatch.context() as one_cpu:
        _one_thread(one_cpu)
        assert _adam_steps(nds, split, _forward, spec, steps=5) == lanes
    monkeypatch.setattr(models, "in_lanes", _in_order)
    assert _adam_steps(nds, split, _forward, spec, steps=5) == lanes


def _no_grad_beside_a_taped_job(run, meet):
    """A leaf's gradient bytes through two jobs given to ``run``, and the
    jobs' results: one job holds no_grad() from before its first
    ``meet()`` to after its second, and the other runs its ops between its
    two. The loss is the sum of the results' product."""
    w = Tensor(np.linspace(0.5, 2.0, 6).reshape(2, 3), requires_grad=True)

    def quiet():
        with no_grad():
            meet()
            out = w * 3.0
            meet()
        return out

    def taped():
        meet()
        out = (w * w).exp()
        meet()
        return out

    untracked, tracked = run([quiet, taped])
    (untracked * tracked).sum().backward()
    return w.grad.tobytes(), untracked, tracked


def test_a_no_grad_in_one_lane_leaves_the_other_lane_recorded(splits):
    barrier = threading.Barrier(2)
    got, untracked, tracked = _no_grad_beside_a_taped_job(
        layers.in_lanes, lambda: barrier.wait(timeout=30))
    assert len(splits) == 1  # the jobs met, so each ran on its own lane
    assert untracked.node is None and not untracked.requires_grad
    assert tracked.node is not None
    want, _, _ = _no_grad_beside_a_taped_job(_in_order, lambda: None)
    assert got == want


def _taped_sum_grad(run):
    """A leaf's gradient bytes through six taped jobs and a seventh that
    needs them all and sums their results, run by ``run``."""
    w = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
    jobs = [functools.partial(lambda k: (w * float(k)).exp().relu(), k + 1) for k in range(6)]
    total = run(jobs + [lambda parts: functools.reduce(lambda a, b: a + b, parts)],
                [()] * 6 + [range(6)])[-1]
    total.sum().backward()
    return w.grad.tobytes()


def test_concurrent_taped_callers_keep_their_gradients(splits):
    # Four callers share the one worker, each running taped jobs on two
    # lanes, on a short switch interval: a lost result, a node recorded in
    # the wrong mode or a job run before its needs would change a gradient.
    want = _taped_sum_grad(_in_order)
    same, errors = [], []

    def caller():
        try:
            for _ in range(10):
                same.append(_taped_sum_grad(layers.in_lanes) == want)
        except BaseException as err:
            errors.append(err)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and same == [True] * 40
    assert splits  # the callers' worker lanes were posted


@pytest.mark.parametrize("kind", ["lstm-1y", "gru-1y", "lstm-5y", "gru-5y", "ridge-1y",
                                  "lasso-1y"])
def test_kinds_without_an_embedder_never_call_in_lanes(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(models, "in_lanes", lambda jobs, needs=None: calls.append(jobs) or [])
    ds, _ = data.normalize(tiny_dataset(), data.YearSplit(test_year=2009))
    model = models.build_model(tiny_spec(kind), np.random.default_rng(0))
    samples = _window_samples(ds, data.YearSplit(test_year=2009), model.spec)
    models._predict_std(model, ds, samples, batch_size=4)
    assert calls == []
