"""A split conv block gives the same bits on two threads as on one.

``layers._split_point`` splits a block of at least ``SPLIT_WORK`` GEMM
multiply-adds into two halves of its batch, from its shape alone. The
row-range body that a whole block runs over its batch then runs over
each half, through ``layers._in_parallel``: on the calling thread and one
conv worker when there are two CPUs, one after the other on the caller
when there is one. Once the worker runs, it also forms every block's
weight and bias gradients while the backward sweep walks on. These tests
claim two CPUs, force the split where a block is smaller (``SPLIT_WORK``
1) and compare it with the one-thread path (one CPU and no worker, so
the halves run on the caller and no block hands its dw and db to the
worker), byte for byte. Both paths make the same GEMM calls on the same
rows, so the bits cannot depend on how a BLAS kernel blocks a product;
``test_the_split_holds_on_the_avx2_kernels`` runs the split cases again
on OpenBLAS's AVX2 kernels, where a half's GEMM differs from the same
rows of the whole one.
"""

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from yieldgraph import data, layers, models, optim
from yieldgraph.autodiff import NonFiniteError, Pending, Tensor, apply_op
from yieldgraph.data import N_LAND, N_SOIL, N_WEATHER, WEEKS, DEPTHS
from yieldgraph.models import ArchWidths
from tests.helpers import reference_backward

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def splits(monkeypatch):
    """Two CPUs whatever the host has; counts the jobs posted to the conv
    worker."""
    calls = []
    post = layers._post

    def counted(job):
        calls.append(1)
        return post(job)

    monkeypatch.setattr(layers, "_cpus", lambda: 2)
    monkeypatch.setattr(layers, "_post", counted)
    return calls


def _force_split(monkeypatch):
    monkeypatch.setattr(layers, "SPLIT_WORK", 1)


def _one_thread(monkeypatch):
    """No split and no worker until the test ends: every pass on the caller."""
    monkeypatch.setattr(layers, "_cpus", lambda: 1)
    monkeypatch.setattr(layers, "_worker", None)


def _conv_shapes():
    """(batch, ch_in, length, ch_out, kernel, pool) of every default-width
    conv block: the weekly blocks at 246, 128 and 37 nodes, the soil blocks
    at 246."""
    widths = ArchWidths()
    shapes = []
    for batch in (246, 128, 37):
        ch_in, length = N_WEATHER + N_LAND, WEEKS
        for ch_out, k in zip(widths.weekly_channels, layers.WEEKLY_KERNELS):
            shapes.append((batch, ch_in, length, ch_out, k, layers.POOL_WINDOW))
            ch_in, length = ch_out, (length - k + 1) // layers.POOL_WINDOW
    ch_in, length = N_SOIL, DEPTHS
    for ch_out in widths.soil_channels:
        shapes.append((246, ch_in, length, ch_out, layers.SOIL_KERNEL, None))
        ch_in, length = ch_out, length - layers.SOIL_KERNEL + 1
    return shapes


def _block(shape, seed=0):
    batch, ch_in, length, ch_out, k, pool = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, length, ch_in))
    w = rng.uniform(-0.3, 0.3, size=(ch_out, ch_in, k))
    b = rng.uniform(-0.1, 0.1, size=ch_out)
    g = rng.normal(size=(batch, (length - k + 1) // (pool or 1), ch_out))
    return x, w, b, g, pool


def _run(x, w, b, g, pool):
    """out, dx, dw and db of one block, as bytes; pending gradients are
    waited for."""
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = layers.conv1d(tx, tw, tb, pool)
    grads = [a.result() if isinstance(a, Pending) else a for a in out.node.vjp(g)]
    return [a.tobytes() for a in (out.data, *grads)]


@pytest.mark.parametrize("shape", _conv_shapes(), ids=lambda s: "x".join(map(str, s[:5])))
def test_split_block_matches_one_thread_bit_for_bit(monkeypatch, splits, shape):
    _force_split(monkeypatch)
    block = _block(shape)
    split = _run(*block)
    assert len(splits) == 2  # the forward's halves, then dw and db behind dx
    _one_thread(monkeypatch)
    assert _run(*block) == split
    assert len(splits) == 2


@pytest.mark.parametrize("shape", [s for s in _conv_shapes() if s[5] is None],
                         ids=lambda s: "x".join(map(str, s[:5])))
def test_an_unsplit_block_hands_dw_and_db_to_a_running_worker(monkeypatch, splits, shape):
    block = _block(shape)
    layers._in_parallel(lambda: None, lambda: None)  # start the worker, as a split block would
    del splits[:]
    deferred = _run(*block)
    assert len(splits) == 1  # no split: only dw and db go to the worker
    _one_thread(monkeypatch)
    assert _run(*block) == deferred
    assert len(splits) == 1


def test_the_split_rule_follows_gemm_work(monkeypatch):
    # At graph-5y sizes (246 input nodes in training, 128-row inference
    # chunks) every weekly block splits and no soil block does. The rule
    # reads the block's shape alone, so one CPU splits as two do.
    split = {}
    for cpus in (2, 1):
        monkeypatch.setattr(layers, "_cpus", lambda: cpus)
        split[cpus] = {(batch, ch_in, ch_out, pool is None):
                       layers._split_point(batch, length - k + 1, ch_in, k, ch_out)
                       for batch, ch_in, length, ch_out, k, pool in _conv_shapes()}
    assert split[1] == split[2]
    split = split[2]
    weekly = ArchWidths().weekly_channels
    pairs = list(zip((N_WEATHER + N_LAND,) + weekly, weekly))
    assert [split[(246, i, o, False)] for i, o in pairs] == [123] * 4
    assert [split[(128, i, o, False)] for i, o in pairs] == [64] * 4
    assert [at for (batch, *_, soil), at in split.items() if soil] == [None] * 3
    assert layers._split_point(246, 2, weekly[2], 3, weekly[3]) == 123
    assert layers._split_point(1, 46, 23, 7, 10**6) is None  # one batch item: no halves


def _train_and_predict(steps=2, seed=5):
    """Parameters and test-year predictions, as bytes, of a gnn-rnn-5y at
    default widths after a few Adam steps on a 12x12 synthetic grid."""
    ds = data.generate_synthetic(144, 7, 12, seed=seed)
    split = data.YearSplit(test_year=ds.years[-1])
    nds, _ = data.normalize(ds, split)
    spec = models.default_spec("gnn-rnn-5y", batch_size=16, seed=seed)
    samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop,
                                        spec.history_years)
    init_rng, sample_rng = (np.random.default_rng(s) for s in (seed, seed + 1))
    model = models.build_model(spec, init_rng)
    params = model.parameters()
    adam = optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    years = sorted({y for _, y in samples})[:steps]
    for batch in ([s for s in samples if s[1] == y][:16] for y in years):
        preds = model.forward_samples(nds, batch, training=True, rng=sample_rng)
        targets = [nds.norm_stats.standardize_target(spec.crop, nds.yields.get(c, y, spec.crop))
                   for c, y in batch]
        loss = optim.logcosh_loss(preds, np.array(targets))
        for p in params.values():
            p.zero_grad()
        loss.backward()
        optim.adam_step(params, adam)
    counties = nds.labeled_counties(split.test_year, spec.crop)
    preds = model.forward_samples(nds, [(c, split.test_year) for c in counties])
    return {name: p.data.tobytes() for name, p in params.items()}, preds.data.tobytes()


def test_split_training_and_prediction_match_one_thread(monkeypatch, splits):
    # At the default thresholds some blocks split; once one has, the others
    # hand their dw and db to the worker too.
    split = _train_and_predict()
    assert splits
    _one_thread(monkeypatch)
    calls = len(splits)
    assert _train_and_predict() == split
    assert len(splits) == calls


def _avx2_openblas():
    """Whether numpy's BLAS is OpenBLAS and this CPU runs its AVX2 kernels."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = set(f.read().split())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (OSError, TypeError, KeyError):
        return False
    return {"avx2", "fma"} <= flags and "openblas" in blas.lower()


@pytest.mark.skipif(not _avx2_openblas(), reason="needs numpy on OpenBLAS and an AVX2/FMA CPU")
def test_the_split_holds_on_the_avx2_kernels():
    # On OpenBLAS's AVX2 (Haswell) kernels a half's GEMM can differ from the
    # same rows of the whole GEMM, so the split cases must also hold there,
    # not only on the kernels this host picks. OpenBLAS reads its core type
    # when it loads, hence a new process.
    tests = [f"tests/test_conv_split.py::{name}" for name in (
        "test_split_block_matches_one_thread_bit_for_bit",
        "test_split_training_and_prediction_match_one_thread")]
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"))
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert f"{len(_conv_shapes()) + 1} passed" in run.stdout


def test_worker_runs_in_the_callers_numpy_error_state(monkeypatch, splits):
    _force_split(monkeypatch)
    # Only the second half's rows overflow in the GEMM, on the conv worker,
    # which also checks them.
    x = np.ones((4, 3, 2))
    x[2:] = 1e308
    w = Tensor(np.full((1, 2, 1), 10.0))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="conv pre-activations"):
            layers.conv1d(Tensor(x), w, Tensor(np.zeros(1)))
    assert splits


def test_a_failure_waits_for_the_other_half():
    done = []

    def there():
        time.sleep(0.2)
        done.append("there")

    def here():
        raise ValueError("here")

    with pytest.raises(ValueError, match="here"):
        layers._in_parallel(here, there)
    assert done == ["there"]

    def failing():
        raise KeyError("there")

    with pytest.raises(KeyError, match="there"):
        layers._in_parallel(lambda: done.append("here"), failing)
    assert done == ["there", "here"]


_SHAPE = (64, 48, 20, 32, 3, 2)  # 1152 output rows, 5.3M multiply-adds: split by default

_FRESH = f"""
import hashlib, sys
sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {ROOT!r}]
from tests import test_conv_split as t
print(hashlib.sha256(b"".join(t._run(*t._block(t._SHAPE)))).hexdigest())
"""


def _matches_a_fresh_process():
    """Whether _SHAPE's block gives here the bytes it gives in a new process."""
    here = hashlib.sha256(b"".join(_run(*_block(_SHAPE)))).hexdigest()
    fresh = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True,
                           check=True, cwd=ROOT)
    return here == fresh.stdout.strip()


def test_the_call_after_a_failed_split_gives_fresh_process_bytes(splits):
    # The caller's half overflows and raises at once, while the worker's
    # half is still running.
    x, w, b, g, pool = _block(_SHAPE)
    big = x.copy()
    big[:32] = 1e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        layers.conv1d(Tensor(big), Tensor(w * 1e3), Tensor(b), pool)
    assert splits
    assert _matches_a_fresh_process()


def _shared_stack_loss(batches, seed=3):
    """One default-width weekly encoder applied to one input per batch size
    (every other input tracked), its outputs summed; and every leaf."""
    rng = np.random.default_rng(seed)
    widths = ArchWidths()
    encoder = layers.WeeklyEncoder(rng, N_WEATHER + N_LAND, WEEKS, widths.weekly_channels,
                                   widths.weekly_out)
    xs = [Tensor(rng.normal(size=(b, N_WEATHER + N_LAND, WEEKS)), requires_grad=i % 2 == 1)
          for i, b in enumerate(batches)]
    loss = encoder(xs[0]).sum()
    for x in xs[1:]:
        loss = loss + encoder(x).sum()
    return loss, list(encoder.parameters("weekly").values()) + xs[1::2]


def test_shared_parameters_get_the_eager_sweeps_bytes(splits):
    # Each conv weight gets five contributions, four of them pending while
    # the sweep walks on; added after the sweep, in sweep order, they sum
    # as a sweep that adds each one at once does.
    batches = (128, 136, 150, 170, 246)
    loss, leaves = _shared_stack_loss(batches)
    loss.backward()
    assert len(splits) == len(batches) * 4 * 2  # every block splits and posts its dw
    got = [leaf.grad.tobytes() for leaf in leaves]
    loss, leaves = _shared_stack_loss(batches)
    reference_backward(loss)
    assert [leaf.grad.tobytes() for leaf in leaves] == got


def test_a_non_finite_pending_weight_gradient_fails_backward(splits):
    # z = 144 * (1e306 * 1e-306) is finite, but dw sums 1152 rows of
    # 0.5 * 1e306 and overflows, on the conv worker, after the sweep.
    batch, ch_in, length, ch_out, k, pool = _SHAPE
    x = Tensor(np.full((batch, length, ch_in), 1e306))
    w = Tensor(np.full((ch_out, ch_in, k), 1e-306), requires_grad=True)
    b = Tensor(np.zeros(ch_out), requires_grad=True)
    with np.errstate(over="ignore"):
        loss = layers.conv1d(x, w, b, pool).sum()
        with pytest.raises(NonFiniteError, match="gradient during backward"):
            loss.backward()
    assert splits
    assert w.grad is None and b.grad is None


def _slowed_posts(monkeypatch):
    """Every job posted from here on sleeps 0.2 s first; the list of the
    jobs that have finished."""
    finished, post = [], layers._post

    def slow_post(job):
        def slow():
            time.sleep(0.2)
            job()
            finished.append(job)

        return post(slow)

    monkeypatch.setattr(layers, "_post", slow_post)
    return finished


def test_a_failed_sweep_waits_for_the_posted_weight_gradient(monkeypatch, splits):
    # The op under the conv hands its input a NaN gradient, which fails the
    # sweep while the block's dw and db are still being formed.
    x, w, b, _, pool = _block(_SHAPE)
    leaf = Tensor(x, requires_grad=True)
    mid = leaf * 1.0
    poisoned = apply_op(mid.data.copy(), (mid,), lambda g: (np.full_like(g, np.nan),))
    tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    loss = layers.conv1d(poisoned, tw, tb, pool).sum()
    with monkeypatch.context() as patch:
        finished = _slowed_posts(patch)
        with pytest.raises(NonFiniteError, match="gradient during backward"):
            loss.backward()
    assert len(finished) == 1  # dw and db
    assert tw.grad is None and tb.grad is None and leaf.grad is None
    assert _matches_a_fresh_process()


def test_a_failed_input_gradient_waits_for_the_posted_weight_gradient(monkeypatch, splits):
    # z = 144 * (1e-306 * 1.5e307) is finite, but dx sums 32 channels of
    # 0.5 * 1.5e307 and overflows, on the caller, while dw and db are formed.
    batch, ch_in, length, ch_out, k, pool = _SHAPE
    x = Tensor(np.full((batch, length, ch_in), 1e-306), requires_grad=True)
    w = Tensor(np.full((ch_out, ch_in, k), 1.5e307), requires_grad=True)
    loss = layers.conv1d(x, w, Tensor(np.zeros(ch_out)), pool).sum()
    with monkeypatch.context() as patch:
        finished = _slowed_posts(patch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            loss.backward()
    assert len(finished) == 1
    assert w.grad is None and x.grad is None
    assert _matches_a_fresh_process()


_NO_WORKER = f"""
import sys
sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {ROOT!r}]
import numpy as np
from yieldgraph import data, evaluation, layers, models, optim
from perfbench.workloads import FULL
layers._cpus = lambda: 2

def prepared(side, years):
    ds = data.generate_synthetic(side * side, years, side, seed=3)
    split = data.YearSplit(test_year=ds.years[-1])
    nds, stats = data.normalize(ds, split)
    return ds, split, nds, stats

def targets(nds, spec, samples):
    return np.array([nds.norm_stats.standardize_target(spec.crop, nds.yields.get(c, y, spec.crop))
                     for c, y in samples])

ds, split, nds, stats = prepared(FULL.grid_side, FULL.n_years)
spec = models.default_spec("lstm-1y", batch_size=64, seed=3)
samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop, 0)
model = models.build_model(spec, np.random.default_rng(3))
params = model.parameters()
batch = samples[:64]
loss = optim.logcosh_loss(model.forward_samples(nds, batch, training=True,
                                                rng=np.random.default_rng(4)),
                          targets(nds, spec, batch))
loss.backward()
optim.adam_step(params, optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay))
counties = nds.labeled_counties(split.test_year, spec.crop)
model.forward_samples(nds, [(c, split.test_year) for c in counties])
params = {{name: p.data.copy() for name, p in params.items()}}
ckpt = models.ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=[],
                              best_epoch=0, test_year=split.test_year)
evaluation.evaluate(ckpt, ds, split, early=True)

ds, split, nds, stats = prepared(FULL.ingest_side, FULL.ingest_years)
samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop, 0)
X = models.flatten_blocks(*models.gather_year_blocks(nds, samples, spec.crop))
for kind in ("ridge-1y", "lasso-1y"):
    lspec = models.default_spec(kind, crop=spec.crop, seed=3)
    if kind == "ridge-1y":
        linear = models.fit_ridge(X, targets(nds, lspec, samples), lspec.ridge_lambda)
    else:
        linear = models.fit_lasso(X, targets(nds, lspec, samples), lspec.lasso_lambda,
                                  max_iter=FULL.lasso_sweeps)
    params = {{"linear.coef": linear.coef, "linear.intercept": np.array([linear.intercept])}}
    ckpt = models.ModelCheckpoint(spec=lspec, params=params, norm_stats=stats, history=[],
                                  best_epoch=0, test_year=split.test_year,
                                  lasso_converged=linear.converged)
    ckpt.predict_year(nds, nds.labeled_counties(split.test_year, spec.crop), split.test_year)
    if kind == "ridge-1y":
        evaluation.evaluate(ckpt, ds, split, early=True)
print(layers._worker is None)
"""


def test_the_one_year_lstm_and_the_linear_fits_start_no_worker():
    # weekly-rnn-1y and ingest-linear run no block big enough to split and
    # never call layers.in_lanes, so a process that runs only them, their
    # early-season evaluations included, never starts the conv worker, on
    # two CPUs or more.
    run = subprocess.run([sys.executable, "-c", _NO_WORKER], capture_output=True, text=True,
                         check=True, cwd=ROOT)
    assert run.stdout.split() == ["True"]


def test_concurrent_callers_share_the_one_worker(splits):
    # Each call waits on its own reply, so a caller never takes another's.
    want = _run(*_block(_SHAPE))
    same, errors = [], []

    def caller():
        try:
            for _ in range(5):
                same.append(_run(*_block(_SHAPE)) == want)
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
    assert errors == [] and same == [True] * 20


def test_one_cpu_starts_no_worker(monkeypatch):
    monkeypatch.setattr(layers, "_worker", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _run(*_block(_SHAPE))
    assert layers._worker is None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _run(*_block(_SHAPE))
    assert layers._worker is None
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _run(*_block(_SHAPE))
    assert layers._worker is not None


def test_a_forked_child_starts_its_own_worker(splits):
    want = _run(*_block(_SHAPE))
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:  # the child: without a new worker its first split would hang
        signal.alarm(30)
        try:
            os.write(write_end, hashlib.sha256(b"".join(_run(*_block(_SHAPE)))).digest())
        finally:
            os._exit(0)
    os.close(write_end)
    got = os.read(read_end, 64)
    os.close(read_end)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert got == hashlib.sha256(b"".join(want)).digest()
