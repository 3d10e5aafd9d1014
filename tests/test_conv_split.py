"""A large conv block split over two threads gives the bits of one thread.

``layers.conv1d`` runs a block of at least ``SPLIT_ROWS`` output rows on
the calling thread and one conv worker. These tests claim two CPUs,
force the split where a block is smaller (threshold 1) and compare it
with the one-thread path (the threshold out of reach), byte for byte. The split relies on this BLAS
giving a row-split GEMM the bits of the whole one; if that ever stops
holding, these tests must fail, not be loosened.
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
from yieldgraph.autodiff import NonFiniteError, Tensor
from yieldgraph.data import N_LAND, N_SOIL, N_WEATHER, WEEKS, DEPTHS
from yieldgraph.models import ArchWidths

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NEVER = 1 << 62


@pytest.fixture
def splits(monkeypatch):
    """Two CPUs whatever the host has; counts the blocks' two-thread phases."""
    calls = []
    in_parallel = layers._in_parallel

    def counted(here, there):
        calls.append(1)
        in_parallel(here, there)

    monkeypatch.setattr(layers, "_cpus", lambda: 2)
    monkeypatch.setattr(layers, "_in_parallel", counted)
    return calls


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
    """out, dx, dw and db of one block, as bytes."""
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = layers.conv1d(tx, tw, tb, pool)
    return [a.tobytes() for a in (out.data, *out.node.vjp(g))]


@pytest.mark.parametrize("shape", _conv_shapes(), ids=lambda s: "x".join(map(str, s[:5])))
def test_split_block_matches_one_thread_bit_for_bit(monkeypatch, splits, shape):
    monkeypatch.setattr(layers, "SPLIT_ROWS", 1)
    block = _block(shape)
    split = _run(*block)
    assert len(splits) == 4  # affine, activate, spread, then dx beside dw and db
    monkeypatch.setattr(layers, "SPLIT_ROWS", NEVER)
    assert _run(*block) == split
    assert len(splits) == 4


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
    split = _train_and_predict()  # at the default SPLIT_ROWS
    assert splits
    monkeypatch.setattr(layers, "SPLIT_ROWS", NEVER)
    calls = len(splits)
    assert _train_and_predict() == split
    assert len(splits) == calls


def test_worker_runs_in_the_callers_numpy_error_state(monkeypatch, splits):
    monkeypatch.setattr(layers, "SPLIT_ROWS", 1)
    # Only the second half's rows overflow in the GEMM, on the conv worker.
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


_SHAPE = (64, 8, 20, 6, 3, 2)  # 1152 output rows: split at the default SPLIT_ROWS

_FRESH = f"""
import hashlib, sys
sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {ROOT!r}]
from tests import test_conv_split as t
print(hashlib.sha256(b"".join(t._run(*t._block(t._SHAPE)))).hexdigest())
"""


def test_the_call_after_a_failed_split_gives_fresh_process_bytes(splits):
    # The caller's half overflows and raises at once, while the worker's
    # half is still running.
    x, w, b, g, pool = _block(_SHAPE)
    big = x.copy()
    big[:32] = 1e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        layers.conv1d(Tensor(big), Tensor(w * 1e3), Tensor(b), pool)
    assert splits
    after = hashlib.sha256(b"".join(_run(x, w, b, g, pool))).hexdigest()
    fresh = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True,
                           check=True, cwd=ROOT)
    assert after == fresh.stdout.strip()


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
