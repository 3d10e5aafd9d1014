"""The tape holds no im2col.

``layers.conv1d`` forms a block's im2col ``cols`` by one gather
(``layers._im2col``). ``cols`` is a transient of the forward pass, in
every process: the job that forms the block's weight gradient, on the
conv worker or on the caller, rebuilds it from the block's input. These
tests check that the gather builds the window view's bytes, that a
forward pass leaves no ``cols`` alive, with the worker running or not,
and that a failed rebuild fails ``backward`` as a failed dw does. The
bits of the split and deferred paths are ``tests/test_conv_split.py``'s.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from yieldgraph import layers
from yieldgraph.autodiff import Tensor
from yieldgraph.data import N_LAND, N_WEATHER, WEEKS
from yieldgraph.models import ArchWidths
from tests.test_conv_split import (  # noqa: F401 (splits is a fixture)
    _SHAPE,
    _block,
    _conv_shapes,
    _matches_a_fresh_process,
    _one_thread,
    splits,
)


def _window_cols(x, k):
    batch, length, ch_in = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    return windows.reshape(batch * (length - k + 1), ch_in * k)


@pytest.mark.parametrize("shape", _conv_shapes(), ids=lambda s: "x".join(map(str, s[:5])))
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_the_gather_builds_the_window_views_bytes(shape, layout):
    # The transposed layout is the first block's input: a [B, C, L] array
    # seen as [B, L, C]. Each half is what a split block's thread gathers.
    batch, ch_in, length, _, k, _ = shape
    rng = np.random.default_rng(1)
    if layout == "contiguous":
        x = rng.normal(size=(batch, length, ch_in))
    else:
        x = rng.normal(size=(batch, ch_in, length)).transpose(0, 2, 1)
    half = batch // 2
    for part in (x, x[:half], x[half:]):
        cols = layers._im2col(part, k)
        assert cols.flags.c_contiguous
        assert cols.shape == (len(part) * (length - k + 1), ch_in * k)
        assert cols.tobytes() == _window_cols(part, k).tobytes()


def test_the_gather_copies_an_input_of_another_layout():
    x = np.random.default_rng(2).normal(size=(5, 9, 4))[:, ::2]
    assert layers._im2col(x, 3).tobytes() == _window_cols(x, 3).tobytes()


def _weekly_forward_live_bytes(batch=246):
    """Bytes tracemalloc sees alive after a default-width weekly encoder's
    forward pass at ``batch`` nodes (input made beforehand), and the size of
    its first block's im2col."""
    rng = np.random.default_rng(4)
    widths = ArchWidths()
    encoder = layers.WeeklyEncoder(rng, N_WEATHER + N_LAND, WEEKS, widths.weekly_channels,
                                   widths.weekly_out)
    x = Tensor(rng.normal(size=(batch, N_WEATHER + N_LAND, WEEKS)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = encoder(x)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    k = layers.WEEKLY_KERNELS[0]
    return live, batch * (WEEKS - k + 1) * (N_WEATHER + N_LAND) * k * 8


@pytest.mark.parametrize("blocks", ["split", "unsplit"])
def test_a_running_worker_leaves_no_im2col_on_the_tape(monkeypatch, splits, blocks):
    # At 246 nodes every weekly block splits; with the split rule out of
    # reach, none does, and each hands its dw to a worker already running.
    if blocks == "unsplit":
        layers._in_parallel(lambda: None, lambda: None)  # start the worker
        monkeypatch.setattr(layers, "SPLIT_WORK", 10**12)
    live, first_cols = _weekly_forward_live_bytes()
    assert splits
    assert live < first_cols
    _one_thread(monkeypatch)
    held, _ = _weekly_forward_live_bytes()
    assert held < first_cols  # no worker: no block keeps its cols either


def _count_gathers(monkeypatch):
    calls, gather = [], layers._im2col

    def counted(x, k):
        calls.append(threading.current_thread().name)
        return gather(x, k)

    monkeypatch.setattr(layers, "_im2col", counted)
    return calls


def test_the_weight_gradient_job_gathers_cols_again(monkeypatch, splits):
    x, w, b, g, pool = _block(_SHAPE)
    tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    calls = _count_gathers(monkeypatch)
    layers.conv1d(Tensor(x), tw, tb, pool).sum().backward()
    assert sorted(calls) == ["MainThread", "yieldgraph-conv", "yieldgraph-conv"]
    del calls[:]
    _one_thread(monkeypatch)
    layers.conv1d(Tensor(x), tw, tb, pool).sum().backward()
    assert calls == ["MainThread"] * 3  # the forward pass's two halves, then dw


def test_a_failed_rebuild_fails_backward_as_a_failed_dw_does(monkeypatch, splits):
    x, w, b, g, pool = _block(_SHAPE)
    tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    loss = layers.conv1d(Tensor(x), tw, tb, pool).sum()
    assert splits
    gather = layers._im2col

    def failing(x, k):
        if threading.current_thread().name == "yieldgraph-conv":
            raise MemoryError("no room to rebuild cols")
        return gather(x, k)

    monkeypatch.setattr(layers, "_im2col", failing)
    with pytest.raises(MemoryError, match="rebuild cols"):
        loss.backward()
    assert tw.grad is None and tb.grad is None
    monkeypatch.setattr(layers, "_im2col", gather)
    assert _matches_a_fresh_process()
