"""Neural building blocks: 1-D conv encoders, recurrent cells, dense layers.

Two encoders digest one county-year of raw features into a fixed-width
embedding: a four-block conv/relu/avg-pool stack over the week axis of
the stacked weekly block (weather channels over land-surface channels),
and a three-conv stack (no pooling) over the soil depth levels. The
embedding is their concatenation plus the scalar extras passed through
verbatim. The feature sizes and widths come from the caller (the dataset
schema lives in ``yieldgraph.data``, the widths in ``models.ArchWidths``).

Both encoders are one conv-stack body that differs only in its pooling.
It takes [B, C, L] input, transposes it once and carries [B, L, C]
(channels-last) through its blocks, so im2col is a window view reshaped
to [B*L', C*K]. Each block (conv, bias, relu and, in the weekly encoder,
avg-pool) is one autodiff op, ``conv1d``, with a hand-written vjp. The
output is transposed back once before the projection, which therefore
sees the [C, L] flatten order its weights were laid out for.

A large block runs on two threads: the caller and one conv worker,
started by the first block of at least SPLIT_ROWS output rows (batch *
out_len) in a process allowed two or more CPUs. numpy releases the GIL
inside its GEMMs and large array passes, so both threads make progress.
The worker runs numpy calls only, on rows of arrays the caller hands it,
and the caller waits for it inside the op; the tape, ``no_grad()`` and
the finiteness checks stay on the calling thread. ``_conv1d_split`` says
which passes split and why no bit changes.

The recurrent cell carries its state as one tensor: [B, 2 * hidden] laid
out h|c for the LSTM, [B, hidden] h for the GRU. One time step is one
autodiff op from state to state, so a sequence of T steps records T tape
nodes, plus one ``narrow`` that takes the LSTM's h out of its last state.

All parameters initialize uniform(-a, a), a = sqrt(1/fan_in), from the
caller's seeded generator.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import queue
import threading

import numpy as np

from yieldgraph import autodiff
from yieldgraph.autodiff import (
    ShapeError,
    Tensor,
    add_rowvec,
    apply_op,
    concat,
    matmul,
    narrow,
)


# The weekly encoder's four conv widths, each conv followed by an average
# pool over pairs of weeks; every soil conv spans two adjacent depth levels.
WEEKLY_KERNELS = (7, 3, 3, 3)
POOL_WINDOW = 2
SOIL_KERNEL = 2

# A conv block with at least this many output rows (batch * out_len) runs
# on two threads (see conv1d); below it, handing half to the worker costs
# more than the second core gives back.
SPLIT_ROWS = 1024

_worker = None  # the conv worker's job queue, made when the first split block starts it


def uniform_param(rng, shape, fan_in):
    a = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split_point(batch, out_len):
    """Where a block's batch splits over two threads, or None when the block
    runs on the calling thread alone: it has fewer than SPLIT_ROWS output
    rows, a single batch item, or one CPU to run on."""
    if batch < 2 or batch * out_len < SPLIT_ROWS or _cpus() < 2:
        return None
    return batch // 2


def _serve(jobs):
    """The conv worker's loop: run each job, then put its failure (or None)
    on the job's own reply queue."""
    while True:
        job, reply = jobs.get()
        try:
            job()
        except BaseException as err:
            reply.put(err)
        else:
            reply.put(None)


def _in_parallel(here, there):
    """Run ``there`` on the conv worker while ``here`` runs on the calling
    thread, and return once both have finished. A failure propagates only
    then, so the worker is idle again: the caller's first, else the
    worker's. ``there`` runs in a copy of the caller's context, which holds
    numpy's error state (a contextvar since numpy 2)."""
    global _worker
    if _worker is None:
        _worker = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_worker,), name="yieldgraph-conv",
                         daemon=True).start()
    reply = queue.SimpleQueue()
    _worker.put((functools.partial(contextvars.copy_context().run, there), reply))
    try:
        here()
    finally:
        err = reply.get()
    if err is not None:
        raise err


def _forget_worker():
    global _worker
    _worker = None  # a forked child has no worker thread; start a new one


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _halves(job, batch, split):
    """job(b0, b1) over batch items [0, split) here and [split, batch) on
    the conv worker."""
    _in_parallel(lambda: job(0, split), lambda: job(split, batch))


def conv1d(x, weight, bias, pool=None):
    """One conv block as one op: valid (no padding) cross-correlation, bias
    and relu, then, when ``pool`` is set, non-overlapping average pooling
    over ``pool`` positions (the trailing remainder is dropped).

    x: [batch, length, ch_in] (channels-last); weight: [ch_out, ch_in, k];
    bias: [ch_out] -> [batch, length - k + 1, ch_out], or
    [batch, (length - k + 1) // pool, ch_out] when pooled.

    The relu would turn a NaN or -inf pre-activation into 0, so the
    pre-activations are checked for NaN/Inf before it. The vjp forms the
    input, weight and bias gradients only for the operands that are
    tracked; the first block's input is raw data.

    A block of at least SPLIT_ROWS output rows (batch * out_len), with two
    or more batch items and two or more CPUs, runs on two threads, in
    ``_conv1d_split``, with the same bits.
    """
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d needs [B,L,C] and [O,C,K], got {x.shape}, {weight.shape}")
    batch, length, ch_in = x.data.shape
    ch_out, w_in, k = weight.data.shape
    if w_in != ch_in:
        raise ShapeError(f"conv1d channels differ: input {ch_in}, kernel {w_in}")
    if length < k:
        raise ShapeError(f"conv1d input length {length} shorter than kernel {k}")
    out_len = length - k + 1
    if pool is not None and out_len < pool:
        raise ShapeError(f"conv1d output length {out_len} shorter than pool window {pool}")
    split = _split_point(batch, out_len)
    if split is not None:
        return _conv1d_split(x, weight, bias, pool, split)

    # im2col: the [B, L', C, K] window view flattens to [B*L', C*K] rows
    # whose columns follow the weight's (C, K) layout.
    cols = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)
    cols = cols.reshape(batch * out_len, ch_in * k)
    wmat = weight.data.reshape(ch_out, ch_in * k)
    z = cols @ wmat.T
    z += bias.data
    autodiff._check_finite(z, "conv pre-activations")
    mask = z > 0  # gradient at exactly 0 is 0
    np.maximum(z, 0.0, out=z)
    z += 0.0  # -0.0 becomes +0.0, as np.where(mask, z, 0.0) gives
    out = z.reshape(batch, out_len, ch_out)
    if pool is not None:
        keep = out_len // pool * pool
        pooled = out[:, 0:keep:pool].copy()
        for j in range(1, pool):
            pooled += out[:, j:keep:pool]
        pooled /= pool
        out = pooled

    def vjp(g):
        if pool is None:
            gmat = g.reshape(batch * out_len, ch_out) * mask
        else:
            gmat = np.zeros((batch * out_len, ch_out))
            spread, g_pool = gmat.reshape(batch, out_len, ch_out), g / pool
            for j in range(pool):
                spread[:, j:keep:pool] = g_pool
            gmat *= mask
        dx = dw = db = None
        if x.requires_grad:
            dcols = (gmat @ wmat).reshape(batch, out_len, ch_in, k)
            dx = np.zeros((batch, length, ch_in))
            for j in range(k):
                dx[:, j : j + out_len] += dcols[:, :, :, j]
        if weight.requires_grad:
            dw = (gmat.T @ cols).reshape(ch_out, ch_in, k)
        if bias.requires_grad:
            db = gmat.sum(axis=0)
        return dx, dw, db

    return apply_op(out, (x, weight, bias), vjp)


def _conv1d_split(x, weight, bias, pool, split):
    """``conv1d`` of a large block on two threads: the caller and the conv
    worker. Each takes half the batch, at ``split``, for im2col, the GEMM
    into its rows of ``z`` and the bias; then, once the caller has checked
    all of ``z``, for the relu, its mask and the pool; in the vjp, for the
    gradient's spread and mask (``gmat``). Then the caller forms dx (the
    ``gmat @ wmat`` GEMM and the col2im scatter) while the worker forms dw
    and db. Every value comes from ``conv1d``'s elementwise passes and a
    row-split of its forward GEMM, and dx, dw and db from its very calls,
    so the split changes no bit.

    A row-split GEMM keeps the bits only while each half takes the kernel
    path of the whole: on OpenBLAS's AVX-512 kernels a product of under
    about 1200 output elements takes a small-matrix kernel, and scans of
    the forward GEMM at every default-width shape found no changed bit in
    parts of 128 rows or more (a half here has at least a third of
    SPLIT_ROWS). A row split of the dx GEMM did change bits, and one of dw
    would sum in another order, so neither is split.
    ``tests/test_conv_split.py`` checks every default-width block.
    """
    batch, length, ch_in = x.data.shape
    ch_out, _, k = weight.data.shape
    out_len = length - k + 1
    rows = batch * out_len
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=1)
    wmat = weight.data.reshape(ch_out, ch_in * k)
    cols, z = np.empty((rows, ch_in * k)), np.empty((rows, ch_out))
    mask = np.empty((rows, ch_out), dtype=bool)
    out = z.reshape(batch, out_len, ch_out)
    if pool is not None:
        keep = out_len // pool * pool
        pooled = np.empty((batch, keep // pool, ch_out))

    def affine(b0, b1):
        r0, r1 = b0 * out_len, b1 * out_len
        cols[r0:r1].reshape(b1 - b0, out_len, ch_in, k)[...] = windows[b0:b1]
        np.matmul(cols[r0:r1], wmat.T, out=z[r0:r1])
        z[r0:r1] += bias.data

    def activate(b0, b1):
        r0, r1 = b0 * out_len, b1 * out_len
        zb = z[r0:r1]
        np.greater(zb, 0, out=mask[r0:r1])
        np.maximum(zb, 0.0, out=zb)
        zb += 0.0
        if pool is not None:
            pb = pooled[b0:b1]
            pb[...] = out[b0:b1, 0:keep:pool]
            for j in range(1, pool):
                pb += out[b0:b1, j:keep:pool]
            pb /= pool

    _halves(affine, batch, split)
    autodiff._check_finite(z, "conv pre-activations")
    _halves(activate, batch, split)

    def vjp(g):
        gmat = np.empty((rows, ch_out))
        dx = dw = db = None

        def spread(b0, b1):
            r0, r1 = b0 * out_len, b1 * out_len
            gb = gmat[r0:r1]
            if pool is None:
                np.multiply(g[b0:b1].reshape(r1 - r0, ch_out), mask[r0:r1], out=gb)
            else:
                gb[...] = 0.0
                spread_b, g_pool = gb.reshape(b1 - b0, out_len, ch_out), g[b0:b1] / pool
                for j in range(pool):
                    spread_b[:, j:keep:pool] = g_pool
                gb *= mask[r0:r1]

        def input_grad():
            nonlocal dx
            dcols = (gmat @ wmat).reshape(batch, out_len, ch_in, k)
            dx = np.zeros((batch, length, ch_in))
            for j in range(k):
                dx[:, j : j + out_len] += dcols[:, :, :, j]

        def param_grads():
            nonlocal dw, db
            if weight.requires_grad:
                dw = (gmat.T @ cols).reshape(ch_out, ch_in, k)
            if bias.requires_grad:
                db = gmat.sum(axis=0)

        _halves(spread, batch, split)
        if x.requires_grad:
            _in_parallel(input_grad, param_grads)
        else:
            param_grads()
        return dx, dw, db

    return apply_op(out if pool is None else pooled, (x, weight, bias), vjp)


class Dense:
    """Affine map x @ W.T + b with W: [out, in]."""

    def __init__(self, in_dim, out_dim, rng):
        self.weight = uniform_param(rng, (out_dim, in_dim), in_dim)
        self.bias = uniform_param(rng, (out_dim,), in_dim)

    def __call__(self, x):
        return add_rowvec(matmul(x, self.weight.transpose()), self.bias)

    def parameters(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class _ConvBlock:
    """Weight and bias of one conv block; ``conv1d`` runs the block."""

    def __init__(self, in_ch, out_ch, kernel, rng):
        fan_in = in_ch * kernel
        self.weight = uniform_param(rng, (out_ch, in_ch, kernel), fan_in)
        self.bias = uniform_param(rng, (out_ch,), fan_in)

    def parameters(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class _ConvStack:
    """Conv blocks over the length axis of [B, in_channels, length] input,
    flattened into a linear projection to ``out_dim``. Each block is one
    ``conv1d`` with this stack's ``pool`` (None: no pooling). Parameters
    draw from ``rng`` block by block, then the projection."""

    def __init__(self, rng, in_channels, length, channels, kernels, out_dim, pool):
        self.in_channels = in_channels
        self.length = length
        self.out_dim = out_dim
        self.pool = pool
        self.blocks = []
        prev = in_channels
        for ch, k in zip(channels, kernels):
            self.blocks.append(_ConvBlock(prev, ch, k, rng))
            length = (length - k + 1) // (pool or 1)
            if length < 1:
                raise ValueError(f"{type(self).__name__}: input length "
                                 f"{self.length} exhausted by kernels {tuple(kernels)}")
            prev = ch
        self.flat_dim = prev * length
        self.project = Dense(self.flat_dim, out_dim, rng)

    def _forward(self, x):
        """x: [B, in_channels, length] -> [B, out_dim]"""
        if x.data.ndim != 3 or x.data.shape[1:] != (self.in_channels, self.length):
            raise ShapeError(f"{type(self).__name__} expects "
                             f"[B,{self.in_channels},{self.length}], got {x.shape}")
        x = x.transpose((0, 2, 1))
        for block in self.blocks:
            x = conv1d(x, block.weight, block.bias, self.pool)
        return self.project(x.transpose((0, 2, 1)).reshape((x.data.shape[0], self.flat_dim)))

    def parameters(self, prefix):
        params = {}
        for i, block in enumerate(self.blocks):
            params.update(block.parameters(f"{prefix}.conv{i}"))
        params.update(self.project.parameters(f"{prefix}.project"))
        return params


class WeeklyEncoder(_ConvStack):
    """Four conv/relu/avg-pool blocks, of kernel widths WEEKLY_KERNELS, over
    the week axis of the stacked weather and land-surface series."""

    def __init__(self, rng, in_channels, weeks, channels, out_dim):
        if len(channels) != 4:
            raise ValueError("weekly encoder is fixed at four pooled conv blocks")
        super().__init__(rng, in_channels, weeks, channels, WEEKLY_KERNELS, out_dim, POOL_WINDOW)

    def __call__(self, x):
        return self._forward(x)


class SoilEncoder(_ConvStack):
    """Three conv/relu blocks (no pooling) across the soil depth axis."""

    def __init__(self, rng, in_channels, depths, channels, out_dim):
        if len(channels) != 3:
            raise ValueError("soil encoder is fixed at three conv blocks")
        super().__init__(rng, in_channels, depths, channels, (SOIL_KERNEL,) * 3, out_dim, None)

    def __call__(self, x):
        return self._forward(x)


class YearEmbedder:
    """One county-year -> fixed-width embedding: (weekly encoding, soil
    encoding, extras verbatim)."""

    def __init__(self, weekly: WeeklyEncoder, soil: SoilEncoder, n_extras):
        self.weekly = weekly
        self.soil = soil
        self.n_extras = n_extras
        self.out_dim = weekly.out_dim + soil.out_dim + n_extras

    def embed(self, weekly, soil, extras):
        """weekly [B, C, weeks] (weather over land), soil [B, C_s, depths],
        extras [B, n_extras] -> [B, out_dim]"""
        if extras.data.ndim != 2 or extras.data.shape[1] != self.n_extras:
            raise ShapeError(f"expected [B,{self.n_extras}] extras, got {extras.shape}")
        return concat([self.weekly(weekly), self.soil(soil), extras], axis=1)

    def parameters(self, prefix):
        params = self.weekly.parameters(f"{prefix}.weekly")
        params.update(self.soil.parameters(f"{prefix}.soil"))
        return params


class RecurrentCell:
    """Standard LSTM or GRU cell over [batch, hidden_size] hidden states.

    The state is one tensor: h|c, [B, 2 * hidden_size] with h in the first
    half and c in the second, for the LSTM, and h, [B, hidden_size], for
    the GRU. ``hidden(state)`` gives h.
    One time step is one autodiff op with a hand-written vjp (``_lstm_step``
    / ``_gru_step``) from state to state, so a step records one tape node
    instead of one per matmul, slice, gate and product; the LSTM's h is
    narrowed out of h|c once, after the last step. The forward keeps the op
    order of the composed cell (``zx = x @ w_x.T + b_x``, ``zh = h @ w_h.T
    + b_h``, then the gates), so its values are bit-identical to it. sigmoid
    and tanh saturate an overflowed pre-activation into a finite gate, so
    the op checks the pre-activations (``z`` for the LSTM, ``zx`` and ``zh``
    for the GRU) for NaN/Inf itself.

    Both biases b_x and b_h draw from U(-a, a), a = sqrt(1/hidden_size).
    For the LSTM, only the forget slice of b_x is then set to 1.0; the
    forget slice of b_h keeps its draw, so the forget-gate bias starts at
    1 + U(-a, a), not at 1.0.
    """

    def __init__(self, kind, input_size, hidden_size, rng):
        if kind not in ("lstm", "gru"):
            raise ValueError(f"unknown recurrent kind {kind!r}")
        self.kind = kind
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        gates = 4 * h if kind == "lstm" else 3 * h
        self.w_x = uniform_param(rng, (gates, input_size), input_size)
        self.w_h = uniform_param(rng, (gates, h), h)
        self.b_x = uniform_param(rng, (gates,), h)
        self.b_h = uniform_param(rng, (gates,), h)
        if kind == "lstm":
            self.b_x.data[h : 2 * h] = 1.0  # forget gate opens at init

    def zero_state(self, batch):
        width = 2 * self.hidden_size if self.kind == "lstm" else self.hidden_size
        return Tensor(np.zeros((batch, width)))

    def step(self, x, state):
        """One time step: x [B, input_size] and the state -> the next state."""
        if x.data.ndim != 2 or x.data.shape[1] != self.input_size:
            raise ShapeError(f"cell expects [B,{self.input_size}] input, got {x.shape}")
        fused = _lstm_step if self.kind == "lstm" else _gru_step
        return fused(x, state, self.w_x, self.w_h, self.b_x, self.b_h)

    def hidden(self, state):
        """h [B, hidden_size] of a state."""
        if self.kind == "gru":
            return state
        return narrow(state, 1, 0, self.hidden_size)

    def parameters(self, prefix):
        return {
            f"{prefix}.w_x": self.w_x,
            f"{prefix}.w_h": self.w_h,
            f"{prefix}.b_x": self.b_x,
            f"{prefix}.b_h": self.b_h,
        }


def _affine_grads(x, h, w_x, w_h, b_x, b_h, dzx, dzh):
    """Gradients of zx = x @ w_x.T + b_x and zh = h @ w_h.T + b_h (h an
    array) for (x, w_x, w_h, b_x, b_h), None where an input is not tracked;
    the same products the composed matmul/transpose/add_rowvec vjps form.
    The caller forms the state's gradient. When dzx is dzh, the bias sum is
    formed once and b_h gets a copy of it."""
    db_x = dzx.sum(axis=0)
    db_h = db_x.copy() if dzh is dzx else dzh.sum(axis=0)
    return (
        dzx @ w_x.data if x.requires_grad else None,
        (x.data.T @ dzx).T if w_x.requires_grad else None,
        (h.T @ dzh).T if w_h.requires_grad else None,
        db_x if b_x.requires_grad else None,
        db_h if b_h.requires_grad else None,
    )


def _lstm_step(x, hc, w_x, w_h, b_x, b_h):
    """One LSTM step as one op: the [B, 2n] state h|c -> h'|c'; gates
    i|f|g|o. h and c are views of the state, and h'|c' is written into
    one buffer."""
    n = hc.data.shape[1] // 2
    h, c = hc.data[:, :n], hc.data[:, n:]
    z = (x.data @ w_x.data.T + b_x.data[None, :]) + (h @ w_h.data.T + b_h.data[None, :])
    autodiff._check_finite(z, "LSTM gate pre-activations")
    act = autodiff._stable_sigmoid(z)
    act[:, 2 * n : 3 * n] = np.tanh(z[:, 2 * n : 3 * n])
    i, f, g, o = (act[:, k * n : (k + 1) * n] for k in range(4))
    out = np.empty_like(hc.data)
    c_new = np.multiply(f, c, out=out[:, n:])
    c_new += i * g
    tc = np.tanh(c_new)
    np.multiply(o, tc, out=out[:, :n])

    def vjp(grad):
        gh, gc = grad[:, :n], grad[:, n:]
        dc = gc + gh * o * (1.0 - tc * tc)
        d_act = np.concatenate([dc * g, dc * c, dc * i, gh * tc], axis=1)
        dz = d_act * act * (1.0 - act)
        dz[:, 2 * n : 3 * n] = dc * i * (1.0 - g * g)  # the g block is a tanh
        dhc = None
        if hc.requires_grad:
            dhc = np.empty_like(hc.data)
            dhc[:, :n] = dz @ w_h.data
            np.multiply(dc, f, out=dhc[:, n:])
        dx, dw_x, dw_h, db_x, db_h = _affine_grads(x, h, w_x, w_h, b_x, b_h, dz, dz)
        return dx, dhc, dw_x, dw_h, db_x, db_h

    return apply_op(out, (x, hc, w_x, w_h, b_x, b_h), vjp)


def _gru_step(x, h, w_x, w_h, b_x, b_h):
    """One GRU step as one op -> h' [B, n]; gates r|u|n."""
    n = h.data.shape[1]
    zx = x.data @ w_x.data.T + b_x.data[None, :]
    zh = h.data @ w_h.data.T + b_h.data[None, :]
    autodiff._check_finite(zx, "GRU input pre-activations")
    autodiff._check_finite(zh, "GRU hidden pre-activations")
    ru = autodiff._stable_sigmoid(zx[:, : 2 * n] + zh[:, : 2 * n])
    r, u = ru[:, :n], ru[:, n:]
    zh_n = zh[:, 2 * n :]
    cand = np.tanh(zx[:, 2 * n :] + r * zh_n)

    def vjp(grad):
        d_pre = grad * (1.0 - u) * (1.0 - cand * cand)
        d_gates = np.concatenate([d_pre * zh_n, grad * h.data - grad * cand], axis=1)
        d_ru = d_gates * ru * (1.0 - ru)
        dzx = np.concatenate([d_ru, d_pre], axis=1)
        dzh = np.concatenate([d_ru, d_pre * r], axis=1)
        dx, dw_x, dw_h, db_x, db_h = _affine_grads(x, h.data, w_x, w_h, b_x, b_h, dzx, dzh)
        dh = dzh @ w_h.data + grad * u if h.requires_grad else None
        return dx, dh, dw_x, dw_h, db_x, db_h

    out = (1.0 - u) * cand + u * h.data
    return apply_op(out, (x, h, w_x, w_h, b_x, b_h), vjp)


def rnn_forward(cell, sequence):
    """Run a cell over a list of [B, d] tensors from zero state; return the
    final hidden state h."""
    if not sequence:
        raise ValueError("rnn_forward needs a non-empty sequence")
    widths = {t.data.shape[1] for t in sequence}
    if len(widths) != 1:
        raise ShapeError(f"sequence steps disagree on width: {sorted(widths)}")
    state = cell.zero_state(sequence[0].data.shape[0])
    for x in sequence:
        state = cell.step(x, state)
    return cell.hidden(state)
