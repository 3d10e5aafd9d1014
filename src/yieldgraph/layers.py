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
(channels-last) through its blocks, so a block's im2col is [B*L', C*K]
rows, one per output position, gathered from the input by one
``np.take`` (``_im2col``). Each block (conv, bias, relu and, in the weekly
encoder, avg-pool) is one autodiff op, ``conv1d``, with a hand-written
vjp. The output is transposed back once before the projection, which
therefore sees the [C, L] flatten order its weights were laid out for.

A block's forward pass is one row-range body over its batch items (see
``conv1d``). A block of at least SPLIT_WORK multiply-adds in its GEMM
(batch * out_len * ch_in * k * ch_out) runs it over two halves of its
batch, a partition fixed by the block's shape alone. In a process allowed
two or more CPUs the halves run on two threads: the caller and one conv
worker, started by the first split block. numpy releases the GIL inside
its GEMMs and large array passes, so both threads make progress. With one
CPU they run one after the other on the caller. Either way they are the
same two GEMM calls on the same rows, so a block's bits do not depend on
the CPU count or on how the BLAS kernel blocks a product. (They do
depend on BLAS's own thread count, which the CLI pins to one.) In a
split block's forward pass the caller waits for the worker inside the op. In
the backward pass the worker, once started, forms every block's weight
and bias gradients behind the caller, which forms the input gradient and
walks on down the tape, and ``autodiff.backward`` waits for them once
the sweep is done. There the worker runs numpy calls and finiteness
checks only, on arrays the caller hands it; the tape stays on the calling
thread.

At inference, under ``no_grad()``, whole jobs run on the two threads
instead: ``in_lanes`` hands a model's independent embedder calls (and a
graph model's per-year SAGE stacks) to the caller and the worker, which
each take the next job as they come free. A split block inside a job runs
its halves one after the other on the thread that runs the job, and never
posts to the worker, so predictions keep their bits. While a tape is
recorded, ``in_lanes`` runs its jobs in order on the caller, so training
keeps its split blocks and its tape on one thread.

A block's tape node holds its input, its relu mask and its output, in
every process. Its im2col, the largest array of the block, is a transient
of the forward pass: the job that forms the weight gradient, on the
worker or on the caller, gathers it again from the input, which the tape
holds anyway (the recompute half of gradient checkpointing, Chen et al.,
arXiv:1604.06174). The gather is deterministic, so the weight gradient
keeps its bits.

The recurrent cell carries its state as one tensor: [B, 2 * hidden] laid
out h|c for the LSTM, [B, hidden] h for the GRU. One time step is one
autodiff op from state to state, so a sequence of T steps records T tape
nodes, plus one ``narrow`` that takes the LSTM's h out of its last state.
A step runs on the calling thread, its pointwise math mostly as in-place
passes over buffers of its own. Each element of its forward pass sees the
composed cell's operations in the same order, and the in-place passes
change no value (see ``RecurrentCell``).

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

# A conv block whose GEMM has at least SPLIT_WORK multiply-adds (batch *
# out_len * ch_in * k * ch_out) runs as two halves of its batch, on two
# threads when there are two CPUs (see conv1d); below it, handing half to
# the worker costs more than the second core gives back.
SPLIT_WORK = 5_000_000

_worker = None  # the conv worker's job queue, made when the first split block or lanes start it
_lanes = contextvars.ContextVar("yieldgraph_lanes", default=False)  # True inside in_lanes' jobs


def uniform_param(rng, shape, fan_in):
    a = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-a, a, size=shape), requires_grad=True)


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split_point(batch, out_len, ch_in, k, ch_out):
    """Where a block's batch splits in two, from its shape alone: None (the
    block runs whole) when it has one batch item or its GEMM has fewer than
    SPLIT_WORK multiply-adds, else half the batch. Whether the halves then
    run on two threads or one after the other is ``_in_parallel``'s call;
    either way they are the same two GEMM calls on the same rows."""
    if batch < 2 or batch * out_len * ch_in * k * ch_out < SPLIT_WORK:
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


def _post(job):
    """Start ``job`` on the conv worker, in a copy of the caller's context
    (which holds numpy's error state, a contextvar since numpy 2), and
    return ``done``: it blocks until the job has finished and returns the
    job's failure, or None, and returns the same at once when called
    again."""
    global _worker
    if _worker is None:
        _worker = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_worker,), name="yieldgraph-conv",
                         daemon=True).start()
    reply, outcome = queue.SimpleQueue(), []
    _worker.put((functools.partial(contextvars.copy_context().run, job), reply))

    def done():
        if not outcome:
            outcome.append(reply.get())
        return outcome[0]

    return done


def _in_parallel(here, there):
    """Run ``there`` on the conv worker while ``here`` runs on the calling
    thread, and return once both have finished. A failure propagates only
    then, so the worker is idle again: the caller's first, else the
    worker's.

    With one CPU, or inside a job of ``in_lanes`` (whose other lane keeps
    the second core busy, and where a post from the worker would wait on
    itself), ``here`` and then ``there`` run on the calling thread instead,
    and the first failure propagates at once. This is the one place that
    decides whether work runs on two threads."""
    if _lanes.get() or _cpus() < 2:
        here()
        there()
        return
    done = _post(there)
    try:
        here()
    finally:
        err = done()
    if err is not None:
        raise err


def in_lanes(jobs):
    """``[job() for job in jobs]``, in job order, with the jobs run on two
    lanes, the caller and the conv worker, each taking the next job as it
    comes free. The jobs must not depend on one another. Each lane marks
    its own jobs (``_lanes``), so a conv block inside a job runs its halves
    one after the other on that lane's thread (see ``_in_parallel``), with
    the bits they have anywhere else.

    The jobs run in order on the caller instead while a tape is recorded
    (outside ``no_grad()``; the tape is built on the calling thread) and
    with fewer than two jobs. With one CPU, or inside another call's jobs,
    ``_in_parallel`` runs both lanes on the calling thread, the first of
    which takes every job in order. Then no worker is started.

    After a job fails, neither lane takes another; once both have stopped,
    the failure of the lowest failed job index is raised, which is the one
    a run in order would raise. The worker is then idle, so the next call
    starts afresh."""
    if autodiff._recording or len(jobs) < 2:
        return [job() for job in jobs]
    todo = queue.SimpleQueue()
    for i in range(len(jobs)):
        todo.put(i)
    results, failures = [None] * len(jobs), {}

    def take_jobs():
        _lanes.set(True)
        while not failures:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = jobs[i]()
            except BaseException as err:
                failures[i] = err

    def lane():  # in a context of its own, so the mark stays with the lane's jobs
        contextvars.copy_context().run(take_jobs)

    _in_parallel(lane, lane)
    if failures:
        raise failures[min(failures)]
    return results


def _forget_worker():
    global _worker
    _worker = None  # a forked child has no worker thread; start a new one


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


@functools.lru_cache(maxsize=64)
def _im2col_index(s_len, s_ch, out_len, ch_in, k):
    """[out_len, ch_in * k] offsets into one sample's flat memory, whose
    length and channel axes step by ``s_len`` and ``s_ch`` elements: row t,
    column c * k + j holds the offset of the sample's entry (t + j, c)."""
    pos = np.arange(out_len)[:, None, None] + np.arange(k)
    idx = (pos * s_len + np.arange(ch_in)[:, None] * s_ch).reshape(out_len, ch_in * k)
    idx.flags.writeable = False
    return idx


def _im2col(x, k):
    """im2col of x [B, L, C]: a new C-contiguous [B * L', C * K] array of
    rows, one per output position, whose columns follow the weight's (C, K)
    layout; the values of ``sliding_window_view(x, k, axis=1)`` reshaped.
    One ``np.take`` gathers them from each sample's flat memory, which is
    contiguous for a C-contiguous x and for the transposed first-block
    input (a copy is made otherwise). ``mode="wrap"`` because numpy writes
    the default mode's result through a buffer; every offset is in range."""
    batch, length, ch_in = x.shape
    if x.flags.c_contiguous:
        s_len, s_ch = ch_in, 1
    else:
        x = np.ascontiguousarray(x.transpose(0, 2, 1))
        s_len, s_ch = 1, length
    out_len = length - k + 1
    cols = np.empty((batch * out_len, ch_in * k))
    np.take(x.reshape(batch, length * ch_in), _im2col_index(s_len, s_ch, out_len, ch_in, k),
            axis=1, mode="wrap", out=cols.reshape(batch, out_len, ch_in * k))
    return cols


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

    One body, ``rows(b0, b1)``, runs the forward pass for batch items
    [b0, b1): their im2col (a transient, rows of the whole block's, the
    same bytes), the GEMM into their rows of ``z``, the bias, the NaN/Inf
    check of those rows, then the relu, its mask and the pool. A block runs
    it once over the whole batch, or, when its shape makes ``_split_point``
    split it, once per half, through ``_in_parallel``: on the caller and
    the conv worker, or one after the other on the calling thread. A
    failure in either half propagates once neither half is running. Every
    value comes from elementwise passes and the GEMM of its own half, and
    each half is the same GEMM call on the same rows on every path, so the
    bits do not depend on the thread that runs it or on the CPU count.
    Whether a half's GEMM equals the same rows of one whole GEMM depends on
    the BLAS kernel, and nothing here relies on it.
    ``tests/test_conv_split.py`` checks every default-width block.

    The op's tape node holds x, the relu mask and the output, never the
    block's im2col: the job that forms dw gathers it again from ``x.data``
    just before its GEMM and drops it after. Once a split block or
    ``in_lanes`` has started the conv worker, every block's vjp hands that
    job, dw and db, to the worker and returns them as ``autodiff.Pending``:
    the worker forms them behind the caller, which forms dx and walks on
    down the tape, and a failure in either job (the gather included)
    propagates only once the worker has finished. A process that runs no
    split block or lanes on two threads starts no thread and forms all
    three on the caller. A row split of the dx GEMM changed bits, and one
    of dw would sum in another order, so neither is split.
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
    keep = out_len // pool * pool if pool is not None else out_len
    wmat = weight.data.reshape(ch_out, ch_in * k)
    z = np.empty((batch * out_len, ch_out))
    mask = np.empty(z.shape, dtype=bool)
    act = z.reshape(batch, out_len, ch_out)
    out = act if pool is None else np.empty((batch, keep // pool, ch_out))

    def rows(b0, b1):
        zb = z[b0 * out_len : b1 * out_len]
        np.matmul(_im2col(x.data[b0:b1], k), wmat.T, out=zb)
        zb += bias.data
        autodiff._check_finite(zb, "conv pre-activations")
        np.greater(zb, 0, out=mask[b0 * out_len : b1 * out_len])  # gradient at exactly 0 is 0
        np.maximum(zb, 0.0, out=zb)
        zb += 0.0  # -0.0 becomes +0.0, as np.where(mask, z, 0.0) gives
        if pool is not None:
            pb = out[b0:b1]
            pb[...] = act[b0:b1, 0:keep:pool]
            for j in range(1, pool):
                pb += act[b0:b1, j:keep:pool]
            pb /= pool

    split = _split_point(batch, out_len, ch_in, k, ch_out)
    if split is None:
        rows(0, batch)
    else:
        _in_parallel(lambda: rows(0, split), lambda: rows(split, batch))

    def vjp(g):
        if pool is None:
            gmat = g.reshape(batch * out_len, ch_out) * mask
        else:
            gmat = np.zeros((batch * out_len, ch_out))
            spread, g_pool = gmat.reshape(batch, out_len, ch_out), g / pool
            for j in range(pool):
                spread[:, j:keep:pool] = g_pool
            gmat *= mask
        param_grads = [None, None]

        def weight_and_bias():
            if weight.requires_grad:
                param_grads[0] = (gmat.T @ _im2col(x.data, k)).reshape(ch_out, ch_in, k)
            if bias.requires_grad:
                param_grads[1] = gmat.sum(axis=0)

        def input_grad():
            if not x.requires_grad:
                return None
            dcols = (gmat @ wmat).reshape(batch, out_len, ch_in, k)
            dx = np.zeros((batch, length, ch_in))
            for j in range(k):
                dx[:, j : j + out_len] += dcols[:, :, :, j]
            return dx

        if _worker is None:
            weight_and_bias()
            return input_grad(), *param_grads
        done = _post(weight_and_bias)
        try:
            dx = input_grad()
        except BaseException:
            done()
            raise
        dw, db = (autodiff.Pending(done, param_grads, i) if t.requires_grad else None
                  for i, t in enumerate((weight, bias)))
        return dx, dw, db

    return apply_op(out, (x, weight, bias), vjp)


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
    narrowed out of h|c once, after the last step. In the forward pass
    each element sees the composed cell's operations in the same order
    (``zx = x @ w_x.T + b_x``, ``zh = h @ w_h.T + b_h``, then the gates), so
    its values are bit-identical to it. Most pointwise passes, forward and
    backward, run in place in buffers of the step's own (the gate
    pre-activations, the gates, the gradient of the pre-activations) rather
    than in a temporary per product. They change no value: at most they
    swap the operands of a + or a *, which IEEE arithmetic rounds the same
    either way, and never regroup a product or a sum. sigmoid and tanh
    saturate an overflowed pre-activation into a finite gate, so the op
    checks the pre-activations (``z`` for the LSTM, ``zx`` and ``zh`` for
    the GRU) for NaN/Inf itself. A state that is not [x's batch, state
    width] is a ShapeError.

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
        self._state_width = 2 * h if kind == "lstm" else h
        if kind == "lstm":
            self.b_x.data[h : 2 * h] = 1.0  # forget gate opens at init

    def zero_state(self, batch):
        return Tensor(np.zeros((batch, self._state_width)))

    def step(self, x, state):
        """One time step: x [B, input_size] and the state [B, state width]
        -> the next state."""
        if x.data.ndim != 2 or x.data.shape[1] != self.input_size:
            raise ShapeError(f"cell expects [B,{self.input_size}] input, got {x.shape}")
        if state.data.shape != (x.data.shape[0], self._state_width):
            raise ShapeError(f"cell expects a [{x.data.shape[0]},{self._state_width}] state "
                             f"for a batch of {x.data.shape[0]}, got {state.shape}")
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
    one buffer. z, act and, in the vjp, dz are filled in place, block by
    block, each element in the composed cell's order of operations; dz's
    g block first takes the sigmoid's derivative with the other blocks and
    is then overwritten with the tanh's."""
    n = hc.data.shape[1] // 2
    h, c = hc.data[:, :n], hc.data[:, n:]
    z = x.data @ w_x.data.T
    z += b_x.data
    zh = h @ w_h.data.T
    zh += b_h.data
    z += zh
    autodiff._check_finite(z, "LSTM gate pre-activations")
    act = autodiff._stable_sigmoid(z)
    np.tanh(z[:, 2 * n : 3 * n], out=act[:, 2 * n : 3 * n])
    i, f, g, o = (act[:, k * n : (k + 1) * n] for k in range(4))
    out = np.empty_like(hc.data)
    c_new = np.multiply(f, c, out=out[:, n:])
    c_new += i * g
    tc = np.tanh(c_new)
    np.multiply(o, tc, out=out[:, :n])

    def vjp(grad):
        gh, gc = grad[:, :n], grad[:, n:]
        dc = gh * o
        tmp = tc * tc
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        dc += gc
        dz = np.empty_like(act)
        np.multiply(dc, g, out=dz[:, :n])
        np.multiply(dc, c, out=dz[:, n : 2 * n])
        dz_g = np.multiply(dc, i, out=dz[:, 2 * n : 3 * n])
        np.multiply(gh, tc, out=dz[:, 3 * n :])
        dz *= act
        dz *= 1.0 - act
        np.multiply(dc, i, out=dz_g)  # the g block is a tanh
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dz_g *= tmp
        dhc = None
        if hc.requires_grad:
            dhc = np.empty_like(hc.data)
            dhc[:, :n] = dz @ w_h.data
            np.multiply(dc, f, out=dhc[:, n:])
        dx, dw_x, dw_h, db_x, db_h = _affine_grads(x, h, w_x, w_h, b_x, b_h, dz, dz)
        return dx, dhc, dw_x, dw_h, db_x, db_h

    return apply_op(out, (x, hc, w_x, w_h, b_x, b_h), vjp)


def _gru_step(x, h, w_x, w_h, b_x, b_h):
    """One GRU step as one op -> h' [B, n]; gates r|u|n. The pointwise
    passes run in place in zx, zh, ru, cand and, in the vjp, d_ru, dzx,
    dzh and dh, each element in the composed cell's order of operations.
    The gradient of r|u is formed whole, then copied into dzx and dzh: on
    its own [B, 2n] array the sigmoid's derivative runs faster than on a
    slice of dzx."""
    n = h.data.shape[1]
    zx = x.data @ w_x.data.T
    zx += b_x.data
    zh = h.data @ w_h.data.T
    zh += b_h.data
    autodiff._check_finite(zx, "GRU input pre-activations")
    autodiff._check_finite(zh, "GRU hidden pre-activations")
    ru = zx[:, : 2 * n] + zh[:, : 2 * n]
    autodiff._stable_sigmoid(ru, out=ru)
    r, u = ru[:, :n], ru[:, n:]
    zh_n = zh[:, 2 * n :]
    cand = r * zh_n
    cand += zx[:, 2 * n :]
    np.tanh(cand, out=cand)
    keep = 1.0 - u
    out = keep * cand
    out += u * h.data

    def vjp(grad):
        d_pre = grad * keep
        tmp = cand * cand
        np.subtract(1.0, tmp, out=tmp)
        d_pre *= tmp
        d_ru = np.empty_like(ru)
        np.multiply(d_pre, zh_n, out=d_ru[:, :n])
        np.multiply(grad, h.data, out=d_ru[:, n:])
        d_ru[:, n:] -= np.multiply(grad, cand, out=tmp)
        d_ru *= ru
        d_ru *= 1.0 - ru
        dzx = np.empty((len(grad), 3 * n))
        dzx[:, : 2 * n] = d_ru
        dzx[:, 2 * n :] = d_pre
        dzh = np.empty_like(dzx)
        dzh[:, : 2 * n] = d_ru
        np.multiply(d_pre, r, out=dzh[:, 2 * n :])
        dx, dw_x, dw_h, db_x, db_h = _affine_grads(x, h.data, w_x, w_h, b_x, b_h, dzx, dzh)
        dh = None
        if h.requires_grad:
            dh = dzh @ w_h.data
            dh += np.multiply(grad, u, out=tmp)
        return dx, dh, dw_x, dw_h, db_x, db_h

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
