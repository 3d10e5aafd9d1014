"""Shared test oracles: finite differences and gradient comparison, a
reverse sweep that adds each leaf gradient as soon as it is formed, the
tanh and sigmoid ops, the channels-first conv, pooling and encoder
forward, the composed recurrent cell step, frozen copies of the fused
LSTM and GRU steps with a temporary per product, single-node neighbour
aggregation, the per-destination segment max, the per-edge block
builder, batched graph inference, single-record early masking, the
whole-dataset evaluate flow with its per-county masking plan and full
mask copy, the adjacency queries over a ``CountyGraph``, the CSV
import form of a dataset (the feature-file writer), and the
per-cell county aggregation (with a packer for its weight map) and the
per-day weekly fold of ``geo``, the linear fits: ridge through an
explicit ``lam * I`` and lasso by residual updates, the NRCS
soil-texture classes, and the normalized dataset ``train`` takes and
identity norm stats.

The finite-difference side only re-runs forward passes, keeping it
independent of the reverse-mode implementation it checks.
"""

import csv
import io
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass

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
    take_rows,
)
from yieldgraph.data import (
    BLOCK_SHAPES,
    BLOCKS,
    WEEKS,
    NormStats,
    apply_norm_stats,
    enumerate_windows,
    feature_columns,
    normalize,
    save_dataset,
)
from yieldgraph.evaluation import CUTOFF_WEEK, MetricError, rmse
from yieldgraph.geo import GeoFormatError
from yieldgraph.graph import LayerBlock, SampledBlock
from yieldgraph.models import GRAPH_KINDS, LinearModel, soft_threshold


def tanh(t):
    """Elementwise tanh of a Tensor, with its vjp; the recurrent steps of
    ``yieldgraph.layers`` fuse it into one op, so only oracles need it."""
    y = np.tanh(t.data)
    return apply_op(y, (t,), lambda g: (g * (1.0 - y * y),))


def sigmoid(t):
    """Elementwise logistic of a Tensor, with its vjp, through the same
    overflow-safe form as the fused recurrent steps."""
    y = autodiff._stable_sigmoid(t.data)
    return apply_op(y, (t,), lambda g: (g * y * (1.0 - y),))


def fd_gradient(f, arrays, h=1e-5):
    """Central finite differences of a scalar-valued f(*arrays) w.r.t. each
    array, elementwise."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(*arrays)
            flat[i] = orig - h
            down = f(*arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def fd_directional(f, arrays, direction, h=1e-6):
    """Central finite difference of f along a unit direction split across
    the arrays (a list matching shapes)."""
    saved = [a.copy() for a in arrays]
    for a, d in zip(arrays, direction):
        a += h * d
    up = f(*arrays)
    for a, s, d in zip(arrays, saved, direction):
        a[...] = s - h * d
    down = f(*arrays)
    for a, s in zip(arrays, saved):
        a[...] = s
    return (up - down) / (2.0 * h)


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def check_param_gradients(params, forward, rtol=1e-4, h_schedule=(1e-5, 1e-6, 1e-7)):
    """Compare analytic parameter gradients against central differences.

    ``params`` are live requires_grad Tensors used by the zero-argument
    ``forward`` callable (define-by-run: each call rebuilds the graph).
    """
    for p in params:
        p.zero_grad()
    forward().backward()
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]

    errs = []
    for h in h_schedule:
        worst = 0.0
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = forward().item()
                flat[i] = orig - h
                down = forward().item()
                flat[i] = orig
                num[i] = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(an.reshape(-1), num))
        errs.append(worst)
        if worst <= rtol:
            return worst
    raise AssertionError(
        f"parameter gradient mismatch: best rel err {min(errs):.3e} over h={list(h_schedule)}"
    )


def check_tensor_gradients(build_loss, arrays, rtol=1e-4, h_schedule=(1e-5, 1e-6, 1e-7)):
    """Compare analytic gradients of build_loss against central differences.

    ``build_loss(*tensors)`` maps leaf Tensors to a scalar Tensor;
    ``arrays`` are the leaf values. Retries with smaller h so an isolated
    kink crossing (relu/max) is not mistaken for a wrong gradient: a real
    bug fails at every h.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*leaves)
    loss.backward()
    analytic = [lf.grad if lf.grad is not None else np.zeros_like(a)
                for lf, a in zip(leaves, arrays)]

    def forward(*arrs):
        return build_loss(*[Tensor(a) for a in arrs]).item()

    errs = []
    for h in h_schedule:
        numeric = fd_gradient(forward, [a.copy() for a in arrays], h=h)
        err = max(rel_err(an, nu) for an, nu in zip(analytic, numeric))
        errs.append(err)
        if err <= rtol:
            return err
    raise AssertionError(
        f"gradient mismatch: best rel err {min(errs):.3e} over h={list(h_schedule)}"
    )


def reference_backward(loss):
    """``autodiff.backward`` as a sweep that waits for a pending gradient
    as soon as a vjp returns it and adds each leaf gradient to its leaf at
    once, in sweep order."""
    grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(autodiff._topo_order(loss)):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        for parent, pg in zip(t.node.inputs, t.node.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if isinstance(pg, autodiff.Pending):
                pg = pg.result()
            autodiff._check_finite(pg, "gradient during backward")
            if parent.node is None:
                parent.grad = pg if parent.grad is None else parent.grad + pg
            else:
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg


def reference_conv1d(x, weight, bias):
    """Valid (no padding) cross-correlation, channels-first, without relu:
    x [batch, ch_in, length], weight [ch_out, ch_in, k], bias [ch_out] ->
    [batch, ch_out, length - k + 1]. With ``.relu()`` and
    ``reference_avg_pool1d`` it composes the oracle of ``layers.conv1d``."""
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d needs [B,C,L] and [O,C,K], got {x.shape}, {weight.shape}")
    batch, ch_in, length = x.data.shape
    ch_out, w_in, k = weight.data.shape
    if w_in != ch_in:
        raise ShapeError(f"conv1d channels differ: input {ch_in}, kernel {w_in}")
    if length < k:
        raise ShapeError(f"conv1d input length {length} shorter than kernel {k}")
    out_len = length - k + 1

    # im2col: [B, C, L', K] -> [B*L', C*K]
    cols = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(batch * out_len, ch_in * k)
    wmat = weight.data.reshape(ch_out, ch_in * k)
    out = (cols @ wmat.T + bias.data[None, :]).reshape(batch, out_len, ch_out)
    out = np.ascontiguousarray(out.transpose(0, 2, 1))

    def vjp(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(batch * out_len, ch_out)
        dw = (gmat.T @ cols).reshape(ch_out, ch_in, k)
        db = gmat.sum(axis=0)
        dcols = (gmat @ wmat).reshape(batch, out_len, ch_in, k)
        dx = np.zeros_like(x.data)
        for j in range(k):
            dx[:, :, j : j + out_len] += dcols[:, :, :, j].transpose(0, 2, 1)
        return dx, dw, db

    return apply_op(out, (x, weight, bias), vjp)


def reference_avg_pool1d(x, window=2):
    """Non-overlapping average pooling along the last axis of [B, C, L];
    the trailing remainder is dropped."""
    if x.data.ndim != 3:
        raise ShapeError(f"avg_pool1d needs [B,C,L], got {x.shape}")
    length = x.data.shape[2]
    if length < window:
        raise ShapeError(f"avg_pool1d length {length} shorter than window {window}")
    n_out = length // window
    keep = n_out * window
    batch, ch, _ = x.data.shape
    out = x.data[:, :, :keep].reshape(batch, ch, n_out, window).mean(axis=3)

    def vjp(g):
        dx = np.zeros_like(x.data)
        dx[:, :, :keep] = np.repeat(g / window, window, axis=2)
        return (dx,)

    return apply_op(out, (x,), vjp)


def reference_encode(encoder, x):
    """A ``WeeklyEncoder`` or ``SoilEncoder`` forward over the encoder's own
    parameters, composed channels-first: per block ``reference_conv1d``,
    ``.relu()`` and (weekly) ``reference_avg_pool1d``, then the flatten and
    ``project``. x: [B, in_channels, length] -> [B, out_dim]."""
    for block in encoder.blocks:
        x = reference_conv1d(x, block.weight, block.bias).relu()
        if encoder.pool is not None:
            x = reference_avg_pool1d(x, encoder.pool)
    return encoder.project(x.reshape((x.data.shape[0], encoder.flat_dim)))


def reference_cell_step(cell, x, state):
    """One ``RecurrentCell`` step composed from primitive autodiff ops (one
    tape node per matmul, slice, gate and product); the oracle for the
    fused step. Same signature and result as ``cell.step``."""
    h = cell.hidden_size
    h_prev = narrow(state, 1, 0, h) if cell.kind == "lstm" else state
    zx = add_rowvec(matmul(x, cell.w_x.transpose()), cell.b_x)
    zh = add_rowvec(matmul(h_prev, cell.w_h.transpose()), cell.b_h)
    if cell.kind == "lstm":
        z = zx + zh
        i = sigmoid(narrow(z, 1, 0, h))
        f = sigmoid(narrow(z, 1, h, h))
        g = tanh(narrow(z, 1, 2 * h, h))
        o = sigmoid(narrow(z, 1, 3 * h, h))
        c_new = f * narrow(state, 1, h, h) + i * g
        return concat([o * tanh(c_new), c_new], axis=1)
    r = sigmoid(narrow(zx, 1, 0, h) + narrow(zh, 1, 0, h))
    u = sigmoid(narrow(zx, 1, h, h) + narrow(zh, 1, h, h))
    n = tanh(narrow(zx, 1, 2 * h, h) + r * narrow(zh, 1, 2 * h, h))
    ones = Tensor(np.ones((x.data.shape[0], h)))
    return (ones - u) * n + u * state


# Frozen copies of the fused recurrent steps (and the sigmoid and affine
# gradients they use) as they stood with a temporary array per product and
# three concatenates per vjp: the bit oracle for the steps of
# ``yieldgraph.layers``, whose pointwise passes write into buffers of their
# own. Same signatures and results as ``layers._lstm_step`` /
# ``layers._gru_step``.


def _frozen_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _frozen_affine_grads(x, h, w_x, w_h, b_x, b_h, dzx, dzh):
    db_x = dzx.sum(axis=0)
    db_h = db_x.copy() if dzh is dzx else dzh.sum(axis=0)
    return (
        dzx @ w_x.data if x.requires_grad else None,
        (x.data.T @ dzx).T if w_x.requires_grad else None,
        (h.T @ dzh).T if w_h.requires_grad else None,
        db_x if b_x.requires_grad else None,
        db_h if b_h.requires_grad else None,
    )


def frozen_lstm_step(x, hc, w_x, w_h, b_x, b_h):
    n = hc.data.shape[1] // 2
    h, c = hc.data[:, :n], hc.data[:, n:]
    z = (x.data @ w_x.data.T + b_x.data[None, :]) + (h @ w_h.data.T + b_h.data[None, :])
    autodiff._check_finite(z, "LSTM gate pre-activations")
    act = _frozen_sigmoid(z)
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
        dz[:, 2 * n : 3 * n] = dc * i * (1.0 - g * g)
        dhc = None
        if hc.requires_grad:
            dhc = np.empty_like(hc.data)
            dhc[:, :n] = dz @ w_h.data
            np.multiply(dc, f, out=dhc[:, n:])
        dx, dw_x, dw_h, db_x, db_h = _frozen_affine_grads(x, h, w_x, w_h, b_x, b_h, dz, dz)
        return dx, dhc, dw_x, dw_h, db_x, db_h

    return apply_op(out, (x, hc, w_x, w_h, b_x, b_h), vjp)


def frozen_gru_step(x, h, w_x, w_h, b_x, b_h):
    n = h.data.shape[1]
    zx = x.data @ w_x.data.T + b_x.data[None, :]
    zh = h.data @ w_h.data.T + b_h.data[None, :]
    autodiff._check_finite(zx, "GRU input pre-activations")
    autodiff._check_finite(zh, "GRU hidden pre-activations")
    ru = _frozen_sigmoid(zx[:, : 2 * n] + zh[:, : 2 * n])
    r, u = ru[:, :n], ru[:, n:]
    zh_n = zh[:, 2 * n :]
    cand = np.tanh(zx[:, 2 * n :] + r * zh_n)

    def vjp(grad):
        d_pre = grad * (1.0 - u) * (1.0 - cand * cand)
        d_gates = np.concatenate([d_pre * zh_n, grad * h.data - grad * cand], axis=1)
        d_ru = d_gates * ru * (1.0 - ru)
        dzx = np.concatenate([d_ru, d_pre], axis=1)
        dzh = np.concatenate([d_ru, d_pre * r], axis=1)
        dx, dw_x, dw_h, db_x, db_h = _frozen_affine_grads(x, h.data, w_x, w_h, b_x, b_h,
                                                          dzx, dzh)
        dh = dzh @ w_h.data + grad * u if h.requires_grad else None
        return dx, dh, dw_x, dw_h, db_x, db_h

    out = (1.0 - u) * cand + u * h.data
    return apply_op(out, (x, h, w_x, w_h, b_x, b_h), vjp)


def aggregate_neighbors(graph, embeddings, county, aggregator, active_neighbors=None,
                        pool_transform=None):
    """Aggregate one county's neighbour embeddings, one node at a time (the
    batched paths use the segment primitives of ``yieldgraph.graph``).

    embeddings: Tensor [N, d] aligned with graph.node_ids. Zero neighbours
    aggregate to the zero vector.
    """
    i = graph.index[county]
    nbrs = graph.neighbors[i] if active_neighbors is None else np.array(
        sorted(graph.index[c] for c in active_neighbors), dtype=np.intp
    )
    d = embeddings.data.shape[1]
    if nbrs.size == 0:
        return Tensor(np.zeros(d))
    rows = take_rows(embeddings, nbrs)
    if aggregator == "mean":
        return rows.mean(axis=0)
    if aggregator == "pool":
        if pool_transform is not None:
            rows = pool_transform(rows).relu()
        return Tensor(rows.data.max(axis=0))  # forward only
    raise ValueError(f"unknown aggregator {aggregator!r}")


def reference_segment_max(x, edge_src, edge_dst, n_dst):
    """``graph._segment_max`` one destination at a time: np.argmax over each
    destination's edge rows picks the first maximum. Same signature and
    result."""
    d = x.data.shape[1]
    out = np.zeros((n_dst, d))
    argrow = np.full((n_dst, d), -1, dtype=np.intp)
    boundaries = np.flatnonzero(np.diff(edge_dst)) + 1
    for seg in np.split(np.arange(edge_dst.size), boundaries):
        if seg.size == 0:
            continue
        dst = edge_dst[seg[0]]
        rows = x.data[edge_src[seg]]
        am = np.argmax(rows, axis=0)
        out[dst] = rows[am, np.arange(d)]
        argrow[dst] = edge_src[seg][am]

    def vjp(g):
        dx = np.zeros_like(x.data)
        valid = argrow >= 0
        np.add.at(dx, (argrow[valid], np.nonzero(valid)[1]), g[valid])
        return (dx,)

    return apply_op(out, (x,), vjp)


def reference_sample_block(graph, seeds, fanout, layers, edge_dropout, rng, allowed_nodes=None):
    """``graph.sample_block`` with np.isin filtering per node and a
    position dict walked edge by edge. Draws from ``rng`` in the same
    order, so seeded blocks must match it array for array."""
    seed_idx = np.array(sorted({graph.index[c] for c in seeds}), dtype=np.intp)
    allowed = None
    if allowed_nodes is not None:
        allowed = np.array(sorted(graph.index[c] for c in allowed_nodes), dtype=np.intp)
    reversed_layers = []
    dst = seed_idx
    for _ in range(layers):
        nbr_lists = []
        for i in dst:
            nbrs = graph.neighbors[i]
            if allowed is not None:
                nbrs = nbrs[np.isin(nbrs, allowed)]
            if edge_dropout > 0.0 and nbrs.size:
                nbrs = nbrs[rng.random(nbrs.size) >= edge_dropout]
            if fanout is not None and nbrs.size > fanout:
                nbrs = rng.choice(nbrs, size=fanout, replace=False)
            nbr_lists.append(np.sort(nbrs))
        src = np.unique(np.concatenate([dst] + nbr_lists))
        pos = {int(v): k for k, v in enumerate(src)}
        edge_src, edge_dst = [], []
        for di, nbrs in enumerate(nbr_lists):
            for v in nbrs:
                edge_src.append(pos[int(v)])
                edge_dst.append(di)
        reversed_layers.append(LayerBlock(
            src_nodes=src,
            dst_nodes=dst,
            self_rows=np.array([pos[int(v)] for v in dst], dtype=np.intp),
            edge_src=np.array(edge_src, dtype=np.intp),
            edge_dst=np.array(edge_dst, dtype=np.intp),
            counts=np.array([len(n) for n in nbr_lists], dtype=np.intp),
        ))
        dst = src
    return SampledBlock(seed_nodes=seed_idx, layers=list(reversed(reversed_layers)))


def batched_predict_std(model, ds, samples, batch_size):
    """Standardized predictions in seed batches of ``batch_size``, each
    target year apart for graph kinds: every batch builds its own block and
    embeds its own input nodes. The batched form of ``models._predict_std``."""
    by_year = model.spec.kind in GRAPH_KINDS
    groups = {}
    for i, (_, y) in enumerate(samples):
        groups.setdefault(y if by_year else None, []).append(i)
    out = np.empty(len(samples))
    for _, idx in sorted(groups.items()):
        for start in range(0, len(idx), batch_size):
            chunk = idx[start : start + batch_size]
            out[chunk] = model.forward_samples(ds, [samples[i] for i in chunk]).data
    return out


def reference_fit_ridge(X, y, lam):
    """Ridge through the normal equations with ``lam * np.eye(p)`` added
    to the Gram matrix: the formula ``models.fit_ridge`` must match bit
    for bit."""
    intercept = float(y.mean())
    yc = y - intercept
    gram = X.T @ X + lam * np.eye(X.shape[1])
    return LinearModel(coef=np.linalg.solve(gram, X.T @ yc), intercept=intercept)


def reference_fit_lasso(X, y, lam, max_iter=10_000, tol=1e-7):
    """Cyclic coordinate descent that keeps the residual: each coordinate
    reads its column of X, ``rho = X[:, j] @ resid / n + col_sq[j] * b_j``,
    and a move updates the residual. Same sweeps, soft-threshold rule and
    ``max_delta < tol`` stop as ``models.fit_lasso``."""
    n, p = X.shape
    intercept = float(y.mean())
    col_sq = (X * X).sum(axis=0) / n
    beta = np.zeros(p)
    resid = y - intercept
    converged = False
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = float(X[:, j] @ resid) / n + col_sq[j] * old
            new = soft_threshold(rho, lam) / col_sq[j]
            if new != old:
                resid -= (new - old) * X[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break
    return LinearModel(coef=beta, intercept=intercept, converged=converged)


def plan_row(plan, dataset, county):
    """Position of ``county`` in the plan's arrays; KeyError when the plan
    holds no means for it."""
    hit = np.flatnonzero(plan.rows == dataset.county_index.get(county, -1))
    if hit.size == 0:
        raise KeyError(f"county {county} missing from the replacement table")
    return int(hit[0])


Record = namedtuple("Record", "county year weather land_surface soil extras")


def record(dataset, county, year):
    """Copy of one stored county-year: its [ci, yi] slice of each block."""
    ci, yi = dataset.county_index[county], dataset.year_index[year]
    return Record(county, year, dataset.weather[ci, yi].copy(), dataset.land[ci, yi].copy(),
                  dataset.soil[ci, yi].copy(), dataset.extras[ci, yi].copy())


def apply_early_mask(features, plan, dataset):
    """Copy of one ``Record`` with weather/land weeks >= cutoff replaced by
    the plan's training means; earlier weeks, soil and extras unchanged.
    The per-record form of ``evaluation.mask_dataset_year``."""
    k = plan_row(plan, dataset, features.county)
    out_w = features.weather.copy()
    out_l = features.land_surface.copy()
    cut = plan.cutoff_week
    out_w[:, cut:] = plan.weather[k]
    out_l[:, cut:] = plan.land[k]
    return features._replace(weather=out_w, land_surface=out_l,
                             soil=features.soil.copy(), extras=features.extras.copy())


def reference_masking_plan(dataset, split, cutoff_week=CUTOFF_WEEK):
    """(cutoff, {county: weather [7, 52]}, {county: land [16, 52]}): the
    per-county ``np.nanmean`` over present training years of the dataset as
    given. The loop form of ``evaluation.build_masking_plan``."""
    train_idx = [dataset.year_index[y] for y in split.train_years(dataset.years)]
    weather_means, land_means = {}, {}
    for county in dataset.counties:
        ci = dataset.county_index[county]
        rows = [t for t in train_idx if dataset.present[ci, t]]
        if not rows:
            continue
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)  # an all-NaN cell's mean
            weather_means[county] = np.nanmean(dataset.weather[ci, rows], axis=0)
            land_means[county] = np.nanmean(dataset.land[ci, rows], axis=0)
    return cutoff_week, weather_means, land_means


def reference_mask_dataset_year(dataset, plan, year):
    """Copy of the whole dataset with one year masked by a
    ``reference_masking_plan``, county by county."""
    cut, weather_means, land_means = plan
    weather = dataset.weather.copy()
    land = dataset.land.copy()
    yi = dataset.year_index[year]
    for county, means in weather_means.items():
        ci = dataset.county_index[county]
        if dataset.present[ci, yi]:
            weather[ci, yi, :, cut:] = means[:, cut:]
            land[ci, yi, :, cut:] = land_means[county][:, cut:]
    return type(dataset)(
        dataset.counties, dataset.years, weather, land,
        dataset.soil, dataset.extras, dataset.present,
        dataset.yields, dataset.graph,
        norm_stats=dataset.norm_stats,
    )


def normalized(dataset, split):
    """``dataset`` normalized for ``split``: the dataset ``models.train`` takes."""
    return normalize(dataset, split)[0]


def identity_stats(dataset, split):
    """Feature norm stats of mean 0 and std 1 for ``split``'s training
    years: normalizing by them keeps every value's bits (``x - 0.0`` and
    ``x / 1.0`` are ``x``)."""
    return NormStats(
        tuple(split.train_years(dataset.years)),
        {b: np.zeros(shape) for b, shape in BLOCK_SHAPES.items()},
        {b: np.ones(shape) for b, shape in BLOCK_SHAPES.items()},
    )


def _csv_field(text):
    """``text`` as csv.writer writes a field of a row with more than one."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def save_csv_dataset(dataset, out_dir):
    """``out_dir`` as a dataset in the CSV import form: ``features.csv``
    beside ``save_dataset``'s yields.csv and adjacency.tsv, with no store.
    A present record is a row, each float in shortest round-trip form and
    a NaN cell blank; an absent record has no row. Returns the three paths
    in ``load_dataset``'s order."""
    store, ypath, apath = save_dataset(dataset, out_dir)
    os.remove(store)
    fpath = os.path.join(out_dir, "features.csv")
    n_years = len(dataset.years)
    with open(fpath, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(feature_columns())
        for county in dataset.counties:
            a = dataset.county_index[county]
            records = np.concatenate(
                [getattr(dataset, name)[a].reshape(n_years, -1) for name in BLOCKS], axis=1
            )
            prefix = _csv_field(county)
            for year in dataset.years:
                b = dataset.year_index[year]
                if dataset.present[a, b]:
                    # repr spells NaN "nan", the only token with those letters
                    text = ",".join(map(repr, records[b].tolist())).replace("nan", "")
                    f.write(f"{prefix},{year},{text}\r\n")
    return fpath, ypath, apath


def reference_evaluate(predictor, dataset, split, early=False):
    """(predictions, rmse, n, skipped) of the test year by the whole-dataset
    flow: normalize every year, the loop plan, the full mask copy, then
    ``predict_year``. The oracle of ``evaluation.evaluate``'s scoring."""
    test_year = split.test_year
    crop = predictor.spec.crop
    if test_year not in dataset.year_index:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}: "
                          f"not a dataset year")
    ds = apply_norm_stats(dataset, predictor.norm_stats)
    if early:
        ds = reference_mask_dataset_year(ds, reference_masking_plan(ds, split), test_year)
    samples, skipped = enumerate_windows(ds, [test_year], crop, predictor.spec.history_years)
    counties = [c for c, _ in samples]
    if not counties:
        raise MetricError(f"no evaluable counties for {crop} in {test_year}")
    preds = np.asarray(predictor.predict_year(ds, counties, test_year), dtype=np.float64)
    true = np.array([ds.yields.get(c, test_year, crop) for c in counties])
    return preds, rmse(true, preds, ds.yields.std_all_years(crop)), len(counties), skipped


# -- adjacency queries over a CountyGraph ------------------------------------


def degree(graph, county):
    return len(graph.neighbors[graph.index[county]])


def max_degree(graph):
    return max((len(v) for v in graph.neighbors), default=0)


def neighbor_ids(graph, county):
    return [graph.node_ids[j] for j in graph.neighbors[graph.index[county]]]


def is_symmetric(graph):
    return all(i in graph.neighbors[j]
               for i, nbrs in enumerate(graph.neighbors) for j in nbrs)


def pack_weight_map(weights):
    """``{county: [(cell, weight), ...]}`` in the form
    ``geo.build_weight_map`` returns: ``{county: (int64 cells, float64
    weights)}``, in list order."""
    packed = {}
    for county, pairs in weights.items():
        cells, ws = zip(*pairs) if pairs else ((), ())
        packed[county] = (np.array(cells, dtype=np.int64), np.array(ws, dtype=np.float64))
    return packed


def reference_aggregate_to_county(raster, weights, county):
    """``geo.aggregate_to_county`` one cell at a time, over the unpacked
    ``{county: [(cell, weight), ...]}`` form: a bounds check, a nodata skip
    and two running sums from 0.0."""
    num = 0.0
    den = 0.0
    for cell, w in weights.get(county, []):
        if cell < 0 or cell >= raster.values.size:
            raise GeoFormatError(f"county {county}: cell {cell} outside the raster")
        if raster.is_nodata(cell):
            continue
        num += w * raster.values[cell]
        den += w
    if den == 0.0:
        return None
    return num / den


def reference_daily_to_weekly(series, variable_kind):
    """``geo.daily_to_weekly`` with the week sums made by ``np.add.at``."""
    series = np.asarray(series, dtype=np.float64)
    week_of_day = np.minimum(np.arange(series.size) // 7, WEEKS - 1)
    sums = np.zeros(WEEKS)
    np.add.at(sums, week_of_day, series)
    if variable_kind == "flux":
        return sums
    return sums / np.bincount(week_of_day, minlength=WEEKS)


# The soil-texture schema behind the tex_* soil columns: the NRCS
# twelve-class sand/silt/clay rules encoded as inequality tables.
TEXTURE_CLASSES = (
    "Sand", "Loamy Sand", "Sandy Loam", "Loam", "Silt Loam", "Silt",
    "Sandy Clay Loam", "Clay Loam", "Silty Clay Loam", "Sandy Clay",
    "Silty Clay", "Clay",
)


@dataclass
class TexturePoint:
    """Sand/silt/clay percentages; renormalized to sum 100 (inputs may be
    rounded, tolerance 0.5)."""

    sand: float
    silt: float
    clay: float

    def __post_init__(self):
        for name, v in (("sand", self.sand), ("silt", self.silt), ("clay", self.clay)):
            if not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} percentage {v} outside [0, 100]")
        total = self.sand + self.silt + self.clay
        if abs(total - 100.0) > 0.5:
            raise ValueError(f"sand+silt+clay = {total}, expected 100 +- 0.5")
        self.sand = self.sand * 100.0 / total
        self.silt = self.silt * 100.0 / total
        self.clay = self.clay * 100.0 / total


def classify_texture(point):
    """Map a simplex point to exactly one of the twelve NRCS classes."""
    sand, silt, clay = point.sand, point.silt, point.clay
    if silt + 1.5 * clay < 15:
        return "Sand"
    if silt + 2.0 * clay < 30:
        return "Loamy Sand"
    if (7 <= clay < 20 and sand > 52) or (clay < 7 and silt < 50):
        if silt + 2.0 * clay >= 30:
            return "Sandy Loam"
    if 7 <= clay < 27 and 28 <= silt < 50 and sand <= 52:
        return "Loam"
    if silt >= 50 and ((12 <= clay < 27) or (silt < 80 and clay < 12)):
        return "Silt Loam"
    if silt >= 80 and clay < 12:
        return "Silt"
    if 20 <= clay < 35 and silt < 28 and sand > 45:
        return "Sandy Clay Loam"
    if 27 <= clay < 40 and 20 < sand <= 45:
        return "Clay Loam"
    if 27 <= clay < 40 and sand <= 20:
        return "Silty Clay Loam"
    if clay >= 35 and sand > 45:
        return "Sandy Clay"
    if clay >= 40 and silt >= 40:
        return "Silty Clay"
    return "Clay"


def county_texture_fractions(points, weights=None):
    """Weight-normalized histogram over the twelve classes; empty input is
    missing (None)."""
    points = list(points)
    if not points:
        return None
    if weights is None:
        weights = [1.0] * len(points)
    weights = np.asarray(list(weights), dtype=np.float64)
    if weights.size != len(points) or np.any(weights < 0):
        raise ValueError("weights must be non-negative, one per point")
    total = weights.sum()
    if total == 0.0:
        return None
    hist = np.zeros(len(TEXTURE_CLASSES))
    index = {name: i for i, name in enumerate(TEXTURE_CLASSES)}
    for p, w in zip(points, weights):
        hist[index[classify_texture(p)]] += w
    return hist / total
