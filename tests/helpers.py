"""Shared test oracles: finite differences and gradient comparison, the
composed recurrent cell step, single-node neighbour aggregation and
single-record early masking.

The finite-difference side only re-runs forward passes, keeping it
independent of the reverse-mode implementation it checks.
"""

import numpy as np

from yieldgraph.autodiff import Tensor, add_rowvec, matmul, narrow, take_rows


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


def reference_cell_step(cell, x, state):
    """One ``RecurrentCell`` step composed from primitive autodiff ops (one
    tape node per matmul, slice, gate and product); the oracle for the
    fused step. Same signature and result as ``cell.step``."""
    h = cell.hidden_size
    zx = add_rowvec(matmul(x, cell.w_x.transpose()), cell.b_x)
    zh = add_rowvec(matmul(state[0], cell.w_h.transpose()), cell.b_h)
    if cell.kind == "lstm":
        z = zx + zh
        i = narrow(z, 1, 0, h).sigmoid()
        f = narrow(z, 1, h, h).sigmoid()
        g = narrow(z, 1, 2 * h, h).tanh()
        o = narrow(z, 1, 3 * h, h).sigmoid()
        c_new = f * state[1] + i * g
        return o * c_new.tanh(), c_new
    r = (narrow(zx, 1, 0, h) + narrow(zh, 1, 0, h)).sigmoid()
    u = (narrow(zx, 1, h, h) + narrow(zh, 1, h, h)).sigmoid()
    n = (narrow(zx, 1, 2 * h, h) + r * narrow(zh, 1, 2 * h, h)).tanh()
    ones = Tensor(np.ones((x.data.shape[0], h)))
    return ((ones - u) * n + u * state[0],)


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
        return rows.max(axis=0)
    raise ValueError(f"unknown aggregator {aggregator!r}")


def apply_early_mask(features, plan):
    """Copy of one county-year with weather/land weeks >= cutoff replaced by
    the plan's training means; earlier weeks, soil and extras unchanged.
    The per-record form of ``evaluation.mask_dataset_year``."""
    if features.county not in plan.weather_means:
        raise KeyError(f"county {features.county} missing from the replacement table")
    out_w = features.weather.copy()
    out_l = features.land_surface.copy()
    cut = plan.cutoff_week
    out_w[:, cut:] = plan.weather_means[features.county][:, cut:]
    out_l[:, cut:] = plan.land_means[features.county][:, cut:]
    return type(features)(
        county=features.county,
        year=features.year,
        weather=out_w,
        land_surface=out_l,
        soil=features.soil.copy(),
        extras=features.extras.copy(),
    )
