"""Model zoo behind one prediction interface, training, checkpoints.

Single-year methods: ridge and lasso over flattened features; GRU, LSTM,
or CNN encoders over the weekly series plus the soil encoder; and a
graph model that refines the county embedding with two rounds of
neighborhood aggregation. Five-year methods feed per-year
representations (flattened vectors, CNN embeddings, or graph-refined
embeddings with encoders shared across years) through an LSTM/GRU and a
two-layer head.

Targets are standardized per crop with training-year statistics;
checkpoints carry the statistics, so reloads reproduce predictions bit
for bit.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field, fields
from itertools import zip_longest

import numpy as np

from yieldgraph.autodiff import NonFiniteError, Tensor, concat, no_grad, take_rows
from yieldgraph.data import (
    BLOCK_SHAPES,
    CROPS,
    DEPTHS,
    N_EXTRAS,
    N_LAND,
    N_SOIL,
    N_WEATHER,
    WEEKS,
    NormStats,
    WindowUnavailableError,
    enumerate_windows,
)
from yieldgraph.evaluation import rmse
from yieldgraph.graph import (
    AGGREGATORS,
    build_sage_stack,
    full_block,
    gnn_forward,
    sample_block,
)
from yieldgraph.layers import (
    Dense,
    RecurrentCell,
    SoilEncoder,
    WeeklyEncoder,
    YearEmbedder,
    in_lanes,
    rnn_forward,
)
from yieldgraph.optim import AdamState, LrSchedule, adam_step, logcosh_loss, lr_at

WEEKLY_CHANNELS = N_WEATHER + N_LAND  # weather and land series stacked per week
FLAT_WIDTH = WEEKLY_CHANNELS * WEEKS + N_SOIL * DEPTHS + N_EXTRAS


class ConfigurationError(ValueError):
    """A model was invoked with an incompatible configuration."""


class TrainingAbort(RuntimeError):
    """Training hit a non-finite value; the message names the epoch and batch."""

    def __init__(self, epoch, batch, cause):
        super().__init__(f"non-finite value at epoch {epoch}, batch {batch}: {cause}")


@dataclass(frozen=True)
class ArchWidths:
    """Architecture widths; defaults keep the graph input near 100 dimensions.
    The conv kernel widths are layers.WEEKLY_KERNELS and SOIL_KERNEL."""

    weekly_channels: tuple = (32, 64, 96, 128)
    weekly_out: int = 64
    soil_channels: tuple = (24, 28, 32)
    soil_out: int = 32
    rnn_hidden: int = 64
    gnn_hidden: int = 64
    head_hidden: int = 64

    @staticmethod
    def toy():
        return ArchWidths(
            weekly_channels=(4, 4, 4, 4), weekly_out=8,
            soil_channels=(4, 4, 4), soil_out=6,
            rnn_hidden=8, gnn_hidden=8, head_hidden=8,
        )


# A hyperparameter's text form follows its field's annotation. This module
# and optim postpone annotations, so each annotation is the type's name.
_PARSERS = {
    "int": int, "float": float, "str": str,
    "tuple": lambda text: tuple(int(x) for x in text.split(",")),
}


def format_field(f, value):
    """Text of a hyperparameter in config echoes and checkpoint headers:
    floats by repr, tuples comma-joined, ints and strs bare."""
    if f.type == "float":
        return repr(value)
    if f.type == "tuple":
        return ",".join(map(str, value))
    return str(value)


def parse_field(f, text):
    """Inverse of format_field."""
    return _PARSERS[f.type](text)


# -- feature assembly ---------------------------------------------------------


def gather_year_blocks(ds, samples, crop, year_offset=0):
    """Dense arrays for (county, target_year + offset) pairs.

    Returns (weekly [B,23,52], soil [B,20,6], extras [B,7]); ``weekly``
    stacks the 7 weather channels over the 16 land-surface channels, the
    input order of the weekly encoder and the recurrent cells. The year
    index and the previous-year mean (extras[6]) are looked up once per
    distinct window year. Models read normalized features only, so an
    unnormalized dataset raises ConfigurationError.
    """
    if ds.norm_stats is None:
        raise ConfigurationError("model features need a dataset normalized by data.normalize")
    counties, targets = zip(*samples)
    n = len(samples)
    by_year = {y: (ds.year_index[y + year_offset], ds.prev_mean_feature(crop, y + year_offset))
               for y in set(targets)}
    ci = np.fromiter(map(ds.county_index.__getitem__, counties), np.intp, n)
    yi = np.fromiter((by_year[y][0] for y in targets), np.intp, n)
    prev = np.fromiter((by_year[y][1] for y in targets), np.float64, n)
    extras = np.concatenate([ds.extras[ci, yi], prev[:, None]], axis=1)
    # filled block by block, so one gathered temporary is alive at a time
    weekly = np.empty((len(samples), WEEKLY_CHANNELS, WEEKS))
    weekly[:, :N_WEATHER] = ds.weather[ci, yi]
    weekly[:, N_WEATHER:] = ds.land[ci, yi]
    return weekly, ds.soil[ci, yi], extras


def flatten_blocks(weekly, soil, extras):
    """One row per sample: the [C, L] flatten of the weekly block (weather
    then land), then the soil block's, then the extras."""
    b = weekly.shape[0]
    return np.concatenate([weekly.reshape(b, -1), soil.reshape(b, -1), extras], axis=1)


def _weekly_sequence(weekly):
    """[B,23,52] -> list of 52 step tensors [B,23]."""
    return [Tensor(np.ascontiguousarray(weekly[:, :, k])) for k in range(weekly.shape[2])]


class RegressionHead:
    """Dense(hidden) -> relu -> Dense(1)."""

    def __init__(self, in_dim, hidden, rng):
        self.fc1 = Dense(in_dim, hidden, rng)
        self.fc2 = Dense(hidden, 1, rng)

    def __call__(self, x):
        return self.fc2(self.fc1(x).relu()).reshape((x.data.shape[0],))

    def parameters(self, prefix):
        params = self.fc1.parameters(f"{prefix}.fc1")
        params.update(self.fc2.parameters(f"{prefix}.fc2"))
        return params


# -- deep models ----------------------------------------------------------------


class _Model:
    """Shared surface: forward_samples(ds, [(county, target_year)]) -> Tensor[B].

    A non-graph model reads only each sample's own records, so its forward
    is ``forward_blocks(years)``: one (weekly, soil, extras) tuple of
    [B, ...] arrays per window year, oldest first, alike in training and at
    inference. Graph models override forward_samples, since they also read
    the neighbouring counties (sampled from ``rng`` in training).
    """

    def __init__(self, spec):
        self.spec = spec

    def parameters(self):
        raise NotImplementedError

    def forward_blocks(self, years):
        raise NotImplementedError

    def forward_samples(self, ds, samples, training=False, rng=None):
        years = [gather_year_blocks(ds, samples, self.spec.crop, offset)
                 for offset in range(-self.spec.history_years, 1)]
        return self.forward_blocks(years)


def _make_soil(spec, rng):
    return SoilEncoder(rng, N_SOIL, DEPTHS, spec.widths.soil_channels, spec.widths.soil_out)


def _make_embedder(spec, rng):
    w = spec.widths
    weekly = WeeklyEncoder(rng, WEEKLY_CHANNELS, WEEKS, w.weekly_channels, w.weekly_out)
    return YearEmbedder(weekly, _make_soil(spec, rng), N_EXTRAS)


def _year_head(spec, in_dim, rng):
    """(cell, head): the kind's GRU/LSTM over the window years (None for a
    kind without a cell), then the regression head."""
    cell = None
    cell_kind = KIND_TABLE[spec.kind].cell
    if cell_kind is not None:
        cell = RecurrentCell(cell_kind, in_dim, spec.widths.rnn_hidden, rng)
        in_dim = spec.widths.rnn_hidden
    return cell, RegressionHead(in_dim, spec.widths.head_hidden, rng)


def _embed(embedder, blocks):
    """The embedder over one (weekly, soil, extras) tuple of arrays."""
    return embedder.embed(*(Tensor(b) for b in blocks))


def _over_years(cell, steps):
    return steps[0] if cell is None else rnn_forward(cell, steps)


def _collect(**parts):
    """{name: Tensor} of each part's parameters under its prefix; skips None."""
    params = {}
    for prefix, part in parts.items():
        if part is not None:
            params.update(part.parameters(prefix))
    return params


class CnnModel(_Model):
    """Conv embedder per year -> (five-year kinds) LSTM over the years -> head."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.embedder = _make_embedder(spec, rng)
        self.cell, self.head = _year_head(spec, self.embedder.out_dim, rng)

    def parameters(self):
        return _collect(embed=self.embedder, cell=self.cell, head=self.head)

    def forward_blocks(self, years):
        steps = in_lanes([functools.partial(_embed, self.embedder, blocks) for blocks in years])
        return self.head(_over_years(self.cell, steps))


class RecurrentWeeklyModel(_Model):
    """Single-year GRU/LSTM over the 52-week series, plus the soil encoder."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.cell = RecurrentCell(KIND_TABLE[spec.kind].cell, WEEKLY_CHANNELS,
                                  spec.widths.rnn_hidden, rng)
        self.soil = _make_soil(spec, rng)
        in_dim = spec.widths.rnn_hidden + spec.widths.soil_out + N_EXTRAS
        self.head = RegressionHead(in_dim, spec.widths.head_hidden, rng)

    def parameters(self):
        return _collect(cell=self.cell, soil=self.soil, head=self.head)

    def forward_blocks(self, years):
        ((weekly, soil, extras),) = years
        h_weekly = rnn_forward(self.cell, _weekly_sequence(weekly))
        return self.head(concat([h_weekly, self.soil(Tensor(soil)), Tensor(extras)], axis=1))


class FlatHistoryModel(_Model):
    """5-year GRU/LSTM over per-year flattened feature vectors."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.cell, self.head = _year_head(spec, FLAT_WIDTH, rng)

    def parameters(self):
        return _collect(cell=self.cell, head=self.head)

    def forward_blocks(self, years):
        steps = [Tensor(flatten_blocks(*blocks)) for blocks in years]
        return self.head(_over_years(self.cell, steps))


def _reorder(block, ds, counties, z):
    """Rows of ``z`` (one per seed node of ``block``) in ``counties`` order."""
    seed_ids = [ds.graph.node_ids[i] for i in block.seed_nodes]
    pos = {c: i for i, c in enumerate(seed_ids)}
    order = np.array([pos[c] for c in counties], dtype=np.intp)
    if np.array_equal(order, np.arange(len(counties))):
        return z
    return take_rows(z, order)


# Rows per embedder call at inference. A call's im2col buffers grow with
# its rows, so this bounds them at any county count; per row, a 128-row
# call runs as fast as a larger one. A block that splits by its shape
# runs its two halves on the lane's own thread inside ``layers.in_lanes``
# and on two threads outside it, the same GEMM calls either way (see
# layers.conv1d). The chunks of all window years are independent
# jobs of ``in_lanes``, so its two lanes hold two chunks' transients.
EMBED_CHUNK_ROWS = 128


class GnnModel(_Model):
    """Conv embedder -> 2 aggregation layers, per year with shared weights
    -> (five-year kinds) LSTM over the years -> head.

    One forward serves all of a target year's seeds: it builds one block
    (sampled in training, the full neighbourhood at inference), embeds
    each (input county, window year) once, then runs the SAGE stack of
    each window year over the whole block, then the cell and the head.
    Inference embeds the input rows EMBED_CHUNK_ROWS at a time; training
    embeds them in one call per year. The embedder calls of all years,
    then the years' SAGE stacks, go to ``layers.in_lanes``: at inference
    they run on two threads, and in training in order on the caller. The
    backward sweep's order follows the tape's graph, not the order its
    nodes were made in, so training keeps the bits of embedding and
    refining one year after the other.
    """

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.embedder = _make_embedder(spec, rng)
        self.stack = build_sage_stack(self.embedder.out_dim, spec.widths.gnn_hidden,
                                      spec.aggregator, rng)
        self.cell, self.head = _year_head(spec, spec.widths.gnn_hidden, rng)

    def parameters(self):
        params = _collect(embed=self.embedder, cell=self.cell, head=self.head)
        for i, layer in enumerate(self.stack):
            params.update(layer.parameters(f"gnn.layer{i}"))
        return params

    def forward_samples(self, ds, samples, training=False, rng=None):
        targets = {y for _, y in samples}
        if len(targets) != 1:
            raise ConfigurationError(f"graph batches must share one target year, got {sorted(targets)}")
        year = targets.pop()
        counties = [c for c, _ in samples]
        years = list(range(year - self.spec.history_years, year + 1))
        block = self._block(ds, counties, years, training, rng)
        input_ids = [ds.graph.node_ids[i] for i in block.input_nodes]
        rows = len(input_ids) if training else EMBED_CHUNK_ROWS
        chunks = [input_ids[start : start + rows] for start in range(0, len(input_ids), rows)]
        parts = in_lanes([functools.partial(self._embed_chunk, ds, chunk, y)
                          for y in years for chunk in chunks])
        n = len(chunks)
        zs = in_lanes([functools.partial(self._refine, block, parts[i : i + n])
                       for i in range(0, len(parts), n)])
        return self.head(_reorder(block, ds, counties, _over_years(self.cell, zs)))

    def _block(self, ds, counties, years, training, rng):
        complete = ds.window_mask(years[-1], len(years) - 1)
        allowed = {c for c, ok in zip(ds.counties, complete) if ok}
        missing = [c for c in counties if c not in allowed]
        if missing:
            raise WindowUnavailableError(
                f"counties lack complete features for years {list(years)}: {missing[:3]}"
            )
        if training:
            return sample_block(
                ds.graph, counties, fanout=self.spec.fanout, layers=len(self.stack),
                edge_dropout=self.spec.edge_dropout, rng=rng, allowed_nodes=allowed,
            )
        return full_block(ds.graph, counties, layers=len(self.stack), allowed_nodes=allowed)

    def _embed_chunk(self, ds, counties, year):
        samples = [(c, year) for c in counties]
        return _embed(self.embedder, gather_year_blocks(ds, samples, self.spec.crop))

    def _refine(self, block, parts):
        """The SAGE stack over one window year's embedded input rows."""
        base = parts[0] if len(parts) == 1 else concat(parts, axis=0)
        return gnn_forward(self.stack, block, base)


# -- linear baselines -----------------------------------------------------------


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float
    converged: bool = True


def _fit_inputs(X, y, lam):
    """X [n,p] and y [n] as float64, once lam is a finite penalty >= 0."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or X.shape[0] < 1:
        raise ValueError(f"need X [n,p] and y [n], got {X.shape}, {y.shape}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    return X, y


def fit_ridge(X, y, lam):
    """Solve (X^T X + lam I) beta = X^T (y - mean(y)); intercept = mean(y)."""
    X, y = _fit_inputs(X, y, lam)
    intercept = float(y.mean())
    yc = y - intercept
    gram = X.T @ X
    gram.flat[:: X.shape[1] + 1] += lam
    try:
        coef = np.linalg.solve(gram, X.T @ yc)
    except np.linalg.LinAlgError as e:
        raise ValueError("normal equations are singular; use lam > 0") from e
    if lam == 0.0 and not np.allclose(gram @ coef, X.T @ yc, atol=1e-6):
        raise ValueError("normal equations are singular; use lam > 0")
    return LinearModel(coef=coef, intercept=intercept)


def soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def fit_lasso(X, y, lam, max_iter=10_000, tol=1e-7):
    """Cyclic coordinate descent with soft-thresholding on
    (1/2n)||y - Xb||^2 + lam ||b||_1; y is centered, intercept = mean(y).
    A sweep is one pass over j = 0..p-1; the fit stops after the first
    sweep whose largest step is below ``tol``. Non-convergence flags the
    model instead of failing.

    Covariance updates (Friedman, Hastie & Tibshirani, J. Stat. Softw.
    33(1), 2010, sec. 2.2): the gradient c = X^T (y - Xb) / n is kept
    against the Gram matrix G = X^T X / n, formed once (p x p floats,
    O(n p^2) work). After that a coordinate that moves costs O(p),
    ``c -= delta * G[j]``, and X is never read again; a zero coordinate
    with |c_j| <= lam would not move, so it costs no vector work. Each
    move rounds each entry of c once, as naive updates (which keep the
    residual y - Xb instead) round each entry of the residual, so the kept
    c drifts from X^T (y - Xb) / n no faster than a kept residual would.
    """
    X, y = _fit_inputs(X, y, lam)
    n, p = X.shape
    intercept = float(y.mean())
    gram = X.T @ X
    gram /= n
    col_sq = gram.diagonal().tolist()
    c = X.T @ (y - intercept) / n
    beta = [0.0] * p
    converged = False
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            old = beta[j]
            cj = c.item(j)
            if old == 0.0 and (-lam <= cj <= lam or col_sq[j] == 0.0):
                continue  # it would not move, and a zero column must not divide
            new = soft_threshold(cj + col_sq[j] * old, lam) / col_sq[j]
            if new != old:
                c -= (new - old) * gram[j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break
    return LinearModel(coef=np.array(beta), intercept=intercept, converged=converged)


def lasso_objective(X, y, model, lam):
    n = X.shape[0]
    resid = (y - y.mean()) - X @ model.coef
    return float(resid @ resid / (2 * n) + lam * np.abs(model.coef).sum())


class LinearWrapper(_Model):
    """Ridge or lasso over the target year's flattened features. The
    coefficients are fitted (``_train_linear``) or loaded, never drawn, so
    ``rng`` goes unused; it keeps the constructor of every kind alike."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.coef = Tensor(np.zeros(FLAT_WIDTH))
        self.intercept = Tensor(np.zeros(1))

    def parameters(self):
        return {"linear.coef": self.coef, "linear.intercept": self.intercept}

    def forward_blocks(self, years):
        (blocks,) = years
        return Tensor(flatten_blocks(*blocks) @ self.coef.data + float(self.intercept.data[0]))


# -- kinds and specs -------------------------------------------------------------


@dataclass(frozen=True)
class ModelKind:
    model: type
    history_years: int  # years before the target year in a window
    cell: str | None  # "gru" or "lstm": the recurrent cell, if the kind has one


# The only place a kind is declared: its model class, its window and its cell.
KIND_TABLE = {
    "ridge-1y": ModelKind(LinearWrapper, 0, None),
    "lasso-1y": ModelKind(LinearWrapper, 0, None),
    "gru-1y": ModelKind(RecurrentWeeklyModel, 0, "gru"),
    "lstm-1y": ModelKind(RecurrentWeeklyModel, 0, "lstm"),
    "cnn-1y": ModelKind(CnnModel, 0, None),
    "gnn-1y": ModelKind(GnnModel, 0, None),
    "gru-5y": ModelKind(FlatHistoryModel, 4, "gru"),
    "lstm-5y": ModelKind(FlatHistoryModel, 4, "lstm"),
    "cnn-rnn-5y": ModelKind(CnnModel, 4, "lstm"),
    "gnn-rnn-5y": ModelKind(GnnModel, 4, "lstm"),
}
ALL_KINDS = tuple(KIND_TABLE)
GRAPH_KINDS = tuple(k for k, entry in KIND_TABLE.items() if entry.model is GnnModel)


@dataclass(frozen=True)
class ModelSpec:
    """Every hyperparameter of a run. The train command's flags and config
    keys, its config echo and the checkpoint header are made from these
    fields (and those of LrSchedule and ArchWidths); a field's ``choices``
    metadata is checked here and offered on the command line, as are lr > 0
    (the peak of ``schedule``), batch_size >= 1, epochs >= 1 and seed >= 0."""

    kind: str = field(metadata={"choices": ALL_KINDS})
    crop: str = field(default="corn", metadata={"choices": CROPS})
    lr: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    weight_decay: float = 1e-5
    schedule: LrSchedule = field(default_factory=LrSchedule)
    fanout: int = 10
    edge_dropout: float = 0.1
    aggregator: str = field(default="pool", metadata={"choices": AGGREGATORS})
    seed: int = 0
    ridge_lambda: float = 1.0
    lasso_lambda: float = 0.01
    widths: ArchWidths = field(default_factory=ArchWidths)

    def __post_init__(self):
        for f in fields(self):
            choices = f.metadata.get("choices", ())
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigurationError(
                    f"unknown {f.name} {value!r}; choose from {', '.join(choices)}"
                )
        if not (self.lr > 0 and self.batch_size >= 1 and self.epochs >= 1 and self.seed >= 0):
            raise ConfigurationError(
                f"need lr > 0, batch_size >= 1, epochs >= 1 and seed >= 0, got "
                f"{self.lr!r}, {self.batch_size}, {self.epochs}, {self.seed}")

    @property
    def history_years(self):
        return KIND_TABLE[self.kind].history_years


# Final configurations from the hyperparameter study, keyed by
# (kind, crop, test_year) with (kind, crop) fallback.
_DEFAULT_HP = {
    ("cnn-rnn-5y", "corn"): dict(batch_size=128, lr=1e-4, weight_decay=1e-5, epochs=100,
                                 schedule=LrSchedule("step", period=25, gamma=0.5)),
    ("cnn-rnn-5y", "soybean"): dict(batch_size=128, lr=5e-4, weight_decay=1e-5, epochs=100,
                                    schedule=LrSchedule("step", period=25, gamma=0.5)),
    ("gnn-1y", "corn", 2018): dict(batch_size=32, lr=1e-4, weight_decay=1e-5, epochs=100,
                                   schedule=LrSchedule("cosine", t0=200, eta_min=1e-5),
                                   edge_dropout=0.1, aggregator="pool"),
    ("gnn-1y", "corn", 2019): dict(batch_size=64, lr=5e-5, weight_decay=1e-5, epochs=200,
                                   schedule=LrSchedule("cosine", t0=100, eta_min=1e-5),
                                   edge_dropout=0.0, aggregator="mean"),
    ("gnn-1y", "soybean"): dict(batch_size=64, lr=1e-4, weight_decay=1e-5, epochs=100,
                                schedule=LrSchedule("step", period=25, gamma=0.8),
                                edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "corn", 2018): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                       schedule=LrSchedule("cosine", t0=100, eta_min=1e-6),
                                       edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "corn", 2019): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                       schedule=LrSchedule("cosine", t0=200, eta_min=1e-6),
                                       edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "soybean", 2018): dict(batch_size=32, lr=1e-4, weight_decay=1e-4, epochs=100,
                                          schedule=LrSchedule("cosine", t0=100, eta_min=1e-6),
                                          edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "soybean", 2019): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                          schedule=LrSchedule("cosine", t0=100, eta_min=1e-6),
                                          edge_dropout=0.1, aggregator="pool"),
}


def default_spec(kind, crop=ModelSpec.crop, test_year=None, **overrides):
    hp = _DEFAULT_HP.get((kind, crop, test_year), _DEFAULT_HP.get((kind, crop), {}))
    merged = dict(hp)
    if "lr" in overrides and "schedule" not in overrides:
        merged.pop("schedule", None)  # a bare lr override means a constant schedule
    merged.update(overrides)
    return ModelSpec(kind=kind, crop=crop, **merged)


def build_model(spec, rng):
    return KIND_TABLE[spec.kind].model(spec, rng)


# -- training -------------------------------------------------------------------


def _batches(samples, batch_size, rng, by_year):
    """Seeded shuffle into batches; graph kinds get year-homogeneous batches."""
    if by_year:
        years = sorted({y for _, y in samples})
        year_order = list(rng.permutation(len(years)))
        batches = []
        for yi in year_order:
            year = years[yi]
            group = [s for s in samples if s[1] == year]
            order = rng.permutation(len(group))
            for start in range(0, len(group), batch_size):
                batches.append([group[i] for i in order[start : start + batch_size]])
        return batches
    order = rng.permutation(len(samples))
    return [
        [samples[i] for i in order[start : start + batch_size]]
        for start in range(0, len(samples), batch_size)
    ]


def _standardized_targets(ds, samples, crop):
    stats = ds.norm_stats
    return np.array(
        [stats.standardize_target(crop, ds.yields.get(c, y, crop)) for c, y in samples]
    )


def _predict_std(model, ds, samples, batch_size):
    """Standardized predictions under no_grad(), deterministic.

    Non-graph kinds run in batches of ``batch_size``. Graph kinds run all
    samples in one forward, so each county-year is embedded once; the
    samples must share one target year (ConfigurationError otherwise).
    Overflow warnings are silenced: every op's result is checked for
    NaN/Inf, which raises NonFiniteError instead.
    """
    rows = max(len(samples), 1) if model.spec.kind in GRAPH_KINDS else batch_size
    out = np.empty(len(samples))
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(samples), rows):
            out[start : start + rows] = model.forward_samples(
                ds, samples[start : start + rows]).data
    return out


def train(spec, ds, split):
    """Fit per the spec on ``ds``, the dataset ``data.normalize(dataset,
    split)`` returned, and return the checkpoint of the best validation
    epoch (lowest validation RMSE; earliest wins ties). Any other dataset
    raises ``ConfigurationError`` before a model is built."""
    train_years = split.train_years(ds.years)
    if ds.norm_stats is None or ds.norm_stats.train_years != tuple(train_years):
        raise ConfigurationError(f"train needs the dataset normalized for years {train_years}")
    crop = spec.crop
    if split.val_year not in ds.year_index:
        raise ConfigurationError(f"validation year {split.val_year} absent from dataset")
    samples, skipped = enumerate_windows(ds, train_years, crop, spec.history_years)
    if not samples:
        raise ConfigurationError("empty training set")
    val_samples, _ = enumerate_windows(ds, [split.val_year], crop, spec.history_years)
    if not val_samples:
        raise ConfigurationError(f"no {crop} validation samples in {split.val_year}")

    if KIND_TABLE[spec.kind].model is LinearWrapper:
        return _train_linear(spec, ds, split, samples, val_samples, skipped)

    ss = np.random.SeedSequence(spec.seed)
    init_rng, order_rng, graph_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    model = build_model(spec, init_rng)
    params = model.parameters()
    adam = AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    by_year = spec.kind in GRAPH_KINDS

    history = []
    best = None
    for epoch in range(spec.epochs):
        adam.lr = lr_at(spec.schedule, spec.lr, epoch)
        epoch_loss = 0.0
        seen = 0
        for batch_idx, batch in enumerate(_batches(samples, spec.batch_size, order_rng, by_year)):
            try:
                # overflow surfaces as NonFiniteError from the finiteness checks
                with np.errstate(over="ignore", invalid="ignore"):
                    preds = model.forward_samples(ds, batch, training=True, rng=graph_rng)
                    loss = logcosh_loss(preds, _standardized_targets(ds, batch, crop))
                    for p in params.values():
                        p.zero_grad()
                    loss.backward()
                    adam_step(params, adam)
            except NonFiniteError as e:
                raise TrainingAbort(epoch, batch_idx, e) from e
            epoch_loss += loss.item() * len(batch)
            seen += len(batch)
        train_loss = epoch_loss / seen
        val_pred = _predict_std(model, ds, val_samples, spec.batch_size)
        val_true = _standardized_targets(ds, val_samples, crop)
        val_rmse = rmse(val_true, val_pred, 1.0)
        history.append({"epoch": epoch, "train_loss": train_loss, "val_rmse": val_rmse,
                        "lr": adam.lr})
        if best is None or val_rmse < best[1]:
            best = (epoch, val_rmse, {k: v.data.copy() for k, v in params.items()})

    best_epoch, _, best_params = best
    return ModelCheckpoint(
        spec=spec, params=best_params, norm_stats=ds.norm_stats, history=history,
        best_epoch=best_epoch, test_year=split.test_year, skipped_windows=skipped,
    )


def _train_linear(spec, ds, split, samples, val_samples, skipped):
    X = flatten_blocks(*gather_year_blocks(ds, samples, spec.crop))
    y = _standardized_targets(ds, samples, spec.crop)
    if spec.kind == "ridge-1y":
        linear = fit_ridge(X, y, spec.ridge_lambda)
    else:
        linear = fit_lasso(X, y, spec.lasso_lambda)
    model = build_model(spec, None)
    model.coef.data[...] = linear.coef
    model.intercept.data[0] = linear.intercept
    val_pred = _predict_std(model, ds, val_samples, spec.batch_size)
    val_rmse = rmse(_standardized_targets(ds, val_samples, spec.crop), val_pred, 1.0)
    history = [{"epoch": 0, "train_loss": float("nan"), "val_rmse": val_rmse, "lr": 0.0}]
    params = {k: v.data.copy() for k, v in model.parameters().items()}
    return ModelCheckpoint(
        spec=spec, params=params, norm_stats=ds.norm_stats, history=history, best_epoch=0,
        test_year=split.test_year, skipped_windows=skipped,
        lasso_converged=linear.converged,
    )


# -- checkpoints ----------------------------------------------------------------

_MAGIC = "yieldgraph-checkpoint v1"

# ModelSpec fields that hold a dataclass, with the header prefix of its fields.
_NESTED = {"schedule": (LrSchedule, "schedule_"), "widths": (ArchWidths, "")}


def _header_fields():
    """(header key, enclosing ModelSpec field or None, field) for every
    hyperparameter, in declaration order."""
    for f in fields(ModelSpec):
        if f.name in _NESTED:
            cls, prefix = _NESTED[f.name]
            for inner in fields(cls):
                yield prefix + inner.name, f.name, inner
        else:
            yield f.name, None, f


def _spec_header(spec):
    """(key, text) header lines for a spec."""
    for key, outer, f in _header_fields():
        owner = getattr(spec, outer) if outer else spec
        yield key, format_field(f, getattr(owner, f.name))


def _spec_from_header(kv):
    top, nested = {}, {name: {} for name in _NESTED}
    for key, outer, f in _header_fields():
        (nested[outer] if outer else top)[f.name] = parse_field(f, kv[key])
    for name, args in nested.items():
        top[name] = _NESTED[name][0](**args)
    return ModelSpec(**top)


_HEADER_KEYS = tuple(key for key, _, _ in _header_fields()) + (
    "best_epoch", "test_year", "skipped_windows", "lasso_converged", "train_years", "blocks",
)
# Header keys of hyperparameters that earlier v1 writers recorded and that
# now hold one value (a file with other weekly kernels fails the layout).
_RETIRED_KEYS = ("schedule_lr_max", "head_dropout", "weekly_kernels")
_HISTORY = ("train_loss", "val_rmse", "lr")


def _layout(spec, model, epochs):
    """(block name, shape) of each block of a checkpoint, in file order."""
    params = model.parameters()
    return ([(f"param/{k}", params[k].data.shape) for k in sorted(params)]
            + [(f"norm/{b}_{stat}", shape) for b, shape in BLOCK_SHAPES.items()
               for stat in ("mean", "std")]
            + [(f"norm/target_{spec.crop}", (2,))]
            + [(f"history/{k}", (epochs,)) for k in _HISTORY])


def _check_layout(path, found, layout):
    """ConfigurationError naming the first (name, shape) not the layout's."""
    if found != layout:
        have, want = next((f, w) for f, w in zip_longest(found, layout) if f != w)
        raise ConfigurationError(f"{path}: block {have} is not the layout's {want}")


class ModelCheckpoint:
    """Serialized parameters + spec + normalization stats + history."""

    def __init__(self, spec, params, norm_stats, history, best_epoch, test_year,
                 skipped_windows=0, lasso_converged=True):
        self.spec = spec
        self.params = params
        self.norm_stats = norm_stats
        self.history = history
        self.best_epoch = best_epoch
        self.test_year = test_year
        self.skipped_windows = skipped_windows
        self.lasso_converged = lasso_converged
        self._model = None

    def model(self):
        if self._model is None:
            model = build_model(self.spec, np.random.default_rng(0))
            for name, tensor in model.parameters().items():
                tensor.data[...] = self.params[name]
            self._model = model
        return self._model

    def predict_year(self, ds, counties, year):
        """Raw-unit (bushels/acre) predictions for counties in one year,
        scored by ``_predict_std`` (one forward for graph kinds)."""
        model = self.model()
        samples = [(c, year) for c in counties]
        std = _predict_std(model, ds, samples, self.spec.batch_size)
        return self.norm_stats.destandardize_target(self.spec.crop, std)

    def save(self, path):
        """Write a v1 checkpoint, once every block is checked against ``_layout``."""
        header = io.StringIO()
        header.write(_MAGIC + "\n")
        run = {
            "best_epoch": self.best_epoch,
            "test_year": self.test_year,
            "skipped_windows": self.skipped_windows,
            "lasso_converged": self.lasso_converged,
            "train_years": ",".join(map(str, self.norm_stats.train_years)),
        }
        for key, value in [*_spec_header(self.spec), *run.items()]:
            header.write(f"{key} = {value}\n")

        ns, crop = self.norm_stats, self.spec.crop
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        for b in BLOCK_SHAPES:
            arrays[f"norm/{b}_mean"], arrays[f"norm/{b}_std"] = ns.mean[b], ns.std[b]
        arrays[f"norm/target_{crop}"] = [ns.target_mean[crop], ns.target_std[crop]]
        arrays.update({f"history/{k}": [h[k] for h in self.history] for k in _HISTORY})
        layout = _layout(self.spec, self.model(), len(self.history))
        _check_layout(path, sorted((k, np.shape(v)) for k, v in arrays.items()), sorted(layout))

        header.write(f"blocks = {len(layout)}\n\n")
        with open(path, "wb") as f:
            f.write(header.getvalue().encode("utf-8"))
            for name, _ in layout:
                arr = np.asarray(arrays[name], dtype=np.float64)
                dims = " ".join(str(d) for d in arr.shape)
                f.write(f"{name} {arr.ndim} {dims}\n".encode("utf-8"))
                f.write(arr.astype("<f8").tobytes())
        return path

    @staticmethod
    def load(path):
        """Read a v1 checkpoint; a truncated or garbled file raises
        ConfigurationError naming what is wrong. What older writers added is
        dropped by exact name: ``_RETIRED_KEYS`` and the blocks ``norm/const_<b>``
        per record block and the other crop's target. The blocks left must be
        exactly ``_layout`` of its spec."""
        with open(path, "rb") as f:
            raw = f.read()
        head_end = raw.find(b"\n\n")
        header_lines = raw[: max(head_end, 0)].decode("utf-8", "replace").splitlines()
        if head_end < 0 or header_lines[:1] != [_MAGIC]:
            raise ConfigurationError(f"{path}: not a checkpoint file")
        kv = dict(line.partition(" = ")[::2] for line in header_lines[1:])
        missing = sorted(set(_HEADER_KEYS) - set(kv))
        unknown = sorted(set(kv) - set(_HEADER_KEYS) - set(_RETIRED_KEYS))
        if missing or unknown or len(header_lines) - 1 != len(kv):
            raise ConfigurationError(
                f"{path}: bad checkpoint header (missing {missing}, unknown {unknown})"
            )
        try:
            spec = _spec_from_header(kv)
            train_years = tuple(int(x) for x in kv["train_years"].split(","))
            run = dict(best_epoch=int(kv["best_epoch"]), test_year=int(kv["test_year"]),
                       skipped_windows=int(kv["skipped_windows"]),
                       lasso_converged={"True": True, "False": False}[kv["lasso_converged"]])
            n_blocks = int(kv["blocks"])
        except (KeyError, ValueError) as e:
            raise ConfigurationError(f"{path}: bad checkpoint header value: {e}") from e

        parsed = []
        pos = head_end + 2
        for index in range(n_blocks):
            line_end = raw.find(b"\n", pos)
            try:
                if line_end < 0:
                    raise ValueError("no line end")
                name, ndim, *dims = raw[pos:line_end].decode("utf-8").split(" ")
                shape = tuple(int(x) for x in dims)
                if int(ndim) != len(shape) or min(shape, default=0) < 0:
                    raise ValueError("bad shape")
            except ValueError as e:
                raise ConfigurationError(
                    f"{path}: block {index} of {n_blocks} has a bad header line"
                ) from e
            count = math.prod(shape)
            pos = line_end + 1
            if pos + 8 * count > len(raw):
                raise ConfigurationError(f"{path}: block {name!r} is truncated")
            arr = np.frombuffer(raw[pos : pos + 8 * count], dtype="<f8").reshape(shape)
            parsed.append((name, arr.copy()))
            pos += 8 * count
        if pos != len(raw):
            raise ConfigurationError(
                f"{path}: {len(raw) - pos} trailing bytes after {n_blocks} blocks"
            )
        legacy = {f"norm/const_{b}" for b in BLOCK_SHAPES}
        legacy.update(f"norm/target_{crop}" for crop in CROPS if crop != spec.crop)
        kept = [(name, arr) for name, arr in parsed if name not in legacy]
        blocks = dict(kept)
        model = build_model(spec, np.random.default_rng(0))
        layout = _layout(spec, model, blocks.get(f"history/{_HISTORY[0]}", np.empty(0)).size)
        _check_layout(path, [(name, arr.shape) for name, arr in kept], layout)

        params = {name: blocks[f"param/{name}"] for name in model.parameters()}
        for name, tensor in model.parameters().items():
            tensor.data = params[name]
        mean, std = blocks[f"norm/target_{spec.crop}"]
        stats = NormStats(train_years, {b: blocks[f"norm/{b}_mean"] for b in BLOCK_SHAPES},
                          {b: blocks[f"norm/{b}_std"] for b in BLOCK_SHAPES},
                          {spec.crop: float(mean)}, {spec.crop: float(std)})
        columns = zip(*(blocks[f"history/{key}"] for key in _HISTORY))
        history = [{"epoch": i, **{k: float(v) for k, v in zip(_HISTORY, row)}}
                   for i, row in enumerate(columns)]
        ckpt = ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=history,
                               **run)
        ckpt._model = model
        return ckpt
