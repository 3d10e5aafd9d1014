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

import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from yieldgraph.autodiff import NonFiniteError, Tensor, concat, no_grad, take_rows
from yieldgraph.data import (
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
    normalize,
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
    dropout,
    rnn_forward,
)
from yieldgraph.optim import AdamState, LrSchedule, adam_step, logcosh_loss, lr_at

KINDS_1Y = ("ridge-1y", "lasso-1y", "gru-1y", "lstm-1y", "cnn-1y", "gnn-1y")
KINDS_5Y = ("gru-5y", "lstm-5y", "cnn-rnn-5y", "gnn-rnn-5y")
ALL_KINDS = KINDS_1Y + KINDS_5Y
DEEP_KINDS = tuple(k for k in ALL_KINDS if k not in ("ridge-1y", "lasso-1y"))
GRAPH_KINDS = ("gnn-1y", "gnn-rnn-5y")
WEEKLY_CHANNELS = N_WEATHER + N_LAND  # weather and land series stacked per week
FLAT_WIDTH = WEEKLY_CHANNELS * WEEKS + N_SOIL * DEPTHS + N_EXTRAS


class ConfigurationError(ValueError):
    """A model was invoked with an incompatible configuration."""


class TrainingAbort(RuntimeError):
    """Training hit a non-finite value; carries the offending epoch/batch."""

    def __init__(self, epoch, batch, cause):
        super().__init__(f"non-finite value at epoch {epoch}, batch {batch}: {cause}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class ArchWidths:
    """Architecture widths; defaults keep 52 weeks divisible through the
    four pooling stages and the graph input near 100 dimensions."""

    weekly_channels: tuple = (32, 64, 96, 128)
    weekly_kernels: tuple = (7, 3, 3, 3)
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


@dataclass(frozen=True)
class ModelSpec:
    """Every hyperparameter of a run. The train command's flags and config
    keys, its config echo and the checkpoint header are made from these
    fields (and those of LrSchedule and ArchWidths); a field's ``choices``
    metadata is checked here and offered on the command line."""

    kind: str = field(metadata={"choices": ALL_KINDS})
    crop: str = field(default="corn", metadata={"choices": CROPS})
    lr: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    weight_decay: float = 1e-5
    schedule: LrSchedule | None = None  # None -> constant at lr
    fanout: int = 10
    edge_dropout: float = 0.1
    aggregator: str = field(default="pool", metadata={"choices": AGGREGATORS})
    seed: int = 0
    head_dropout: float = 0.0
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
        if self.schedule is None:
            object.__setattr__(self, "schedule", LrSchedule(kind="constant", lr_max=self.lr))

    @property
    def history_years(self):
        return 4 if self.kind in KINDS_5Y else 0


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


# Final configurations from the hyperparameter study, keyed by
# (kind, crop, test_year) with (kind, crop) fallback.
_DEFAULT_HP = {
    ("cnn-rnn-5y", "corn"): dict(batch_size=128, lr=1e-4, weight_decay=1e-5, epochs=100,
                                 schedule=LrSchedule("step", 1e-4, period=25, gamma=0.5)),
    ("cnn-rnn-5y", "soybean"): dict(batch_size=128, lr=5e-4, weight_decay=1e-5, epochs=100,
                                    schedule=LrSchedule("step", 5e-4, period=25, gamma=0.5)),
    ("gnn-1y", "corn", 2018): dict(batch_size=32, lr=1e-4, weight_decay=1e-5, epochs=100,
                                   schedule=LrSchedule("cosine", 1e-4, t0=200, eta_min=1e-5),
                                   edge_dropout=0.1, aggregator="pool"),
    ("gnn-1y", "corn", 2019): dict(batch_size=64, lr=5e-5, weight_decay=1e-5, epochs=200,
                                   schedule=LrSchedule("cosine", 5e-5, t0=100, eta_min=1e-5),
                                   edge_dropout=0.0, aggregator="mean"),
    ("gnn-1y", "soybean"): dict(batch_size=64, lr=1e-4, weight_decay=1e-5, epochs=100,
                                schedule=LrSchedule("step", 1e-4, period=25, gamma=0.8),
                                edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "corn", 2018): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                       schedule=LrSchedule("cosine", 5e-5, t0=100, eta_min=1e-6),
                                       edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "corn", 2019): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                       schedule=LrSchedule("cosine", 5e-5, t0=200, eta_min=1e-6),
                                       edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "soybean", 2018): dict(batch_size=32, lr=1e-4, weight_decay=1e-4, epochs=100,
                                          schedule=LrSchedule("cosine", 1e-4, t0=100, eta_min=1e-6),
                                          edge_dropout=0.1, aggregator="pool"),
    ("gnn-rnn-5y", "soybean", 2019): dict(batch_size=32, lr=5e-5, weight_decay=1e-5, epochs=100,
                                          schedule=LrSchedule("cosine", 5e-5, t0=100, eta_min=1e-6),
                                          edge_dropout=0.1, aggregator="pool"),
}


def default_spec(kind, crop="corn", test_year=None, **overrides):
    hp = _DEFAULT_HP.get((kind, crop, test_year), _DEFAULT_HP.get((kind, crop), {}))
    merged = dict(hp)
    if "lr" in overrides and "schedule" not in overrides:
        merged.pop("schedule", None)  # a bare lr override means a constant schedule
    merged.update(overrides)
    return ModelSpec(kind=kind, crop=crop, **merged)


# -- feature assembly ---------------------------------------------------------


def gather_year_blocks(ds, samples, crop, year_offset=0):
    """Dense arrays for (county, target_year + offset) pairs.

    Returns (weather [B,7,52], land [B,16,52], soil [B,20,6], extras [B,7]).
    """
    ci = np.array([ds.county_index[c] for c, _ in samples], dtype=np.intp)
    yi = np.array([ds.year_index[y + year_offset] for _, y in samples], dtype=np.intp)
    extras = np.concatenate(
        [
            ds.extras[ci, yi],
            np.array([[ds.prev_mean_feature(crop, y + year_offset)] for _, y in samples]),
        ],
        axis=1,
    )
    return ds.weather[ci, yi], ds.land[ci, yi], ds.soil[ci, yi], extras


def flatten_blocks(w, l, s, e):
    b = w.shape[0]
    return np.concatenate(
        [w.reshape(b, -1), l.reshape(b, -1), s.reshape(b, -1), e], axis=1
    )


def _weekly_sequence(w, l):
    """[B,7,52] + [B,16,52] -> list of 52 step tensors [B,23]."""
    stacked = np.concatenate([w, l], axis=1)
    return [Tensor(np.ascontiguousarray(stacked[:, :, k])) for k in range(stacked.shape[2])]


class RegressionHead:
    """Dense(hidden) -> relu -> optional dropout -> Dense(1)."""

    def __init__(self, in_dim, hidden, rng, drop_p=0.0):
        self.fc1 = Dense(in_dim, hidden, rng)
        self.fc2 = Dense(hidden, 1, rng)
        self.drop_p = drop_p

    def __call__(self, x, training=False, rng=None):
        h = self.fc1(x).relu()
        if self.drop_p > 0.0:
            h = dropout(h, self.drop_p, training, rng)
        return self.fc2(h).reshape((x.data.shape[0],))

    def parameters(self, prefix):
        params = self.fc1.parameters(f"{prefix}.fc1")
        params.update(self.fc2.parameters(f"{prefix}.fc2"))
        return params


# -- deep models ----------------------------------------------------------------


class _Model:
    """Shared surface: forward_samples(ds, [(county, target_year)]) -> Tensor[B].

    A non-graph model reads only each sample's own records, so its forward
    is ``forward_blocks(years)``: one (weather, land, soil, extras) tuple of
    [B, ...] arrays per window year, oldest first. Graph models override
    forward_samples, since they also read the neighbouring counties.
    """

    def __init__(self, spec):
        self.spec = spec

    def parameters(self):
        raise NotImplementedError

    def forward_blocks(self, years, training=False, rng=None):
        raise NotImplementedError

    def forward_samples(self, ds, samples, training=False, rng=None):
        years = [gather_year_blocks(ds, samples, self.spec.crop, offset)
                 for offset in range(-self.spec.history_years, 1)]
        return self.forward_blocks(years, training, rng)


def _make_soil(spec, rng):
    return SoilEncoder(rng, N_SOIL, DEPTHS, channels=tuple(spec.widths.soil_channels),
                       out_dim=spec.widths.soil_out)


def _make_embedder(spec, rng):
    w = spec.widths
    weekly = WeeklyEncoder(rng, WEEKLY_CHANNELS, WEEKS, channels=tuple(w.weekly_channels),
                           kernels=tuple(w.weekly_kernels), out_dim=w.weekly_out)
    return YearEmbedder(weekly, _make_soil(spec, rng), N_EXTRAS)


def _year_head(spec, in_dim, rng):
    """(cell, head): for five-year kinds a GRU/LSTM over the window years
    (cell is None otherwise), then the regression head."""
    cell = None
    if spec.history_years:
        cell_kind = "gru" if spec.kind.startswith("gru") else "lstm"
        cell = RecurrentCell(cell_kind, in_dim, spec.widths.rnn_hidden, rng)
        in_dim = spec.widths.rnn_hidden
    return cell, RegressionHead(in_dim, spec.widths.head_hidden, rng, spec.head_dropout)


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

    def forward_blocks(self, years, training=False, rng=None):
        steps = [self.embedder.embed(*(Tensor(b) for b in blocks)) for blocks in years]
        return self.head(_over_years(self.cell, steps), training, rng)


class RecurrentWeeklyModel(_Model):
    """Single-year GRU/LSTM over the 52-week series, plus the soil encoder."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        cell_kind = "gru" if spec.kind.startswith("gru") else "lstm"
        self.cell = RecurrentCell(cell_kind, WEEKLY_CHANNELS, spec.widths.rnn_hidden, rng)
        self.soil = _make_soil(spec, rng)
        in_dim = spec.widths.rnn_hidden + spec.widths.soil_out + N_EXTRAS
        self.head = RegressionHead(in_dim, spec.widths.head_hidden, rng, spec.head_dropout)

    def parameters(self):
        return _collect(cell=self.cell, soil=self.soil, head=self.head)

    def forward_blocks(self, years, training=False, rng=None):
        ((w, l, s, e),) = years
        h_wl = rnn_forward(self.cell, _weekly_sequence(w, l))
        h = concat([h_wl, self.soil(Tensor(s)), Tensor(e)], axis=1)
        return self.head(h, training, rng)


class FlatHistoryModel(_Model):
    """5-year GRU/LSTM over per-year flattened feature vectors."""

    def __init__(self, spec, rng):
        super().__init__(spec)
        self.cell, self.head = _year_head(spec, FLAT_WIDTH, rng)

    def parameters(self):
        return _collect(cell=self.cell, head=self.head)

    def forward_blocks(self, years, training=False, rng=None):
        steps = [Tensor(flatten_blocks(*blocks)) for blocks in years]
        return self.head(_over_years(self.cell, steps), training, rng)


# Rows per embedder call at inference. A call's im2col buffers grow with
# its rows, so this bounds them at any county count; per row, a 128-row
# call runs as fast as a larger one.
EMBED_CHUNK_ROWS = 128


class GnnModel(_Model):
    """Conv embedder -> 2 aggregation layers, per year with shared weights
    -> (five-year kinds) LSTM over the years -> head.

    One forward serves all of a target year's seeds: it builds one block
    (sampled in training, the full neighbourhood at inference), embeds
    each (input county, window year) once, then runs the SAGE stack, the
    cell and the head over the whole block. Inference embeds the input
    rows EMBED_CHUNK_ROWS at a time; training embeds them in one call.
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
        zs = [gnn_forward(self.stack, block, self._embed_nodes(ds, input_ids, y, training))
              for y in years]
        h = self._reorder(block, ds, counties, _over_years(self.cell, zs))
        return self.head(h, training, rng)

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

    def _embed_nodes(self, ds, node_ids, year, training):
        rows = len(node_ids) if training else EMBED_CHUNK_ROWS
        parts = []
        for start in range(0, len(node_ids), rows):
            samples = [(c, year) for c in node_ids[start : start + rows]]
            w, l, s, e = gather_year_blocks(ds, samples, self.spec.crop)
            parts.append(self.embedder.embed(Tensor(w), Tensor(l), Tensor(s), Tensor(e)))
        return parts[0] if len(parts) == 1 else concat(parts, axis=0)

    def _reorder(self, block, ds, counties, z):
        seed_ids = [ds.graph.node_ids[i] for i in block.seed_nodes]
        pos = {c: i for i, c in enumerate(seed_ids)}
        order = np.array([pos[c] for c in counties], dtype=np.intp)
        if np.array_equal(order, np.arange(len(counties))):
            return z
        return take_rows(z, order)



_MODEL_CLASSES = {
    "cnn-1y": CnnModel,
    "gru-1y": RecurrentWeeklyModel,
    "lstm-1y": RecurrentWeeklyModel,
    "gnn-1y": GnnModel,
    "gru-5y": FlatHistoryModel,
    "lstm-5y": FlatHistoryModel,
    "cnn-rnn-5y": CnnModel,
    "gnn-rnn-5y": GnnModel,
}


def build_model(spec, rng):
    if spec.kind not in _MODEL_CLASSES:
        raise ConfigurationError(f"{spec.kind} is not a deep model")
    return _MODEL_CLASSES[spec.kind](spec, rng)


# -- linear baselines -----------------------------------------------------------


@dataclass
class LinearModel:
    kind: str
    coef: np.ndarray
    intercept: float
    lam: float
    converged: bool = True

    def predict(self, X):
        return X @ self.coef + self.intercept


def fit_ridge(X, y, lam):
    """Solve (X^T X + lam I) beta = X^T (y - mean(y)); intercept = mean(y)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or X.shape[0] < 1:
        raise ValueError(f"need X [n,p] and y [n], got {X.shape}, {y.shape}")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    intercept = float(y.mean())
    yc = y - intercept
    gram = X.T @ X + lam * np.eye(X.shape[1])
    try:
        coef = np.linalg.solve(gram, X.T @ yc)
    except np.linalg.LinAlgError as e:
        raise ValueError("normal equations are singular; use lam > 0") from e
    if lam == 0.0 and not np.allclose(gram @ coef, X.T @ yc, atol=1e-6):
        raise ValueError("normal equations are singular; use lam > 0")
    return LinearModel(kind="ridge", coef=coef, intercept=intercept, lam=lam)


def soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def fit_lasso(X, y, lam, max_iter=10_000, tol=1e-7):
    """Cyclic coordinate descent with soft-thresholding on
    (1/2n)||y - Xb||^2 + lam ||b||_1; y is centered, intercept = mean(y).
    Non-convergence flags the model instead of failing."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    intercept = float(y.mean())
    yc = y - intercept
    col_sq = (X * X).sum(axis=0) / n
    beta = np.zeros(p)
    resid = yc.copy()
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
    return LinearModel(kind="lasso", coef=beta, intercept=intercept, lam=lam,
                       converged=converged)


def lasso_objective(X, y, model):
    n = X.shape[0]
    resid = (y - y.mean()) - X @ model.coef
    return float(resid @ resid / (2 * n) + model.lam * np.abs(model.coef).sum())


class LinearWrapper(_Model):
    """Adapts a fitted LinearModel to the forward_samples surface."""

    def __init__(self, spec, linear):
        super().__init__(spec)
        self.linear = linear

    def parameters(self):
        return {}

    def forward_blocks(self, years, training=False, rng=None):
        (blocks,) = years
        return Tensor(self.linear.predict(flatten_blocks(*blocks)))


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


def train(spec, dataset, split):
    """Fit per the spec and return the checkpoint of the best validation
    epoch (lowest validation RMSE; earliest wins ties)."""
    ds, stats = normalize(dataset, split)
    crop = spec.crop
    train_years = [y for y in split.train_years(ds.years)]
    if split.val_year not in ds.year_index:
        raise ConfigurationError(f"validation year {split.val_year} absent from dataset")
    samples, skipped = enumerate_windows(ds, train_years, crop, spec.history_years)
    if not samples:
        raise ConfigurationError("empty training set")
    val_samples, _ = enumerate_windows(ds, [split.val_year], crop, spec.history_years)

    if spec.kind in ("ridge-1y", "lasso-1y"):
        return _train_linear(spec, ds, split, stats, samples, val_samples, skipped)

    ss = np.random.SeedSequence(spec.seed)
    init_rng, order_rng, graph_rng, drop_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )
    model = build_model(spec, init_rng)
    params = model.parameters()
    adam = AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    by_year = spec.kind in GRAPH_KINDS

    history = []
    best = None
    for epoch in range(spec.epochs):
        adam.lr = lr_at(spec.schedule, epoch)
        epoch_loss = 0.0
        seen = 0
        for batch_idx, batch in enumerate(_batches(samples, spec.batch_size, order_rng, by_year)):
            try:
                # overflow surfaces as NonFiniteError from the finiteness checks
                with np.errstate(over="ignore", invalid="ignore"):
                    preds = model.forward_samples(
                        ds, batch, training=True,
                        rng=graph_rng if by_year else drop_rng,
                    )
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
        spec=spec, params=best_params, norm_stats=stats, history=history,
        best_epoch=best_epoch, test_year=split.test_year, skipped_windows=skipped,
    )


def _train_linear(spec, ds, split, stats, samples, val_samples, skipped):
    w, l, s, e = gather_year_blocks(ds, samples, spec.crop)
    X = flatten_blocks(w, l, s, e)
    y = _standardized_targets(ds, samples, spec.crop)
    if spec.kind == "ridge-1y":
        linear = fit_ridge(X, y, spec.ridge_lambda)
    else:
        linear = fit_lasso(X, y, spec.lasso_lambda)
    model = LinearWrapper(spec, linear)
    val_pred = _predict_std(model, ds, val_samples, spec.batch_size)
    val_rmse = rmse(_standardized_targets(ds, val_samples, spec.crop), val_pred, 1.0)
    history = [{"epoch": 0, "train_loss": float("nan"), "val_rmse": val_rmse, "lr": 0.0}]
    params = {
        "linear.coef": linear.coef.copy(),
        "linear.intercept": np.array([linear.intercept]),
    }
    return ModelCheckpoint(
        spec=spec, params=params, norm_stats=stats, history=history, best_epoch=0,
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
_NORM_ARRAYS = tuple(f.name for f in fields(NormStats) if f.type == "np.ndarray")
_HISTORY = ("train_loss", "val_rmse", "lr")


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

    # evaluation protocol
    @property
    def crop(self):
        return self.spec.crop

    @property
    def history_years(self):
        return self.spec.history_years

    @property
    def seed(self):
        return self.spec.seed

    @property
    def method_name(self):
        return self.spec.kind

    def model(self):
        if self._model is None:
            if self.spec.kind in ("ridge-1y", "lasso-1y"):
                linear = LinearModel(
                    kind=self.spec.kind.split("-")[0],
                    coef=self.params["linear.coef"],
                    intercept=float(self.params["linear.intercept"][0]),
                    lam=self.spec.ridge_lambda if self.spec.kind == "ridge-1y"
                    else self.spec.lasso_lambda,
                    converged=self.lasso_converged,
                )
                self._model = LinearWrapper(self.spec, linear)
            else:
                model = build_model(self.spec, np.random.default_rng(0))
                live = model.parameters()
                if set(live) != set(self.params):
                    raise ConfigurationError("checkpoint parameters do not match the architecture")
                for name, tensor in live.items():
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

        blocks = {f"param/{k}": v for k, v in sorted(self.params.items())}
        ns = self.norm_stats
        blocks.update({f"norm/{name}": getattr(ns, name) for name in _NORM_ARRAYS})
        for block_name, flags in sorted(ns.constant_flags.items()):
            blocks[f"norm/const_{block_name}"] = flags.astype(np.float64)
        for crop in sorted(ns.target_mean):
            blocks[f"norm/target_{crop}"] = np.array(
                [ns.target_mean[crop], ns.target_std[crop]]
            )
        for key in _HISTORY:
            blocks[f"history/{key}"] = np.array([h[key] for h in self.history])

        header.write(f"blocks = {len(blocks)}\n\n")
        with open(path, "wb") as f:
            f.write(header.getvalue().encode("utf-8"))
            for name, arr in blocks.items():
                arr = np.asarray(arr, dtype=np.float64)
                dims = " ".join(str(d) for d in arr.shape)
                f.write(f"{name} {arr.ndim} {dims}\n".encode("utf-8"))
                f.write(arr.astype("<f8").tobytes())
        return path

    @staticmethod
    def load(path):
        """Read a v1 checkpoint; a truncated or garbled file raises
        ConfigurationError naming what is wrong."""
        with open(path, "rb") as f:
            raw = f.read()
        head_end = raw.find(b"\n\n")
        header_lines = raw[: max(head_end, 0)].decode("utf-8", "replace").splitlines()
        if head_end < 0 or header_lines[:1] != [_MAGIC]:
            raise ConfigurationError(f"{path}: not a checkpoint file")
        kv = dict(line.partition(" = ")[::2] for line in header_lines[1:])
        missing = sorted(set(_HEADER_KEYS) - set(kv))
        unknown = sorted(set(kv) - set(_HEADER_KEYS))
        if missing or unknown or len(header_lines) - 1 != len(kv):
            raise ConfigurationError(
                f"{path}: bad checkpoint header (missing {missing}, unknown {unknown})"
            )
        try:
            spec = _spec_from_header(kv)
            train_years = tuple(int(x) for x in kv["train_years"].split(","))
            run = dict(best_epoch=int(kv["best_epoch"]), test_year=int(kv["test_year"]),
                       skipped_windows=int(kv["skipped_windows"]),
                       lasso_converged=kv["lasso_converged"] == "True")
            n_blocks = int(kv["blocks"])
        except ValueError as e:
            raise ConfigurationError(f"{path}: bad checkpoint header value: {e}") from e

        blocks = {}
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
            blocks[name] = arr.copy()
            pos += 8 * count
        if pos != len(raw):
            raise ConfigurationError(
                f"{path}: {len(raw) - pos} trailing bytes after {n_blocks} blocks"
            )
        lacking = [name for name in [f"norm/{n}" for n in _NORM_ARRAYS]
                   + [f"history/{k}" for k in _HISTORY] if name not in blocks]
        if lacking:
            raise ConfigurationError(f"{path}: checkpoint lacks blocks {lacking}")

        params = {k[len("param/"):]: v for k, v in blocks.items() if k.startswith("param/")}
        constant_flags = {
            k[len("norm/const_"):]: blocks[k].astype(bool)
            for k in blocks if k.startswith("norm/const_")
        }
        stats = NormStats(train_years=train_years, constant_flags=constant_flags,
                          **{name: blocks[f"norm/{name}"] for name in _NORM_ARRAYS})
        for key in blocks:
            if key.startswith("norm/target_"):
                crop = key[len("norm/target_"):]
                stats.target_mean[crop] = float(blocks[key][0])
                stats.target_std[crop] = float(blocks[key][1])
        columns = zip(*(blocks[f"history/{key}"] for key in _HISTORY))
        history = [{"epoch": i, **{k: float(v) for k, v in zip(_HISTORY, row)}}
                   for i, row in enumerate(columns)]
        return ModelCheckpoint(spec=spec, params=params, norm_stats=stats, history=history,
                               **run)


# -- single-sample prediction surface --------------------------------------------


@dataclass
class GraphContext:
    """Neighborhood features for graph models: a normalized dataset whose
    graph supplies the county adjacency."""

    dataset: object


def predict_1y(checkpoint, features, graph_context=None):
    """Standardized-unit prediction for one county-year. ``features`` must
    already be normalized with the checkpoint's statistics."""
    spec = checkpoint.spec
    if spec.history_years != 0:
        raise ConfigurationError(f"{spec.kind} needs a 5-year window; use predict_5y")
    return _predict_window(checkpoint, [features], graph_context)


def predict_5y(checkpoint, window, graph_context=None):
    """Standardized-unit prediction from five consecutive years, oldest first."""
    spec = checkpoint.spec
    if spec.history_years != 4:
        raise ConfigurationError(f"{spec.kind} is a single-year model; use predict_1y")
    if len(window) != 5:
        raise ConfigurationError(f"expected a 5-year window, got {len(window)} years")
    years = [f.year for f in window]
    if years != list(range(years[0], years[0] + 5)):
        raise ConfigurationError(f"window years must be consecutive, got {years}")
    return _predict_window(checkpoint, window, graph_context)


def _predict_window(checkpoint, window, graph_context):
    spec = checkpoint.spec
    model = checkpoint.model()
    is_graph = spec.kind in GRAPH_KINDS
    if is_graph and graph_context is None:
        raise ConfigurationError(f"{spec.kind} requires a graph context")
    if not is_graph and graph_context is not None:
        raise ConfigurationError(f"{spec.kind} does not accept a graph context")
    if is_graph:
        sample = (window[-1].county, window[-1].year)
        preds = model.forward_samples(graph_context.dataset, [sample])
    else:
        preds = model.forward_blocks(
            [(f.weather[None], f.land_surface[None], f.soil[None], f.extras[None])
             for f in window]
        )
    return float(preds.data[0])
