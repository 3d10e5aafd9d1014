import numpy as np
import pytest

from yieldgraph import data, layers, models, optim
from yieldgraph.autodiff import NonFiniteError, ShapeError, Tensor
from yieldgraph.layers import (
    Dense,
    RecurrentCell,
    SoilEncoder,
    WeeklyEncoder,
    YearEmbedder,
    conv1d,
    rnn_forward,
    uniform_param,
)
from yieldgraph.data import DEPTHS, N_EXTRAS, N_LAND, N_SOIL, N_WEATHER, WEEKS
from yieldgraph.models import ArchWidths
from tests.helpers import (
    check_param_gradients,
    check_tensor_gradients,
    frozen_gru_step,
    frozen_lstm_step,
    reference_avg_pool1d,
    reference_cell_step,
    reference_conv1d,
    reference_encode,
    rel_err,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _tape_nodes(loss):
    """Tape nodes reachable from ``loss``."""
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t.node.inputs)
    return len(seen)


def _identity_kernel():
    return Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1))


def test_conv1d_identity_kernel():
    x = Tensor(np.abs(_rng().normal(size=(2, 5, 1))))
    assert np.array_equal(conv1d(x, *_identity_kernel()).data, x.data)


def test_conv1d_hand_case():
    x = Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    w = Tensor(np.ones((1, 1, 2)))
    assert conv1d(x, w, Tensor(np.zeros(1))).data.tolist() == [[[3.0], [5.0], [7.0]]]
    # relu: pre-activations -3, -1, 1 from a bias of -6
    assert conv1d(x, w, Tensor(np.full(1, -6.0))).data.tolist() == [[[0.0], [0.0], [1.0]]]


def test_conv1d_rejects_short_input():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones((1, 1, 3))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 3, 1))), Tensor(np.ones((1, 1, 3))), Tensor(np.zeros(1)),
               pool=2)


def test_conv1d_gradient_vs_finite_differences():
    rng = _rng(3)
    x = rng.uniform(-2, 2, size=(2, 7, 3))
    w = rng.uniform(-1, 1, size=(4, 3, 3))
    b = rng.uniform(-1, 1, size=4)
    for pool in (None, 2):
        check_tensor_gradients(
            lambda tx, tw, tb: conv1d(tx, tw, tb, pool).sum(), [x, w, b], rtol=1e-4
        )


def test_avg_pool_hand_case_and_remainder():
    x = Tensor(np.array([[[1.0], [3.0], [5.0], [7.0]]]))
    assert conv1d(x, *_identity_kernel(), pool=2).data.tolist() == [[[2.0], [6.0]]]
    five = Tensor(np.array([[[1.0], [1.0], [1.0], [1.0], [9.0]]]))
    out = conv1d(five, *_identity_kernel(), pool=2)
    assert out.data.shape == (1, 2, 1)  # fifth element dropped
    assert out.data.tolist() == [[[1.0], [1.0]]]


def test_avg_pool_constant_input():
    x = Tensor(np.full((1, 6, 2), 4.2))
    w = Tensor(np.eye(2).reshape(2, 2, 1))
    assert np.allclose(conv1d(x, w, Tensor(np.zeros(2)), pool=2).data, 4.2)


def test_avg_pool_gradient():
    x = np.abs(_rng(5).normal(size=(1, 5, 1))) + 0.1  # clear of the relu kink
    w, b = _identity_kernel()
    check_tensor_gradients(lambda t: conv1d(t, w, b, pool=2).sum(), [x], rtol=1e-6)


def _channels_first(a):
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _block_results(forward, x, w, b, upstream):
    """Output, dx, dw and db of forward(x, w, b) under the given upstream
    gradient."""
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = forward(tx, tw, tb)
    (out * Tensor(upstream)).sum().backward()
    return out.data, tx.grad, tw.grad, tb.grad


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("pool", [None, 2])
@pytest.mark.parametrize("length", [11, 12])
def test_fused_conv_block_matches_composed_oracle_bit_for_bit(batch, pool, length):
    rng = _rng(24)
    x = rng.normal(size=(batch, length, 5))
    w = rng.uniform(-1, 1, size=(6, 5, 2))
    b = rng.uniform(-0.5, 0.5, size=6)
    n_out = length - 1 if pool is None else (length - 1) // 2
    upstream = rng.normal(size=(batch, n_out, 6))

    def composed(tx, tw, tb):
        out = reference_conv1d(tx, tw, tb).relu()
        return out if pool is None else reference_avg_pool1d(out, pool)

    fused = _block_results(lambda *t: conv1d(*t, pool), x, w, b, upstream)
    out, dx, dw, db = _block_results(composed, _channels_first(x), w, b,
                                     _channels_first(upstream))
    oracle = (_channels_first(out), _channels_first(dx), dw, db)
    assert fused[0].shape == (batch, n_out, 6)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_conv1d_skips_gradients_of_untracked_operands():
    rng = _rng(25)
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(4, 3, 2))
    b = rng.normal(size=4)
    g = rng.normal(size=(2, 2, 4))
    out = conv1d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), 2)
    dx, dw, db = out.node.vjp(g)
    assert dx is None and dw is not None and db is not None
    out = conv1d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), 2)
    dx, dw, db = out.node.vjp(g)
    assert dx is not None and dw is None and db is None


@pytest.mark.parametrize("second_weight", [0.0, 1e308], ids=["neg-inf", "nan"])
def test_conv1d_rejects_non_finite_pre_activations(second_weight):
    # Both a -inf and a NaN (-inf + inf) pre-activation would leave the relu as 0.
    x = Tensor(np.full((1, 3, 2), 10.0))
    w = np.zeros((1, 2, 1))
    w[0, 0, 0] = -1e308
    w[0, 1, 0] = second_weight
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="conv pre-activations"):
        conv1d(x, Tensor(w), Tensor(np.zeros(1)))


_PAPER = ArchWidths()


def _weekly(rng, channels=_PAPER.weekly_channels, out_dim=_PAPER.weekly_out):
    return WeeklyEncoder(rng, N_WEATHER + N_LAND, WEEKS, channels, out_dim)


def _soil(rng, channels=_PAPER.soil_channels, out_dim=_PAPER.soil_out):
    return SoilEncoder(rng, N_SOIL, DEPTHS, channels, out_dim)


def _toy_weekly(rng):
    return _weekly(rng, channels=(4, 4, 4, 4), out_dim=6)


def _toy_soil(rng):
    return _soil(rng, channels=(4, 4, 4), out_dim=5)


def test_weekly_encoder_zero_input_zero_params_gives_zero():
    enc = _toy_weekly(_rng(1))
    for p in enc.parameters("e").values():
        p.data[...] = 0.0
    out = enc(Tensor(np.zeros((1, 23, 52))))
    assert np.array_equal(out.data, np.zeros((1, 6)))


def test_weekly_encoder_output_shape_contract():
    enc = _weekly(_rng(2))
    out = enc(Tensor(_rng(3).normal(size=(2, 23, 52))))
    assert out.data.shape == (2, 64)


def test_weekly_encoder_rejects_wrong_week_count():
    enc = _toy_weekly(_rng(2))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((1, 23, 51))))


def test_weekly_encoder_batch_permutation_equivariance():
    rng = _rng(6)
    enc = _toy_weekly(rng)
    x = rng.normal(size=(3, 23, 52))
    out = enc(Tensor(x)).data
    perm = [2, 0, 1]
    out_p = enc(Tensor(x[perm])).data
    assert np.array_equal(out[perm], out_p)


def test_soil_encoder_shape_and_zero_case():
    rng = _rng(7)
    enc = _soil(rng)
    out = enc(Tensor(rng.normal(size=(2, 20, 6))))
    assert out.data.shape == (2, 32)
    for p in enc.parameters("s").values():
        p.data[...] = 0.0
    assert np.array_equal(enc(Tensor(np.zeros((1, 20, 6)))).data, np.zeros((1, 32)))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((1, 20, 5))))


def test_soil_encoder_gradient():
    rng = _rng(8)
    enc = _toy_soil(rng)
    x = Tensor(rng.uniform(-1, 1, size=(1, 20, 6)))
    check_param_gradients(
        list(enc.parameters("s").values()), lambda: enc(x).sum(), rtol=1e-4
    )


def _encoder_gradients(enc, x, forward):
    """Output, then the gradients of (out * out).sum() for every encoder
    parameter and the input."""
    params = list(enc.parameters("e").values())
    for t in params + [x]:
        t.zero_grad()
    out = forward(enc, x)
    (out * out).sum().backward()
    return [out.data] + [t.grad for t in params + [x]]


@pytest.mark.parametrize("make, shape", [
    (_weekly, (7, N_WEATHER + N_LAND, WEEKS)),
    (_soil, (7, N_SOIL, DEPTHS)),
])
def test_encoder_matches_composed_oracle_bit_for_bit(make, shape):
    rng = _rng(26)
    enc = make(rng)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    fused = _encoder_gradients(enc, x, lambda e, t: e(t))
    oracle = _encoder_gradients(enc, x, reference_encode)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_encoders_record_one_tape_node_per_conv_block():
    rng = _rng(27)
    weekly, soil = _weekly(rng), _soil(rng)
    nodes = {
        name: _tape_nodes(enc(Tensor(rng.normal(size=shape))).sum())
        for name, enc, shape in (("weekly", weekly, (3, N_WEATHER + N_LAND, WEEKS)),
                                 ("soil", soil, (3, N_SOIL, DEPTHS)))
    }
    # blocks + transpose + reshape + project (matmul, weight transpose,
    # add_rowvec) + the sum; the untracked input records no transpose
    assert nodes == {"weekly": 4 + 2 + 3 + 1, "soil": 3 + 2 + 3 + 1}


def test_year_embedder_width_and_extras_passthrough():
    rng = _rng(9)
    emb = YearEmbedder(_weekly(rng), _soil(rng), N_EXTRAS)
    assert emb.out_dim == 64 + 32 + 7  # 103
    weekly = Tensor(rng.normal(size=(2, 23, 52)))
    s = Tensor(rng.normal(size=(2, 20, 6)))
    e = rng.normal(size=(2, 7))
    out = emb.embed(weekly, s, Tensor(e)).data
    assert np.array_equal(out[:, -7:], e)


def test_year_embedder_deterministic_for_identical_counties():
    rng = _rng(10)
    emb = YearEmbedder(_toy_weekly(rng), _toy_soil(rng), N_EXTRAS)
    weekly = rng.normal(size=(1, 23, 52))
    s = rng.normal(size=(1, 20, 6))
    e = rng.normal(size=(1, 7))
    stacked = emb.embed(
        Tensor(np.vstack([weekly, weekly])), Tensor(np.vstack([s, s])),
        Tensor(np.vstack([e, e])),
    ).data
    assert np.array_equal(stacked[0], stacked[1])


def test_rnn_length_one_equals_single_step():
    rng = _rng(11)
    cell = RecurrentCell("gru", 3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3)))
    out = rnn_forward(cell, [x])
    single = cell.step(x, cell.zero_state(2))
    assert np.array_equal(out.data, single.data)


def test_lstm_zero_parameters_zero_output():
    rng = _rng(12)
    cell = RecurrentCell("lstm", 3, 4, rng)
    for p in cell.parameters("c").values():
        p.data[...] = 0.0
    out = rnn_forward(cell, [Tensor(rng.normal(size=(2, 3))) for _ in range(3)])
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_gru_zero_parameters_input_independent():
    rng = _rng(13)
    cell = RecurrentCell("gru", 3, 4, rng)
    for p in cell.parameters("c").values():
        p.data[...] = 0.0
    a = rnn_forward(cell, [Tensor(rng.normal(size=(1, 3)))]).data
    b = rnn_forward(cell, [Tensor(rng.normal(size=(1, 3)))]).data
    assert np.array_equal(a, b)


def test_rnn_rejects_empty_sequence():
    cell = RecurrentCell("lstm", 3, 4, _rng(14))
    with pytest.raises(ValueError):
        rnn_forward(cell, [])


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_unroll_gradient_matches_finite_differences(kind):
    rng = _rng(15)
    cell = RecurrentCell(kind, 2, 3, rng)
    xs = [rng.uniform(-1, 1, size=(1, 2)) for _ in range(5)]

    def build(*ts):
        return rnn_forward(cell, list(ts)).sum()

    check_tensor_gradients(build, xs, rtol=1e-3)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_unroll_parameter_gradients_match_finite_differences(kind):
    rng = _rng(19)
    cell = RecurrentCell(kind, 2, 3, rng)
    xs = [Tensor(rng.uniform(-1, 1, size=(2, 2))) for _ in range(5)]

    def forward():
        out = rnn_forward(cell, xs)
        return (out * out).sum()

    check_param_gradients(list(cell.parameters("c").values()), forward, rtol=1e-4)


def _reference_forward(cell, sequence):
    state = cell.zero_state(sequence[0].data.shape[0])
    for x in sequence:
        state = reference_cell_step(cell, x, state)
    return cell.hidden(state)


def _gradients(cell, forward, xs):
    """Output, then the gradients of (out * out).sum() for every cell
    parameter and input step."""
    params = list(cell.parameters("c").values())
    for t in params + xs:
        t.zero_grad()
    out = forward(cell, xs)
    (out * out).sum().backward()
    return out.data, [t.grad for t in params + xs]


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_fused_cell_matches_composed_reference(kind):
    rng = _rng(20)
    cell = RecurrentCell(kind, 4, 6, rng)
    xs = [Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True) for _ in range(5)]
    out, grads = _gradients(cell, rnn_forward, xs)
    ref_out, ref_grads = _gradients(cell, _reference_forward, xs)
    assert np.array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape
        assert rel_err(g, ref, floor=1e-300) <= 1e-12


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_forward_records_at_most_three_tape_nodes_per_step(kind):
    rng = _rng(21)
    cell = RecurrentCell(kind, 4, 6, rng)
    steps = 7
    loss = rnn_forward(cell, [Tensor(rng.normal(size=(3, 4))) for _ in range(steps)]).sum()
    assert _tape_nodes(loss) <= 3 * steps + 1


def test_lstm_forward_records_one_tape_node_per_step():
    # one fused node per step, the narrow of h out of h|c, and the sum
    rng = _rng(21)
    cell = RecurrentCell("lstm", 4, 6, rng)
    steps = 7
    loss = rnn_forward(cell, [Tensor(rng.normal(size=(3, 4))) for _ in range(steps)]).sum()
    assert _tape_nodes(loss) == steps + 2


def test_lstm_state_is_h_then_c():
    rng = _rng(24)
    cell = RecurrentCell("lstm", 3, 4, rng)
    state = cell.zero_state(2)
    assert np.array_equal(state.data, np.zeros((2, 8)))
    x = Tensor(rng.normal(size=(2, 3)))
    fused = cell.step(x, state).data
    composed = reference_cell_step(cell, x, state).data
    assert np.array_equal(fused, composed)
    assert np.array_equal(cell.hidden(Tensor(fused)).data, fused[:, :4])


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_cell_bias_gradients_are_equal_but_not_shared(kind):
    rng = _rng(25)
    cell = RecurrentCell(kind, 3, 4, rng)
    xs = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
    rnn_forward(cell, xs).sum().backward()
    if kind == "lstm":  # both biases enter the same pre-activation z
        assert np.array_equal(cell.b_x.grad, cell.b_h.grad)
    assert cell.b_x.grad is not cell.b_h.grad
    assert not np.shares_memory(cell.b_x.grad, cell.b_h.grad)


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_forward_rejects_overflowed_pre_activations(kind):
    cell = RecurrentCell(kind, 3, 4, _rng(22))
    cell.w_x.data[...] = 1e300
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        rnn_forward(cell, [Tensor(np.full((2, 3), 1e10))])


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_rnn_forward_rejects_overflowed_hidden_pre_activations(kind):
    # Step one drives both hidden units near 1 (the GRU's update gate is
    # shut), so step two's h @ w_h.T overflows while zx stays finite.
    cell = RecurrentCell(kind, 1, 2, _rng(23))
    for p in cell.parameters("c").values():
        p.data[...] = 0.0
    cell.w_x.data[...] = 100.0
    if kind == "gru":
        cell.w_x.data[2:4] = -100.0
    cell.w_h.data[...] = 1.5e308
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        rnn_forward(cell, [Tensor(np.ones((1, 1)))] * 2)


def _step_and_grads(cell, step, x, state, upstream):
    """Output of one step, then the gradients of (out * upstream).sum() for
    x (None when untracked), the state and the four cell parameters."""
    params = list(cell.parameters("c").values())
    for t in params + [x, state]:
        t.zero_grad()
    out = step(x, state, cell.w_x, cell.w_h, cell.b_x, cell.b_h)
    (out * Tensor(upstream)).sum().backward()
    return [out.data] + [t.grad for t in [x, state] + params]


@pytest.mark.parametrize("x_tracked", [True, False])
@pytest.mark.parametrize("batch, inputs, hidden",
                         [(1, 4, 6), (3, 4, 6), (64, 23, 64), (32, 64, 64), (400, 23, 64)])
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_cell_step_matches_the_frozen_step_bit_for_bit(kind, batch, inputs, hidden, x_tracked):
    rng = _rng(27)
    cell = RecurrentCell(kind, inputs, hidden, rng)
    width = cell.zero_state(batch).shape[1]
    x = Tensor(rng.uniform(-3, 3, size=(batch, inputs)), requires_grad=x_tracked)
    state = Tensor(rng.uniform(-2, 2, size=(batch, width)), requires_grad=True)
    upstream = rng.normal(size=(batch, width))
    frozen = frozen_lstm_step if kind == "lstm" else frozen_gru_step
    got = _step_and_grads(cell, lambda x, s, *_: cell.step(x, s), x, state, upstream)
    want = _step_and_grads(cell, frozen, x, state, upstream)
    assert (got[1] is None) == (want[1] is None) == (not x_tracked)
    for g, ref in zip(got, want):
        if ref is not None:
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


def _three_adam_steps(kind):
    """Every gradient of a default-width ``kind`` over 3 Adam steps of 16
    samples on a 6x6 synthetic grid, then its parameters, as bytes. Adam
    divides each update by its running gradient scale, so a last-bit change
    in a gradient often leaves the parameters' bits as they were; the
    gradients show it."""
    ds = data.generate_synthetic(36, 9, 6, seed=8)
    split = data.YearSplit(test_year=ds.years[-1])
    nds, _ = data.normalize(ds, split)
    spec = models.default_spec(kind, batch_size=16, seed=8)
    samples, _ = data.enumerate_windows(nds, split.train_years(nds.years), spec.crop,
                                        spec.history_years)
    model = models.build_model(spec, _rng(8))
    params = model.parameters()
    adam = optim.AdamState(lr=spec.lr, weight_decay=spec.weight_decay)
    dropout, seen = _rng(9), []
    for k in range(3):
        batch = samples[16 * k : 16 * (k + 1)]
        assert len(batch) == 16
        preds = model.forward_samples(nds, batch, training=True, rng=dropout)
        targets = [nds.norm_stats.standardize_target(spec.crop, nds.yields.get(c, y, spec.crop))
                   for c, y in batch]
        loss = optim.logcosh_loss(preds, np.array(targets))
        for p in params.values():
            p.zero_grad()
        loss.backward()
        seen.append({name: p.grad.tobytes() for name, p in params.items()})
        optim.adam_step(params, adam)
    return seen + [{name: p.data.tobytes() for name, p in params.items()}]


@pytest.mark.parametrize("kind", ["lstm-1y", "gru-1y", "lstm-5y"])
def test_training_with_the_cell_steps_matches_the_frozen_steps(kind, monkeypatch):
    trained = _three_adam_steps(kind)
    monkeypatch.setattr(layers, "_lstm_step", frozen_lstm_step)
    monkeypatch.setattr(layers, "_gru_step", frozen_gru_step)
    assert _three_adam_steps(kind) == trained


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_cell_step_rejects_a_state_of_another_batch_or_width(kind):
    cell = RecurrentCell(kind, 3, 4, _rng(26))
    x = Tensor(np.ones((3, 3)))
    width = cell.zero_state(3).shape[1]
    for shape in [(1, width), (2, width), (3, width + 1), (3, width - 1), (3 * width,)]:
        with pytest.raises(ShapeError, match="state"):
            cell.step(x, Tensor(np.zeros(shape)))
    assert cell.step(x, Tensor(np.zeros((3, width)))).shape == (3, width)


def test_dense_parameter_init_range():
    rng = _rng(18)
    d = Dense(16, 8, rng)
    a = (1.0 / 16) ** 0.5
    assert np.all(np.abs(d.weight.data) <= a)
    p = uniform_param(rng, (4,), 4)
    assert np.all(np.abs(p.data) <= 0.5)
