import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldgraph.autodiff import NonFiniteError, ShapeError, Tensor
from yieldgraph.optim import AdamState, LrSchedule, adam_step, logcosh_loss, lr_at
from tests.helpers import check_tensor_gradients


def test_logcosh_zero_residual():
    pred = Tensor(np.array([1.0, 2.0]))
    assert logcosh_loss(pred, np.array([1.0, 2.0])).item() == 0.0
    with pytest.raises(ShapeError):  # an empty batch has no mean
        logcosh_loss(Tensor(np.zeros(0)), np.zeros(0))


def test_logcosh_unit_residual():
    loss = logcosh_loss(Tensor(np.array([1.0])), np.array([0.0]))
    assert abs(loss.item() - 0.433781) < 1e-6
    assert abs(loss.item() - math.log(math.cosh(1.0))) < 1e-12


def test_logcosh_large_residual_linear_regime():
    loss = logcosh_loss(Tensor(np.array([10.0])), np.array([0.0]))
    assert abs(loss.item() - 9.306853) < 1e-6
    assert abs(loss.item() - (10.0 - math.log(2.0))) < 1e-8


def test_logcosh_survives_huge_residuals():
    loss = logcosh_loss(Tensor(np.array([1e4])), np.array([0.0]))
    assert abs(loss.item() - (1e4 - math.log(2.0))) < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_logcosh_symmetric_in_arguments(a, b):
    f = logcosh_loss(Tensor(np.array([a])), np.array([b])).item()
    g = logcosh_loss(Tensor(np.array([b])), np.array([a])).item()
    assert abs(f - g) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.1, 0.1))
def test_logcosh_quadratic_regime(r):
    val = logcosh_loss(Tensor(np.array([r])), np.array([0.0])).item()
    assert abs(val - r * r / 2.0) <= 1e-5


@settings(max_examples=60, deadline=None)
@given(st.floats(10, 500))
def test_logcosh_linear_regime(r):
    val = logcosh_loss(Tensor(np.array([r])), np.array([0.0])).item()
    assert abs(val - (abs(r) - math.log(2.0))) <= 1e-8


def test_logcosh_gradient_is_tanh_over_n():
    rng = np.random.default_rng(0)
    r = rng.uniform(-3, 3, size=6)
    pred = Tensor(r, requires_grad=True)
    logcosh_loss(pred, np.zeros(6)).backward()
    assert np.allclose(pred.grad, np.tanh(r) / 6, atol=1e-12)
    check_tensor_gradients(lambda t: logcosh_loss(t, np.zeros(6)), [r], rtol=1e-5)


def test_adam_first_step_delta():
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.array([1.0])
    state = AdamState(lr=1e-3)
    adam_step({"p": p}, state)
    delta = float(p.data[0]) - 0.5
    assert abs(delta + 1e-3) < 1e-9
    assert state.step_count == 1


def test_adam_zero_gradient_no_motion():
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.array([0.0])
    adam_step({"p": p}, AdamState(lr=1e-2))
    assert float(p.data[0]) == 0.5


def test_adam_deterministic_across_replicas():
    def run():
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        state = AdamState(lr=1e-2, weight_decay=1e-4)
        for step in range(5):
            p.grad = np.sin(np.arange(4.0) + step)
            adam_step({"p": p}, state)
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adam_rejects_non_finite_gradient_and_leaves_params():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    state = AdamState(lr=1e-2)
    with pytest.raises(NonFiniteError):
        adam_step({"p": p}, state)
    assert float(p.data[0]) == 1.0
    assert state.step_count == 0


def test_step_schedule_paper_values():
    sched = LrSchedule(kind="step", period=25, gamma=0.5)
    assert lr_at(sched, 1e-4, 24) == 1e-4
    assert lr_at(sched, 1e-4, 25) == 5e-5


def test_cosine_schedule_start_and_midpoint():
    sched = LrSchedule(kind="cosine", t0=100, eta_min=1e-6)
    assert lr_at(sched, 1e-4, 0) == 1e-4
    assert abs(lr_at(sched, 1e-4, 50) - 5.05e-5) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1000))
def test_cosine_schedule_bounded(epoch):
    sched = LrSchedule(kind="cosine", t0=200, eta_min=1e-5)
    lr = lr_at(sched, 1e-4, epoch)
    assert 1e-5 <= lr <= 1e-4


def test_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule(kind="linear")
    with pytest.raises(ValueError):
        lr_at(LrSchedule(), 1e-3, -1)
