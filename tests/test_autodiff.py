import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldgraph import autodiff
from yieldgraph.autodiff import (
    DomainError,
    NonFiniteError,
    ShapeError,
    Tensor,
    add_rowvec,
    concat,
    matmul,
    narrow,
    no_grad,
    take_rows,
)
from tests.helpers import (
    check_tensor_gradients,
    fd_gradient,
    reference_backward,
    rel_err,
    sigmoid,
    tanh,
)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_matmul_gradient_matches_finite_differences():
    a = np.eye(2)
    b = np.array([[2.0, 3.0], [4.0, 5.0]])
    ta = Tensor(a, requires_grad=True)
    loss = matmul(ta, Tensor(b)).sum()
    loss.backward()
    assert np.allclose(ta.grad, [[5.0, 9.0], [5.0, 9.0]])
    (fd,) = fd_gradient(lambda x: float((x @ b).sum()), [a.copy()], h=1e-6)
    assert rel_err(ta.grad, fd) < 1e-6


def test_elementwise_trivial_values():
    assert Tensor([-1.0, 0.0, 2.0]).relu().data.tolist() == [0.0, 0.0, 2.0]
    assert tanh(Tensor(0.0)).item() == 0.0
    assert sigmoid(Tensor(0.0)).item() == 0.5


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor([1.0, -1.0]).log()


def test_relu_gradient_at_zero_is_zero():
    x = Tensor([0.0, 1.0], requires_grad=True)
    x.relu().sum().backward()
    assert x.grad.tolist() == [0.0, 1.0]


def test_scalar_broadcast_and_shape_gate():
    t = Tensor([[1.0, 2.0]], requires_grad=True)
    (t * 3.0).sum().backward()
    assert t.grad.tolist() == [[3.0, 3.0]]
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])


def test_reduce_values():
    assert Tensor([1.0, 2.0, 3.0]).mean().item() == 2.0


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_reduce_empty_axis_errors():
    with pytest.raises(ShapeError):
        Tensor(np.ones((0, 2))).sum(axis=0)


def test_concat_hand_layout():
    out = concat([Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])], axis=1)
    assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_concat_single_input_unchanged():
    x = Tensor([[1.0, 2.0]])
    assert np.array_equal(concat([x]).data, x.data)


def test_concat_then_narrow_identity_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    joined = concat([a, b], axis=0)
    narrow(joined, 0, 0, 2).sum().backward()
    assert a.grad.tolist() == [1.0, 1.0]
    assert b.grad is None or b.grad.tolist() == [0.0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=12),
    st.data(),
)
def test_concat_of_split_rebuilds_exactly(values, data):
    arr = np.array(values)
    cut = data.draw(st.integers(min_value=1, max_value=len(values) - 1))
    t = Tensor(arr)
    parts = [narrow(t, 0, 0, cut), narrow(t, 0, cut, len(values) - cut)]
    rebuilt = concat(parts, axis=0)
    assert np.array_equal(rebuilt.data, arr)


def test_backward_simple_square():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert float(x.grad) == 6.0


def test_backward_constant_loss_leaves_grads_empty():
    x = Tensor(3.0, requires_grad=True)
    c = Tensor(5.0)
    (c * c).backward()
    assert x.grad is None


def test_backward_rejects_non_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_backward_accumulates_without_reset():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    y = x * x
    y.backward()
    assert float(x.grad) == 12.0
    x.zero_grad()
    assert x.grad is None


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    grads = []
    for _ in range(2):
        t = Tensor(a.copy(), requires_grad=True)
        tanh(t).sum().backward()
        grads.append(t.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_chain_tanh_sum_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=(3, 4))
    err = check_tensor_gradients(lambda t: tanh(t).sum(), [x], rtol=1e-5)
    assert err < 1e-5


def test_non_finite_rejected_at_construction():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_take_rows_accumulates_duplicates():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    take_rows(x, [0, 0, 1]).sum().backward()
    assert x.grad.tolist() == [[2.0, 2.0], [1.0, 1.0]]


def test_add_rowvec_gradients():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    add_rowvec(x, v).sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 2)))
    assert v.grad.tolist() == [3.0, 3.0]


def test_reshape_transpose_roundtrip_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x.transpose().reshape((6,)).sum()
    y.backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


_ELEMENTWISE = {"tanh": tanh, "sigmoid": sigmoid, "exp": Tensor.exp, "abs": Tensor.abs}


@pytest.mark.parametrize("op", list(_ELEMENTWISE))
def test_elementwise_gradients_random(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))  # str hash() is salted per process
    x = rng.uniform(-2, 2, size=(2, 3))
    if op == "abs":
        x[np.abs(x) < 0.2] += 0.5  # keep away from the kink for the FD oracle
    check_tensor_gradients(lambda t: _ELEMENTWISE[op](t).sum(), [x], rtol=1e-4)


def test_log_gradient_random():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 2.5, size=(2, 3))
    check_tensor_gradients(lambda t: t.log().sum(), [x], rtol=1e-4)


def test_no_grad_records_no_node_and_keeps_finite_checks():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    with no_grad():
        y = (tanh(matmul(x, Tensor([[3.0], [4.0]]))) * 2.0).sum()
        assert y.node is None and not y.requires_grad
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])
    z = (x * x).sum()
    assert z.node is not None and z.requires_grad


def test_no_grad_nests_and_restores_after_exception():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        with no_grad():
            assert (x * x).node is None
        assert (x * x).node is None
    assert (x * x).node is not None
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("escapes")
    assert (x * x).node is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects_non_contiguous_and_0d(bad):
    base = np.arange(12.0).reshape(3, 4)
    base[2, 1] = bad
    view = base.T
    assert not view.flags.c_contiguous
    with pytest.raises(NonFiniteError, match="view"):
        autodiff._check_finite(view, "view")
    with pytest.raises(NonFiniteError, match="scalar"):
        autodiff._check_finite(np.array(bad), "scalar")
    autodiff._check_finite(np.delete(base, 2, axis=0).T, "finite view")
    autodiff._check_finite(np.array(1.5), "finite scalar")


def test_check_finite_accepts_empty():
    autodiff._check_finite(np.empty((0, 3)), "empty")
    autodiff._check_finite(np.empty((0, 3)).T, "empty view")



def test_a_leafs_later_gradients_add_in_place_into_a_sum_of_the_sweeps_own():
    # w gets five gradients in one sweep, on top of a grad the caller holds.
    # The sum has the eager sweep's bits, and the held array is not written.
    rng = np.random.default_rng(7)
    xs, w0, held = rng.normal(size=(5, 4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    def grad_of(sweep):
        w = Tensor(w0, requires_grad=True)
        w.grad = caller = held.copy()
        loss = matmul(Tensor(xs[0]), w).sum()
        for x in xs[1:]:
            loss = loss + (matmul(Tensor(x), w) * 1.5).sum()
        sweep(loss)
        assert caller.tobytes() == held.tobytes()
        return w.grad.tobytes()

    assert grad_of(autodiff.backward) == grad_of(reference_backward)



def test_in_place_sums_never_write_a_vjps_array():
    # One vjp hands w the same array twice, then two more gradients follow:
    # the first is kept as w.grad, and the sums go to a new array.
    rng = np.random.default_rng(9)
    w = Tensor(rng.normal(size=(3,)), requires_grad=True)
    shared = rng.normal(size=(3,))
    before = shared.copy()
    twice = autodiff.apply_op(w.data * 2.0, (w, w), lambda g: (shared, shared))
    (twice.sum() + w.sum() + w.sum()).backward()
    assert shared.tobytes() == before.tobytes()
    assert w.grad.tobytes() == (before + before + 1.0 + 1.0).tobytes()
