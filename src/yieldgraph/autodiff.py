"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every operation whose inputs are tracked
records a node (inputs plus a local vector-Jacobian rule) on the implicit
tape formed by the creation graph; ``backward`` topologically sorts the
nodes reachable from a scalar loss and sweeps them exactly once in
reverse, accumulating gradients into the tracked leaves. A vjp may hand
back a ``Pending`` gradient that another thread is still forming (the
conv worker's weight and bias gradients, see ``layers.conv1d``); the
sweep walks on without it, and its leaf's accumulation waits for it
until the sweep is done.

Broadcasting is deliberately restricted to scalar-versus-tensor so that
shape bugs surface at the call site instead of propagating. All data is
float64; NaN/Inf are rejected at construction and flagged if they appear
in gradients.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "NonFiniteError",
    "matmul",
    "concat",
    "narrow",
    "take_rows",
    "add_rowvec",
    "apply_op",
    "Pending",
    "backward",
    "no_grad",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class DomainError(ValueError):
    """Operand values fall outside an operation's domain (e.g. log of x <= 0)."""


class NonFiniteError(FloatingPointError):
    """NaN or Inf encountered in tensor data or gradients."""


def _check_finite(arr, context):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")


class Pending:
    """A gradient that another thread is still forming, which a vjp may
    return in place of an array. ``done()`` blocks until that thread's job
    has finished and returns its failure, or None (the same at once when
    called again); the job fills in ``grads[index]``."""

    __slots__ = ("done", "_grads", "_index")

    def __init__(self, done, grads, index):
        self.done = done
        self._grads = grads
        self._index = index

    def result(self):
        """The gradient, once formed; the job's failure is raised here."""
        err = self.done()
        if err is not None:
            raise err
        return self._grads[self._index]


class _Node:
    """One recorded operation: parent tensors and the local gradient rule."""

    __slots__ = ("inputs", "vjp")

    def __init__(self, inputs, vjp):
        self.inputs = inputs
        self.vjp = vjp


class Tensor:
    """A dense float64 array, optionally tracked for reverse-mode gradients.

    Tensors are immutable during a forward/backward pass; ``grad`` is the
    only field mutated (accumulated) by ``backward``. Optimizer updates
    rewrite ``data`` in place between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ------------------------------------------

    def __add__(self, other):
        return _binary(self, _coerce(other), np.add, lambda a, b, g: g, lambda a, b, g: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, _coerce(other), np.subtract, lambda a, b, g: g, lambda a, b, g: -g)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        return _binary(
            self, _coerce(other), np.multiply,
            lambda a, b, g: g * b, lambda a, b, g: g * a,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return apply_op(-self.data, (self,), lambda g: (-g,))

    def abs(self):
        sign = np.sign(self.data)  # sign(0) == 0, zeroing the kink's gradient
        return apply_op(np.abs(self.data), (self,), lambda g: (g * sign,))

    # -- elementwise nonlinearities --------------------------------------

    def relu(self):
        mask = self.data > 0  # gradient at exactly 0 is 0
        return apply_op(np.where(mask, self.data, 0.0), (self,), lambda g: (g * mask,))

    def log(self):
        if np.any(self.data <= 0):
            raise DomainError("log requires strictly positive values")
        x = self.data
        return apply_op(np.log(x), (self,), lambda g: (g / x,))

    def exp(self):
        y = np.exp(self.data)
        return apply_op(y, (self,), lambda g: (g * y,))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None):
        _check_axis(self.data, axis)
        shape = self.data.shape

        def vjp(g):
            if axis is None:
                return (np.full(shape, g),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return apply_op(np.sum(self.data, axis=axis), (self,), vjp)

    def mean(self, axis=None):
        _check_axis(self.data, axis)
        shape = self.data.shape
        n = self.data.size if axis is None else shape[axis]

        def vjp(g):
            if axis is None:
                return (np.full(shape, g / n),)
            return (np.broadcast_to(np.expand_dims(g / n, axis), shape).copy(),)

        return apply_op(np.mean(self.data, axis=axis), (self,), vjp)

    # -- structure ---------------------------------------------------------

    def reshape(self, shape):
        old = self.data.shape
        return apply_op(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, axes=None):
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        return apply_op(
            np.transpose(self.data, axes), (self,), lambda g: (np.transpose(g, inv),)
        )

    def backward(self):
        backward(self)


def _coerce(value):
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Tensor(float(value))
    raise TypeError(f"cannot operate on Tensor and {type(value).__name__}")


def _stable_sigmoid(x, out=None):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows. e = exp(-|x|) is the exponential of both branches and
    is at most 1, so max(e, x >= 0) is the numerator of both: 1 where
    x >= 0, e elsewhere. No boolean gather or select is needed.

    Works in place: e takes |x|, its negation, its exp and the + 1 in one
    buffer, and the numerator is divided by it in ``out`` (a new array when
    None; it may be ``x`` itself). Each element sees the same operations as
    in ``np.maximum(e, x >= 0) / (1.0 + e)``, so no value changes."""
    e = np.abs(x, out=np.empty_like(x))  # an array even for 0-d x, so it can be written in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def _check_axis(data, axis):
    if axis is None:
        if data.size == 0:
            raise ShapeError("cannot reduce an empty tensor")
        return
    if not isinstance(axis, int) or not -data.ndim <= axis < data.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {data.shape}")
    if data.shape[axis] == 0:
        raise ShapeError(f"cannot reduce empty axis {axis} of shape {data.shape}")


def _unbroadcast(g, shape):
    """Reduce an upstream gradient back to a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _binary(a, b, fwd, da, db):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(
            "elementwise operands need equal shapes or a scalar, got "
            f"{a.data.shape} and {b.data.shape}"
        )
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(da(ad, bd, g), ad.shape),
            _unbroadcast(db(ad, bd, g), bd.shape),
        )

    return apply_op(fwd(ad, bd), (a, b), vjp)


# False inside no_grad(); read by apply_op. A context variable, so the mode
# belongs to the code that set it: a job of layers.in_lanes runs in a copy
# of its caller's context, on the caller or on the conv worker, and records
# tape nodes exactly when its caller would, while a no_grad() inside one
# job leaves the other lane's ops recorded. Tape nodes may thus be made on
# either thread; backward orders its sweep by the creation graph alone,
# not by the thread or the time a node was made, so the gradients keep
# their bits.
_recording = contextvars.ContextVar("yieldgraph_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Inference mode: operations inside record no tape node and return
    untracked tensors. Finiteness checks still run. Nests, restores the
    previous mode however the block exits, and holds only in the current
    context (thread or ``in_lanes`` job)."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def apply_op(data, inputs, vjp):
    """Build the result tensor of an operation, recording a tape node when
    any input is tracked and no_grad() is not active. ``vjp(g)`` must
    return one gradient array (or None) per input, in order."""
    out = Tensor(data)
    if _recording.get() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Node(tuple(inputs), vjp)
    return out


# -- multi-tensor operations ------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return apply_op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    first = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(first) or any(
            s[i] != first[i] for i in range(len(s)) if i != axis
        ):
            raise ShapeError(f"concat shapes incompatible off axis {axis}: {first} vs {s}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return apply_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def narrow(t, axis, start, length):
    """Contiguous slice of ``length`` entries along ``axis`` starting at ``start``."""
    n = t.data.shape[axis]
    if not (0 <= start and start + length <= n):
        raise ShapeError(f"narrow [{start}:{start + length}] outside axis of size {n}")
    idx = [slice(None)] * t.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        out = np.zeros_like(t.data)
        out[idx] = g
        return (out,)

    return apply_op(t.data[idx].copy(), (t,), vjp)


def take_rows(t, indices):
    """Gather rows (axis 0) by integer index; duplicate indices accumulate
    gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take_rows needs a 1-d index list")
    if idx.size and (idx.min() < 0 or idx.max() >= t.data.shape[0]):
        raise ShapeError(f"row index out of range for {t.data.shape[0]} rows")

    def vjp(g):
        out = np.zeros_like(t.data)
        np.add.at(out, idx, g)
        return (out,)

    return apply_op(t.data[idx].copy(), (t,), vjp)


def add_rowvec(x, v):
    """Add a length-d vector to every row of a [n, d] tensor."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec needs [n,d] + [d], got {x.shape} and {v.shape}")
    return apply_op(x.data + v.data[None, :], (x, v), lambda g: (g, g.sum(axis=0)))


# -- reverse sweep -----------------------------------------------------------


def _topo_order(root):
    """Post-order over the creation graph: inputs precede their outputs."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for parent in t.node.inputs:
            if parent.node is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss):
    """Populate ``grad`` on every tracked leaf reachable from ``loss``.

    Each leaf gradient is added to its leaf as the sweep forms it, except
    behind a ``Pending`` one: that leaf's later gradients are held, and
    once the sweep is done each pending one is waited for and the held
    ones are added in the order the sweep formed them, so every leaf gets
    the sums of adding each gradient at once. Every gradient is checked
    for NaN/Inf before it is added. If anything fails, ``backward`` waits
    for every pending gradient before it raises. Repeated calls without
    ``zero_grad`` accumulate.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            seed = np.ones_like(loss.data)
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return

    order = _topo_order(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    held = {}  # id(leaf) -> (leaf, its gradients from its first Pending one on)
    owned = set()  # ids of the leaves whose grad is a sum this sweep made
    pgs = ()
    try:
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            pgs = t.node.vjp(g)
            for parent, pg in zip(t.node.inputs, pgs):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.node is None and (isinstance(pg, Pending) or id(parent) in held):
                    held.setdefault(id(parent), (parent, []))[1].append(pg)
                    continue
                if isinstance(pg, Pending):
                    pg = pg.result()
                _accumulate(parent, pg, grads, owned)
            pgs = ()  # a gradient summed into another is freed before the next vjp
        for leaf, later in held.values():
            for pg in later:
                _accumulate(leaf, pg.result() if isinstance(pg, Pending) else pg, grads, owned)
    except BaseException:
        for pg in (*pgs, *(pg for _, later in held.values() for pg in later)):
            if isinstance(pg, Pending):
                pg.done()
        raise


def _accumulate(parent, pg, grads, owned):
    """Add a checked gradient to a leaf's ``grad``, or to a non-leaf's entry
    in the sweep's ``grads``. A leaf's first sum in a sweep is a new array,
    listed in ``owned``, and its later gradients are added into it in place:
    the same additions, in the same order. No other array is written, so a
    ``grad`` the caller holds from before the sweep, or a vjp's own array,
    never changes."""
    _check_finite(pg, "gradient during backward")
    if parent.node is None:
        if parent.grad is None:
            parent.grad = pg
        elif id(parent) in owned:
            np.add(parent.grad, pg, out=parent.grad)
        else:
            parent.grad = parent.grad + pg
            if isinstance(parent.grad, np.ndarray):  # a 0-d sum is a numpy scalar
                owned.add(id(parent))
    else:
        key = id(parent)
        grads[key] = pg if key not in grads else grads[key] + pg
