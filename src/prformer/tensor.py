"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the forecaster is a `Tensor`: a numpy array plus
an optional link into the computation graph. Non-leaf tensors remember the
primitive that produced them (`op`), their inputs (`parents`) and a closure
that maps the output gradient to a gradient for each parent on the tape and
None for each other parent. A constant (a dropout mask, a scale factor, an
epsilon) is just a tensor that needs no gradient, so it costs its closure
nothing. `backward` replays the graph in reverse topological order and
accumulates gradients on the requires_grad leaves.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

_grad_enabled = contextvars.ContextVar("prformer_grad_enabled", default=True)


class ShapeMismatchError(ValueError):
    def __init__(self, op, shape_a, shape_b, detail=""):
        msg = f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonScalarLossError(ValueError):
    pass


class DetachedLossError(ValueError):
    pass


class Tensor:
    """n-dimensional real array, optionally carrying a gradient and graph link."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad=False, op=None, parents=(),
                 backward_fn=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def tensor(data, dtype=None, requires_grad=False):
    """Wrap `data` as a leaf Tensor, cast to `dtype` if one is given."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / benchmarks)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _records(parents):
    """Whether an op on `parents` goes on the tape: grad mode is on and some
    parent needs a gradient."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _node(op, data, parents, backward_fn):
    """Build the output tensor, recording the op only when a parent needs grad."""
    if _records(parents):
        return Tensor(data, requires_grad=True, op=op, parents=tuple(parents),
                      backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    for _ in range(g.ndim - len(shape)):  # one axis at a time: whole rows per add
        g = g.sum(axis=0)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise binaries


def _elementwise(op, a, b, forward, grad_a, grad_b):
    """One broadcasting binary node. Its backward computes `grad(g, out)` only
    for a parent on the tape, summed back to that parent's shape, and returns
    None for a constant."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None
    out = forward(a.data, b.data)

    def bwd(g):
        return tuple(_unbroadcast(grad(g, out), p.shape) if p.requires_grad else None
                     for p, grad in ((a, grad_a), (b, grad_b)))

    return _node(op, out, (a, b), bwd)


def add(a, b):
    return _elementwise("add", a, b, np.add, lambda g, out: g, lambda g, out: g)


def sub(a, b):
    return _elementwise("sub", a, b, np.subtract, lambda g, out: g, lambda g, out: -g)


def mul(a, b):
    return _elementwise("mul", a, b, np.multiply,
                        lambda g, out: g * b.data, lambda g, out: g * a.data)


def div(a, b):
    return _elementwise("div", a, b, np.divide,
                        lambda g, out: g / b.data, lambda g, out: -g * out / b.data)


# ---------------------------------------------------------------------------
# matmul and structural ops


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul", a.shape, b.shape, "operands must be >= 2-d")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape, "inner dims differ")
    if b.ndim == 2:
        return _matmul_shared(a, b)
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return _node("matmul", out, (a, b), bwd)


def _matmul_shared(a, b):
    """a (..., K) @ b (K, N) with every leading axis of `a` folded into the
    rows, so that forward and both gradients are one GEMM each."""
    k, n = b.shape
    rows = a.data.reshape(-1, k)
    out = (rows @ b.data).reshape(a.shape[:-1] + (n,))

    def bwd(g):
        g_rows = g.reshape(-1, n)
        return ((g_rows @ b.data.T).reshape(a.shape), rows.T @ g_rows)

    return _node("matmul", out, (a, b), bwd)


def permute(x, axes):
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inverse),)

    # a copy, so that the ops downstream stream contiguous memory
    return _node("permute", np.ascontiguousarray(np.transpose(x.data, axes)), (x,), bwd)


def reshape(x, shape):
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeMismatchError("reshape", x.shape, shape, "element count differs")
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)

    return _node("reshape", x.data.reshape(shape), (x,), bwd)


def concat(tensors, axis):
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
                i != axis % len(ref) and t.shape[i] != ref[i] for i in range(len(ref))):
            raise ShapeMismatchError("concat", ref, t.shape)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node("concat", np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, bwd)


# ---------------------------------------------------------------------------
# reductions


def _reduction(op, x, out, count):
    """A sum or mean node; an axis reduced keeps length 1, so the backward
    spreads `g / count` back over `x` as a broadcast view, without a copy."""
    def bwd(g):
        return (np.broadcast_to(g / count, x.shape).astype(x.data.dtype, copy=False),)

    return _node(op, out, (x,), bwd)


def sum_(x, axis=None):
    return _reduction("sum", x, x.data.sum(axis=axis, keepdims=axis is not None), 1)


def mean(x, axis=None):
    return _reduction("mean", x, x.data.mean(axis=axis, keepdims=axis is not None),
                      x.size if axis is None else x.shape[axis])


# ---------------------------------------------------------------------------
# elementwise unaries


def sqrt(x):
    out = np.sqrt(x.data)

    def bwd(g):
        return (g * (0.5 / out),)

    return _node("sqrt", out, (x,), bwd)


def exp(x):
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _node("exp", out, (x,), bwd)


def relu(x):
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        return (g * (x.data > 0),)

    return _node("relu", out, (x,), bwd)


def abs_(x):
    def bwd(g):
        # sign(0) == 0: subgradient 0 at ties
        return (g * np.sign(x.data),)

    return _node("abs", np.abs(x.data), (x,), bwd)


def dropout_mask(x, rate, rng):
    """Inverted dropout: zero with probability `rate` in [0, 1), scale
    survivors by 1/(1-rate)."""
    if rate == 0.0:
        return x
    return mul(x, Tensor((rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)))


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node.op is not None:
            for p in node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(leaf) onto every requires_grad leaf below `loss`."""
    if loss.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise DetachedLossError("loss is not connected to any requires_grad tensor")
    order = _toposort(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node))
        if node.op is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node.parents, node._backward(g)):
            if not p.requires_grad:
                continue
            key = id(p)
            grads[key] = pg if key not in grads else grads[key] + pg

