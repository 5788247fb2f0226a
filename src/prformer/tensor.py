"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the forecaster is a `Tensor`: a numpy array plus
an optional link into the computation graph. Non-leaf tensors remember the
primitive that produced them (`op`), their inputs (`parents`) and a closure
that maps the output gradient to per-parent gradients. `backward` replays
the graph in reverse topological order and accumulates gradients on the
requires_grad leaves.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
WIDE_DTYPE = np.float64

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


class NonDeterministicFunctionError(RuntimeError):
    pass


class Tensor:
    """n-dimensional real array, optionally carrying a gradient and graph link."""

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward",
                 "_flops")

    def __init__(self, data, requires_grad=False, op=None, parents=(),
                 backward_fn=None, flops=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._backward = backward_fn
        self._flops = int(self.data.size) if flops is None else int(flops)

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
    """Wrap `data` as a leaf Tensor, defaulting to single precision."""
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / benchmarks)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _node(op, data, parents, backward_fn, flops=None):
    """Build the output tensor, recording the op only when a parent needs grad."""
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=tuple(parents),
                      backward_fn=backward_fn, flops=flops)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatchError(op, a.shape, b.shape) from None


# ---------------------------------------------------------------------------
# elementwise binaries


def add(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_broadcast("add", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _node("add", a.data + b.data, (a, b), bwd)


def sub(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_broadcast("sub", a, b)

    def bwd(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _node("sub", a.data - b.data, (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_broadcast("mul", a, b)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _node("mul", a.data * b.data, (a, b), bwd)


def div(a, b):
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    _check_broadcast("div", a, b)
    out = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * out / b.data, b.shape)
        return (ga, gb)

    return _node("div", out, (a, b), bwd)


# ---------------------------------------------------------------------------
# matmul and structural ops


def matmul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul", a.shape, b.shape, "operands must be >= 2-d")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError("matmul", a.shape, b.shape, "inner dims differ")
    try:
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape, "batch dims differ") from None
    out = np.matmul(a.data, b.data)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    flops = 2 * m * k * n * int(np.prod(batch, dtype=np.int64)) if batch else 2 * m * k * n

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return _node("matmul", out, (a, b), bwd, flops=flops)


def permute(x, axes):
    x = _as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inverse),)

    return _node("permute", np.transpose(x.data, axes), (x,), bwd)


def transpose(x):
    """Swap the last two axes."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeMismatchError("transpose", x.shape, x.shape, "needs >= 2-d")
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return permute(x, axes)


def reshape(x, shape):
    x = _as_tensor(x)
    shape = tuple(shape)
    target = int(np.prod(shape, dtype=np.int64)) if -1 not in shape else -1
    if target != -1 and target != x.size:
        raise ShapeMismatchError("reshape", x.shape, shape, "element count differs")
    old = x.shape

    def bwd(g):
        return (g.reshape(old),)

    return _node("reshape", x.data.reshape(shape), (x,), bwd)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
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


def narrow(x, axis, start, length):
    """Contiguous slice of `length` elements along `axis`."""
    x = _as_tensor(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeMismatchError("slice", x.shape, (start, start + length),
                                 f"out of range on axis {axis}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _node("slice", x.data[index], (x,), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.data.dtype, copy=False),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _node("sum", out, (x,), bwd, flops=x.size)


def mean(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else x.shape[axis]

    def bwd(g):
        scale_g = g / count
        if axis is None:
            return (np.broadcast_to(scale_g, x.shape).astype(x.data.dtype, copy=False),)
        gg = scale_g if keepdims else np.expand_dims(scale_g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _node("mean", out, (x,), bwd, flops=x.size)


# ---------------------------------------------------------------------------
# elementwise unaries


def sqrt(x):
    x = _as_tensor(x)
    out = np.sqrt(x.data)

    def bwd(g):
        return (g * (0.5 / out),)

    return _node("sqrt", out, (x,), bwd)


def exp(x):
    x = _as_tensor(x)
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return _node("exp", out, (x,), bwd)


def tanh(x):
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _node("tanh", out, (x,), bwd)


def _logistic(a):
    # evaluated via tanh for stability on large negative inputs
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def sigmoid(x):
    x = _as_tensor(x)
    out = _logistic(x.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _node("sigmoid", out, (x,), bwd)


def relu(x):
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        return (g * (x.data > 0),)

    return _node("relu", out, (x,), bwd)


def abs_(x):
    x = _as_tensor(x)

    def bwd(g):
        # sign(0) == 0: subgradient 0 at ties
        return (g * np.sign(x.data),)

    return _node("abs", np.abs(x.data), (x,), bwd)


def neg(x):
    x = _as_tensor(x)

    def bwd(g):
        return (-g,)

    return _node("neg", -x.data, (x,), bwd)


def scale(x, factor):
    """Multiply by a python scalar."""
    x = _as_tensor(x)
    factor = float(factor)

    def bwd(g):
        return (g * factor,)

    return _node("scale", x.data * factor, (x,), bwd)


def dropout_mask(x, rate, rng):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate)."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def bwd(g):
        return (g * mask,)

    return _node("dropout", x.data * mask, (x,), bwd)


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
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.op is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node.parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            grads[key] = pg if key not in grads else grads[key] + pg


class Tape:
    """The primitive ops below one output tensor, each after its inputs."""

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root):
        return cls([n for n in _toposort(root) if n.op is not None])

    def op_ids(self):
        return [n.op for n in self.nodes]

    def op_counts(self):
        counts = {}
        for n in self.nodes:
            counts[n.op] = counts.get(n.op, 0) + 1
        return counts

    def flops(self):
        """Rough forward cost: multiply-add counts for matmul/conv, element counts elsewhere."""
        return sum(n._flops for n in self.nodes)

    def __len__(self):
        return len(self.nodes)


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(fn, point, eps=1e-5):
    """Max relative error between analytic gradient of `fn` and central differences.

    `fn` maps a Tensor to a scalar Tensor. Evaluation runs in float64; the
    analytic side uses one backward pass, the numeric side perturbs every
    coordinate by +-eps. Error per coordinate is
    |analytic - fd| / max(1, |analytic|).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    base = np.asarray(point.data if isinstance(point, Tensor) else point,
                      dtype=WIDE_DTYPE)

    def evaluate(arr):
        out = fn(Tensor(arr.copy()))
        if out.size != 1:
            raise NonScalarLossError("grad_check target must return a scalar")
        return float(out.data)

    with no_grad():
        first, second = evaluate(base), evaluate(base)
    if first != second:
        raise NonDeterministicFunctionError(
            f"function returned {first} then {second} at the same point")

    leaf = Tensor(base.copy(), requires_grad=True)
    backward(fn(leaf))
    analytic = leaf.grad.reshape(-1)

    flat = base.reshape(-1)
    fd = np.empty_like(flat)
    with no_grad():
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            hi = evaluate(bumped.reshape(base.shape))
            bumped[i] = flat[i] - eps
            lo = evaluate(bumped.reshape(base.shape))
            fd[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - fd) / denom)) if flat.size else 0.0
