"""Reference code the program is checked against.

The composed kernels are the straightforward forms of the pyramid kernels,
built from the tensor primitives (or plain loops) so that their gradients
come from the generic autodiff engine. They are slow on purpose: a general
strided conv and a zero-order hold, both channel-major (B, C, L), a GRU
that records every gate of every step on the tape, and the row-by-row
predictions writer. The GRU's two gate nonlinearities, `tanh` and
`sigmoid`, and the time slice it steps with, `narrow`, are tape ops of
their own here; the tests also use them as smooth nonlinear test functions
and as a generic slice.

`gru_gate_major` is the fused GRU node written plainly: the same gate-major
loop and BPTT, each gate computed into a temporary and then copied into the
history. The program's in-place kernel must match it bit for bit.

`revin_normalize` and `revin_denormalize` are RevIN written time-major,
(..., L, C); the program's time-first RevIN, (L, ..., C), must match them.

`OutOfPlaceAdam` is Adam with each step building new moment arrays; the
program's in-place update must match it bit for bit.

The CSV boundary, cell by cell and row by row: `load_csv` decodes each
line as the reader reaches it, converts each cell with its own `float()`
and raises at the first defect it meets,
`write_matrix` writes each row through `csv.writer`, `hourly_timestamps`
formats each stamp with `strftime`, and `mixed_table` steps its AR(1)
process on numpy float64 scalars. The program's bulk forms must give the
same bytes, values and error messages.

The other oracles: `Tape`, the recorded ops below one output with a cost
per op derived from its shapes; `grad_check`, the central finite-difference
check every gradient is held to; and the forecasters the model must beat
besides the program's last-value persistence: `seasonal_persistence`,
which repeats the last full season, and `WindowRegression`, per-channel
least squares.
"""

import csv
import datetime

import numpy as np

from prformer import nn, tensor as T
from prformer.data import PREDICTION_COLUMNS, DataError, SeriesTable, _reprs, window_iter
from prformer.nn import LinearParams
from prformer.tensor import (
    NonScalarLossError,
    ShapeMismatchError,
    Tensor,
    _node,
    _records,
    _toposort,
    backward,
    no_grad,
)

WIDE_DTYPE = np.float64


class NonDeterministicFunctionError(RuntimeError):
    pass


def tanh(x):
    out = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _node("tanh", out, (x,), bwd)


def _logistic(a):
    # evaluated via tanh for stability on large negative inputs
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def sigmoid(x):
    out = _logistic(x.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _node("sigmoid", out, (x,), bwd)


def narrow(x, axis, start, length):
    """Contiguous slice of `length` elements along `axis`."""
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


def conv1d(x, weight, bias=None, stride=1):
    """Valid strided 1-d convolution over the last axis.

    x (B, C_in, L), weight (C_out, C_in, K) -> (B, C_out, (L - K) // stride + 1).
    """
    k = weight.shape[2]
    l_out = (x.shape[2] - k) // stride + 1
    patches = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)[:, :, ::stride, :]
    out = np.einsum("bcok,dck->bdo", patches, weight.data)
    if bias is not None:
        out = out + bias.data[None, :, None]

    def bwd(g):
        gw = np.einsum("bdo,bcok->dck", g, patches)
        gx = np.zeros_like(x.data)
        # per kernel offset the output positions map to a clean strided slice
        for kk in range(k):
            end = kk + (l_out - 1) * stride + 1
            gx[:, :, kk:end:stride] += np.einsum("bdo,dc->bco", g, weight.data[:, :, kk])
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node("conv1d", out.astype(x.data.dtype, copy=False), parents, bwd)


def upsample_repeat(x, target_len):
    """Zero-order hold of channel-major (B, C, L) along time to `target_len`,
    one `narrow` per output step: step j holds input step j * L // target_len."""
    l_in = x.shape[2]
    return T.concat([narrow(x, 2, j * l_in // target_len, 1) for j in range(target_len)],
                    axis=2)


def gru_step(x_t, h_prev, params):
    """One GRU update; x_t (B, in), h_prev (B, H) -> h_t (B, H).

    Each gate's weights are cut out of the fused `GRUParams` fields with
    `narrow`, so their gradients reach the fields through narrow's scatter.
    """
    hidden = params.hidden_size

    def gate_input(i):
        block = LinearParams(narrow(params.w, 1, i * hidden, hidden),
                             narrow(params.b, 0, i * hidden, hidden))
        return nn.linear(x_t, block)

    z = sigmoid(T.add(gate_input(0), T.matmul(h_prev, narrow(params.u_zr, 1, 0, hidden))))
    r = sigmoid(T.add(gate_input(1), T.matmul(h_prev, narrow(params.u_zr, 1, hidden, hidden))))
    cand = tanh(T.add(gate_input(2), T.matmul(T.mul(r, h_prev), params.u_h)))
    # h_t = (1 - z) * h_prev + z * cand, rewritten to three ops
    return T.add(h_prev, T.mul(z, T.sub(cand, h_prev)))


def gru_forward(x, params):
    """GRU over x (T, in, B) from a zero state, one tape op per gate per step;
    returns h_T (B, H), as the program's kernel does."""
    t_len, in_dim, batch = x.shape
    h = Tensor(np.zeros((batch, params.hidden_size), dtype=x.data.dtype))
    for t in range(t_len):
        x_t = T.permute(T.reshape(narrow(x, 0, t, 1), (in_dim, batch)), (1, 0))
        h = gru_step(x_t, h, params)
    return h


def gru_gate_major(x, params):
    """GRU over x (T, in, B) from a zero state as one `gru_sequence` node;
    returns h_T (B, H). The state is (H, B) and the projections (T, 3H, B),
    so the gates are row blocks; the recorded run keeps h_0..h_T, the gates
    and the candidates for the BPTT loop."""
    w_in, u_zr, u_h, b_in = params.w.data, params.u_zr.data, params.u_h.data, params.b.data
    t_len, _, batch = x.shape
    hidden = params.hidden_size
    proj = np.matmul(w_in.T, x.data)  # (T, 3H, B)
    proj += b_in[:, None]
    dtype = proj.dtype
    parents = (x, params.w, params.u_zr, params.u_h, params.b)
    record = _records(parents)

    h = np.zeros((hidden, batch), dtype=dtype)
    if record:
        hs = np.empty((t_len + 1, hidden, batch), dtype=dtype)
        hs[0] = h
        zr = np.empty((t_len, 2 * hidden, batch), dtype=dtype)
        cand = np.empty((t_len, hidden, batch), dtype=dtype)
    for t in range(t_len):
        zr_t = _logistic(proj[t, :2 * hidden] + u_zr.T @ h)
        z, r = zr_t[:hidden], zr_t[hidden:]
        c_t = np.tanh(proj[t, 2 * hidden:] + u_h.T @ (r * h))
        h = h + z * (c_t - h)
        if record:
            zr[t], cand[t], hs[t + 1] = zr_t, c_t, h

    def bwd(g):
        g_proj = np.empty((t_len, 3 * hidden, batch), dtype=np.result_type(g, dtype))
        dh = np.ascontiguousarray(g.T)
        for t in range(t_len - 1, -1, -1):
            h, z, r, c = hs[t], zr[t, :hidden], zr[t, hidden:], cand[t]
            da_c = dh * z * (1.0 - c * c)
            d_rh = u_h @ da_c
            dz = dh * (c - h)
            g_proj[t, :hidden] = dz * z * (1.0 - z)
            g_proj[t, hidden:2 * hidden] = d_rh * h * r * (1.0 - r)
            g_proj[t, 2 * hidden:] = da_c
            dh = dh * (1.0 - z) + d_rh * r + u_zr @ g_proj[t, :2 * hidden]
        g_cols = g_proj.transpose(0, 2, 1)
        rh_prev = zr[:, hidden:] * hs[:-1]
        return (np.matmul(w_in, g_proj),
                np.matmul(g_proj, x.data.transpose(0, 2, 1)).sum(axis=0).T,
                np.matmul(hs[:-1], g_cols[:, :, :2 * hidden]).sum(axis=0),
                np.matmul(rh_prev, g_cols[:, :, 2 * hidden:]).sum(axis=0),
                g_proj.sum(axis=(0, 2)))

    return _node("gru_sequence", h.T, parents, bwd)


def revin_normalize(x, gamma, beta):
    """Time-major RevIN: standardize windows (..., L, C) over L per channel,
    then gamma (C,) and beta (C,) per channel; returns (x_norm, mu, sigma)
    with the statistics shaped (..., 1, C)."""
    centered, mu, sigma = nn.standardize(x, x.ndim - 2)
    return nn.scale_shift(centered, sigma, gamma, beta), mu, sigma


def revin_denormalize(y, mu, sigma, gamma, beta):
    """Inverse of `revin_normalize` for forecasts (..., H, C)."""
    return T.add(T.mul(T.div(T.sub(y, beta), gamma), sigma), mu)


def write_predictions(path, batches, channels):
    """One csv row per window, horizon step and channel, written one at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for starts, y_true, y_pred in batches:
            for i, s in enumerate(starts):
                for h in range(y_true.shape[1]):
                    for c, name in enumerate(channels):
                        writer.writerow([int(s), h, name,
                                         repr(float(y_true[i, h, c])),
                                         repr(float(y_pred[i, h, c]))])


def _utf8_lines(path, raw):
    """The file's lines, each decoded as `csv.reader` asks for it; an
    undecodable one raises a DataError naming its line and file offset."""
    offset = 0
    for lineno, line in enumerate(raw.splitlines(keepends=True), start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as e:
            at = UnicodeDecodeError("utf-8", raw, offset + e.start, offset + e.end, e.reason)
            raise DataError(f"{path}:{lineno}: not a readable CSV file: {at}") from None
        offset += len(line)


def load_csv(path):
    """Parse a benchmark-format CSV cell by cell; every value must be a
    finite float32."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read dataset file {path}: {e.strerror}") from None
    reader = csv.reader(_utf8_lines(path, raw))
    try:
        header = next(reader)
        if len(header) < 2:
            raise DataError(f"{path}: need a date column plus at least one channel")
        channels = header[1:]
        for i, name in enumerate(channels):
            if name in channels[:i]:
                raise DataError(f"{path}:1: repeated column {name!r}")
        timestamps = []
        rows = []
        linenos = []
        for row in reader:
            lineno = reader.line_num  # the line the record ends on
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, "
                                f"got {len(row)}")
            timestamps.append(row[0])
            parsed = []
            for col, cell in zip(channels, row[1:]):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column "
                        f"{col!r}") from None
            rows.append(parsed)
            linenos.append(lineno)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as e:
        raise DataError(f"{path}:{reader.line_num}: not a readable CSV file: {e}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    with np.errstate(over="ignore"):
        values = np.asarray(rows, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise DataError(f"{path}:{linenos[r]}: value {rows[r][c]!r} in column "
                        f"{channels[c]!r} is not a finite float32")
    for i in range(1, len(timestamps)):
        if timestamps[i] <= timestamps[i - 1]:
            raise DataError(f"{path}: timestamps not strictly increasing at line "
                            f"{linenos[i]} ({timestamps[i]!r} after {timestamps[i - 1]!r})")
    return SeriesTable(timestamps=timestamps, channels=channels, values=values)


def write_matrix(path, header, keys, values):
    """`header`, then each key's cells and its row of `values`, one
    `csv.writer` row at a time."""
    cells = _reprs(values)
    width = values.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(list(key) + cells[i * width:(i + 1) * width]
                         for i, key in enumerate(keys))


def hourly_timestamps(n):
    t0 = datetime.datetime.fromisoformat("2016-07-01 00:00:00")
    step = datetime.timedelta(hours=1)
    return [(t0 + i * step).strftime("%Y-%m-%d %H:%M:%S") for i in range(n)]


def mixed_table(n=2000, seed=0, noise=0.1, coupling=0.8, lag=12, rho=0.9,
                modulation=0.8):
    """The program's mixed table as (timestamps, values), its AR(1) process
    stepped in a float64 array."""
    rng = np.random.default_rng(seed)
    t = np.arange(n + lag)
    z = np.empty(n + lag)
    z[0] = rng.normal()
    innov = rng.normal(scale=np.sqrt(1.0 - rho * rho), size=n + lag)
    for i in range(1, n + lag):
        z[i] = rho * z[i - 1] + innov[i]

    daily = np.sin(2 * np.pi * t / 24.0)
    slow = np.sin(2 * np.pi * t / 96.0)
    eps = rng.normal(scale=noise, size=(3, n + lag))

    c0 = (1.0 + modulation * z) * daily + 0.5 * slow + eps[0]
    c1 = 0.8 * np.sin(2 * np.pi * t / 24.0 + 1.0) + 0.4 * slow + eps[1]
    c2 = 0.6 * slow + coupling * np.concatenate([np.zeros(lag), z[:-lag] if lag else z]) + eps[2]

    return hourly_timestamps(n), np.stack([c0, c1, c2], axis=1)[lag:].astype(np.float32)


class OutOfPlaceAdam:
    """Bias-corrected Adam whose moments are new arrays each step, kept in
    dicts by parameter name."""

    def __init__(self, named_params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.named_params:
            if p.grad is None:
                continue
            g = p.grad.astype(p.data.dtype, copy=False)
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _op_flops(node):
    """Rough forward cost of one tape node: multiply-adds for the matrix
    products, elements touched elsewhere."""
    out = node.data
    if node.op == "matmul":
        return 2 * out.size * node.parents[0].shape[-1]
    if node.op == "conv1d":
        weight = node.parents[1]
        return 2 * out.size * weight.size // weight.shape[0]
    if node.op in ("sum", "mean"):
        return node.parents[0].size
    if node.op == "gru_sequence":
        x, hidden = node.parents[0], node.parents[3].shape[0]  # u_h (H, H)
        t_len, in_dim, batch = x.shape
        # input projection, the two recurrent products, ~10 elementwise ops per unit
        return t_len * batch * (6 * in_dim * hidden + 6 * hidden * hidden + 10 * hidden)
    return out.size


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
        return sum(_op_flops(n) for n in self.nodes)

    def __len__(self):
        return len(self.nodes)


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


def seasonal_persistence(inputs, horizon, period):
    """Repeat the last full season of each window: (b, L, C) -> (b, H, C).

    Step h copies the value `period` steps before the corresponding future
    position.
    """
    b, length, c = inputs.shape
    if period > length:
        raise ValueError(f"period {period} exceeds window length {length}")
    out = np.empty((b, horizon, c), dtype=inputs.dtype)
    for h in range(horizon):
        # position L+h sits (h % period) steps into a season that started
        # at L - period; copy from one season earlier
        out[:, h, :] = inputs[:, length - period + h % period, :]
    return out


class WindowRegression:
    """Independent per-channel ridge-free OLS: lookback window -> horizon."""

    def __init__(self, weights, intercepts):
        self.weights = weights  # (C, L, H)
        self.intercepts = intercepts  # (C, H)

    @classmethod
    def fit(cls, values, row_range, lookback, horizon):
        xs, ys = [], []
        for batch in window_iter(values, row_range, lookback, horizon,
                                 batch_size=4096):
            xs.append(batch.inputs)
            ys.append(batch.targets)
        x = np.concatenate(xs).astype(np.float64)  # (N, L, C)
        y = np.concatenate(ys).astype(np.float64)  # (N, H, C)
        n, length, channels = x.shape
        weights = np.empty((channels, length, y.shape[1]))
        intercepts = np.empty((channels, y.shape[1]))
        design = np.empty((n, length + 1))
        design[:, -1] = 1.0
        for c in range(channels):
            design[:, :length] = x[:, :, c]
            sol, *_ = np.linalg.lstsq(design, y[:, :, c], rcond=None)
            weights[c] = sol[:length]
            intercepts[c] = sol[length]
        return cls(weights, intercepts)

    def predict(self, inputs):
        """(b, L, C) -> (b, H, C)."""
        b, length, channels = inputs.shape
        out = np.empty((b, self.weights.shape[2], channels))
        x = inputs.astype(np.float64)
        for c in range(channels):
            out[:, :, c] = x[:, :, c] @ self.weights[c] + self.intercepts[c]
        return out.astype(inputs.dtype)
