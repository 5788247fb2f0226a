"""Neural-net kernels: layers composed from the tensor primitives, plus the
pyramid embedding's three hand-written tape nodes.

Parameters live in small dataclasses of Tensors; the ops are pure functions.
The pyramid kernels are one tape node each, with a hand-written backward,
on time-first, batch-last (T, ch, N) levels: `conv1d` is a patch
convolution (stride == kernel) run as a free reshape plus one batched
product, `upsample_repeat` is a zero-order hold, and `gru_forward` runs a
whole GRU sequence as one `gru_sequence` node whose time and memory are
linear in the sequence length, forward and backward. Its time loops use
each step's data while it is in cache and write in place, in the order of
operations of a gate-by-gate step, so the results are bitwise those of
computing each gate into a temporary over whole-sequence projections.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, _node, _records

EPS = 1e-5  # variance floor of every standardization


@dataclass
class LinearParams:
    w: Tensor  # (in, out)
    b: Tensor  # (out,)


@dataclass
class GRUParams:
    """The GRU in the layout `gru_forward` multiplies by, gates in z, r, h order."""
    w: Tensor  # (in, 3H): input weights [z|r|h]
    u_zr: Tensor  # (H, 2H): recurrent weights [z|r]
    u_h: Tensor  # (H, H): recurrent weight of the candidate
    b: Tensor  # (3H,): biases [z|r|h]

    @property
    def hidden_size(self):
        return self.u_h.shape[0]


@dataclass
class MHAParams:
    q: LinearParams
    k: Tensor  # (D, D): a key bias would shift all of a query's scores alike
    v: LinearParams
    o: LinearParams


def _uniform(rng, bound, shape):
    return T.tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32),
                    requires_grad=True)


def init_linear(rng, in_dim, out_dim):
    bound = 1.0 / np.sqrt(in_dim)
    return LinearParams(w=_uniform(rng, bound, (in_dim, out_dim)),
                        b=_uniform(rng, bound, (out_dim,)))


def init_gru(rng, in_dim, hidden):
    """Draw w, u and b for gate z, then r, then h, and fuse the draws into
    `GRUParams` layout; the per-gate draw order fixes every seeded run."""
    bound = 1.0 / np.sqrt(hidden)
    shapes = ((in_dim, hidden), (hidden, hidden), (hidden,))
    (wz, uz, bz), (wr, ur, br), (wh, uh, bh) = (
        [_uniform(rng, bound, shape).data for shape in shapes] for _ in "zrh")

    def leaf(*parts):
        return T.tensor(np.concatenate(parts, axis=-1), requires_grad=True)

    return GRUParams(w=leaf(wz, wr, wh), u_zr=leaf(uz, ur), u_h=leaf(uh), b=leaf(bz, br, bh))


def init_mha(rng, d_model):
    """Draw q, then k's weight alone, then v and o."""
    q = init_linear(rng, d_model, d_model)
    k = _uniform(rng, 1.0 / np.sqrt(d_model), (d_model, d_model))
    return MHAParams(q, k, *(init_linear(rng, d_model, d_model) for _ in range(2)))


def init_scale_shift(dim):
    """A learnable (gamma, beta) pair that starts as the identity: ones, zeros."""
    return (T.tensor(np.ones(dim, dtype=np.float32), requires_grad=True),
            T.tensor(np.zeros(dim, dtype=np.float32), requires_grad=True))


def init_conv1d(rng, in_channels, out_channels, kernel):
    """Draw the weight as (C_out, C_in, K), then the bias, and store the
    weight as `conv1d` multiplies by it: (C_out, K·C_in), kernel-major."""
    bound = 1.0 / np.sqrt(in_channels * kernel)
    weight = _uniform(rng, bound, (out_channels, in_channels, kernel)).data
    bias = _uniform(rng, bound, (out_channels,))
    return T.tensor(weight.transpose(0, 2, 1).reshape(out_channels, -1),
                    requires_grad=True), bias


def iter_params(obj, prefix=""):
    """Yield (name, Tensor) pairs in deterministic field order.

    Walks dataclasses and lists/tuples; the traversal order fixes the
    checkpoint layout, so keep it stable.
    """
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            yield prefix, obj
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from iter_params(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from iter_params(item, f"{prefix}.{i}" if prefix else str(i))


# ---------------------------------------------------------------------------
# affine / conv / upsample


def linear(x, params):
    """x (..., in) @ w (in, out) + b; x has at least two axes."""
    return T.add(T.matmul(x, params.w), params.b)


def conv1d(x, weight, bias):
    """Patch convolution: valid 1-d convolution with stride == kernel.

    x (T, C_in, N), weight (C_out, K·C_in), bias (C_out,) -> (T // K, C_out, N).
    Weight column j·C_in + c multiplies channel c at step j of a patch. The
    windows do not overlap, so the first T // K · K steps (a tail shorter
    than K is dropped) reshape without a copy to (T // K, K·C_in, N) patches,
    which one batched product projects. Registered on the tape as one op.
    K <= T, as `RunConfig`'s checks keep every pyramid level a step long.
    """
    length, c_in, batch = x.shape
    k = weight.shape[1] // c_in
    l_out = length // k
    patches = x.data[:l_out * k].reshape(l_out, k * c_in, batch)
    out = np.matmul(weight.data, patches)
    out += bias.data[:, None]

    def bwd(g):
        gx = np.empty_like(x.data)
        gx[l_out * k:] = 0.0
        np.matmul(weight.data.T, g, out=gx[:l_out * k].reshape(patches.shape))
        gw = np.matmul(g, patches.transpose(0, 2, 1)).sum(axis=0)
        return (gx, gw, g.sum(axis=(0, 2)))

    return _node("conv1d", out, (x, weight, bias), bwd)


def upsample_repeat(x, target_len):
    """Zero-order-hold upsampling of (L, ch, N) along time to `target_len`.

    Output step j holds input step j · L // target_len, so each input step
    holds one run of output steps, and the backward sums every run one
    offset at a time: linear in the length, whatever the ratio.
    `target_len` >= L: level lengths fall going up the pyramid.
    """
    l_in = x.shape[0]
    idx = (np.arange(target_len) * l_in) // target_len
    starts = np.searchsorted(idx, np.arange(l_in))  # each input step's first output step
    runs = np.diff(starts, append=target_len)

    def bwd(g):
        gx = g[starts]
        for k in range(1, runs.max()):
            rows = np.flatnonzero(runs > k)
            gx[rows] += g[starts[rows] + k]
        return (gx,)

    return _node("upsample", x.data[idx], (x,), bwd)


# ---------------------------------------------------------------------------
# recurrence


def gru_forward(x, params):
    """Run a GRU from a zero state over x (T, in, B); return h_T (B, H).

    The whole sequence is one `gru_sequence` tape node, computed gate-major:
    the input is a pyramid level as it is, (T, in, B), and the state (H, B),
    so the z, r and candidate gates are row blocks. Each step projects its
    own input into one (3H, B) buffer, then takes one (2H, H) product for
    the update/reset gates and one (H, H) product for the candidate, and
    writes in place into the buffers it keeps: the gates into `zr`, the
    candidate into `cand` and the state into the next slot of `hs`. The z
    and r columns of `w`, `b` and `u_zr` are halved on per-call copies,
    which is exact, so the logistic is one tanh of their sum:
    sigmoid(a) = (tanh(a / 2) + 1) / 2. When the node is recorded the
    buffers keep h_0..h_T, the gates and the candidates for the hand-written
    BPTT; otherwise `hs` is a two-slot ring and the gates and candidate one
    slot each. BPTT writes each step's gate gradients into one (3H, B)
    buffer and, while it is in cache, the step's input gradient and its
    shares of the weight gradients, which are summed over time after the
    loop. Each per-step product is the BLAS call a whole-sequence product
    makes for that step, so streaming changes no bit. Backward returns one
    gradient per `GRUParams` field.
    """
    w_in, u_zr, u_h, b_in = params.w.data, params.u_zr.data, params.u_h.data, params.b.data
    t_len, in_dim, batch = x.shape
    hidden = params.hidden_size
    zr_cols = slice(0, 2 * hidden)
    w_half, b_half = w_in.copy(), b_in.copy()
    w_half[:, zr_cols] *= 0.5
    b_half[zr_cols] *= 0.5
    u_zr_half = u_zr * 0.5
    dtype = np.result_type(w_half, x.data)
    parents = (x, params.w, params.u_zr, params.u_h, params.b)
    record = _records(parents)

    steps = t_len if record else 1
    hs = np.empty((steps + 1, hidden, batch), dtype=dtype)
    zr = np.empty((steps, 2 * hidden, batch), dtype=dtype)
    cand = np.empty((steps, hidden, batch), dtype=dtype)
    proj = np.empty((3 * hidden, batch), dtype=dtype)  # one step's, z and r halved
    buf = np.empty((hidden, batch), dtype=dtype)
    hs[0] = 0.0
    for t in range(t_len):
        h, h_next = hs[t % len(hs)], hs[(t + 1) % len(hs)]
        zr_t, c_t = zr[t % steps], cand[t % steps]
        np.matmul(w_half.T, x.data[t], out=proj)
        proj += b_half[:, None]
        np.matmul(u_zr_half.T, h, out=zr_t)
        zr_t += proj[zr_cols]
        np.tanh(zr_t, out=zr_t)
        zr_t += 1.0
        zr_t *= 0.5
        np.multiply(zr_t[hidden:], h, out=buf)
        np.matmul(u_h.T, buf, out=c_t)
        c_t += proj[2 * hidden:]
        np.tanh(c_t, out=c_t)
        np.subtract(c_t, h, out=buf)
        buf *= zr_t[:hidden]
        np.add(h, buf, out=h_next)

    def bwd(g):
        g_dtype = np.result_type(g, dtype)
        g_step = np.empty((3 * hidden, batch), dtype=g_dtype)
        g_z, g_r, da_c = (g_step[i * hidden:(i + 1) * hidden] for i in range(3))
        dh = np.array(g.T, dtype=g_dtype, order="C")
        d_rh, one_minus_z, tmp = (np.empty_like(dh) for _ in range(3))
        rh = np.empty((hidden, batch), dtype=dtype)
        gx = np.empty(x.shape, dtype=g_dtype)
        gw = np.empty((t_len, 3 * hidden, in_dim), dtype=g_dtype)  # per-step shares
        gu_zr = np.empty((t_len, hidden, 2 * hidden), dtype=g_dtype)
        gu_h = np.empty((t_len, hidden, hidden), dtype=g_dtype)
        gb = np.empty((t_len, 3 * hidden), dtype=g_dtype)
        for t in range(t_len - 1, -1, -1):
            h, z, r, c = hs[t], zr[t, :hidden], zr[t, hidden:], cand[t]
            np.multiply(c, c, out=da_c)
            np.subtract(1.0, da_c, out=da_c)
            np.multiply(dh, z, out=tmp)
            da_c *= tmp  # dh * z * (1 - c²)
            np.matmul(u_h, da_c, out=d_rh)
            np.subtract(1.0, z, out=one_minus_z)
            np.subtract(c, h, out=g_z)
            g_z *= dh
            g_z *= z
            g_z *= one_minus_z  # dh * (c - h) * z * (1 - z)
            np.multiply(d_rh, h, out=g_r)
            g_r *= r
            np.subtract(1.0, r, out=tmp)
            g_r *= tmp  # d_rh * h * r * (1 - r)
            dh *= one_minus_z
            d_rh *= r
            dh += d_rh
            np.matmul(u_zr, g_step[zr_cols], out=tmp)
            dh += tmp  # dh * (1 - z) + d_rh * r + u_zr @ [g_z; g_r]
            np.matmul(w_in, g_step, out=gx[t])
            np.matmul(g_step, x.data[t].T, out=gw[t])
            np.matmul(h, g_step[zr_cols].T, out=gu_zr[t])
            np.multiply(r, h, out=rh)
            np.matmul(rh, da_c.T, out=gu_h[t])
            g_step.sum(axis=1, out=gb[t])
        return (gx, gw.sum(axis=0).T, gu_zr.sum(axis=0), gu_h.sum(axis=0), gb.sum(axis=0))

    return _node("gru_sequence", hs[t_len % len(hs)].T, parents, bwd)


# ---------------------------------------------------------------------------
# normalization / attention


def standardize(x, axis):
    """(x - mean, mean, sqrt(var + EPS)) over `axis`, which the statistics
    keep with length 1."""
    mu = T.mean(x, axis=axis)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axis=axis)
    sigma = T.sqrt(T.add(var, T.tensor(EPS, dtype=x.dtype)))
    return centered, mu, sigma


def scale_shift(centered, sigma, gamma, beta):
    """centered / sigma * gamma + beta: the affine end of a standardization."""
    return T.add(T.mul(T.div(centered, sigma), gamma), beta)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean, unit variance, then affine."""
    centered, _, sigma = standardize(x, x.ndim - 1)
    return scale_shift(centered, sigma, gamma, beta)


def softmax(x):
    """Numerically stable softmax along the last axis."""
    shift = T.tensor(x.data.max(axis=-1, keepdims=True))  # constant: derivative unaffected
    e = T.exp(T.sub(x, shift))
    return T.div(e, T.sum_(e, axis=-1))


def multi_head_attention(x, params, heads):
    """Bidirectional self-attention over tokens; x (B, N, D) -> (out, probs).

    Scores are scaled by 1/sqrt(D/heads); `probs` (B, heads, N, N) is the
    row-stochastic attention matrix, returned for inspection.
    """
    b, n, d = x.shape
    dh = d // heads

    def split_heads(t):
        return T.permute(T.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split_heads(linear(x, params.q))
    k = split_heads(T.matmul(x, params.k))
    v = split_heads(linear(x, params.v))
    scores = T.mul(T.matmul(q, T.permute(k, (0, 1, 3, 2))),
                   T.tensor(1.0 / np.sqrt(dh), dtype=x.dtype))
    probs = softmax(scores)
    ctx = T.matmul(probs, v)  # (b, heads, n, dh)
    merged = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, n, d))
    return linear(merged, params.o), probs
