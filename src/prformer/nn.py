"""Neural-net kernels: layers composed from the tensor primitives, plus the
pyramid embedding's three hand-written tape nodes.

Parameters live in small dataclasses of Tensors; the ops are pure functions.
The pyramid kernels are one tape node each, with a hand-written backward:
`conv1d` is a patch convolution (stride == kernel) run as reshape plus one
matmul, `upsample_repeat` is a zero-order hold, and `gru_forward` runs a
whole GRU sequence as one `gru_sequence` node whose cost is linear in the
sequence length, forward and backward.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, _logistic, _node


@dataclass
class LinearParams:
    w: Tensor  # (in, out)
    b: Tensor  # (out,)


@dataclass
class GRUParams:
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor

    @property
    def hidden_size(self):
        return self.uz.shape[0]


@dataclass
class MHAParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _uniform(rng, bound, shape):
    return T.tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32),
                    requires_grad=True)


def init_linear(rng, in_dim, out_dim):
    bound = 1.0 / np.sqrt(in_dim)
    return LinearParams(w=_uniform(rng, bound, (in_dim, out_dim)),
                        b=_uniform(rng, bound, (out_dim,)))


def init_gru(rng, in_dim, hidden):
    bound = 1.0 / np.sqrt(hidden)
    fields = {}
    for gate in ("z", "r", "h"):
        fields["w" + gate] = _uniform(rng, bound, (in_dim, hidden))
        fields["u" + gate] = _uniform(rng, bound, (hidden, hidden))
        fields["b" + gate] = _uniform(rng, bound, (hidden,))
    return GRUParams(**fields)


def init_mha(rng, d_model):
    bound = 1.0 / np.sqrt(d_model)
    fields = {}
    for name in ("q", "k", "v", "o"):
        fields["w" + name] = _uniform(rng, bound, (d_model, d_model))
        fields["b" + name] = _uniform(rng, bound, (d_model,))
    return MHAParams(**fields)


def init_conv1d(rng, in_channels, out_channels, kernel):
    bound = 1.0 / np.sqrt(in_channels * kernel)
    weight = _uniform(rng, bound, (out_channels, in_channels, kernel))
    bias = _uniform(rng, bound, (out_channels,))
    return weight, bias


def iter_params(obj, prefix=""):
    """Yield (name, Tensor) pairs in deterministic field order.

    Walks dataclasses, lists/tuples and dicts; the traversal order fixes the
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
        return
    if isinstance(obj, dict):
        for key in obj:
            yield from iter_params(obj[key], f"{prefix}.{key}" if prefix else str(key))


# ---------------------------------------------------------------------------
# affine / conv / upsample


def linear(x, params):
    """x (..., in) @ w (in, out) + b; x has at least two axes."""
    return T.add(T.matmul(x, params.w), params.b)


def conv1d(x, weight, bias=None):
    """Patch convolution: valid 1-d convolution with stride == kernel.

    x (B, C_in, L), weight (C_out, C_in, K) -> (B, C_out, L // K). The
    windows do not overlap, so the input is cut into L // K patches (a tail
    shorter than K is dropped) and projected with one matmul. Registered on
    the tape as one op.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise T.ShapeMismatchError("conv1d", x.shape, weight.shape, "expects 3-d input and weight")
    if x.shape[1] != weight.shape[1]:
        raise T.ShapeMismatchError("conv1d", x.shape, weight.shape, "channel dims differ")
    b_sz, c_in, length = x.shape
    c_out, _, k = weight.shape
    if k > length:
        raise T.ShapeMismatchError("conv1d", x.shape, weight.shape,
                                   f"kernel {k} longer than length {length}")
    l_out = length // k
    # (B, C_in, l_out, K) -> rows of (C_in * K), one per (batch, patch)
    patches = (x.data[:, :, :l_out * k].reshape(b_sz, c_in, l_out, k)
               .transpose(0, 2, 1, 3).reshape(b_sz * l_out, c_in * k))
    w_flat = weight.data.reshape(c_out, c_in * k)
    out = patches @ w_flat.T
    if bias is not None:
        out += bias.data
    out = out.reshape(b_sz, l_out, c_out).transpose(0, 2, 1)
    flops = 2 * b_sz * c_out * c_in * k * l_out

    def bwd(g):
        g_rows = g.transpose(0, 2, 1).reshape(b_sz * l_out, c_out)
        gw = (g_rows.T @ patches).reshape(weight.shape)
        g_patches = (g_rows @ w_flat).reshape(b_sz, l_out, c_in, k).transpose(0, 2, 1, 3)
        if l_out * k == length:
            gx = g_patches.reshape(x.shape)
        else:
            gx = np.zeros_like(x.data)
            gx[:, :, :l_out * k] = g_patches.reshape(b_sz, c_in, l_out * k)
        if bias is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node("conv1d", out.astype(x.data.dtype, copy=False), parents, bwd, flops=flops)


def upsample_repeat(x, target_len):
    """Zero-order-hold upsampling of (B, C, L) along time to `target_len`."""
    if x.ndim != 3:
        raise T.ShapeMismatchError("upsample", x.shape, (target_len,), "expects 3-d input")
    b_sz, ch, l_in = x.shape
    if target_len < l_in:
        raise T.ShapeMismatchError("upsample", x.shape, (target_len,),
                                   "target shorter than input")
    idx = (np.arange(target_len) * l_in) // target_len

    def bwd(g):
        if target_len % l_in == 0:
            # every input step is held for the same number of output steps
            return (g.reshape(b_sz, ch, l_in, target_len // l_in).sum(axis=3),)
        row_starts = np.arange(b_sz * ch)[:, None] * l_in
        gx = np.bincount((row_starts + idx).ravel(), weights=g.reshape(-1),
                         minlength=b_sz * ch * l_in)
        return (gx.reshape(x.shape).astype(x.data.dtype, copy=False),)

    return _node("upsample", x.data[:, :, idx], (x,), bwd)


# ---------------------------------------------------------------------------
# recurrence


def gru_forward(x, params):
    """Run a GRU from a zero state over x (T, B, in); return h_T (B, H).

    The whole sequence is one `gru_sequence` tape node. Forward projects all
    steps' inputs onto the three gates with one matmul, then loops over time
    with one (H, 2H) product for the update/reset gates and one (H, H)
    product for the candidate. It keeps h_0..h_T, the gates and the
    candidates; backward is hand-written BPTT that writes into fresh buffers
    and returns the nine parameter gradients in `GRUParams` layout.
    The gate matrices are concatenated per call: parameters change between
    optimizer steps, so a cached copy would go stale.
    """
    if x.ndim != 3:
        raise T.ShapeMismatchError("gru", x.shape, params.wz.shape, "expects (T, B, in) input")
    if x.shape[2] != params.wz.shape[0]:
        raise T.ShapeMismatchError("gru", x.shape, params.wz.shape, "input dims differ")
    t_len, batch, in_dim = x.shape
    hidden = params.hidden_size
    w_in = np.concatenate([params.wz.data, params.wr.data, params.wh.data], axis=1)
    b_in = np.concatenate([params.bz.data, params.br.data, params.bh.data])
    u_zr = np.concatenate([params.uz.data, params.ur.data], axis=1)
    u_h = params.uh.data
    x_flat = x.data.reshape(t_len * batch, in_dim)
    proj = (x_flat @ w_in + b_in).reshape(t_len, batch, 3 * hidden)
    dtype = proj.dtype

    hs = np.zeros((t_len + 1, batch, hidden), dtype=dtype)
    zr = np.empty((t_len, batch, 2 * hidden), dtype=dtype)
    cand = np.empty((t_len, batch, hidden), dtype=dtype)
    for t in range(t_len):
        h = hs[t]
        zr[t] = _logistic(proj[t, :, :2 * hidden] + h @ u_zr)
        z, r = zr[t, :, :hidden], zr[t, :, hidden:]
        cand[t] = np.tanh(proj[t, :, 2 * hidden:] + (r * h) @ u_h)
        hs[t + 1] = h + z * (cand[t] - h)
    del proj
    # input projection, the two recurrent products, ~10 elementwise ops per unit
    flops = t_len * batch * (2 * in_dim * 3 * hidden + 2 * 3 * hidden * hidden + 10 * hidden)

    def bwd(g):
        g_proj = np.empty((t_len, batch, 3 * hidden), dtype=np.result_type(g, dtype))
        dh = g
        for t in range(t_len - 1, -1, -1):
            h, z, r, c = hs[t], zr[t, :, :hidden], zr[t, :, hidden:], cand[t]
            da_c = dh * z * (1.0 - c * c)
            d_rh = da_c @ u_h.T
            dz = dh * (c - h)
            g_proj[t, :, :hidden] = dz * z * (1.0 - z)
            g_proj[t, :, hidden:2 * hidden] = d_rh * h * r * (1.0 - r)
            g_proj[t, :, 2 * hidden:] = da_c
            dh = dh * (1.0 - z) + d_rh * r + g_proj[t, :, :2 * hidden] @ u_zr.T
        rows = g_proj.reshape(t_len * batch, 3 * hidden)
        h_prev = hs[:-1].reshape(t_len * batch, hidden)
        rh_prev = (zr[:, :, hidden:] * hs[:-1]).reshape(t_len * batch, hidden)
        gx = (rows @ w_in.T).reshape(x.shape)
        gw = x_flat.T @ rows
        gu_zr = h_prev.T @ rows[:, :2 * hidden]
        gu_h = rh_prev.T @ rows[:, 2 * hidden:]
        gb = rows.sum(axis=0)
        z_, r_, h_ = slice(None, hidden), slice(hidden, 2 * hidden), slice(2 * hidden, None)
        return (gx, gw[:, z_], gu_zr[:, z_], gb[z_], gw[:, r_], gu_zr[:, r_], gb[r_],
                gw[:, h_], gu_h, gb[h_])

    parents = (x, params.wz, params.uz, params.bz, params.wr, params.ur, params.br,
               params.wh, params.uh, params.bh)
    return _node("gru_sequence", hs[t_len].copy(), parents, bwd, flops=flops)


# ---------------------------------------------------------------------------
# normalization / attention


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean, unit variance, then affine."""
    mu = T.mean(x, axis=x.ndim - 1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axis=x.ndim - 1, keepdims=True)
    normed = T.div(centered, T.sqrt(T.add(var, T.tensor(np.asarray(eps, dtype=x.data.dtype)))))
    return T.add(T.mul(normed, gamma), beta)


def softmax(x, axis=-1):
    """Numerically stable softmax along `axis`."""
    axis = axis % x.ndim
    shift = T.tensor(x.data.max(axis=axis, keepdims=True))  # constant: derivative unaffected
    e = T.exp(T.sub(x, shift))
    return T.div(e, T.sum_(e, axis=axis, keepdims=True))


def softmax_temp(logits, temperature):
    """Softmax of logits / temperature; low temperature sharpens toward argmax."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return softmax(T.scale(logits, 1.0 / temperature), axis=logits.ndim - 1)


def multi_head_attention(x, params, heads):
    """Bidirectional self-attention over tokens; x (B, N, D) -> (out, probs).

    Scores are scaled by 1/sqrt(D/heads); `probs` (B, heads, N, N) is the
    row-stochastic attention matrix, returned for inspection.
    """
    b, n, d = x.shape
    if d % heads != 0:
        raise ValueError(f"d_model {d} not divisible by heads {heads}")
    dh = d // heads

    def split_heads(t):
        return T.permute(T.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q = split_heads(linear(x, LinearParams(params.wq, params.bq)))
    k = split_heads(linear(x, LinearParams(params.wk, params.bk)))
    v = split_heads(linear(x, LinearParams(params.wv, params.bv)))
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(dh))
    probs = softmax(scores, axis=-1)
    ctx = T.matmul(probs, v)  # (b, heads, n, dh)
    merged = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, n, d))
    return linear(merged, LinearParams(params.wo, params.bo)), probs
