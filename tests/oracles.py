"""Composed reference kernels that the fused ones are checked against.

These are the straightforward forms of the pyramid kernels, built from the
tensor primitives (or plain loops) so that their gradients come from the
generic autodiff engine. They are slow on purpose: a general strided conv,
a GRU that records every gate of every step on the tape, and the
row-by-row predictions writer. The GRU's two gate nonlinearities, `tanh`
and `sigmoid`, are tape ops of their own here; the tests also use them as
smooth nonlinear test functions.
"""

import csv

import numpy as np

from prformer import nn, tensor as T
from prformer.data import PREDICTION_COLUMNS
from prformer.nn import LinearParams
from prformer.tensor import Tensor, _logistic, _node


def tanh(x):
    out = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _node("tanh", out, (x,), bwd)


def sigmoid(x):
    out = _logistic(x.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _node("sigmoid", out, (x,), bwd)


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


def gru_step(x_t, h_prev, params):
    """One GRU update; x_t (B, in), h_prev (B, H) -> h_t (B, H)."""
    z = sigmoid(T.add(nn.linear(x_t, LinearParams(params.wz, params.bz)),
                      T.matmul(h_prev, params.uz)))
    r = sigmoid(T.add(nn.linear(x_t, LinearParams(params.wr, params.br)),
                      T.matmul(h_prev, params.ur)))
    cand = tanh(T.add(nn.linear(x_t, LinearParams(params.wh, params.bh)),
                      T.matmul(T.mul(r, h_prev), params.uh)))
    # h_t = (1 - z) * h_prev + z * cand, rewritten to three ops
    return T.add(h_prev, T.mul(z, T.sub(cand, h_prev)))


def gru_forward(x, params):
    """GRU over x (T, B, in) from a zero state, one tape op per gate per step."""
    t_len, batch, _ = x.shape
    h = Tensor(np.zeros((batch, params.hidden_size), dtype=x.data.dtype))
    for t in range(t_len):
        x_t = T.reshape(T.narrow(x, 0, t, 1), (batch, x.shape[2]))
        h = gru_step(x_t, h, params)
    return h


def write_predictions(path, batches, channels):
    """One csv row per window, horizon step and channel, written one at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for starts, y_true, y_pred in batches:
            for i, s in enumerate(starts):
                for h in range(y_true.shape[1]):
                    for c, name in enumerate(channels):
                        writer.writerow([int(s), h, name,
                                         repr(float(y_true[i, h, c])),
                                         repr(float(y_pred[i, h, c]))])
