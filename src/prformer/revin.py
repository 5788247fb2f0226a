"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
std, an optional learnable affine is applied, and forecasts are mapped back
through the exact inverse so losses and metrics live on the raw scale.
Window statistics stay in the graph: gradients flow through them.

Data are time first, (L, ..., C) in and (H, ..., C) out: the statistics
reduce over axis 0, whose rows are contiguous, and the stored (C,) gamma
and beta are first spread to the window's trailing (..., C) shape, so that
the ops they feed run whole rows, not C-wide inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .tensor import Tensor

GAMMA_FLOOR = 1e-4  # keeps the affine invertible


@dataclass
class RevinParams:
    gamma: Tensor  # (C,)
    beta: Tensor  # (C,)


@dataclass
class RevinState:
    mu: Tensor  # (1, ..., C) window means
    sigma: Tensor  # (1, ..., C) eps-guarded window stds


def init_revin(channels):
    return RevinParams(*nn.init_scale_shift(channels))


def _spread(params, shape):
    """gamma and beta broadcast to `shape` (..., C), each by one `mul` with
    a ones constant: exact, -0.0 included, and their gradients still sum
    over axis 0 first, then over the rest, as the plain broadcast's do."""
    ones = T.tensor(np.ones(shape, dtype=params.gamma.dtype))
    return T.mul(params.gamma, ones), T.mul(params.beta, ones)


def normalize(x, params):
    """Standardize (L, ..., C) per window and channel, L >= 2; returns
    (x_norm, state)."""
    centered, mu, sigma = nn.standardize(x, 0)
    gamma, beta = _spread(params, x.shape[1:])
    x_norm = nn.scale_shift(centered, sigma, gamma, beta)
    return x_norm, RevinState(mu=mu, sigma=sigma)


def denormalize(y_norm, state, params):
    """Exact inverse of `normalize` applied to forecasts (H, ..., C)."""
    gamma, beta = _spread(params, y_norm.shape[1:])
    unscaled = T.div(T.sub(y_norm, beta), gamma)
    return T.add(T.mul(unscaled, state.sigma), state.mu)


def clamp_gamma(params):
    """Project |gamma| onto [GAMMA_FLOOR, inf) in place, preserving sign.

    Called after each optimizer step so `denormalize` never divides by ~0.
    """
    g = params.gamma.data
    sign = np.where(g < 0, -1.0, 1.0).astype(g.dtype)
    np.copyto(g, sign * np.maximum(np.abs(g), GAMMA_FLOOR))
