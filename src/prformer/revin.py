"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
std, an optional learnable affine is applied, and forecasts are mapped back
through the exact inverse so losses and metrics live on the raw scale.
Window statistics stay in the graph: gradients flow through them.

Data are channel-major, (..., C, L) in and (..., C, H) out, so every
reduction and broadcast runs along the contiguous last axis.
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
    mu: Tensor  # (..., C, 1) window means
    sigma: Tensor  # (..., C, 1) eps-guarded window stds


def init_revin(channels):
    return RevinParams(*nn.init_scale_shift(channels))


def channel_affine(params):
    """gamma and beta as (C, 1) columns, to broadcast over channel-major rows."""
    return T.reshape(params.gamma, (-1, 1)), T.reshape(params.beta, (-1, 1))


def normalize(x, params):
    """Standardize (..., C, L) per window and channel; returns (x_norm, state)."""
    time_axis = x.ndim - 1
    if x.shape[time_axis] < 2:
        raise ValueError(f"window length must be >= 2, got {x.shape[time_axis]}")
    centered, mu, sigma = nn.standardize(x, time_axis)
    x_norm = nn.scale_shift(centered, sigma, *channel_affine(params))
    return x_norm, RevinState(mu=mu, sigma=sigma)


def denormalize(y_norm, state, params):
    """Exact inverse of `normalize` applied to forecasts (..., C, H)."""
    gamma, beta = channel_affine(params)
    unscaled = T.div(T.sub(y_norm, beta), gamma)
    return T.add(T.mul(unscaled, state.sigma), state.mu)


def clamp_gamma(params):
    """Project |gamma| onto [GAMMA_FLOOR, inf) in place, preserving sign.

    Called after each optimizer step so `denormalize` never divides by ~0.
    """
    g = params.gamma.data
    sign = np.where(g < 0, -1.0, 1.0).astype(g.dtype)
    np.copyto(g, sign * np.maximum(np.abs(g), GAMMA_FLOOR))
