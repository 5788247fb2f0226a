"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
std, an optional learnable affine is applied, and forecasts are mapped back
through the exact inverse so losses and metrics live on the raw scale.
Window statistics stay in the graph: gradients flow through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

EPS = 1e-5
GAMMA_FLOOR = 1e-4  # keeps the affine invertible


@dataclass
class RevinParams:
    gamma: Tensor  # (C,)
    beta: Tensor  # (C,)


@dataclass
class RevinState:
    mu: Tensor  # (..., 1, C) window means
    sigma: Tensor  # (..., 1, C) eps-guarded window stds


def init_revin(channels):
    return RevinParams(
        gamma=T.tensor(np.ones(channels, dtype=np.float32), requires_grad=True),
        beta=T.tensor(np.zeros(channels, dtype=np.float32), requires_grad=True))


def normalize(x, params):
    """Standardize (..., L, C) per window and channel; returns (x_norm, state)."""
    time_axis = x.ndim - 2
    if x.shape[time_axis] < 2:
        raise ValueError(f"window length must be >= 2, got {x.shape[time_axis]}")
    mu = T.mean(x, axis=time_axis, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axis=time_axis, keepdims=True)
    sigma = T.sqrt(T.add(var, T.tensor(np.asarray(EPS, dtype=x.data.dtype))))
    return affine(centered, sigma, params), RevinState(mu=mu, sigma=sigma)


def affine(centered, sigma, params):
    """The forward map of `normalize` on values already centred by the window
    mean: centered / sigma * gamma + beta. Also maps targets onto the
    normalized scale for the normalized-loss objective."""
    return T.add(T.mul(T.div(centered, sigma), params.gamma), params.beta)


def denormalize(y_norm, state, params):
    """Exact inverse of `normalize` applied to forecasts (..., H, C)."""
    unscaled = T.div(T.sub(y_norm, params.beta), params.gamma)
    return T.add(T.mul(unscaled, state.sigma), state.mu)


def clamp_gamma(params):
    """Project |gamma| onto [GAMMA_FLOOR, inf) in place, preserving sign.

    Called after each optimizer step so `denormalize` never divides by ~0.
    """
    g = params.gamma.data
    sign = np.where(g < 0, -1.0, 1.0).astype(g.dtype)
    np.copyto(g, sign * np.maximum(np.abs(g), GAMMA_FLOOR))
