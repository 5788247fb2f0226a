"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
std, an optional learnable affine is applied, and forecasts are mapped back
through the exact inverse so losses and metrics live on the raw scale.
Window statistics stay in the graph: gradients flow through them.

Data are time first, (L, ..., C) in and (H, ..., C) out: the statistics
reduce over axis 0, whose rows are contiguous, and the (C,) gamma and beta
broadcast along the last axis as they are stored.
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


def normalize(x, params):
    """Standardize (L, ..., C) per window and channel; returns (x_norm, state)."""
    if x.shape[0] < 2:
        raise ValueError(f"window length must be >= 2, got {x.shape[0]}")
    centered, mu, sigma = nn.standardize(x, 0)
    x_norm = nn.scale_shift(centered, sigma, params.gamma, params.beta)
    return x_norm, RevinState(mu=mu, sigma=sigma)


def denormalize(y_norm, state, params):
    """Exact inverse of `normalize` applied to forecasts (H, ..., C)."""
    unscaled = T.div(T.sub(y_norm, params.beta), params.gamma)
    return T.add(T.mul(unscaled, state.sigma), state.mu)


def clamp_gamma(params):
    """Project |gamma| onto [GAMMA_FLOOR, inf) in place, preserving sign.

    Called after each optimizer step so `denormalize` never divides by ~0.
    """
    g = params.gamma.data
    sign = np.where(g < 0, -1.0, 1.0).astype(g.dtype)
    np.copyto(g, sign * np.maximum(np.abs(g), GAMMA_FLOOR))
