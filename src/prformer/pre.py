"""Pyramidal RNN embedding: one D-dim vector per variable.

A univariate lookback series is coarsened bottom-up by patch convolutions
(stride == kernel, one level per configured period), the top level is
repeatedly upsampled and added laterally on the way down, a GRU summarizes
each fused level, and a temperature softmax over learned logits weights the
per-level summaries before a fusion linear mixes them into the final
embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .tensor import Tensor


class PyramidConfigWarning(UserWarning):
    """A level's kernel degenerates to 1 (no temporal downsampling)."""


@dataclass(frozen=True)
class PyramidConfig:
    windows: tuple  # ascending period lengths, one per level
    kernels: tuple  # per-level conv kernel == stride
    level_lengths: tuple  # sequence length after each level for this lookback
    lookback: int

    @property
    def levels(self):
        return len(self.windows)


def build_pyramid_config(windows, lookback):
    """Derive kernels and level lengths from period windows.

    Each kernel is the floor ratio of consecutive windows (the base window is
    1 sample); each level is a patch convolution (stride == kernel), so its
    length is the floor division of the one below.
    """
    windows = tuple(int(w) for w in windows)
    if not windows:
        raise ValueError("windows must be nonempty")
    if any(w <= 0 for w in windows):
        raise ValueError(f"windows must be positive, got {list(windows)}")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError(f"windows must be strictly ascending, got {list(windows)}")
    if lookback < windows[-1]:
        raise ValueError(
            f"lookback {lookback} shorter than top window {windows[-1]}")

    kernels = []
    prev = 1
    for w in windows:
        kernels.append(w // prev)
        prev = w
    degenerate = [windows[i] for i, k in enumerate(kernels) if k == 1]
    if degenerate:
        warnings.warn(
            f"windows {degenerate} give kernel 1 (no downsampling at that level)",
            PyramidConfigWarning, stacklevel=2)

    lengths = []
    n = lookback
    for k in kernels:
        n = n // k
        if n < 1:
            raise ValueError(
                f"lookback {lookback} too short for windows {list(windows)}: "
                f"a level would have length 0")
        lengths.append(n)
    return PyramidConfig(windows=windows, kernels=tuple(kernels),
                         level_lengths=tuple(lengths), lookback=lookback)


def level_hidden_sizes(d_model, levels, strict=False):
    """Split D across per-level GRUs; the last level absorbs any remainder."""
    if d_model < levels:
        raise ValueError(f"d_model {d_model} smaller than level count {levels}")
    if strict and d_model % levels:
        raise ValueError(f"d_model {d_model} not divisible by {levels} levels")
    base = d_model // levels
    sizes = [base] * levels
    sizes[-1] = d_model - base * (levels - 1)
    return sizes


@dataclass
class PREParams:
    conv_weights: list  # per level (C_out, C_in, K)
    conv_biases: list
    grus: list  # per level GRUParams
    alpha: Tensor  # (levels,) fusion logits
    fuse: nn.LinearParams  # (sum of hiddens -> D)


def init_pre(rng, cfg, d_model, conv_channels=16, hidden_sizes=None):
    """Build pyramid parameters; `hidden_sizes` overrides the D-split per level
    (the bottom-only ablation keeps the full model's per-level width)."""
    conv_weights, conv_biases, grus = [], [], []
    in_ch = 1
    for k in cfg.kernels:
        w, b = nn.init_conv1d(rng, in_ch, conv_channels, k)
        conv_weights.append(w)
        conv_biases.append(b)
        in_ch = conv_channels
    hiddens = (list(hidden_sizes) if hidden_sizes is not None
               else level_hidden_sizes(d_model, cfg.levels))
    if len(hiddens) != cfg.levels:
        raise ValueError(f"need {cfg.levels} hidden sizes, got {len(hiddens)}")
    for h in hiddens:
        grus.append(nn.init_gru(rng, conv_channels, h))
    alpha = T.tensor(np.full(cfg.levels, 1.0 / cfg.levels, dtype=np.float32),
                     requires_grad=True)
    fuse = nn.init_linear(rng, sum(hiddens), d_model)
    return PREParams(conv_weights=conv_weights, conv_biases=conv_biases,
                     grus=grus, alpha=alpha, fuse=fuse)


def bottom_up(x, params, cfg):
    """Coarsen (B, L) through the pyramid; returns per-level (B, ch, L_i)."""
    if x.shape[-1] != cfg.lookback:
        raise T.ShapeMismatchError("bottom_up", x.shape, (cfg.lookback,),
                                   "series length != configured lookback")
    cur = T.reshape(x, (x.shape[0], 1, x.shape[1]))
    features = []
    for w, b in zip(params.conv_weights, params.conv_biases):
        cur = nn.conv1d(cur, w, b)
        features.append(cur)
    return features


def top_down_fuse(features):
    """Add the repeatedly upsampled top feature onto each lower level.

    The cascade upsamples the prime chain level by level; lateral sums do not
    feed back into it, so a zero top feature leaves every level unchanged.
    """
    fused = [None] * len(features)
    fused[-1] = features[-1]
    prime = features[-1]
    for i in range(len(features) - 2, -1, -1):
        prime = nn.upsample_repeat(prime, features[i].shape[2])
        fused[i] = T.add(prime, features[i])
    return fused


def multi_scale_rnn(fused, params, temperature=1.0):
    """Summarize each fused level with its GRU and mix by softmax weights."""
    beta = nn.softmax_temp(params.alpha, temperature)
    pieces = []
    for i, (level, gru) in enumerate(zip(fused, params.grus)):
        seq = T.permute(level, (2, 0, 1))  # (L_i, B, ch) time-major
        h_i = nn.gru_forward(seq, gru)
        pieces.append(T.mul(h_i, T.narrow(beta, 0, i, 1)))
    return nn.linear(T.concat(pieces, axis=1), params.fuse)


def pre_embed_batch(x, params, cfg, temperature=1.0):
    """Embed a batch of univariate series (B, L) -> (B, D)."""
    return multi_scale_rnn(top_down_fuse(bottom_up(x, params, cfg)),
                           params, temperature)
