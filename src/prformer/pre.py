"""Pyramidal RNN embedding: one D-dim vector per variable.

A univariate lookback series is coarsened bottom-up by patch convolutions
(stride == kernel, one level per configured period window, its kernel the
ratio to the window below: `config.pyramid_kernels`), the top level is
repeatedly upsampled and added laterally on the way down, a GRU summarizes
each fused level, and a fusion linear mixes the concatenated summaries into
the final embedding. A batch of N series is time first and batch last: (L, N)
in, and every level (L_i, ch, N) from its conv to its GRU.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nn, tensor as T


@dataclass
class PREParams:
    conv_weights: list  # per level (C_out, K·C_in)
    conv_biases: list
    grus: list  # per level GRUParams
    fuse: nn.LinearParams  # (sum of hiddens -> D)


def init_pre(rng, kernels, hidden_sizes, d_model, conv_channels):
    """Build pyramid parameters: per level a patch conv with kernel
    `kernels[i]` and `conv_channels` outputs and a GRU of width
    `hidden_sizes[i]`, then the fusion linear to D."""
    convs = [nn.init_conv1d(rng, conv_channels if i else 1, conv_channels, k)
             for i, k in enumerate(kernels)]
    grus = [nn.init_gru(rng, conv_channels, h) for h in hidden_sizes]
    fuse = nn.init_linear(rng, sum(hidden_sizes), d_model)
    return PREParams(conv_weights=[w for w, _ in convs], conv_biases=[b for _, b in convs],
                     grus=grus, fuse=fuse)


def bottom_up(x, params):
    """Coarsen (L, N) through the pyramid; returns per-level (L_i, ch, N).

    Each level reads its kernel from its conv weight; the caller checks the
    lookback."""
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
    prime = features[-1]
    fused = [prime]
    for level in reversed(features[:-1]):
        prime = nn.upsample_repeat(prime, level.shape[0])
        fused.insert(0, T.add(prime, level))
    return fused


def multi_scale_rnn(fused, params):
    """Summarize each fused level with its GRU and mix the concatenated
    summaries with the fusion linear.

    No weight scales a level's summary: any per-level scale folds into the
    rows of `fuse`, so it could not change the set of embeddings.
    """
    summaries = [nn.gru_forward(level, gru) for level, gru in zip(fused, params.grus)]
    return nn.linear(T.concat(summaries, axis=1), params.fuse)


def pre_embed_batch(x, params):
    """Embed a batch of univariate series (L, N) -> (N, D)."""
    return multi_scale_rnn(top_down_fuse(bottom_up(x, params)), params)
