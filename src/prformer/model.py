"""Full forecaster: RevIN wrapper, per-channel embedding, variate-token
encoder, shared projection head, plus the three ablation variants.

Variants: V1 swaps attention for a per-token linear, V2 swaps the pyramid
embedding for a single window-to-width linear, V3 keeps only the bottom
pyramid level. All variants share the same (B, L, C) -> (B, H, C) contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder, nn, pre, revin, tensor as T
from .config import RunConfig


@dataclass
class ModelParams:
    revin: revin.RevinParams
    pre: pre.PREParams | None
    window_proj: nn.LinearParams | None  # replaces the pyramid in V2
    encoder: encoder.EncoderParams


class PRformer:
    """Owns parameters and the forward pass for one (config, channels) pair."""

    def __init__(self, config: RunConfig, channels: int):
        config.validate()
        self.config = config
        self.channels = channels
        self.variant = config.variant
        rng = np.random.default_rng((config.seed, 0))

        if self.variant == "V2":
            self.pyramid = None
            pre_params = None
            window_proj = nn.init_linear(rng, config.lookback, config.d_model)
        else:
            windows = config.pyramidal_windows
            hidden_sizes = None
            if self.variant == "V3":
                # bottom level only, at the full model's per-level width, so
                # the ablation stays a strict submodel
                full_levels = len(windows)
                windows = windows[:1]
                hidden_sizes = pre.level_hidden_sizes(config.d_model,
                                                      full_levels)[:1]
            self.pyramid = pre.build_pyramid_config(windows, config.lookback)
            pre_params = pre.init_pre(rng, self.pyramid, config.d_model,
                                      config.conv_channels,
                                      hidden_sizes=hidden_sizes)
            window_proj = None

        enc = encoder.init_encoder(
            rng, config.d_model, config.d_ff, config.heads, config.e_layers,
            config.pred_len, token_linear=self.variant == "V1")
        self.params = ModelParams(revin=revin.init_revin(channels),
                                  pre=pre_params, window_proj=window_proj,
                                  encoder=enc)

    def embed(self, x_norm):
        """Normalized windows (B, L, C) -> variate tokens (B, C, D)."""
        b, l, c = x_norm.shape
        per_channel = T.reshape(T.permute(x_norm, (0, 2, 1)), (b * c, l))
        if self.variant == "V2":
            emb = nn.linear(per_channel, self.params.window_proj)
        else:
            emb = pre.pre_embed_batch(per_channel, self.params.pre, self.pyramid,
                                      self.config.temperature)
        return T.reshape(emb, (b, c, self.config.d_model))

    def forward_parts(self, x, training=False, dropout_rng=None):
        """Returns (raw-scale forecast, normalized forecast, window stats)."""
        b, l, c = x.shape
        if l != self.config.lookback:
            raise T.ShapeMismatchError("forward", x.shape, (self.config.lookback,),
                                       "window length != configured lookback")
        if c != self.channels:
            raise T.ShapeMismatchError("forward", x.shape, (self.channels,),
                                       "channel count != model channels")
        x_norm, state = revin.normalize(x, self.params.revin)
        tokens = self.embed(x_norm)
        rate = self.config.dropout if training else 0.0
        h = encoder.encode(tokens, self.params.encoder, dropout=rate,
                           rng=dropout_rng)
        y_norm = encoder.forecast(h, self.params.encoder)
        return revin.denormalize(y_norm, state, self.params.revin), y_norm, state

    def forward(self, x, training=False, dropout_rng=None):
        """Forecast raw-scale values: (B, L, C) -> (B, H, C)."""
        return self.forward_parts(x, training, dropout_rng)[0]

    def named_parameters(self):
        return list(nn.iter_params(self.params))

    def param_count(self):
        return sum(p.size for _, p in self.named_parameters())
