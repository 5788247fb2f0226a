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

        pyramid = config.pyramid()
        if pyramid is None:
            self.pyramid = None
            pre_params = None
            window_proj = nn.init_linear(rng, config.lookback, config.d_model)
        else:
            self.pyramid, hidden_sizes = pyramid
            pre_params = pre.init_pre(rng, self.pyramid, hidden_sizes,
                                      config.d_model, config.conv_channels)
            window_proj = None

        enc = encoder.init_encoder(
            rng, config.d_model, config.d_ff, config.heads, config.e_layers,
            config.pred_len, token_linear=self.variant == "V1")
        self.params = ModelParams(revin=revin.init_revin(channels),
                                  pre=pre_params, window_proj=window_proj,
                                  encoder=enc)

    def embed(self, x):
        """Windows (B, L, C) -> variate tokens (B, C, D) and RevIN's window stats.

        The windows are permuted once to channel-major (B, C, L), so RevIN and
        the (B·C, L) rows of the embedding run on contiguous memory.
        """
        x_norm, state = revin.normalize(T.permute(x, (0, 2, 1)), self.params.revin)
        b, c, l = x_norm.shape
        per_channel = T.reshape(x_norm, (b * c, l))
        if self.variant == "V2":
            emb = nn.linear(per_channel, self.params.window_proj)
        else:
            emb = pre.pre_embed_batch(per_channel, self.params.pre, self.pyramid)
        return T.reshape(emb, (b, c, self.config.d_model)), state

    def forward_parts(self, x, training=False, dropout_rng=None):
        """Returns the raw-scale forecast (B, H, C), and channel-major the
        normalized forecast (B, C, H) and the window stats."""
        b, l, c = x.shape
        if l != self.config.lookback:
            raise T.ShapeMismatchError("forward", x.shape, (self.config.lookback,),
                                       "window length != configured lookback")
        if c != self.channels:
            raise T.ShapeMismatchError("forward", x.shape, (self.channels,),
                                       "channel count != model channels")
        tokens, state = self.embed(x)
        rate = self.config.dropout if training else 0.0
        h = encoder.encode(tokens, self.params.encoder, dropout=rate,
                           rng=dropout_rng)
        y_norm = encoder.forecast(h, self.params.encoder)
        y = revin.denormalize(y_norm, state, self.params.revin)
        return T.permute(y, (0, 2, 1)), y_norm, state

    def forward(self, x, training=False, dropout_rng=None):
        """Forecast raw-scale values: (B, L, C) -> (B, H, C)."""
        return self.forward_parts(x, training, dropout_rng)[0]

    def named_parameters(self):
        return list(nn.iter_params(self.params))

    def param_count(self):
        return sum(p.size for _, p in self.named_parameters())
