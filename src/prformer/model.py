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
        self.config = config
        self.channels = channels
        rng = np.random.default_rng((config.seed, 0))

        pyramid = config.pyramid()
        if pyramid is None:
            pre_params = None
            window_proj = nn.init_linear(rng, config.lookback, config.d_model)
        else:
            pre_params = pre.init_pre(rng, *pyramid, config.d_model,
                                      config.conv_channels)
            window_proj = None

        enc = encoder.init_encoder(
            rng, config.d_model, config.d_ff, config.heads, config.e_layers,
            config.pred_len, token_linear=config.variant == "V1")
        self.params = ModelParams(revin=revin.init_revin(channels),
                                  pre=pre_params, window_proj=window_proj,
                                  encoder=enc)

    def embed(self, x):
        """Windows (B, L, C) -> variate tokens (B, C, D) and RevIN's window stats.

        The windows are permuted once to time-first (L, B, C); RevIN's output
        reshapes without a copy to the pyramid's (L, B·C) univariate series.
        """
        x_norm, state = revin.normalize(T.permute(x, (1, 0, 2)), self.params.revin)
        l, b, c = x_norm.shape
        series = T.reshape(x_norm, (l, b * c))
        if self.config.variant == "V2":
            emb = nn.linear(T.permute(series, (1, 0)), self.params.window_proj)
        else:
            emb = pre.pre_embed_batch(series, self.params.pre)
        return T.reshape(emb, (b, c, self.config.d_model)), state

    def forward(self, x, training=False, dropout_rng=None):
        """Forecast raw-scale values: (B, L, C) -> (B, H, C).

        With `training`, the encoder drops activations at the configured rate,
        drawing its masks from `dropout_rng`. Shapes are checked where windows
        are cut (`data.window_iter`) and tables loaded (`cli._load_split`).
        """
        tokens, state = self.embed(x)
        rate = self.config.dropout if training else 0.0
        h = encoder.encode(tokens, self.params.encoder, dropout=rate,
                           rng=dropout_rng)
        y_norm = T.permute(encoder.forecast(h, self.params.encoder), (2, 0, 1))
        y = revin.denormalize(y_norm, state, self.params.revin)
        return T.permute(y, (1, 0, 2))

    def named_parameters(self):
        return list(nn.iter_params(self.params))

    def param_count(self):
        return sum(p.size for _, p in self.named_parameters())
