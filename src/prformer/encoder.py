"""Transformer encoder over variate tokens and the shared forecast head.

Tokens are whole-channel embeddings, so attention mixes information across
variables; no positional encoding is added anywhere, which makes the stack
equivariant to channel order. Layers use the post-norm residual layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nn, tensor as T
from .tensor import Tensor


@dataclass
class EncoderLayerParams:
    attn: nn.MHAParams | None  # None when a per-token linear stands in
    token_mix: nn.LinearParams | None
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ff1: nn.LinearParams  # D -> d_ff
    ff2: nn.LinearParams  # d_ff -> D
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class EncoderParams:
    layers: list
    heads: int
    head: nn.LinearParams  # D -> H, shared by all channels


def init_encoder(rng, d_model, d_ff, heads, e_layers, horizon, token_linear=False):
    """Build `e_layers` post-norm layers plus the projection head.

    With `token_linear` the attention sublayer is replaced by one linear map
    applied to every token independently (the attention-ablation variant).
    """
    layers = []
    for _ in range(e_layers):
        attn = None if token_linear else nn.init_mha(rng, d_model)
        mix = nn.init_linear(rng, d_model, d_model) if token_linear else None
        ln1_gamma, ln1_beta = nn.init_scale_shift(d_model)
        ln2_gamma, ln2_beta = nn.init_scale_shift(d_model)
        layers.append(EncoderLayerParams(
            attn=attn, token_mix=mix,
            ln1_gamma=ln1_gamma, ln1_beta=ln1_beta,
            ff1=nn.init_linear(rng, d_model, d_ff),
            ff2=nn.init_linear(rng, d_ff, d_model),
            ln2_gamma=ln2_gamma, ln2_beta=ln2_beta))
    return EncoderParams(layers=layers, heads=heads,
                         head=nn.init_linear(rng, d_model, horizon))


def encode(h, params, dropout=0.0, rng=None):
    """Run the layer stack over tokens (B, C, D).

    Each layer: A = LN(H + drop(mix(H))); H' = LN(A + drop(FFN(A))) where mix
    is multi-head attention (or the stand-in token linear) and FFN is
    linear -> relu -> linear. Dropout hits only the two sublayer outputs.
    """
    for layer in params.layers:
        if layer.attn is not None:
            mixed = nn.multi_head_attention(h, layer.attn, params.heads)
        else:
            mixed = nn.linear(h, layer.token_mix)
        a = nn.layer_norm(T.add(h, T.dropout_mask(mixed, dropout, rng)),
                          layer.ln1_gamma, layer.ln1_beta)
        ff = nn.linear(T.relu(nn.linear(a, layer.ff1)), layer.ff2)
        h = nn.layer_norm(T.add(a, T.dropout_mask(ff, dropout, rng)),
                          layer.ln2_gamma, layer.ln2_beta)
    return h


def forecast(tokens, params):
    """Project every token onto the horizon: tokens (B, C, D) -> (B, C, H)."""
    return nn.linear(tokens, params.head)
