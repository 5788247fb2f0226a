"""Encoder stack checks: residual layout, channel-order equivariance,
attention health, the stand-in token linear, and the shared forecast head."""

import numpy as np
import pytest

from conftest import cast_tree
from oracles import grad_check
from prformer import encoder, nn, tensor as T
from prformer.tensor import tensor


def build(rng, d_model=8, d_ff=16, heads=2, e_layers=1, horizon=4, **kw):
    return encoder.init_encoder(rng, d_model, d_ff, heads, e_layers, horizon, **kw)


class TestEncode:
    def test_shape_preserved_across_depths(self):
        rng = np.random.default_rng(60)
        x = tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        for e_layers in (1, 2, 3):
            params = build(rng, e_layers=e_layers)
            assert encoder.encode(x, params).shape == (2, 5, 8)

    def test_channel_permutation_equivariance(self):
        # mathematically exact (no positional encoding); numerically the
        # permutation reorders BLAS accumulation, hence the small tolerance
        rng = np.random.default_rng(62)
        params = build(rng, e_layers=2)
        x = rng.normal(size=(2, 6, 8)).astype(np.float32)
        perm = np.array([4, 1, 5, 0, 2, 3])
        out = encoder.encode(tensor(x), params).data
        out_p = encoder.encode(tensor(x[:, perm, :]), params).data
        np.testing.assert_allclose(out[:, perm, :], out_p, atol=1e-5)

    def test_attention_rows_stochastic_at_every_layer(self):
        rng = np.random.default_rng(63)
        params = build(rng, e_layers=3)
        seen = []
        encoder.encode(tensor(rng.normal(size=(2, 4, 8)).astype(np.float32)),
                       params, collect_attn=seen)
        assert len(seen) == 3
        for probs in seen:
            np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_single_token_attention_degenerates(self):
        rng = np.random.default_rng(64)
        params = cast_tree(build(rng, e_layers=1))
        x = rng.normal(size=(1, 1, 8))
        mixed, probs = nn.multi_head_attention(tensor(x, dtype=np.float64),
                                               params.layers[0].attn, heads=2)
        np.testing.assert_allclose(probs.data, 1.0)
        attn = params.layers[0].attn
        v = x @ attn.v.w.data + attn.v.b.data
        np.testing.assert_allclose(mixed.data, v @ attn.o.w.data + attn.o.b.data,
                                   rtol=1e-10)

    def test_layer_matches_manual_post_norm_composition(self):
        rng = np.random.default_rng(65)
        params = cast_tree(build(rng, e_layers=1))
        layer = params.layers[0]
        x = tensor(rng.normal(size=(1, 3, 8)), dtype=np.float64)
        out = encoder.encode(x, params).data

        mixed, _ = nn.multi_head_attention(x, layer.attn, heads=2)
        a = nn.layer_norm(T.add(x, mixed), layer.ln1_gamma, layer.ln1_beta)
        ff = nn.linear(T.relu(nn.linear(a, layer.ff1)), layer.ff2)
        manual = nn.layer_norm(T.add(a, ff), layer.ln2_gamma, layer.ln2_beta)
        np.testing.assert_allclose(out, manual.data, rtol=1e-12)

    def test_dropout_perturbs_training_only(self):
        rng = np.random.default_rng(66)
        params = build(rng)
        x = tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        clean = encoder.encode(x, params).data
        noisy = encoder.encode(x, params, dropout=0.5,
                               rng=np.random.default_rng(1)).data
        assert not np.allclose(clean, noisy)
        again = encoder.encode(x, params).data
        np.testing.assert_array_equal(clean, again)

    def test_dropout_without_rng_rejected(self):
        rng = np.random.default_rng(67)
        params = build(rng)
        with pytest.raises(ValueError, match="rng"):
            encoder.encode(tensor(np.zeros((1, 2, 8), dtype=np.float32)),
                           params, dropout=0.1)

    def test_token_linear_standin_has_no_attention(self):
        rng = np.random.default_rng(68)
        params = build(rng, e_layers=2, token_linear=True)
        assert all(l.attn is None and l.token_mix is not None for l in params.layers)
        seen = []
        out = encoder.encode(tensor(np.ones((1, 3, 8), dtype=np.float32)),
                             params, collect_attn=seen)
        assert seen == [] and out.shape == (1, 3, 8)

    def test_heads_must_divide_width_at_init(self):
        with pytest.raises(ValueError, match="divisible"):
            build(np.random.default_rng(69), d_model=10, heads=4)


class TestProjectionHead:
    def test_zero_weights_give_bias_forecast(self):
        rng = np.random.default_rng(70)
        params = build(rng)
        params.head.w.data[:] = 0.0
        tokens = tensor(rng.normal(size=(2, 3, 8)).astype(np.float32))
        out = encoder.forecast(tokens, params)
        assert out.shape == (2, 3, 4)  # channel-major: (B, C, H)
        for c in range(3):
            np.testing.assert_allclose(out.data[:, c, :],
                                       np.tile(params.head.b.data, (2, 1)))

    def test_identity_projection_returns_embedding(self):
        rng = np.random.default_rng(71)
        params = build(rng, d_model=8, horizon=8)
        params.head.w.data[:] = np.eye(8, dtype=np.float32)
        params.head.b.data[:] = 0.0
        tokens = rng.normal(size=(1, 2, 8)).astype(np.float32)
        out = encoder.forecast(tensor(tokens), params)
        np.testing.assert_allclose(out.data, tokens, atol=1e-6)

    def test_equal_embeddings_share_forecasts(self):
        rng = np.random.default_rng(72)
        params = build(rng)
        token = rng.normal(size=(1, 1, 8)).astype(np.float32)
        tokens = tensor(np.repeat(token, 3, axis=1))
        out = encoder.forecast(tokens, params).data
        np.testing.assert_allclose(out[:, 0], out[:, 1])
        np.testing.assert_allclose(out[:, 0], out[:, 2])


class TestGradients:
    def test_gradient_through_stack_and_head(self):
        rng = np.random.default_rng(73)
        params = cast_tree(build(rng, d_model=4, d_ff=8, heads=2, horizon=3))

        def f(t):
            return T.mean(encoder.forecast(encoder.encode(t, params), params))

        err = grad_check(f, tensor(rng.normal(size=(1, 3, 4)), dtype=np.float64))
        assert err < 1e-6

    def test_gradient_wrt_ffn_weight(self):
        rng = np.random.default_rng(74)
        base = build(rng, d_model=4, d_ff=6, heads=1, horizon=2)
        x = tensor(rng.normal(size=(1, 2, 4)), dtype=np.float64)

        def f(t):
            params = cast_tree(base)
            params.layers[0].ff1.w = t
            return T.mean(encoder.forecast(encoder.encode(x, params), params))

        err = grad_check(f, tensor(base.layers[0].ff1.w.data, dtype=np.float64))
        assert err < 1e-6
