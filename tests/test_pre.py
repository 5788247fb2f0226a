"""Pyramid embedding checks: kernel/length derivation, the two fusion
pathways, the level summaries, and gradients through the whole stage.

Series are time first, (L, N), and every level is (L_i, ch, N)."""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import cast_tree, grad_check_all_params
from oracles import Tape
from prformer import nn, pre, tensor as T
from prformer.pre import (
    PyramidConfigWarning,
    build_pyramid_config,
    level_hidden_sizes,
)
from prformer.tensor import tensor


def init_split(rng, cfg, d_model, conv_channels):
    """Pyramid parameters with D split across the levels, as the full model does."""
    return pre.init_pre(rng, cfg, level_hidden_sizes(d_model, len(cfg.kernels)), d_model,
                        conv_channels)


# criterion 2's window sets: one level, doubling, a kernel-1 level, odd ratios
CRITERION_02_WINDOWS = ([24], [24, 48, 96], [24, 48, 72, 144], [7, 21, 84])


def tiny_setup(windows=(2, 4), lookback=8, d_model=4, channels=2, seed=40):
    cfg = build_pyramid_config(windows, lookback)
    rng = np.random.default_rng(seed)
    params = init_split(rng, cfg, d_model, conv_channels=channels)
    return cfg, params


class TestBuildPyramidConfig:
    def test_three_level_hourly_daily_config(self):
        cfg = build_pyramid_config([24, 48, 96], 720)
        assert cfg.kernels == (24, 2, 2)
        assert cfg.level_lengths == (30, 15, 7)

    def test_four_level_config_with_unit_kernel(self):
        with pytest.warns(PyramidConfigWarning):
            cfg = build_pyramid_config([24, 48, 72, 144], 720)
        assert cfg.kernels == (24, 2, 1, 2)
        assert cfg.level_lengths == (30, 15, 15, 7)

    def test_whole_window_collapse(self):
        for lookback in (7, 64, 500):
            cfg = build_pyramid_config([lookback], lookback)
            assert cfg.kernels == (lookback,)
            assert cfg.level_lengths == (1,)

    def test_floor_length_rule_exhaustive(self):
        for windows in ([4, 8], [3, 6, 12], [5, 10, 30]):
            for lookback in range(windows[-1], 1001, 7):
                cfg = build_pyramid_config(windows, lookback)
                n = lookback
                for k, expect in zip(cfg.kernels, cfg.level_lengths):
                    n = n // k
                    assert expect == n and n >= 1

    @pytest.mark.filterwarnings("ignore::prformer.pre.PyramidConfigWarning")
    @pytest.mark.parametrize("lookback", [144, 200, 720, 1001], ids=lambda n: f"L{n}")
    @pytest.mark.parametrize("windows", CRITERION_02_WINDOWS,
                             ids=lambda w: "w" + "-".join(map(str, w)))
    def test_lengths_match_actual_convolutions(self, windows, lookback):
        # bottom_up reads each level's kernel from its conv weight, so the
        # lengths it produces must be the ones the config derived
        cfg, params = tiny_setup(windows=windows, lookback=lookback, d_model=6)
        feats = pre.bottom_up(tensor(np.zeros((lookback, 1), dtype=np.float32)), params)
        assert [f.shape[0] for f in feats] == list(cfg.level_lengths)

    def test_rejections(self):
        with pytest.raises(ValueError, match="ascending"):
            build_pyramid_config([24, 24], 720)
        with pytest.raises(ValueError, match="shorter than top window"):
            build_pyramid_config([24, 48], 47)
        with pytest.raises(ValueError, match="nonempty"):
            build_pyramid_config([], 100)
        with pytest.raises(ValueError, match="positive"):
            build_pyramid_config([-4, 8], 100)
        with pytest.raises(ValueError, match="positive"):
            build_pyramid_config([0, 8], 100)


class TestHiddenSplit:
    def test_even_split(self):
        assert level_hidden_sizes(720, 4) == [180, 180, 180, 180]

    def test_remainder_goes_to_last_level(self):
        assert level_hidden_sizes(16, 3) == [5, 5, 6]
        assert sum(level_hidden_sizes(17, 4)) == 17

    def test_d_model_below_levels_rejected(self):
        with pytest.raises(ValueError, match="smaller than level count"):
            level_hidden_sizes(2, 3)


class TestBottomUp:
    def test_zero_weights_give_zero_features(self):
        _, params = tiny_setup()
        for w, b in zip(params.conv_weights, params.conv_biases):
            w.data[:] = 0.0
            b.data[:] = 0.0
        rng = np.random.default_rng(41)
        feats = pre.bottom_up(tensor(rng.normal(size=(8, 3)).astype(np.float32)),
                              params)
        for f in feats:
            np.testing.assert_allclose(f.data, 0.0)

    def test_unit_kernel_is_pointwise_linear(self):
        with pytest.warns(PyramidConfigWarning):
            cfg = build_pyramid_config([1], 6)
        rng = np.random.default_rng(42)
        params = init_split(rng, cfg, 3, conv_channels=4)
        x = rng.normal(size=(6, 1)).astype(np.float32)
        feats = pre.bottom_up(tensor(x), params)
        w = params.conv_weights[0].data[:, 0]
        b = params.conv_biases[0].data
        expected = x * w + b  # (T, C_out)
        np.testing.assert_allclose(feats[0].data[:, :, 0], expected, rtol=1e-5)


class TestTopDownFuse:
    def test_single_level_identity(self):
        f = tensor(np.arange(6, dtype=np.float32).reshape(3, 2, 1))
        fused = pre.top_down_fuse([f])
        assert fused[0] is f

    def test_two_level_hand_example(self):
        bottom = tensor(np.zeros((4, 1, 1), dtype=np.float32))
        top = tensor(np.array([1.0, 2.0], dtype=np.float32).reshape(2, 1, 1))
        fused = pre.top_down_fuse([bottom, top])
        np.testing.assert_allclose(fused[0].data[:, 0, 0], [1.0, 1.0, 2.0, 2.0])
        np.testing.assert_allclose(fused[1].data, top.data)

    def test_zero_top_leaves_every_level_unchanged(self):
        rng = np.random.default_rng(43)
        feats = [tensor(rng.normal(size=(n, 3, 2)).astype(np.float32))
                 for n in (12, 6, 3)]
        feats[-1] = tensor(np.zeros((3, 3, 2), dtype=np.float32))
        fused = pre.top_down_fuse(feats)
        for out, raw in zip(fused[:-1], feats[:-1]):
            np.testing.assert_allclose(out.data, raw.data)

    def test_top_feature_propagates_through_all_levels(self):
        feats = [tensor(np.zeros((n, 1, 1), dtype=np.float32)) for n in (8, 4, 2)]
        feats[-1] = tensor(np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1))
        fused = pre.top_down_fuse(feats)
        np.testing.assert_allclose(fused[1].data[:, 0, 0], [1, 1, 3, 3])
        np.testing.assert_allclose(fused[0].data[:, 0, 0], [1, 1, 1, 1, 3, 3, 3, 3])


class TestMultiScaleRnn:
    def test_zero_grus_leave_only_fusion_bias(self):
        _, params = tiny_setup()
        for gru in params.grus:
            for _, p in nn.iter_params(gru):
                p.data[:] = 0.0
        x = tensor(np.random.default_rng(44).normal(size=(8, 3)).astype(np.float32))
        out = pre.pre_embed_batch(x, params)
        np.testing.assert_allclose(out.data, np.tile(params.fuse.b.data, (3, 1)),
                                   atol=1e-6)

    def test_embedding_dim_exact_for_many_configs(self):
        rng = np.random.default_rng(45)
        for windows, lookback, d_model in [((2, 4), 8, 4), ((3, 9), 27, 7),
                                           ((4, 8, 16), 64, 10), ((5,), 20, 3)]:
            cfg = build_pyramid_config(windows, lookback)
            params = init_split(rng, cfg, d_model, conv_channels=3)
            x = tensor(rng.normal(size=(lookback, 1)).astype(np.float32))
            assert pre.pre_embed_batch(x, params).shape == (1, d_model)

    def test_shared_weights_give_identical_embeddings(self):
        _, params = tiny_setup()
        series = np.random.default_rng(47).normal(size=(8,)).astype(np.float32)
        x = tensor(np.stack([series, series], axis=1))
        out = pre.pre_embed_batch(x, params)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-7)


class TestStructure:
    def test_single_level_path_is_conv_gru_linear(self):
        cfg = build_pyramid_config([4], 16)
        rng = np.random.default_rng(48)
        params = init_split(rng, cfg, 4, conv_channels=2)
        out = pre.pre_embed_batch(tensor(rng.normal(size=(16, 1)).astype(np.float32)),
                                  params)
        counts = Tape.trace(T.sum_(out)).op_counts()
        assert counts["conv1d"] == 1
        assert "upsample" not in counts
        assert counts["gru_sequence"] == 1  # the recurrence

    def test_forward_cost_linear_in_lookback(self):
        rng = np.random.default_rng(49)
        flops = {}
        for lookback in (64, 128):
            cfg = build_pyramid_config([4, 8], lookback)
            params = init_split(rng, cfg, 8, conv_channels=4)
            x = tensor(rng.normal(size=(lookback, 1)).astype(np.float32))
            out = pre.pre_embed_batch(x, params)
            flops[lookback] = Tape.trace(T.sum_(out)).flops()
        ratio = flops[128] / flops[64]
        assert 1.8 <= ratio <= 2.2, ratio

    def test_peak_memory_linear_in_lookback(self):
        # a cost gate no host load can waive: a recorded forward plus backward
        # keeps per-step buffers only, so doubling L doubles the traced peak;
        # N = 16 rows keep any (L_i, L_j) array, such as a dense hold matrix,
        # in view
        peaks = {}
        for lookback in (768, 1536):
            cfg = build_pyramid_config([2, 4], lookback)
            params = init_split(np.random.default_rng(53), cfg, 8, conv_channels=4)
            x = tensor(np.random.default_rng(54).normal(size=(lookback, 16)), dtype=np.float32)
            tracemalloc.start()
            T.backward(T.sum_(pre.pre_embed_batch(x, params)))
            peaks[lookback] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        ratio = peaks[1536] / peaks[768]
        assert 1.94 <= ratio <= 2.06, ratio

    def test_graph_size_independent_of_lookback(self):
        # one tape node per kernel, whatever the number of time steps
        rng = np.random.default_rng(52)
        nodes = {}
        for lookback in (64, 128):
            cfg = build_pyramid_config([4, 8], lookback)
            params = init_split(rng, cfg, 8, conv_channels=4)
            x = tensor(rng.normal(size=(lookback, 3)).astype(np.float32))
            nodes[lookback] = len(Tape.trace(T.sum_(pre.pre_embed_batch(x, params))))
        assert nodes[64] == nodes[128]


class TestGradients:
    def test_gradient_wrt_input(self):
        _, params = tiny_setup()
        p64 = cast_tree(params)
        err = oracles.grad_check(
            lambda t: T.sum_(oracles.tanh(pre.pre_embed_batch(t, p64))),
            tensor(np.random.default_rng(50).normal(size=(8, 2)), dtype=np.float64))
        assert err < 1e-5

    def test_gradient_wrt_every_parameter(self):
        _, params = tiny_setup()
        x = tensor(np.random.default_rng(51).normal(size=(8, 1)), dtype=np.float64)

        def make_loss(tree):
            return T.sum_(oracles.tanh(pre.pre_embed_batch(x, tree)))

        name, err = grad_check_all_params(make_loss, params)
        assert err < 1e-4, f"worst leaf {name}: {err}"
