"""Model-level checks: the four variants' shared contract, their structural
differences, seeded init determinism, and RunConfig parsing."""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from conftest import cast_tree
from oracles import Tape
from prformer import nn, pre, tensor as T
from prformer.config import (
    ConfigError,
    PyramidConfigWarning,
    RunConfig,
    pyramid_kernels,
    read_config_file,
)
from prformer.model import PRformer
from prformer.tensor import Tensor
from prformer.training import mae_loss


def small_config(**overrides):
    base = dict(lookback=16, pred_len=6, pyramidal_windows=(4, 8), e_layers=1,
                d_model=8, heads=2, conv_channels=3, dropout=0.0, batch_size=4,
                seed=1)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_d_ff_defaults_to_twice_width(self):
        assert small_config().d_ff == 16
        assert small_config(d_ff=24).d_ff == 24

    def test_json_round_trip(self, tmp_path):
        config = small_config(dataset="x.csv", lr_decay=0.5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        again = RunConfig.from_dict(read_config_file(str(path)))
        assert again == config

    def test_boundary_values_accepted(self):
        RunConfig(lookback=2, pred_len=1, variant="V2")
        small_config(lr_decay=1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"lookback": 8, "pred_len": 2, "windows": [2]})
        for retired in ("normalized_loss", "grad_clip", "strict_split"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                RunConfig.from_dict({"lookback": 8, "pred_len": 2, retired: 1})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
            RunConfig.from_dict({"lookback": 8})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            read_config_file("/no/such/config.json")

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            read_config_file(str(p))

    def test_validation_failures(self):
        cases = [
            (dict(heads=3), "divide d_model"),
            (dict(variant="V9"), "unknown variant"),
            (dict(split_scheme="1:1:1"), "unknown split scheme"),
            (dict(dropout=1.0), "dropout"),
            (dict(lookback=4), "shorter than top window"),
            (dict(lr=-1.0), "lr"),
            (dict(e_layers=0), "e_layers"),
        ]
        for overrides, match in cases:
            with pytest.raises(ConfigError, match=match):
                small_config(**overrides)

    def test_every_count_but_the_seed_must_be_positive(self):
        counts = ("lookback", "pred_len", "e_layers", "d_model", "d_ff", "heads",
                  "conv_channels", "batch_size", "max_epochs", "patience")
        for name in counts:
            with pytest.raises(ConfigError) as e:
                small_config(**{name: 0})
            assert str(e.value) == f"{name} must be a positive integer, got 0"
        small_config(seed=0)
        # a negative seed is reported first, then the first bad count in field order
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            small_config(seed=-1, lookback=0)
        with pytest.raises(ConfigError, match="^pred_len must be a positive integer"):
            small_config(patience=0, pred_len=-1)

    def test_replace_checks_the_new_config(self):
        valid = small_config()
        with pytest.raises(ConfigError, match="divide d_model"):
            dataclasses.replace(valid, heads=3)
        with pytest.raises(ConfigError, match="shorter than top window"):
            dataclasses.replace(valid, lookback=4)

    def test_production_scale_config_validates(self):
        # hourly-data setup with a long lookback and a unit-kernel level
        with pytest.warns(PyramidConfigWarning):
            RunConfig(lookback=720, pred_len=96,
                      pyramidal_windows=(24, 48, 72, 144), e_layers=5,
                      d_model=720, dropout=0.1, batch_size=256,
                      lr=1e-3)


class TestVariants:
    def test_all_variants_share_forecast_contract(self):
        rng = np.random.default_rng(110)
        x = Tensor(rng.normal(size=(2, 16, 3)).astype(np.float32))
        for variant in ("full", "V1", "V2", "V3"):
            model = PRformer(small_config(variant=variant), 3)
            out = model.forward(x)
            assert out.shape == (2, 6, 3), variant

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            PRformer(small_config(variant="V4"), 3)

    def test_v1_has_token_linear_instead_of_attention(self):
        model = PRformer(small_config(variant="V1"), 2)
        assert all(l.attn is None and l.token_mix is not None
                   for l in model.params.encoder.layers)

    def test_v2_tape_has_no_convolution_or_recurrence(self):
        rng = np.random.default_rng(111)
        model = PRformer(small_config(variant="V2"), 2)
        x = Tensor(rng.normal(size=(1, 16, 2)).astype(np.float32))
        ops = set(Tape.trace(T.sum_(model.forward(x))).op_ids())
        assert "conv1d" not in ops
        assert "gru_sequence" not in ops
        assert "upsample" not in ops

    def test_full_tape_shows_convolution_and_recurrence(self):
        rng = np.random.default_rng(112)
        model = PRformer(small_config(variant="full"), 2)
        x = Tensor(rng.normal(size=(1, 16, 2)).astype(np.float32))
        counts = Tape.trace(T.sum_(model.forward(x))).op_counts()
        assert counts["conv1d"] == 2  # one per pyramid level
        assert counts["upsample"] == 1
        assert counts["gru_sequence"] == 2  # one per pyramid level

    def test_v3_truncates_to_bottom_level(self):
        model = PRformer(small_config(variant="V3"), 2)
        kernels, _ = model.config.pyramid()
        assert kernels == (4,)
        feats = pre.bottom_up(Tensor(np.zeros((16, 1), dtype=np.float32)),
                              model.params.pre)
        assert [f.shape[0] for f in feats] == [4]
        assert [w.shape for w in model.params.pre.conv_weights] == [(3, 4)]

    def test_v3_has_fewer_parameters_than_full(self):
        full = PRformer(small_config(variant="full"), 2)
        v3 = PRformer(small_config(variant="V3"), 2)
        assert v3.param_count() < full.param_count()

    @pytest.mark.parametrize("variant", ["full", "V1", "V2", "V3"])
    def test_train_graph_size_and_cost(self, variant):
        # the totals the engine once counted per tensor, by the oracle's rule,
        # plus RevIN's four (B, C) gamma and beta spreads: 4 nodes, 4·B·C flops
        nodes, flops = {"full": (131, 13_066_144), "V1": (89, 11_542_272),
                        "V2": (120, 6_934_256), "V3": (123, 9_167_228)}[variant]
        config = RunConfig(lookback=720, pred_len=96, pyramidal_windows=(24, 48, 96),
                           d_model=64, heads=4, e_layers=2, dropout=0.1, variant=variant)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 720, 7)).astype(np.float32))
        out = PRformer(config, 7).forward(x, training=True,
                                          dropout_rng=np.random.default_rng(1))
        tape = Tape.trace(T.sum_(out))
        assert (len(tape), tape.flops()) == (nodes, flops)


def reference_tokens(model, x):
    """The model's tokens (B, C, D) rebuilt channel-major from the oracles:
    time-major RevIN, the strided conv with each weight folded back to
    (C_out, C_in, K), the gather upsample and the stepwise GRU."""
    params = model.params.pre
    b, length, c = x.shape
    x_norm, _, _ = oracles.revin_normalize(Tensor(x), model.params.revin.gamma,
                                           model.params.revin.beta)
    cur = T.reshape(T.permute(x_norm, (0, 2, 1)), (b * c, 1, length))
    features = []
    kernels = model.config.pyramid()[0]
    for w, bias, k in zip(params.conv_weights, params.conv_biases, kernels):
        folded = Tensor(w.data.reshape(w.shape[0], k, -1).transpose(0, 2, 1))
        cur = oracles.conv1d(cur, folded, bias, stride=k)
        features.append(cur)
    # top-down: the upsampled prime chain is added onto each lower level
    prime, fused = features[-1], [features[-1]]
    for level in reversed(features[:-1]):
        prime = oracles.upsample_repeat(prime, level.shape[2])
        fused.insert(0, T.add(prime, level))
    summaries = [oracles.gru_forward(T.permute(level, (2, 1, 0)), gru)
                 for level, gru in zip(fused, params.grus)]
    return nn.linear(T.concat(summaries, axis=1), params.fuse).data.reshape(b, c, -1)


class TestModelMechanics:
    @pytest.mark.parametrize("variant", ["full", "V1", "V3"])
    def test_embedding_matches_channel_major_reference(self, variant):
        # windows 24/48/96 at L=720 give levels 30/15/7: a 7 -> 15 upsample,
        # and a tail on the 15 -> 7 conv
        config = RunConfig(lookback=720, pred_len=4, pyramidal_windows=(24, 48, 96),
                           d_model=12, heads=2, conv_channels=4, variant=variant, seed=3)
        model = PRformer(config, 3)
        model.params.revin.gamma.data[:] = [0.5, 1.0, 2.0]
        model.params.revin.beta.data[:] = [0.3, -0.2, 0.1]
        x = np.random.default_rng(118).normal(loc=2.0, scale=3.0, size=(2, 720, 3))
        x = x.astype(np.float32)
        with T.no_grad():
            tokens = model.embed(Tensor(x))[0].data
            want = reference_tokens(model, x)
        np.testing.assert_allclose(tokens, want, rtol=1e-5, atol=1e-5)

    def test_same_seed_same_init_different_seed_different(self):
        a = PRformer(small_config(seed=5), 3)
        b = PRformer(small_config(seed=5), 3)
        c = PRformer(small_config(seed=6), 3)
        for (na, pa), (_, pb), (_, pc) in zip(a.named_parameters(),
                                              b.named_parameters(),
                                              c.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)
        assert any(not np.array_equal(pa.data, pc.data)
                   for (_, pa), (_, pc) in zip(a.named_parameters(),
                                               c.named_parameters()))

    def test_parameter_names_stable_and_unique(self):
        names = [n for n, _ in PRformer(small_config(), 2).named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "revin.gamma"
        assert any(n.startswith("pre.conv_weights.0") for n in names)
        assert any(n.startswith("encoder.layers.0.attn") for n in names)
        assert names == [n for n, _ in PRformer(small_config(), 2).named_parameters()]

    @pytest.mark.parametrize("variant", ["full", "V1", "V2", "V3"])
    def test_every_parameter_gets_a_gradient(self, variant):
        # a parameter whose gradient is rounding noise cannot change the forecast
        model = PRformer(small_config(variant=variant), 2)
        model.params = cast_tree(model.params)
        rng = np.random.default_rng(116)
        out = model.forward(Tensor(rng.normal(size=(3, 16, 2))))
        T.backward(T.sum_(T.mul(out, Tensor(rng.normal(size=out.shape)))))
        flat = [name for name, p in model.named_parameters()
                if np.abs(p.grad).max() <= 1e-8]
        assert flat == []

    def test_init_draws_from_its_own_stream(self):
        # stream (seed, 0) is the init's; the dropout masks draw from others
        config = small_config()
        model = PRformer(config, 2)
        k = pyramid_kernels(config.pyramidal_windows, config.lookback)[0]
        bound = 1.0 / np.sqrt(k)
        want = np.random.default_rng((config.seed, 0)).uniform(
            -bound, bound, (config.conv_channels, 1, k)).astype(np.float32)
        np.testing.assert_array_equal(model.params.pre.conv_weights[0].data,
                                      want.reshape(config.conv_channels, k))

    @pytest.mark.parametrize("variant", ["full", "V1", "V2", "V3"])
    def test_float32_end_to_end(self, variant):
        # float32 windows and parameters keep every activation and gradient
        # float32, attention's score scale included
        model = PRformer(small_config(variant=variant, dropout=0.1), 2)
        rng = np.random.default_rng(113)
        out = model.forward(Tensor(rng.normal(size=(3, 16, 2)).astype(np.float32)),
                            training=True, dropout_rng=rng)
        assert out.dtype == np.float32
        T.backward(mae_loss(out, Tensor(rng.normal(size=out.shape).astype(np.float32))))
        assert {n: p.grad.dtype for n, p in model.named_parameters()
                if p.grad.dtype != np.float32} == {}

    @pytest.mark.parametrize("variant", ["full", "V1", "V2", "V3"])
    def test_unrecorded_forward_is_bitwise_the_recorded_one(self, variant):
        # under no_grad the GRUs keep no history; the arithmetic must not change
        model = PRformer(small_config(variant=variant, lookback=32), 3)
        x = Tensor(np.random.default_rng(117).normal(size=(4, 32, 3)).astype(np.float32))
        recorded = model.forward(x)
        with T.no_grad():
            unrecorded = model.forward(x)
        assert recorded.requires_grad and not unrecorded.requires_grad
        assert recorded.data.tobytes() == unrecorded.data.tobytes()

    def test_forward_deterministic_in_eval_mode(self):
        model = PRformer(small_config(dropout=0.3), 2)
        x = Tensor(np.random.default_rng(114).normal(size=(2, 16, 2)).astype(np.float32))
        np.testing.assert_array_equal(model.forward(x).data, model.forward(x).data)

    def test_training_dropout_uses_stream(self):
        model = PRformer(small_config(dropout=0.3), 2)
        x = Tensor(np.random.default_rng(115).normal(size=(2, 16, 2)).astype(np.float32))
        a = model.forward(x, training=True, dropout_rng=np.random.default_rng(1)).data
        b = model.forward(x, training=True, dropout_rng=np.random.default_rng(1)).data
        c = model.forward(x, training=True, dropout_rng=np.random.default_rng(2)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
