"""Model-level checks: the four variants' shared contract, their structural
differences, seeded init determinism, and RunConfig parsing."""

import numpy as np
import pytest

from prformer import tensor as T
from prformer.config import ConfigError, RunConfig
from prformer.model import PRformer
from prformer.pre import PyramidConfigWarning
from prformer.tensor import Tape, Tensor


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
        config = small_config(dataset="x.csv", grad_clip=1.5)
        path = str(tmp_path / "c.json")
        config.to_file(path)
        again = RunConfig.from_file(path)
        assert again == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"lookback": 8, "pred_len": 2, "windows": [2]})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
            RunConfig.from_dict({"lookback": 8})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file("/no/such/config.json")

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            RunConfig.from_file(str(p))

    def test_validation_failures(self):
        cases = [
            (dict(heads=3), "divide d_model"),
            (dict(variant="V9"), "unknown variant"),
            (dict(split_scheme="1:1:1"), "unknown split scheme"),
            (dict(dropout=1.0), "dropout"),
            (dict(temperature=0.0), "temperature"),
            (dict(lookback=4), "shorter than top window"),
            (dict(lr=-1.0), "lr"),
            (dict(e_layers=0), "e_layers"),
        ]
        for overrides, match in cases:
            with pytest.raises(ConfigError, match=match):
                small_config(**overrides).validate()

    def test_production_scale_config_validates(self):
        # hourly-data setup with a long lookback and a unit-kernel level
        with pytest.warns(PyramidConfigWarning):
            RunConfig(lookback=720, pred_len=96,
                      pyramidal_windows=(24, 48, 72, 144), e_layers=5,
                      d_model=720, dropout=0.1, batch_size=256,
                      lr=1e-3).validate()


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
        assert model.pyramid.windows == (4,)
        assert model.pyramid.level_lengths == (4,)

    def test_v3_has_fewer_parameters_than_full(self):
        full = PRformer(small_config(variant="full"), 2)
        v3 = PRformer(small_config(variant="V3"), 2)
        assert v3.param_count() < full.param_count()


class TestModelMechanics:
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

    def test_input_validation(self):
        model = PRformer(small_config(), 2)
        rng = np.random.default_rng(113)
        with pytest.raises(T.ShapeMismatchError, match="lookback"):
            model.forward(Tensor(rng.normal(size=(1, 15, 2)).astype(np.float32)))
        with pytest.raises(T.ShapeMismatchError, match="channel"):
            model.forward(Tensor(rng.normal(size=(1, 16, 3)).astype(np.float32)))

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
