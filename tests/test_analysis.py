"""Positional-encoding invariance math and the scaling benchmark harness."""

import types

import numpy as np
import pytest

from prformer import analysis
from prformer.analysis import (
    BENCH_COLUMNS,
    check_pe,
    pe_dot_invariance,
    pe_frequencies,
    scaling_bench,
    sinusoidal_pe,
)
from prformer.config import RunConfig
from prformer.data import write_rows
from prformer.model import PRformer


class TestFrequencies:
    def test_ladder_for_d4(self):
        np.testing.assert_allclose(pe_frequencies(4), [1.0, 0.01], rtol=1e-15)

    def test_ladder_for_d2(self):
        np.testing.assert_allclose(pe_frequencies(2), [1.0])

    def test_geometric_decay(self):
        w = pe_frequencies(128)
        ratios = w[1:] / w[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert w[0] == 1.0 and w[-1] < 1e-3


class TestSinusoidalPe:
    def test_position_zero_alternates_zero_one(self):
        np.testing.assert_array_equal(sinusoidal_pe(6, 0),
                                      [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_d2_is_plain_sin_cos(self):
        np.testing.assert_allclose(sinusoidal_pe(2, 1.0),
                                   [np.sin(1.0), np.cos(1.0)], rtol=1e-15)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sinusoidal_pe(3, 0)

    def test_self_dot_is_half_width(self):
        # sum of sin^2 + cos^2 over d/2 pairs
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = 2 * int(rng.integers(1, 65))
            t = int(rng.integers(0, 5000))
            pe = sinusoidal_pe(d, t)
            assert abs(pe @ pe - d / 2) < 1e-9


def pe_dot(d_model, t, offset):
    """PE_t . PE_{t+offset}."""
    return float(sinusoidal_pe(d_model, t) @ sinusoidal_pe(d_model, t + offset))


def closed_form(d_model, offset):
    """The sum of cos(w_k * offset), which every PE_t . PE_{t+offset} equals."""
    return float(np.cos(pe_frequencies(d_model) * offset).sum())


class TestDotInvariance:
    def test_zero_offset_reference_is_half_width(self):
        assert closed_form(64, 0) == 32.0
        assert pe_dot_invariance(64, 3, 999, 0) < 1e-9

    def test_d4_offset_one_closed_form(self):
        # cos(1) + cos(0.01), frozen
        np.testing.assert_allclose(closed_form(4, 1), 1.540252306284805, rtol=1e-12)
        np.testing.assert_allclose(pe_dot(4, 0, 1), closed_form(4, 1), atol=1e-12)

    def test_distant_positions_agree(self):
        dot_t, dot_s, reference = pe_dot(64, 5, 17), pe_dot(64, 300, 17), closed_form(64, 17)
        assert abs(dot_t - dot_s) < 1e-9
        assert pe_dot_invariance(64, 5, 300, 17) == max(
            abs(dot_t - reference), abs(dot_s - reference), abs(dot_t - dot_s))

    def test_random_sweep_stays_tiny(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = 2 * int(rng.integers(1, 129))
            t, s = int(rng.integers(0, 10000)), int(rng.integers(0, 10000))
            off = int(rng.integers(0, 1000))
            assert pe_dot_invariance(d, t, s, off) < 1e-9

    def test_check_pe_aggregate_and_determinism(self):
        worst = check_pe(trials=300, seed=2)
        assert worst < 1e-9
        assert worst == check_pe(trials=300, seed=2)

    def test_check_pe_fixed_width(self):
        assert check_pe(trials=50, d_model=128, seed=5) < 1e-9


def tiny_bench(**kw):
    args = dict(lookbacks=[16, 32, 64], windows=[4, 8], d_model=16, channels=2,
                conv_channels=4, e_layers=1, heads=2, repetitions=2)
    args.update(kw)
    return scaling_bench(**args)


class TestScalingBench:
    def test_row_shape_and_ratio_arithmetic(self):
        rows = tiny_bench()
        assert [r["lookback"] for r in rows] == [16, 32, 64]
        assert rows[0]["ratio"] is None
        for prev, row in zip(rows, rows[1:]):
            assert row["ratio"] == pytest.approx(
                row["median_s"] / prev["median_s"])
        for row in rows:
            assert row["median_s"] > 0 and row["mean_s"] > 0
            assert set(row) == {"lookback", "median_s", "mean_s", "ratio"}

    def test_unsorted_lookbacks_are_sorted(self):
        rows = tiny_bench(lookbacks=[64, 16, 32])
        assert [r["lookback"] for r in rows] == [16, 32, 64]

    def test_too_few_lookbacks_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            tiny_bench(lookbacks=[16, 32])

    def test_non_multiple_lookback_allowed(self):
        # floor effects at non-multiple lookbacks barely perturb the trend
        rows = tiny_bench(lookbacks=[16, 32, 60])
        assert [r["lookback"] for r in rows] == [16, 32, 60]

    def test_lookback_below_top_window_rejected(self):
        # the first model built, at the smallest lookback, fails validation
        with pytest.raises(ValueError, match="lookback 4 shorter than top window 8"):
            tiny_bench(lookbacks=[4, 32, 64])

    def test_backward_mode_leaves_grads_clear(self):
        config = RunConfig(lookback=16, pred_len=8, pyramidal_windows=(4,),
                           d_model=16, heads=2, conv_channels=4, dropout=0.0)
        model = PRformer(config, 2)
        analysis.bench_forward_seconds(model, repetitions=1, include_backward=True)
        assert all(p.grad is None for _, p in model.named_parameters())

    @pytest.mark.parametrize("include_backward", [False, True])
    def test_times_each_run_of_the_model(self, monkeypatch, include_backward):
        config = RunConfig(lookback=16, pred_len=8, pyramidal_windows=(4,),
                           d_model=16, heads=2, conv_channels=4, dropout=0.0)
        model = PRformer(config, 2)
        forward, calls = model.forward, []

        def counted(*args, **kwargs):
            calls.append(args)
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        # a fake clock: the three timed runs take 1, 3 and 2 s
        readings = iter([0.0, 1.0, 10.0, 13.0, 20.0, 22.0])
        monkeypatch.setattr(analysis, "time",
                            types.SimpleNamespace(perf_counter=lambda: next(readings)))
        before = [p.data.copy() for _, p in model.named_parameters()]
        assert analysis.bench_forward_seconds(model, 3, include_backward) == (2.0, 2.0)
        assert len(calls) == 3 + 1  # the warm-up, then the timed runs
        stepped = [not np.array_equal(old, p.data)
                   for old, (_, p) in zip(before, model.named_parameters())]
        assert stepped == [include_backward] * len(before)

    def test_csv_layout(self, tmp_path):
        rows = [{"lookback": 16, "median_s": 0.5, "mean_s": 0.5, "ratio": None},
                {"lookback": 32, "median_s": 1.0, "mean_s": 1.1, "ratio": 2.0}]
        path = tmp_path / "b.csv"
        write_rows(str(path), BENCH_COLUMNS, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "lookback,median_s,mean_s,ratio"
        assert lines[1] == "16,0.5,0.5,"
        assert lines[2] == "32,1.0,1.1,2.0"
