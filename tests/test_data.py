"""Data plumbing checks: CSV parse/round-trip, split arithmetic, window
enumeration, and the synthetic generators' advertised structure."""

import numpy as np
import pytest

import oracles
from conftest import periodic_table
from prformer import data, synthetic
from prformer.data import DataError, load_csv, save_csv, split_ranges, window_iter


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_small_file_round_trips_exactly(self, tmp_path):
        path = write(tmp_path, "date,a,b\n"
                               "2016-07-01 00:00:00,1.5,-2.25\n"
                               "2016-07-01 01:00:00,0.125,3.0\n"
                               "2016-07-01 02:00:00,7.0,0.5\n")
        table = load_csv(path)
        assert table.channels == ["a", "b"]
        assert table.length == 3 and table.n_channels == 2
        np.testing.assert_array_equal(
            table.values, np.array([[1.5, -2.25], [0.125, 3.0], [7.0, 0.5]],
                                   dtype=np.float32))

    def test_export_reload_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(90)
        table = synthetic.mixed_table(n=50, seed=3)
        table.values[:] = rng.normal(size=table.values.shape).astype(np.float32)
        path = str(tmp_path / "out.csv")
        save_csv(table, path)
        again = load_csv(path)
        assert again.channels == table.channels
        np.testing.assert_array_equal(again.values, table.values)
        assert again.timestamps == table.timestamps

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            load_csv("/no/such/file.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "date,a\n"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "date,a,b\n"
                               "2016-07-01 00:00:00,1.0,2.0\n"
                               "2016-07-01 01:00:00,oops,2.0\n")
        with pytest.raises(DataError, match=r":3: .*'oops'.*'a'"):
            load_csv(path)

    def test_unordered_timestamps(self, tmp_path):
        path = write(tmp_path, "date,a\n"
                               "2016-07-01 01:00:00,1.0\n"
                               "2016-07-01 00:00:00,2.0\n")
        with pytest.raises(DataError, match="not strictly increasing"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        # the blank line keeps the reported line number honest; 1e39 is
        # finite as a double but overflows float32
        path = write(tmp_path, "date,a,b\n"
                               "2016-07-01 00:00:00,1.0,2.0\n\n"
                               f"2016-07-01 01:00:00,3.0,{cell}\n")
        with pytest.raises(DataError, match=r"t\.csv:4: .* column 'b'"):
            load_csv(path)

    def test_binary_file_is_data_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"date,a\n\xff\xfe\x00\x81,1.0\n")
        with pytest.raises(DataError, match="not a readable CSV"):
            load_csv(str(p))

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "date,a,b\n2016-07-01 00:00:00,1.0\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path)

    def test_repeated_column_names_file_line_and_column(self, tmp_path):
        # a repeated name would make the predictions' channel column ambiguous
        path = write(tmp_path, "date,a,b,a\n2016-07-01 00:00:00,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=r"t\.csv:1: repeated column 'a'"):
            load_csv(path)


class TestSplitRanges:
    def test_benchmark_sizes_622(self):
        train, val, test = split_ranges(17420, "6:2:2", 336, 96)
        assert train == (0, 10452)
        assert val == (10452 - 336, 10452 + 3484)
        assert test == (10452 + 3484 - 336, 17420)

    def test_benchmark_sizes_712(self):
        train, val, test = split_ranges(26304, "7:1:2", 336, 96)
        assert train[1] - train[0] == 18412
        assert val[1] - val[0] == 336 + 2630
        assert test[1] - test[0] == 336 + 5262
        assert (train[1], val[1], test[1]) == (18412, 18412 + 2630, 26304)

    def test_tiny_exact_ratios(self):
        train, val, test = split_ranges(10, "6:2:2", 1, 1)
        assert (train, val, test) == ((0, 6), (5, 8), (7, 10))

    def test_standard_mode_extends_lookback_into_previous_split(self):
        lookback = 48
        train, val, test = split_ranges(1000, "6:2:2", lookback, 24)
        assert train == (0, 600)
        assert val == (600 - lookback, 800)
        assert test == (800 - lookback, 1000)

    def test_standard_mode_targets_stay_inside_their_split(self):
        lookback, horizon = 48, 24
        _, val, _ = split_ranges(1000, "6:2:2", lookback, horizon)
        first_target = val[0] + lookback
        last_target_end = val[1]
        assert first_target == 600  # val rows begin here
        assert last_target_end == 800

    def test_too_small_rejected(self):
        with pytest.raises(DataError, match="train split too small"):
            split_ranges(100, "6:2:2", 48, 24)
        # val keeps its lookback from train, so only its own 200 rows of
        # targets must cover the horizon
        with pytest.raises(DataError, match="val split too small.*200 rows"):
            split_ranges(1000, "6:2:2", 48, 201)


class TestWindowIter:
    def test_window_count_formula(self):
        vals = np.zeros((1000, 2), dtype=np.float32)
        batches = list(window_iter(vals, (0, 1000), 720, 96, batch_size=64))
        total = sum(len(b.starts) for b in batches)
        assert total == 185
        assert data.window_count(1000, 720, 96) == 185

    def test_single_window_boundary(self):
        vals = np.arange(20, dtype=np.float32).reshape(10, 2)
        batches = list(window_iter(vals, (0, 10), 7, 3, batch_size=4))
        assert len(batches) == 1 and len(batches[0].starts) == 1
        np.testing.assert_array_equal(batches[0].inputs[0], vals[:7])
        np.testing.assert_array_equal(batches[0].targets[0], vals[7:])

    def test_targets_follow_inputs_contiguously(self):
        rng = np.random.default_rng(91)
        vals = rng.normal(size=(60, 3)).astype(np.float32)
        for b in window_iter(vals, (5, 55), 8, 4, batch_size=7, shuffle_seed=1):
            for i, s in enumerate(b.starts):
                np.testing.assert_array_equal(b.inputs[i], vals[s:s + 8])
                np.testing.assert_array_equal(b.targets[i], vals[s + 8:s + 12])

    def test_each_start_exactly_once_and_partial_batch(self):
        vals = np.zeros((30, 1), dtype=np.float32)
        batches = list(window_iter(vals, (0, 30), 4, 2, batch_size=8, shuffle_seed=9))
        starts = np.concatenate([b.starts for b in batches])
        assert sorted(starts.tolist()) == list(range(25))
        assert [len(b.starts) for b in batches] == [8, 8, 8, 1]

    def test_shuffle_determinism_and_ordering(self):
        vals = np.zeros((40, 1), dtype=np.float32)
        a = np.concatenate([b.starts for b in
                            window_iter(vals, (0, 40), 6, 2, 5, shuffle_seed=7)])
        b = np.concatenate([b.starts for b in
                            window_iter(vals, (0, 40), 6, 2, 5, shuffle_seed=7)])
        c = np.concatenate([b.starts for b in window_iter(vals, (0, 40), 6, 2, 5)])
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_array_equal(c, np.arange(33))


class TestPredictionsCsv:
    def test_layout_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(92)
        y_true = rng.normal(size=(2, 3, 2)).astype(np.float32)
        y_pred = rng.normal(size=(2, 3, 2)).astype(np.float32)
        path = str(tmp_path / "pred.csv")
        data.write_predictions(path, [(np.array([10, 11]), y_true, y_pred)],
                               ["a", "b"])
        lines = open(path).read().splitlines()
        assert lines[0] == "window_start,horizon_step,channel,y_true,y_pred"
        assert len(lines) == 1 + 2 * 3 * 2
        first = lines[1].split(",")
        assert first[:3] == ["10", "0", "a"]
        assert np.float32(first[3]) == y_true[0, 0, 0]
        assert np.float32(first[4]) == y_pred[0, 0, 0]

    def test_byte_identical_to_row_loop(self, tmp_path):
        rng = np.random.default_rng(93)
        channels = ["a", "b,c", 'd"e']  # the last two need csv quoting
        batches = []
        for start, size in ((100, 4), (104, 4), (108, 2)):  # short last batch
            batches.append((np.arange(start, start + size),
                            rng.normal(size=(size, 5, 3)).astype(np.float32),
                            rng.normal(size=(size, 5, 3)).astype(np.float32)))
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        data.write_predictions(str(fast), iter(batches), channels)
        oracles.write_predictions(str(slow), iter(batches), channels)
        assert fast.read_bytes() == slow.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_identical_on_overlapping_windows(self, tmp_path, dtype):
        rng = np.random.default_rng(94)
        values = rng.normal(size=(40, 4)).astype(dtype)
        values[::3, 1] = 0.0
        values[1::3, 1] = -0.0  # equal to 0.0, but its own repr
        channels = ["", "a,b", 'q"r', "x\ny"]
        batches = []
        # 33 windows in batches of 4: targets repeat, the last batch is one window
        for batch in window_iter(values, (0, 40), 5, 3, 4):
            y_pred = rng.normal(size=batch.targets.shape).astype(dtype)
            y_pred.reshape(-1)[:3] = [np.nan, np.inf, -np.inf]
            batches.append((batch.starts, batch.targets, y_pred))
        assert len(batches[-1][0]) == 1
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        data.write_predictions(str(fast), iter(batches), channels)
        oracles.write_predictions(str(slow), iter(batches), channels)
        text = fast.read_bytes()
        assert text == slow.read_bytes()
        assert b",-0.0," in text and b",0.0," in text and b",nan\r\n" in text


class TestSyntheticGenerators:
    def test_mixed_table_shape_and_order(self):
        table = synthetic.mixed_table(n=300, seed=1)
        assert table.values.shape == (300, 3)
        assert table.channels == ["driver", "seasonal", "lagged"]
        assert all(a < b for a, b in zip(table.timestamps, table.timestamps[1:]))

    def test_lagged_channel_follows_driver_envelope(self):
        lag = 12
        table = synthetic.mixed_table(n=500, seed=2, noise=0.0, coupling=1.0,
                                      lag=lag, modulation=1.0)
        t_abs = np.arange(lag, lag + 500)
        daily = np.sin(2 * np.pi * t_abs / 24.0)
        slow = np.sin(2 * np.pi * t_abs / 96.0)
        # envelope is only well-defined away from carrier zero crossings
        strong = np.abs(daily) > 0.5
        envelope = (table.values[:, 0] - 0.5 * slow)[strong] / daily[strong] - 1.0
        lagged_part = table.values[:, 2] - 0.6 * slow
        delayed = np.empty_like(lagged_part)
        delayed[:-lag] = lagged_part[lag:]
        delayed[-lag:] = np.nan  # never compared; mask below excludes the tail
        keep = strong.copy()
        keep[-lag:] = False
        np.testing.assert_allclose(envelope[keep[strong]],
                                   delayed[keep], atol=1e-4)

    def test_shared_process_is_slow_ar(self):
        # the additive copy on the lagged channel exposes the process directly
        table = synthetic.mixed_table(n=2000, seed=3, noise=0.0, coupling=1.0)
        t_abs = np.arange(12, 12 + 2000)
        z = table.values[:, 2] - 0.6 * np.sin(2 * np.pi * t_abs / 96.0)
        rho = np.corrcoef(z[1:], z[:-1])[0, 1]
        assert 0.85 < rho < 0.95

    def test_periodic_table_is_bitwise_periodic(self):
        table = periodic_table(n=240, period=24)
        v = table.values
        np.testing.assert_array_equal(v[24:], v[:-24])

    def test_determinism(self):
        a = synthetic.mixed_table(n=100, seed=5).values
        b = synthetic.mixed_table(n=100, seed=5).values
        np.testing.assert_array_equal(a, b)
