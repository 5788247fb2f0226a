"""Data plumbing checks: CSV parse/round-trip, split arithmetic, window
enumeration, and the synthetic generators' advertised structure."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import periodic_table
from prformer import data, synthetic, training
from prformer.config import RunConfig
from prformer.data import (DataError, load_csv, save_csv, split_ranges, window_iter, write_matrix,
                           write_predictions)
from prformer.model import PRformer


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

    def test_write_matrix_round_trips_a_negative_first_value(self, tmp_path):
        path = str(tmp_path / "m.csv")
        values = np.array([[-1.5, 2.0], [3.0, -0.25]])
        data.write_matrix(path, ["key", "x", "y"], [["p"], ["q"]], values)
        assert open(path).read().splitlines() == ["key,x,y", "p,-1.5,2.0",
                                                  "q,3.0,-0.25"]

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
        with pytest.raises(DataError, match=r"t\.csv:2: not a readable CSV"):
            load_csv(str(p))
        p.write_bytes(b"date,\xff\n")  # no whole line above the byte: not an empty file
        with pytest.raises(DataError, match=r"t\.csv:1: not a readable CSV"):
            load_csv(str(p))

    def test_bad_byte_is_named_by_its_line(self, tmp_path):
        # far past the first 8 KiB, where a chunked text decoder would name
        # the byte by its offset inside the chunk
        lines = ["date,a\n"] + [f"t{i:06d},{i / 7!r}\n" for i in range(1000)]
        head = "".join(lines).encode()
        p = tmp_path / "t.csv"
        p.write_bytes(head + b"t999999,1.\xff5\n")
        with pytest.raises(DataError) as caught:
            load_csv(str(p))
        assert str(caught.value) == (
            f"{p}:1002: not a readable CSV file: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(head) + 10}: invalid start byte")
        assert str(caught.value) == outcome(oracles.load_csv, str(p))

    @pytest.mark.parametrize("blob, message", [
        (b'date,a,b\n"t\n\xff",1,2\n', r"t\.csv:3: not a readable CSV file: .* position 12"),
        (b'date,a,b\nt0,x,1\n"t\n\xff",1,2\n', r"t\.csv:2: non-numeric cell 'x'"),
        (b'date,a,b\nt0,1,2\n"t1\n\n\xff",1,2\n', r"t\.csv:5: not a readable CSV file"),
    ], ids=["open-record", "bad-cell-above", "open-record-blank-line"])
    def test_bad_byte_inside_a_quoted_line_break(self, tmp_path, blob, message):
        # the record open across the bad byte's line is not parsed cut short
        p = tmp_path / "t.csv"
        p.write_bytes(blob)
        with pytest.raises(DataError, match=message) as caught:
            load_csv(str(p))
        assert str(caught.value) == outcome(oracles.load_csv, str(p))

    def test_csv_error_is_named_by_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, "date,a\n" + "".join(f"t{i},1.0\n" for i in range(3))
                     + "t3," + "1" * (limit + 1) + "\n")
        with pytest.raises(DataError) as caught:
            load_csv(path)
        assert str(caught.value) == (f"{path}:5: not a readable CSV file: field larger "
                                     f"than field limit ({limit})")
        assert str(caught.value) == outcome(oracles.load_csv, path)

    @pytest.mark.parametrize("last, message", [
        ("2021,x", "{path}:4: non-numeric cell 'x' in column 'a'"),
        ("2021,1,2", "{path}:4: expected 2 cells, got 3"),
        ("2021,1e39", "{path}:4: value 1e+39 in column 'a' is not a finite float32"),
        ("2019,1", "{path}: timestamps not strictly increasing at line 4 "
                   "('2019' after '2020\\n01')"),
    ], ids=["bad-cell", "ragged", "non-finite", "unordered"])
    def test_record_after_a_quoted_line_break_is_named_by_its_line(
            self, tmp_path, last, message):
        # the record above spans lines 2 and 3, so the defect is on line 4
        path = write(tmp_path, f'date,a\n"2020\n01",1\n{last}\n')
        with pytest.raises(DataError) as caught:
            load_csv(path)
        assert str(caught.value) == message.format(path=path)
        assert str(caught.value) == outcome(oracles.load_csv, path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "date,a,b\n2016-07-01 00:00:00,1.0\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path)

    @pytest.mark.parametrize("rows, message", [
        (["t1,1e39", "t2,1", "t3,1,2"], r":4: expected 2 cells, got 3"),
        (["t2,1", "t1,1", "t3,1,2"], r":4: expected 2 cells, got 3"),
        (["t1,nan", "t2,x"], r":3: non-numeric cell 'x'"),
    ], ids=["ragged-before-non-finite", "ragged-before-timestamp", "non-numeric-before-nan"])
    def test_defect_kind_outranks_file_order(self, tmp_path, rows, message):
        # a ragged row or bad cell, then a non-finite value, then a timestamp
        path = write(tmp_path, "\n".join(["date,a", *rows]) + "\n")
        with pytest.raises(DataError, match=r"t\.csv" + message):
            load_csv(path)

    def test_repeated_column_names_file_line_and_column(self, tmp_path):
        # a repeated name would make the predictions' channel column ambiguous
        path = write(tmp_path, "date,a,b,a\n2016-07-01 00:00:00,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=r"t\.csv:1: repeated column 'a'"):
            load_csv(path)


class TestOpenOutput:
    @pytest.mark.parametrize("writer", ["write_rows", "write_matrix", "write_predictions",
                                        "save_checkpoint"])
    def test_missing_directory_is_data_error_naming_the_path(self, tmp_path, writer):
        path = str(tmp_path / "no-such-dir" / "out")
        config = RunConfig(lookback=8, pred_len=2, pyramidal_windows=(4,), d_model=4,
                           heads=1, conv_channels=2)
        call = {
            "write_rows": lambda: data.write_rows(path, ["a"], [{"a": 1}]),
            "write_matrix": lambda: write_matrix(path, ["a"], [()], np.zeros((1, 1))),
            "write_predictions": lambda: data.write_predictions(path, [], ["a"]),
            "save_checkpoint": lambda: training.save_checkpoint(path, PRformer(config, 1)),
        }[writer]
        with pytest.raises(DataError) as caught:
            call()
        assert str(caught.value) == f"cannot write {path}: No such file or directory"


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

F32_MAX = float(np.finfo(np.float32).max)
# text `float()` accepts: ASCII and non-ASCII digits, whitespace, underscores,
# signs, exponents, non-finite words and values past float32's range
NUMBER_TEXTS = st.one_of(
    st.floats(width=32).map(repr),
    st.floats().map(repr),
    st.sampled_from(["-0.0", " 1.5 ", "\t2\u2003", "1_000", "١٢", "٣.٥e-٢", "０.５", "+7E+2",
                     "inf", "-Infinity", "nan", "-NaN", "1e39", "-3.5e38", "1e500",
                     repr(F32_MAX), "3.4028236e38", "1e-46", "1e-40"]),
)


def rejected(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# text `float()` rejects, some of it with commas that csv must quote
BAD_TEXTS = st.one_of(
    st.sampled_from(["", "0x10", "1,5", "1__0", "_1", "1e", "--1", "oops", " ", "1 2", '"3"']),
    st.text("0123456789١_+-eE. ,x", min_size=1, max_size=6).filter(rejected),
)


def csv_line(cells):
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def outcome(load, path):
    """What `load` makes of `path`: its bits, stamps and channels, or its error."""
    try:
        table = load(path)
    except DataError as e:
        return str(e)
    return table.values.dtype, table.values.tobytes(), table.timestamps, table.channels


@st.composite
def csv_bytes(draw, cells):
    """A small table whose cells come from `cells`, with now and then a blank
    line, a ragged row, a repeated timestamp or an undecodable byte."""
    width = draw(st.integers(1, 3))
    lines = [csv_line(["date"] + [f"c{i}" for i in range(width)])]
    for i in range(draw(st.integers(0, 5))):
        row = [draw(cells) for _ in range(width)]
        ragged = draw(st.sampled_from([0] * 8 + [-1, 1]))
        row = row[:width + ragged] if ragged < 0 else row + ["1"] * ragged
        stamp = f"2016-07-01 {i - draw(st.sampled_from([0] * 9 + [1])):02d}:00:00"
        lines.append(csv_line([stamp] + row) + draw(st.sampled_from([""] * 5 + ["\r\n"])))
    blob = "".join(lines).encode()
    if draw(st.booleans()) and len(lines) > 1:
        at = blob.index(lines[-1].encode())
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob


class TestLoadCsvAgainstOracle:
    """`load_csv` converts every cell at once; the oracle converts them one
    at a time. They must agree on every bit, or on the error message."""

    @PROPERTY
    @given(blob=csv_bytes(NUMBER_TEXTS))
    def test_numeric_tables_match_bit_for_bit(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(blob)
        assert outcome(load_csv, str(path)) == outcome(oracles.load_csv, str(path))

    @PROPERTY
    @given(blob=csv_bytes(st.one_of(NUMBER_TEXTS, BAD_TEXTS)))
    def test_defective_tables_give_the_same_message(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(blob)
        assert outcome(load_csv, str(path)) == outcome(oracles.load_csv, str(path))

    @PROPERTY
    @given(data=st.data())
    def test_bad_cell_is_named_before_a_later_defect(self, tmp_path_factory, data):
        rows = data.draw(st.integers(1, 5))
        bad_row = data.draw(st.integers(0, rows - 1))
        lines = [csv_line(["date", "a", "b"])]
        for i in range(rows):
            cells = [data.draw(NUMBER_TEXTS), "0.5"]
            if i == bad_row:
                cells[data.draw(st.integers(0, 1))] = data.draw(BAD_TEXTS)
            lines.append(csv_line([f"t{i:04d}"] + cells))
        later = data.draw(st.sampled_from(["ragged", "byte", "huge field"]))
        if later == "ragged":
            lines.append(csv_line(["t9999", "1.0"]))
        elif later == "huge field":
            lines.append(csv_line(["t9999", "1" * (csv.field_size_limit() + 1), "1.0"]))
        else:
            lines.append("t9999,\udcff,1.0\r\n")
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes("".join(lines).encode(errors="surrogateescape"))
        message = outcome(load_csv, str(path))
        assert "non-numeric cell" in message
        assert message == outcome(oracles.load_csv, str(path))


KEY_TEXTS = st.one_of(st.integers(-5, 10**6), st.text(',"\r\n a\u00e9\t;', max_size=4))
MATRIX_VALUES = st.one_of(
    st.floats(width=32), st.floats(),
    st.sampled_from([-0.0, 0.0, 1e-45, -1.4e-45, 5e-324, 2.2e-308, F32_MAX, -F32_MAX]))


class TestWriteMatrixAgainstOracle:
    @PROPERTY
    @given(data=st.data())
    def test_bytes_equal_csv_writer_rows(self, tmp_path_factory, data):
        # values keep at least one column: csv.writer writes a row that is one
        # empty cell as '""', and no caller writes such a row
        rows, width = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        drawn = [[data.draw(MATRIX_VALUES) for _ in range(width)] for _ in range(rows)]
        with np.errstate(over="ignore"):  # doubles past float32's range become inf
            values = np.array(drawn, dtype=dtype).reshape(rows, width)
        key_width = data.draw(st.integers(0, 2))
        keys = [tuple(data.draw(KEY_TEXTS) for _ in range(key_width)) for _ in range(rows)]
        header = ["key"] * key_width + [f"v{i}" for i in range(width)]
        fast = tmp_path_factory.mktemp("m") / "fast.csv"
        slow = fast.with_name("slow.csv")
        write_matrix(str(fast), header, keys, values)
        oracles.write_matrix(str(slow), header, keys, values)
        assert fast.read_bytes() == slow.read_bytes()


# channel names, with the characters a format template or csv would have to escape
CHANNEL_NAMES = st.one_of(KEY_TEXTS, st.text('%{}",\r\n', max_size=3))


class TestWritePredictionsAgainstOracle:
    @PROPERTY
    @given(data=st.data())
    def test_bytes_equal_csv_writer_rows(self, tmp_path_factory, data):
        horizon, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        channels = [data.draw(CHANNEL_NAMES) for _ in range(width)]
        batches = []
        for _ in range(data.draw(st.integers(0, 3))):
            b = data.draw(st.integers(1, 4))
            starts = [data.draw(st.integers(0, 10**6)) for _ in range(b)]
            if data.draw(st.booleans()):
                starts = np.array(starts, dtype=np.int64)
            with np.errstate(over="ignore"):  # doubles past float32's range become inf
                y_true, y_pred = (np.array([data.draw(MATRIX_VALUES)
                                            for _ in range(b * horizon * width)],
                                           dtype=dtype).reshape(b, horizon, width)
                                  for _ in range(2))
            batches.append((starts, y_true, y_pred))
        fast = tmp_path_factory.mktemp("p") / "fast.csv"
        slow = fast.with_name("slow.csv")
        write_predictions(str(fast), iter(batches), channels)
        oracles.write_predictions(str(slow), iter(batches), channels)
        assert fast.read_bytes() == slow.read_bytes()


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


    def test_split_of_exactly_one_window_accepted(self):
        # val keeps 20 rows of targets: one window at horizon 20
        train, val, test = split_ranges(100, "6:2:2", 10, 20)
        assert val == (50, 80) and test == (70, 100)
        assert data.window_count(val[1] - val[0], 10, 20) == 1


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

    def test_negative_first_value_round_trips(self, tmp_path):
        y_true = np.array([[[-0.75], [0.5]]], dtype=np.float32)
        y_pred = np.array([[[-2.5], [1.25]]], dtype=np.float32)
        path = str(tmp_path / "pred.csv")
        data.write_predictions(path, [(np.array([3]), y_true, y_pred)], ["a"])
        lines = open(path).read().splitlines()
        assert lines[1:] == ["3,0,a,-0.75,-2.5", "3,1,a,0.5,1.25"]

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

    @pytest.mark.parametrize("layout", ["float32", "float64", "one-channel", "strided"])
    @pytest.mark.parametrize("odd", ["signed-zero", "nan-payload"])
    def test_byte_identical_on_rows_that_differ_in_one_cell_bits(self, tmp_path, odd, layout):
        # targets are deduplicated by row bytes: two rows equal in every cell but
        # the last, which holds 0.0 in one and -0.0 in the other, or two NaNs
        # with different payload bits, must each keep their own cells
        dtype = np.float64 if layout == "float64" else np.float32
        width = 1 if layout == "one-channel" else 3
        pair = np.array([0.0, -0.0] if odd == "signed-zero" else [np.nan, np.nan], dtype)
        if odd == "nan-payload":
            pair.view(f"u{pair.itemsize}")[1] |= 1
        rows = np.tile(np.random.default_rng(96).normal(size=width).astype(dtype), (8, 1))
        rows[:, -1] = np.tile(pair, 4)  # each of the two rows four times
        y_true = rows.reshape(2, 4, width)
        if layout == "strided":
            y_true = np.repeat(y_true, 2, axis=2)[..., ::2]
            assert not y_true.flags.c_contiguous
        y_pred = np.random.default_rng(97).normal(size=y_true.shape).astype(dtype)
        batches = [(np.array([5, 6]), y_true, y_pred)]
        channels = ["a", "b,c", "d"][:width]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        data.write_predictions(str(fast), iter(batches), channels)
        oracles.write_predictions(str(slow), iter(batches), channels)
        text = fast.read_bytes()
        assert text == slow.read_bytes()
        if odd == "signed-zero":
            assert b",-0.0," in text and b",0.0," in text

    def test_streams_one_batch_at_a_time(self, tmp_path):
        # a writer that formats a whole pass before writing peaks ~8x higher on 16 batches
        rng = np.random.default_rng(95)
        batch = (np.arange(100, 108), rng.normal(size=(8, 24, 4)),
                 rng.normal(size=(8, 24, 4)))
        path = str(tmp_path / "pred.csv")

        def peak(n_batches):
            tracemalloc.start()
            try:
                write_predictions(path, (batch for _ in range(n_batches)), list("abcd"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: the csv module's one-time allocations
        two, sixteen = peak(2), peak(16)
        assert sixteen <= two + 64 * 1024, (two, sixteen)


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

    def test_hourly_timestamps_equal_strftime_loop(self):
        # 40,000 hours run from mid-2016 into 2021: 2020-02-29 and four year ends
        stamps = synthetic._hourly_timestamps(40000)
        assert stamps == oracles.hourly_timestamps(40000)
        assert {"2020-02-29 23:00:00", "2020-12-31 23:00:00", "2021-01-01 00:00:00"} <= set(stamps)
        assert synthetic._hourly_timestamps(0) == []
        assert synthetic._hourly_timestamps(1) == ["2016-07-01 00:00:00"]

    @pytest.mark.parametrize("n, seed, lag", [(600, 4, 12), (50, 3, 0), (2376, (1, 0), 24),
                                              (1, 7, 0)])
    def test_mixed_table_equals_float64_scalar_loop(self, n, seed, lag):
        table = synthetic.mixed_table(n=n, seed=seed, lag=lag)
        timestamps, values = oracles.mixed_table(n=n, seed=seed, lag=lag)
        assert table.values.dtype == values.dtype
        assert table.values.tobytes() == values.tobytes()
        assert table.timestamps == timestamps

    def test_determinism(self):
        a = synthetic.mixed_table(n=100, seed=5).values
        b = synthetic.mixed_table(n=100, seed=5).values
        np.testing.assert_array_equal(a, b)
