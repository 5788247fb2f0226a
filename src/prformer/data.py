"""CSV ingestion, chronological splits, and sliding-window batches.

The on-disk format is the public benchmark layout: a header row, first
column `date`, remaining columns numeric, `.` decimal, comma separated.
Splits are computed with integer arithmetic on the row count so the
boundaries are exact and reproducible.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Unusable input data (file layout, values, or sizes)."""


@dataclass
class SeriesTable:
    timestamps: list  # ordered date strings
    channels: list  # column names
    values: np.ndarray  # (timesteps, channels) float32

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def n_channels(self):
        return self.values.shape[1]


@dataclass
class WindowBatch:
    inputs: np.ndarray  # (batch, L, C)
    targets: np.ndarray  # (batch, H, C)
    starts: np.ndarray  # source row index of each window's first input


def _lines_above(raw, error):
    """Yield the decoded lines above the one holding `error`'s byte, then raise
    `error` where the reader asks for that line, so no record is cut short."""
    # "?" stands in for the bad byte, so its line is the last one
    for line in (raw[:error.start] + b"?").splitlines(keepends=True)[:-1]:
        yield line.decode("utf-8")
    raise error


def load_csv(path):
    """Parse a benchmark-format CSV into a SeriesTable; every value must be
    a finite float32. Errors name the first defect in file order."""
    raw = read_input(path, "dataset file")
    try:
        lines = io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as e:
        lines = _lines_above(raw, e)
    late = None  # a ragged row or unreadable byte, reported after the cells above it
    timestamps, cells, linenos = [], [], []
    reader = csv.reader(lines)
    try:
        header = next(reader)
        if len(header) < 2:
            raise DataError(f"{path}: need a date column plus at least one channel")
        channels = header[1:]
        for i, name in enumerate(channels):
            if name in channels[:i]:
                raise DataError(f"{path}:1: repeated column {name!r}")
        for row in reader:  # numbered by the line each record ends on
            if not row:
                continue
            if len(row) != len(header):
                late = (f"{path}:{reader.line_num}: expected {len(header)} cells, "
                        f"got {len(row)}")
                break
            timestamps.append(row[0])
            cells.append(row[1:])
            linenos.append(reader.line_num)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except UnicodeDecodeError as e:
        late = f"{path}:{reader.line_num + 1}: not a readable CSV file: {e}"
    except csv.Error as e:
        late = f"{path}:{reader.line_num}: not a readable CSV file: {e}"
    try:
        wide = np.array(cells, dtype=np.float64)  # numpy parses each cell with float()
    except ValueError:
        for lineno, row in zip(linenos, cells):
            for col, cell in zip(channels, row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r} in "
                                    f"column {col!r}") from None
        raise
    if late:
        raise DataError(late)
    if not cells:
        raise DataError(f"{path}: no data rows")
    with np.errstate(over="ignore"):
        values = wide.astype(np.float32)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        r, c = bad[0]
        raise DataError(f"{path}:{linenos[r]}: value {wide[r, c].item()!r} in column "
                        f"{channels[c]!r} is not a finite float32")
    for i in range(1, len(timestamps)):
        # benchmark dates are ISO-formatted, so string order is time order
        if timestamps[i] <= timestamps[i - 1]:
            raise DataError(f"{path}: timestamps not strictly increasing at line "
                            f"{linenos[i]} ({timestamps[i]!r} after {timestamps[i - 1]!r})")
    return SeriesTable(timestamps=timestamps, channels=channels, values=values)


def read_input(path, what, error=DataError):
    """The bytes of `path`; an OSError is an `error` naming the file as `what`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e.strerror}") from None


@contextmanager
def open_output(path, mode="w"):
    """Open `path` to write, text as UTF-8 with no newline translation. An
    OSError, on opening or while writing, is a DataError naming `path`."""
    text = "b" not in mode
    try:
        with open(path, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None


def save_csv(table, path):
    """Write a SeriesTable back out; full float precision so reload is exact."""
    write_matrix(path, ["date"] + list(table.channels),
                 [[ts] for ts in table.timestamps], table.values)


def write_matrix(path, header, keys, values):
    """Write `header`, then row i of the 2-d float array `values` led by the
    cells of `keys[i]`, all keys equally long; floats are written with `repr`,
    so they reload exactly, and key cells are quoted as `csv.writer` quotes them."""
    keyed = [list(map(str, column)) for column in zip(*keys)]
    # csv quotes a cell for a character it holds, so check each key column at once
    columns = [c if _csv_cell("".join(c)) == "".join(c) else list(map(_csv_cell, c))
               for c in keyed] + [_reprs(column) for column in values.T]
    with open_output(path) as fh:
        csv.writer(fh).writerow(header)
        fh.write(_join_columns(columns, len(values)))


def _join_columns(columns, rows):
    """`rows` lines, item i of each column on line i, joined from one list filled by column."""
    stride = 2 * len(columns)  # each item, then its "," or "\r\n"
    out = ([","] * (stride - 1) + ["\r\n"]) * rows
    for j, column in enumerate(columns):
        out[2 * j::stride] = column
    return "".join(out)


# split scheme -> (train, val) share in tenths; test takes the rest
SPLIT_SCHEMES = {"6:2:2": (6, 2), "7:1:2": (7, 1)}


def split_ranges(n, scheme, lookback, horizon):
    """Chronological (train, val, test) half-open row ranges.

    Train/val sizes are floor(ratio * n); test takes the remainder. Val and
    test windows begin their lookback inside the preceding split's tail, so
    their first targets are the split's first rows; targets never leave their
    own split.
    """
    r_train, r_val = SPLIT_SCHEMES[scheme]
    n_train = n * r_train // 10
    n_val = n * r_val // 10
    n_test = n - n_train - n_val
    window = lookback + horizon
    ranges = [(0, n_train),
              (n_train - lookback, n_train + n_val),
              (n_train + n_val - lookback, n)]
    for name, (start, end), size in zip(("train", "val", "test"), ranges,
                                        (n_train, n_val, n_test)):
        if end - start < window:
            raise DataError(
                f"{name} split too small for lookback {lookback} + horizon "
                f"{horizon}: {size} rows of {n}")
    return tuple(ranges)


def window_count(range_len, lookback, horizon):
    return range_len - lookback - horizon + 1


def window_iter(values, row_range, lookback, horizon, batch_size,
                shuffle_seed=None):
    """Yield WindowBatch covers of every valid start in `row_range`.

    Each window pairs `lookback` input rows with the `horizon` rows that
    follow immediately. With a seed the start order is a deterministic
    shuffle; otherwise chronological. The final short batch is emitted.
    `row_range` holds at least one window, as every range `split_ranges`
    returns does.
    """
    start, end = row_range
    count = window_count(end - start, lookback, horizon)
    starts = np.arange(start, start + count)
    if shuffle_seed is not None:
        starts = starts[np.random.default_rng(shuffle_seed).permutation(count)]
    for at in range(0, count, batch_size):
        chunk = starts[at:at + batch_size]
        inputs = np.stack([values[s:s + lookback] for s in chunk])
        targets = np.stack([values[s + lookback:s + lookback + horizon]
                            for s in chunk])
        yield WindowBatch(inputs=inputs, targets=targets, starts=chunk)


PREDICTION_COLUMNS = ["window_start", "horizon_step", "channel", "y_true", "y_pred"]


def write_predictions(path, batches, channels):
    """Stream (window_start, horizon_step, channel, y_true, y_pred) rows.

    `batches` yields (starts, y_true, y_pred) triples with arrays shaped
    (b,), (b, H, C), (b, H, C). Rows run window-major, then horizon step,
    then channel; values are written with `repr`, so they reload exactly.
    Each batch is assembled by column and written at once, each distinct
    target formatted once (windows overlap); `csv.writer` quotes channels.
    """
    cells = [_csv_cell(name) for name in channels]
    with open_output(path) as fh:
        csv.writer(fh).writerow(PREDICTION_COLUMNS)
        for starts, y_true, y_pred in batches:
            steps = [f"{h},{cell}" for h in range(y_true.shape[1]) for cell in cells]
            firsts = [s for s in map(str, map(int, starts)) for _ in steps]
            fh.write(_join_columns([firsts, steps * len(y_true), _distinct_reprs(y_true),
                                    _reprs(y_pred)], len(firsts)))


def _csv_cell(text):
    """`text` as `csv.writer` writes it in the middle of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", "", text, "", ""])
    return buf.getvalue()[2:-4]  # drop ",," before and ",,\r\n" after


def write_rows(path, columns, rows):
    """Write dicts as CSV rows under a header of `columns`, in that order."""
    with open_output(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _reprs(values):
    """The `repr` of every element of a float array, as a list of strings: one
    repr of the whole list is faster than one call per element, and no float's
    repr contains the ", " that separates the items."""
    return repr(values.reshape(-1).tolist())[1:-1].split(", ") if values.size else []


def _distinct_reprs(values):
    """`_reprs(values)`, taking each repr once per distinct bit pattern.

    Keyed on bits, not values, so -0.0 and 0.0 keep their own reprs.
    """
    flat = values.reshape(-1)
    _, first, inverse = np.unique(flat.view(f"u{flat.itemsize}"),
                                  return_index=True, return_inverse=True)
    return np.array(_reprs(flat[first]), dtype=object)[inverse].tolist()
