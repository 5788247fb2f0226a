"""Reference forecasts the model must beat: persistence (last value or last
season), scored over ordered windows like any other forecast function."""

from __future__ import annotations

import numpy as np

from .data import window_iter


def persistence_forecast(inputs, horizon, period=None):
    """Repeat the last value (or the last full season) of each window.

    inputs (b, L, C) -> (b, H, C). With `period` set, step h copies the
    value `period` steps before the corresponding future position.
    """
    b, length, c = inputs.shape
    if period is None:
        return np.repeat(inputs[:, -1:, :], horizon, axis=1)
    if period > length:
        raise ValueError(f"period {period} exceeds window length {length}")
    out = np.empty((b, horizon, c), dtype=inputs.dtype)
    for h in range(horizon):
        # position L+h sits (h % period) steps into a season that started
        # at L - period; copy from one season earlier
        out[:, h, :] = inputs[:, length - period + h % period, :]
    return out


def baseline_metrics(forecast_fn, values, row_range, lookback, horizon,
                     batch_size=512):
    """Ordered-window MSE/MAE for any (inputs -> forecast) function."""
    sq, ab, count = 0.0, 0.0, 0
    for batch in window_iter(values, row_range, lookback, horizon, batch_size):
        pred = forecast_fn(batch.inputs)
        err = (pred - batch.targets).astype(np.float64)
        sq += float((err ** 2).sum())
        ab += float(np.abs(err).sum())
        count += err.size
    return sq / count, ab / count
