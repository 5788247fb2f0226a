"""The reference forecast the model must beat: last-value persistence,
scored over ordered windows like any other forecast function."""

from __future__ import annotations

import numpy as np

from .data import window_iter
from .training import score


def persistence_forecast(inputs, horizon):
    """Repeat the last value of each window: (b, L, C) -> (b, H, C)."""
    return np.repeat(inputs[:, -1:, :], horizon, axis=1)


def baseline_metrics(forecast_fn, values, row_range, lookback, horizon,
                     batch_size=512):
    """Ordered-window (MSE, MAE) for any (inputs -> forecast) function."""
    batches = window_iter(values, row_range, lookback, horizon, batch_size)
    metrics = score(((b.targets, forecast_fn(b.inputs)) for b in batches),
                    horizon)
    return metrics.mse, metrics.mae
