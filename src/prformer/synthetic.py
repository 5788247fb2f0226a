"""Synthetic multichannel series for experiments and tests.

The mixed generator layers daily/weekly-style sinusoids over a slow AR(1)
driver that one channel carries fresh (as an amplitude envelope) and
another only after a lag, so cross-channel attention has real signal to
find while any per-channel predictor faces irreducible error on the
lagged channel.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .data import SeriesTable


def _hourly_timestamps(n):
    hours = np.datetime64("2016-07-01T00:00:00") + np.arange(n).astype("timedelta64[h]")
    return [s.replace("T", " ") for s in np.datetime_as_string(hours, unit="s").tolist()]


def mixed_table(n=2000, seed=0, noise=0.1, coupling=0.8, lag=12, rho=0.9,
                modulation=0.8):
    """3 channels: periods 24 and 96 sinusoids + shared AR(1) + noise.

    The AR(1) process rides on channel 0 as the amplitude envelope of its
    daily sinusoid; channel 2 sees the same process additively but `lag`
    steps late; channel 1 is purely seasonal. Forecasting channel 2 well
    therefore requires demodulating channel 0's recent envelope, which a
    fixed linear map over the window cannot do because the carrier phase
    shifts with the window start.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n + lag)
    z0 = rng.normal()
    innov = rng.normal(scale=np.sqrt(1.0 - rho * rho), size=n + lag)
    # on Python floats: the same IEEE multiply and add as float64 scalars, faster
    z = np.array(list(accumulate(innov[1:].tolist(), lambda prev, e: rho * prev + e, initial=z0)))

    daily = np.sin(2 * np.pi * t / 24.0)
    slow = np.sin(2 * np.pi * t / 96.0)
    eps = rng.normal(scale=noise, size=(3, n + lag))

    c0 = (1.0 + modulation * z) * daily + 0.5 * slow + eps[0]
    c1 = 0.8 * np.sin(2 * np.pi * t / 24.0 + 1.0) + 0.4 * slow + eps[1]
    c2 = 0.6 * slow + coupling * np.concatenate([np.zeros(lag), z[:-lag] if lag else z]) + eps[2]

    values = np.stack([c0, c1, c2], axis=1)[lag:].astype(np.float32)
    return SeriesTable(timestamps=_hourly_timestamps(n),
                       channels=["driver", "seasonal", "lagged"],
                       values=values)

