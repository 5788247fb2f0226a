"""Synthetic multichannel series for experiments and tests.

The mixed generator layers daily/weekly-style sinusoids over a slow AR(1)
driver that one channel carries fresh (as an amplitude envelope) and
another only after a lag, so cross-channel attention has real signal to
find while any per-channel predictor faces irreducible error on the
lagged channel.
"""

from __future__ import annotations

import datetime

import numpy as np

from .data import SeriesTable


def _hourly_timestamps(n, start="2016-07-01 00:00:00"):
    t0 = datetime.datetime.fromisoformat(start)
    step = datetime.timedelta(hours=1)
    return [(t0 + i * step).strftime("%Y-%m-%d %H:%M:%S") for i in range(n)]


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
    z = np.empty(n + lag)
    z[0] = rng.normal()
    innov = rng.normal(scale=np.sqrt(1.0 - rho * rho), size=n + lag)
    for i in range(1, n + lag):
        z[i] = rho * z[i - 1] + innov[i]

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

