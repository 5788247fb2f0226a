"""Analysis harnesses: sinusoidal-PE translation invariance and the
wall-clock scaling benchmark.

The PE check machine-verifies that the dot product of two sinusoidal
positional encodings depends only on their offset (it equals a cosine sum
over the frequency ladder), which is why attention over such encodings
cannot tell absolute positions apart. The bench measures the forward
pass, or a full training step, as the lookback doubles.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import tensor as T
from .config import ConfigError, RunConfig
from .model import PRformer
from .nn import addressable
from .tensor import Tensor
from .training import Adam, train_step


def pe_frequencies(d_model):
    """w_k = 10000^(-2k/d) for the d/2 sin-cos pairs, in float64."""
    k = np.arange(d_model // 2, dtype=np.float64)
    return 10000.0 ** (-2.0 * k / d_model)


def sinusoidal_pe(d_model, position):
    """The classic interleaved sin/cos encoding of one position."""
    if d_model < 2 or d_model % 2:
        raise ConfigError(f"d_model must be even and at least 2, got {d_model}")
    pe = np.empty(addressable((d_model,)), dtype=np.float64)  # bounds `w` too
    w = pe_frequencies(d_model)
    pe[0::2] = np.sin(position * w)
    pe[1::2] = np.cos(position * w)
    return pe


def pe_dot_invariance(d_model, t, s, offset):
    """The worst deviation among PE_t . PE_{t+offset}, PE_s . PE_{s+offset}
    and their closed form, the sum of cos(w_k * offset).

    sin(a)sin(b) + cos(a)cos(b) = cos(a - b) collapses each sin-cos pair to
    cos(w_k * offset), independent of the absolute position.
    """
    dot_t = float(sinusoidal_pe(d_model, t) @ sinusoidal_pe(d_model, t + offset))
    dot_s = float(sinusoidal_pe(d_model, s) @ sinusoidal_pe(d_model, s + offset))
    reference = float(np.cos(pe_frequencies(d_model) * offset).sum())
    return max(abs(dot_t - reference), abs(dot_s - reference), abs(dot_t - dot_s))


def check_pe(trials=1000, d_model=None, seed=0):
    """Worst deviation over random (d_model, t, s, offset) draws."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = d_model if d_model is not None else 2 * int(rng.integers(1, 129))
        t, s = (int(rng.integers(0, 10000)) for _ in range(2))
        offset = int(rng.integers(0, 1000))
        worst = max(worst, pe_dot_invariance(d, t, s, offset))
    return worst


# ---------------------------------------------------------------------------
# scaling benchmark


def bench_forward_seconds(model, repetitions, include_backward=False, seed=0):
    """Median/mean wall time of one forward pass on one batch of the model's
    configured size, or with `include_backward` of one full `train_step`
    (forward, loss, backward, Adam); warm-up excluded."""
    rng = np.random.default_rng(seed)
    config = model.config
    inputs = rng.normal(size=addressable((config.batch_size, config.lookback,
                                          model.channels))).astype(np.float32)
    if include_backward:
        targets = rng.normal(size=addressable((config.batch_size, config.pred_len,
                                               model.channels))).astype(np.float32)
        optimizer = Adam(model.named_parameters(), config.lr)

        def run():
            train_step(model, optimizer, inputs, targets, rng)
    else:
        x = Tensor(inputs)

        def run():
            with T.no_grad():
                model.forward(x)

    run()  # warm-up: first call pays allocation and cache costs
    times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return statistics.median(times), statistics.fmean(times)


def scaling_bench(lookbacks, windows, d_model=64, channels=3, conv_channels=16,
                  e_layers=1, heads=4, repetitions=5, batch_size=1,
                  include_backward=False, seed=0):
    """Time the forward pass (or a training step) across lookbacks; ratios
    come from medians.

    At least three distinct points are needed to see a trend. Each point's
    config is checked as it is built, the smallest lookback's first, so a
    lookback below the top window stops the bench before any timing.
    """
    lookbacks = sorted(int(v) for v in lookbacks)
    if len(lookbacks) < 3:
        raise ConfigError("need at least 3 lookback values")
    if len(set(lookbacks)) < len(lookbacks):
        raise ConfigError(f"lookbacks must be distinct, got {lookbacks}")

    rows = []
    prev_median = None
    for lookback in lookbacks:
        config = RunConfig(lookback=lookback, pred_len=24,
                           pyramidal_windows=tuple(windows), e_layers=e_layers,
                           d_model=d_model, heads=heads,
                           conv_channels=conv_channels, dropout=0.0,
                           batch_size=batch_size, seed=seed)
        model = PRformer(config, channels)
        median_s, mean_s = bench_forward_seconds(model, repetitions,
                                                 include_backward, seed)
        ratio = None if prev_median is None else median_s / prev_median
        rows.append({"lookback": lookback, "median_s": median_s,
                     "mean_s": mean_s, "ratio": ratio})
        prev_median = median_s
    return rows


BENCH_COLUMNS = ["lookback", "median_s", "mean_s", "ratio"]
