"""Whole-model invariants the README promises, as property tests.

Each property is drawn over small random configs for every variant, with
lookbacks that leave a conv tail (a lookback that is not a whole number of
patches) and non-whole upsample ratios (levels of 7 and 3 steps). They hold
for any layout the pyramid is computed in, so they guard layout rewrites.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prformer.config import RunConfig
from prformer.model import PRformer
from prformer.tensor import Tensor, no_grad

VARIANTS = ("full", "V1", "V2", "V3")
# ascending windows whose kernels are all at least 2
WINDOWS = ((3,), (2, 4), (2, 6), (2, 4, 8), (3, 6, 12))
PROPERTY = settings(derandomize=True, max_examples=8, deadline=None, database=None)


@st.composite
def configs(draw, variant):
    windows = draw(st.sampled_from(WINDOWS))
    heads = draw(st.sampled_from((1, 2)))
    return RunConfig(lookback=draw(st.integers(windows[-1], 3 * windows[-1] + 5)),
                     pred_len=draw(st.integers(1, 4)), pyramidal_windows=windows,
                     d_model=heads * draw(st.integers(3, 4)), heads=heads,
                     conv_channels=draw(st.integers(1, 3)), dropout=0.0,
                     variant=variant, seed=draw(st.integers(0, 2 ** 16)))


# windows 2/4/8 at lookback 15: every level leaves a tail, and levels of 7, 3
# and 1 steps give the upsample ratios 7/3 and 3/1
PINNED = RunConfig(lookback=15, pred_len=3, pyramidal_windows=(2, 4, 8), d_model=6,
                   heads=2, conv_channels=2, dropout=0.0, seed=5)


def forecast(model, x):
    with no_grad():
        return model.forward(Tensor(x.astype(np.float32))).data


def model_for(config, variant, gamma):
    """A model of `variant` over len(gamma) channels whose RevIN affine is not
    the identity, so that channel order and scale reach the forecast through
    gamma and beta too."""
    model = PRformer(replace(config, variant=variant), len(gamma))
    model.params.revin.gamma.data[:] = gamma
    model.params.revin.beta.data[:] = -0.5 * gamma
    return model


def channel_values(channels):
    return np.linspace(0.6, 1.8, channels).astype(np.float32)


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY
@given(data=st.data())
@example(data=None)
def test_forecast_does_not_depend_on_the_rest_of_the_batch(variant, data):
    # bitwise equal today, but for a tiny V2 width (d_model 3 over lookback
    # 40), where BLAS picks another kernel for a batch of one and moves the
    # last bit
    config = PINNED if data is None else data.draw(configs(variant))
    channels = 3 if data is None else data.draw(st.integers(1, 3))
    batch = 4 if data is None else data.draw(st.integers(2, 5))
    model = model_for(config, variant, channel_values(channels))
    x = np.random.default_rng(config.seed).normal(size=(batch, config.lookback, channels))
    together = forecast(model, x)
    for i in range(batch):
        np.testing.assert_allclose(forecast(model, x[i:i + 1]), together[i:i + 1],
                                   rtol=0, atol=1e-6)


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY
@given(data=st.data())
@example(data=None)
def test_permuting_channels_permutes_the_forecast(variant, data):
    config = PINNED if data is None else data.draw(configs(variant))
    channels = 3 if data is None else data.draw(st.integers(2, 4))
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(channels)
    gamma = channel_values(channels)
    model = model_for(config, variant, gamma)
    x = rng.normal(size=(2, config.lookback, channels))
    want = forecast(model, x)[:, :, perm]
    model.params.revin.gamma.data[:] = gamma[perm]
    model.params.revin.beta.data[:] = -0.5 * gamma[perm]
    np.testing.assert_allclose(forecast(model, x[:, :, perm]), want, rtol=0, atol=1e-5)


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY
@given(data=st.data())
@example(data=None)
def test_forecast_follows_an_affine_map_of_the_input(variant, data):
    # f(a x + b) = a f(x) + b for a > 0; RevIN's variance floor EPS makes the
    # map exact only up to about EPS / var relative to a, and every window
    # here has var 1
    config = PINNED if data is None else data.draw(configs(variant))
    a = 3.0 if data is None else data.draw(st.floats(0.5, 4.0))
    b = -2.0 if data is None else data.draw(st.floats(-5.0, 5.0))
    model = model_for(config, variant, channel_values(2))
    x = np.random.default_rng(config.seed).normal(size=(3, config.lookback, 2))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    base = forecast(model, x)
    moved = forecast(model, (a * x + b).astype(np.float32))
    np.testing.assert_allclose(moved, a * base + b, rtol=0, atol=2e-4 * a)
