"""Instance-normalization checks: hand values, the round-trip inverse,
moment contracts, and gradient flow through the window statistics."""

import numpy as np
import pytest

from prformer import revin, tensor as T
from prformer.tensor import backward, grad_check, tensor


def neutral(channels):
    return revin.init_revin(channels)


class TestNormalize:
    def test_hand_standardization(self):
        x = tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        out, _ = revin.normalize(x, neutral(1))
        np.testing.assert_allclose(out.data[:, 0], [-1.22474, 0.0, 1.22474],
                                   atol=1e-4)

    def test_constant_channel_guarded_by_eps(self):
        x = tensor(np.full((4, 1), 5.0, dtype=np.float32))
        out, state = revin.normalize(x, neutral(1))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)
        assert state.sigma.data.min() >= np.sqrt(revin.EPS) * 0.999

    def test_affine_applies_after_standardization(self):
        params = neutral(1)
        params.gamma.data[:] = 2.0
        params.beta.data[:] = 1.0
        x = tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        out, _ = revin.normalize(x, params)
        np.testing.assert_allclose(out.data[:, 0],
                                   [1 - 2 * 1.22474, 1.0, 1 + 2 * 1.22474], atol=1e-4)

    def test_moments_match_affine_targets(self):
        rng = np.random.default_rng(80)
        params = neutral(3)
        params.gamma.data[:] = [1.0, -2.0, 0.5]
        params.beta.data[:] = [0.0, 1.0, -3.0]
        x = tensor(rng.normal(loc=50.0, scale=9.0, size=(1, 400, 3)).astype(np.float32))
        out, _ = revin.normalize(x, params)
        np.testing.assert_allclose(out.data.mean(axis=1)[0], params.beta.data,
                                   atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=1)[0],
                                   np.abs(params.gamma.data), atol=1e-3)

    def test_affine_maps_targets_like_inputs(self):
        # the normalized-loss target runs the same affine as `normalize`
        rng = np.random.default_rng(24)
        params = neutral(2)
        params.gamma.data[:] = [1.5, -0.5]
        params.beta.data[:] = [0.25, 2.0]
        x = tensor(rng.normal(size=(3, 7, 2)).astype(np.float32))
        x_norm, state = revin.normalize(x, params)
        again = revin.affine(T.sub(x, state.mu), state.sigma, params)
        np.testing.assert_array_equal(again.data, x_norm.data)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            revin.normalize(tensor(np.zeros((1, 1, 3), dtype=np.float32)), neutral(3))

    def test_batched_state_shapes(self):
        rng = np.random.default_rng(81)
        x = tensor(rng.normal(size=(4, 12, 3)).astype(np.float32))
        out, state = revin.normalize(x, neutral(3))
        assert out.shape == (4, 12, 3)
        assert state.mu.shape == (4, 1, 3)
        assert state.sigma.shape == (4, 1, 3)


class TestDenormalize:
    def test_round_trip_many_windows(self):
        rng = np.random.default_rng(82)
        params = neutral(5)
        params.gamma.data[:] = rng.uniform(0.5, 2.0, size=5)
        params.beta.data[:] = rng.normal(size=5)
        worst = 0.0
        for _ in range(100):
            x = tensor((rng.normal(size=(10, 24, 5))
                        * rng.uniform(0.1, 10.0)).astype(np.float32))
            normed, state = revin.normalize(x, params)
            back = revin.denormalize(normed, state, params)
            worst = max(worst, float(np.abs(back.data - x.data).max()))
        assert worst < 1e-5, worst

    def test_neutral_state_is_identity(self):
        state = revin.RevinState(mu=tensor(np.zeros((1, 1, 2), dtype=np.float32)),
                                 sigma=tensor(np.ones((1, 1, 2), dtype=np.float32)))
        y = tensor(np.random.default_rng(83).normal(size=(1, 6, 2)).astype(np.float32))
        out = revin.denormalize(y, state, neutral(2))
        np.testing.assert_allclose(out.data, y.data)

    def test_zero_forecast_maps_to_window_mean(self):
        rng = np.random.default_rng(84)
        x = tensor(rng.normal(loc=3.0, size=(2, 16, 3)).astype(np.float32))
        _, state = revin.normalize(x, neutral(3))
        out = revin.denormalize(tensor(np.zeros((2, 4, 3), dtype=np.float32)),
                                state, neutral(3))
        np.testing.assert_allclose(out.data, np.broadcast_to(state.mu.data, (2, 4, 3)),
                                   atol=1e-6)


class TestGradients:
    def test_stats_stay_in_graph(self):
        # with mu and sigma in the graph, d/dx sum((x - mu)/sigma) is exactly 0;
        # detached statistics would leave 1/sigma per element
        x = tensor(np.random.default_rng(85).normal(size=(1, 8, 2)), dtype=np.float64,
                   requires_grad=True)
        out, _ = revin.normalize(x, neutral(2))
        backward(T.sum_(out))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_normalize_gradient(self):
        rng = np.random.default_rng(86)
        params = neutral(2)

        def f(t):
            out, _ = revin.normalize(t, params)
            return T.sum_(T.tanh(out))

        err = grad_check(f, tensor(rng.normal(size=(2, 6, 2)), dtype=np.float64))
        assert err < 1e-6

    def test_round_trip_gradient_through_stats(self):
        rng = np.random.default_rng(87)
        params = neutral(2)
        w = tensor(rng.normal(size=(2, 3, 2)), dtype=np.float64)

        def f(t):
            normed, state = revin.normalize(t, params)
            head = T.narrow(normed, 1, 0, 3)
            return T.sum_(T.mul(revin.denormalize(head, state, params), w))

        err = grad_check(f, tensor(rng.normal(size=(2, 6, 2)), dtype=np.float64))
        assert err < 1e-6


class TestGammaFloor:
    def test_clamp_preserves_sign_and_floors_magnitude(self):
        params = revin.init_revin(4)
        params.gamma.data[:] = [0.5, -1e-9, 1e-9, -2.0]
        revin.clamp_gamma(params)
        np.testing.assert_allclose(params.gamma.data,
                                   [0.5, -revin.GAMMA_FLOOR, revin.GAMMA_FLOOR, -2.0])
        assert np.all(np.abs(params.gamma.data) >= revin.GAMMA_FLOOR)

    def test_zero_gamma_becomes_positive_floor(self):
        params = revin.init_revin(1)
        params.gamma.data[:] = 0.0
        revin.clamp_gamma(params)
        np.testing.assert_allclose(params.gamma.data, [revin.GAMMA_FLOOR])
