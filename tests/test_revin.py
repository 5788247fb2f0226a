"""Instance-normalization checks: hand values, the round-trip inverse,
moment contracts, gradient flow through the window statistics, and the
time-major formula in `oracles` that the time-first kernels must match.

Windows are time first: (L, ..., C) in, (H, ..., C) out."""

import numpy as np
import pytest

import oracles
from oracles import grad_check
from prformer import nn, revin, tensor as T
from prformer.tensor import backward, tensor


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
        assert state.sigma.data.min() >= np.sqrt(nn.EPS) * 0.999

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
        x = tensor(rng.normal(loc=50.0, scale=9.0, size=(400, 1, 3)).astype(np.float32))
        out, _ = revin.normalize(x, params)
        np.testing.assert_allclose(out.data.mean(axis=0)[0], params.beta.data,
                                   atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=0)[0],
                                   np.abs(params.gamma.data), atol=1e-3)

    def test_spread_affine_matches_plain_broadcast(self):
        # gamma and beta spread to the window's (B, C) give bitwise the
        # forward and the gamma/beta gradients of broadcasting the stored
        # (C,) vectors: the gradients still sum over time, then over B
        rng = np.random.default_rng(24)
        x0 = rng.normal(loc=2.0, size=(7, 3, 2)).astype(np.float32)
        scale = tensor(rng.normal(size=(7, 3, 2)).astype(np.float32))
        proj = tensor(rng.normal(size=(7, 3, 2)).astype(np.float32))

        def plain_normalize(x, params):
            centered, mu, sigma = nn.standardize(x, 0)
            x_norm = nn.scale_shift(centered, sigma, params.gamma, params.beta)
            return x_norm, revin.RevinState(mu=mu, sigma=sigma)

        def plain_denormalize(y, state, params):
            unscaled = T.div(T.sub(y, params.beta), params.gamma)
            return T.add(T.mul(unscaled, state.sigma), state.mu)

        results = []
        for norm, denorm in ((revin.normalize, revin.denormalize),
                             (plain_normalize, plain_denormalize)):
            params = neutral(2)
            params.gamma.data[:] = [1.5, -0.5]
            params.beta.data[:] = [-0.0, 2.0]
            x_norm, state = norm(tensor(x0), params)
            y = denorm(T.mul(x_norm, scale), state, params)
            backward(T.sum_(T.mul(y, proj)))
            results.append((x_norm.data, y.data, params.gamma.grad, params.beta.grad))
        for name, got, ref in zip(("x_norm", "y", "gamma", "beta"), *results):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    def test_spread_keeps_negative_zero(self):
        params = neutral(3)
        params.gamma.data[:] = [-0.0, 1.0, -2.0]
        params.beta.data[:] = [-0.0, 0.0, 3.0]
        for stored, spread in zip((params.gamma, params.beta), revin._spread(params, (4, 3))):
            assert spread.shape == (4, 3)
            assert spread.data.tobytes() == np.broadcast_to(stored.data, (4, 3)).tobytes()

    def test_length_two_window_accepted(self):
        # the shortest window with a spread: each channel maps to -1, +1
        x = tensor(np.array([[[1.0, -3.0, 0.5]], [[3.0, 5.0, 0.0]]], dtype=np.float32))
        out, _ = revin.normalize(x, neutral(3))
        np.testing.assert_allclose(out.data[:, 0], [[-1, -1, 1], [1, 1, -1]], atol=1e-4)

    def test_batched_state_shapes(self):
        rng = np.random.default_rng(81)
        x = tensor(rng.normal(size=(12, 4, 3)).astype(np.float32))
        out, state = revin.normalize(x, neutral(3))
        assert out.shape == (12, 4, 3)
        assert state.mu.shape == (1, 4, 3)
        assert state.sigma.shape == (1, 4, 3)


class TestDenormalize:
    def test_round_trip_many_windows(self):
        rng = np.random.default_rng(82)
        params = neutral(5)
        params.gamma.data[:] = rng.uniform(0.5, 2.0, size=5)
        params.beta.data[:] = rng.normal(size=5)
        worst = 0.0
        for _ in range(100):
            x = tensor((rng.normal(size=(24, 10, 5))
                        * rng.uniform(0.1, 10.0)).astype(np.float32))
            normed, state = revin.normalize(x, params)
            back = revin.denormalize(normed, state, params)
            worst = max(worst, float(np.abs(back.data - x.data).max()))
        assert worst < 1e-5, worst

    def test_neutral_state_is_identity(self):
        state = revin.RevinState(mu=tensor(np.zeros((1, 1, 2), dtype=np.float32)),
                                 sigma=tensor(np.ones((1, 1, 2), dtype=np.float32)))
        y = tensor(np.random.default_rng(83).normal(size=(6, 1, 2)).astype(np.float32))
        out = revin.denormalize(y, state, neutral(2))
        np.testing.assert_allclose(out.data, y.data)

    def test_zero_forecast_maps_to_window_mean(self):
        rng = np.random.default_rng(84)
        x = tensor(rng.normal(loc=3.0, size=(16, 2, 3)).astype(np.float32))
        _, state = revin.normalize(x, neutral(3))
        out = revin.denormalize(tensor(np.zeros((4, 2, 3), dtype=np.float32)),
                                state, neutral(3))
        np.testing.assert_allclose(out.data, np.broadcast_to(state.mu.data, (4, 2, 3)),
                                   atol=1e-6)


class TestGradients:
    def test_stats_stay_in_graph(self):
        # with mu and sigma in the graph, d/dx sum((x - mu)/sigma) is exactly 0;
        # detached statistics would leave 1/sigma per element
        x = tensor(np.random.default_rng(85).normal(size=(8, 1, 2)), dtype=np.float64,
                   requires_grad=True)
        out, _ = revin.normalize(x, neutral(2))
        backward(T.sum_(out))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_normalize_gradient(self):
        rng = np.random.default_rng(86)
        params = neutral(2)

        def f(t):
            out, _ = revin.normalize(t, params)
            return T.sum_(oracles.tanh(out))

        err = grad_check(f, tensor(rng.normal(size=(6, 2, 2)), dtype=np.float64))
        assert err < 1e-6

    def test_round_trip_gradient_through_stats(self):
        rng = np.random.default_rng(87)
        params = neutral(2)
        w = tensor(rng.normal(size=(3, 2, 2)), dtype=np.float64)

        def f(t):
            normed, state = revin.normalize(t, params)
            head = oracles.narrow(normed, 0, 0, 3)
            return T.sum_(T.mul(revin.denormalize(head, state, params), w))

        err = grad_check(f, tensor(rng.normal(size=(6, 2, 2)), dtype=np.float64))
        assert err < 1e-6


class TestTimeMajorOracle:
    """Time-first RevIN against the (..., L, C) formula, in float64."""

    def test_normalize_and_denormalize_match_with_gradients(self):
        rng = np.random.default_rng(88)
        x0 = rng.normal(loc=2.0, scale=3.0, size=(3, 10, 4))  # (B, L, C)
        y0 = rng.normal(size=(3, 5, 4))  # (B, H, C)
        gamma0, beta0 = rng.uniform(0.5, 2.0, size=4), rng.normal(size=4)
        proj_x, proj_y = rng.normal(size=x0.shape), rng.normal(size=y0.shape)
        results = []
        for time_first in (True, False):
            x = tensor(x0, dtype=np.float64, requires_grad=True)
            y = tensor(y0, dtype=np.float64, requires_grad=True)
            params = revin.RevinParams(tensor(gamma0, requires_grad=True),
                                       tensor(beta0, requires_grad=True))
            if time_first:
                normed, state = revin.normalize(T.permute(x, (1, 0, 2)), params)
                back = revin.denormalize(T.permute(y, (1, 0, 2)), state, params)
                normed, back = T.permute(normed, (1, 0, 2)), T.permute(back, (1, 0, 2))
            else:
                normed, mu, sigma = oracles.revin_normalize(x, params.gamma, params.beta)
                back = oracles.revin_denormalize(y, mu, sigma, params.gamma, params.beta)
            backward(T.add(T.sum_(T.mul(normed, tensor(proj_x))),
                           T.sum_(T.mul(back, tensor(proj_y)))))
            results.append([normed.data, back.data, x.grad, y.grad,
                            params.gamma.grad, params.beta.grad])
        for name, got, want in zip(("x_norm", "y", "dx", "dy", "dgamma", "dbeta"),
                                   *results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


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
