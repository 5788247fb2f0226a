"""Kernel checks: hand-worked values, independent numpy references, and
finite-difference gradients for every kernel."""

import dataclasses

import numpy as np
import pytest

import oracles
from prformer import nn, tensor as T
from prformer.nn import GRUParams, LinearParams, MHAParams
from prformer.tensor import Tape, backward, grad_check, tensor

GRAD_TOL = 1e-6


def f64(x, requires_grad=False):
    return tensor(np.asarray(x, dtype=np.float64), requires_grad=requires_grad)


def scalar_gru(wz=0.0, uz=0.0, bz=0.0, wr=0.0, ur=0.0, br=0.0,
               wh=0.0, uh=0.0, bh=0.0):
    mk = lambda v: f64([[v]])
    return GRUParams(wz=mk(wz), uz=mk(uz), bz=f64([bz]),
                     wr=mk(wr), ur=mk(ur), br=f64([br]),
                     wh=mk(wh), uh=mk(uh), bh=f64([bh]))


class TestLinear:
    def test_matches_affine_map(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=(5,))
        out = nn.linear(f64(x), LinearParams(f64(w), f64(b)))
        np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        params = LinearParams(f64(rng.normal(size=(3, 2))), f64(rng.normal(size=(2,))))
        err = grad_check(lambda t: T.sum_(T.tanh(nn.linear(t, params))),
                         f64(rng.normal(size=(4, 3))))
        assert err < GRAD_TOL


class TestConv1d:
    def test_known_non_overlapping_value(self):
        x = f64([[[1.0, 2.0, 3.0, 4.0]]])
        w = f64([[[1.0, 1.0]]])
        out = nn.conv1d(x, w)
        np.testing.assert_allclose(out.data, [[[3.0, 7.0]]])

    def test_matches_numpy_correlate_stride_one(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=16)
        w = rng.normal(size=5)
        out = oracles.conv1d(f64(x[None, None, :]), f64(w[None, None, :]), stride=1)
        np.testing.assert_allclose(out.data[0, 0], np.correlate(x, w, mode="valid"),
                                   rtol=1e-10)

    def test_output_length_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            length = int(rng.integers(4, 40))
            k = int(rng.integers(1, length + 1))
            stride = int(rng.integers(1, k + 1))
            x = f64(rng.normal(size=(2, 3, length)))
            w = f64(rng.normal(size=(4, 3, k)))
            out = oracles.conv1d(x, w, stride=stride)
            assert out.shape == (2, 4, (length - k) // stride + 1)
            assert nn.conv1d(x, w).shape == (2, 4, length // k)

    def test_bias_is_per_output_channel(self):
        x = f64(np.zeros((1, 1, 6)))
        w = f64(np.zeros((2, 1, 3)))
        b = f64([1.5, -2.0])
        out = nn.conv1d(x, w, b)
        np.testing.assert_allclose(out.data[0, :, 0], [1.5, -2.0])

    def test_gradients_all_inputs(self):
        # the strided oracle itself, at every stride the fused kernel is held to
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 10))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=(4,))
        for stride in (1, 2, 3):
            err = grad_check(
                lambda t: T.sum_(T.tanh(oracles.conv1d(t, f64(w), f64(b), stride=stride))),
                f64(x))
            assert err < GRAD_TOL, f"x grad, stride {stride}"
            err = grad_check(
                lambda t: T.sum_(T.tanh(oracles.conv1d(f64(x), t, f64(b), stride=stride))),
                f64(w))
            assert err < GRAD_TOL, f"w grad, stride {stride}"
        err = grad_check(lambda t: T.sum_(oracles.conv1d(f64(x), f64(w), t, stride=2)),
                         f64(b))
        assert err < GRAD_TOL

    @pytest.mark.parametrize("length,k", [(12, 3), (10, 3), (7, 7), (9, 1), (13, 4)])
    def test_patch_gradients_match_finite_differences(self, length, k):
        rng = np.random.default_rng(length * 10 + k)
        x = rng.normal(size=(2, 3, length))
        w = rng.normal(size=(4, 3, k))
        b = rng.normal(size=(4,))
        err = grad_check(lambda t: T.sum_(T.tanh(nn.conv1d(t, f64(w), f64(b)))), f64(x))
        assert err < GRAD_TOL, "x grad"
        err = grad_check(lambda t: T.sum_(T.tanh(nn.conv1d(f64(x), t, f64(b)))), f64(w))
        assert err < GRAD_TOL, "w grad"
        err = grad_check(lambda t: T.sum_(T.tanh(nn.conv1d(f64(x), f64(w), t))), f64(b))
        assert err < GRAD_TOL, "b grad"

    @pytest.mark.parametrize("length,k", [(24, 4), (26, 4), (15, 5), (17, 16), (6, 1)])
    def test_patch_conv_matches_strided_oracle(self, length, k):
        rng = np.random.default_rng(length * 100 + k)
        x0 = rng.normal(size=(3, 2, length))
        w0 = rng.normal(size=(5, 2, k))
        b0 = rng.normal(size=(5,))
        proj = f64(rng.normal(size=(3, 5, length // k)))
        results = []
        for conv, kwargs in ((nn.conv1d, {}), (oracles.conv1d, {"stride": k})):
            x, w, b = f64(x0, True), f64(w0, True), f64(b0, True)
            out = conv(x, w, b, **kwargs)
            backward(T.sum_(T.mul(out, proj)))
            results.append((out.data, x.grad, w.grad, b.grad))
        for name, fused, ref in zip(("out", "x", "w", "b"), *results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6, err_msg=name)
        if length % k:
            assert np.all(results[0][1][:, :, length // k * k:] == 0.0)

    def test_shape_validation(self):
        with pytest.raises(T.ShapeMismatchError, match="conv1d"):
            nn.conv1d(f64(np.zeros((1, 2, 8))), f64(np.zeros((3, 4, 2))))
        with pytest.raises(T.ShapeMismatchError, match="conv1d"):
            nn.conv1d(f64(np.zeros((1, 1, 4))), f64(np.zeros((1, 1, 5))))

    def test_appears_as_one_tape_op(self):
        x = tensor(np.ones((1, 1, 8)), requires_grad=True)
        out = nn.conv1d(x, tensor(np.ones((2, 1, 4))))
        assert Tape.trace(T.sum_(out)).op_ids() == ["conv1d", "sum"]


class TestUpsampleRepeat:
    def test_doubling_repeats_each_step(self):
        x = f64([[[1.0, 2.0]]])
        out = nn.upsample_repeat(x, 4)
        np.testing.assert_allclose(out.data, [[[1.0, 1.0, 2.0, 2.0]]])

    def test_uneven_lengths_cover_whole_target(self):
        x = f64(np.arange(7, dtype=np.float64)[None, None, :])
        out = nn.upsample_repeat(x, 15)
        assert out.shape == (1, 1, 15)
        # zero-order hold: non-decreasing, first/last preserved
        vals = out.data[0, 0]
        assert vals[0] == 0.0 and vals[-1] == 6.0
        assert np.all(np.diff(vals) >= 0)

    def test_backward_sums_repeats(self):
        x = tensor(np.ones((1, 1, 2)), requires_grad=True)
        backward(T.sum_(nn.upsample_repeat(x, 5)))
        # index map 0,0,0,1,1 -> counts 3,2
        np.testing.assert_allclose(x.grad, [[[3.0, 2.0]]])

    def test_gradient(self):
        rng = np.random.default_rng(15)
        weight = f64(rng.normal(size=(1, 2, 9)))
        err = grad_check(
            lambda t: T.sum_(T.mul(nn.upsample_repeat(t, 9), weight)),
            f64(rng.normal(size=(1, 2, 4))))
        assert err < GRAD_TOL

    def test_gradient_exact_ratio(self):
        # whole-number ratios take the reshape-sum path, the rest bincount
        rng = np.random.default_rng(16)
        for target in (4, 12):
            weight = f64(rng.normal(size=(2, 3, target)))
            err = grad_check(
                lambda t: T.sum_(T.mul(nn.upsample_repeat(t, target), weight)),
                f64(rng.normal(size=(2, 3, 4))))
            assert err < GRAD_TOL, target

    def test_target_shorter_than_input_rejected(self):
        with pytest.raises(T.ShapeMismatchError, match="upsample"):
            nn.upsample_repeat(f64(np.zeros((1, 1, 8))), 4)


GRU_FIELDS = tuple(f.name for f in dataclasses.fields(GRUParams))


def f64_gru(params, requires_grad=False):
    return GRUParams(**{name: f64(getattr(params, name).data, requires_grad)
                        for name in GRU_FIELDS})


class TestGRU:
    def test_hand_worked_step(self):
        # z = sigmoid(0) = 0.5, candidate = tanh(1), h_prev = 0
        params = scalar_gru(wh=1.0)
        h = oracles.gru_step(f64([[1.0]]), f64([[0.0]]), params)
        np.testing.assert_allclose(h.data, [[0.5 * np.tanh(1.0)]], atol=1e-12)
        np.testing.assert_allclose(h.data, [[0.380797]], atol=1e-6)
        fused = nn.gru_forward(f64([[[1.0]]]), params)
        np.testing.assert_allclose(fused.data, h.data, atol=1e-12)

    def test_reset_gate_blocks_history_in_candidate(self):
        # r ~ 0 (large negative br): candidate ignores h_prev, z ~ 1 (large bz)
        params = scalar_gru(bz=50.0, br=-50.0, uh=5.0, wh=1.0)
        h = oracles.gru_step(f64([[0.5]]), f64([[0.9]]), params)
        np.testing.assert_allclose(h.data, [[np.tanh(0.5)]], atol=1e-6)

    def test_update_gate_zero_keeps_state(self):
        params = scalar_gru(bz=-50.0, wh=1.0)
        h = oracles.gru_step(f64([[1.0]]), f64([[0.7]]), params)
        np.testing.assert_allclose(h.data, [[0.7]], atol=1e-6)

    def test_sequence_matches_stepwise_reference(self):
        rng = np.random.default_rng(16)
        params = f64_gru(nn.init_gru(rng, 3, 4), requires_grad=True)
        x = rng.normal(size=(6, 2, 3))
        fast = nn.gru_forward(f64(x), params)
        h = f64(np.zeros((2, 4)))
        for t in range(6):
            h = oracles.gru_step(f64(x[t]), h, params)
        np.testing.assert_allclose(fast.data, h.data, rtol=1e-10)

    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_composed_oracle_with_gradients(self, t_len):
        rng = np.random.default_rng(60 + t_len)
        base = nn.init_gru(rng, 3, 5)
        x0 = rng.normal(size=(t_len, 4, 3))
        proj = f64(rng.normal(size=(4, 5)))
        results = []
        for gru in (nn.gru_forward, oracles.gru_forward):
            x, params = f64(x0, True), f64_gru(base, requires_grad=True)
            out = gru(x, params)
            backward(T.sum_(T.mul(out, proj)))
            results.append([out.data, x.grad] + [getattr(params, n).grad for n in GRU_FIELDS])
        for name, fused, ref in zip(("out", "x") + GRU_FIELDS, *results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6, err_msg=name)

    def test_matches_pure_numpy_recurrence(self):
        rng = np.random.default_rng(17)
        params = nn.init_gru(rng, 2, 3)
        x = rng.normal(size=(5, 1, 2))
        out = nn.gru_forward(tensor(x.astype(np.float32)), params)

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        g = lambda name: getattr(params, name).data.astype(np.float64)
        h = np.zeros((1, 3))
        for t in range(5):
            z = sig(x[t] @ g("wz") + h @ g("uz") + g("bz"))
            r = sig(x[t] @ g("wr") + h @ g("ur") + g("br"))
            cand = np.tanh(x[t] @ g("wh") + (r * h) @ g("uh") + g("bh"))
            h = (1.0 - z) * h + z * cand
        np.testing.assert_allclose(out.data, h, atol=1e-5)

    def test_rejects_unbatched_input_and_initial_state(self):
        params = nn.init_gru(np.random.default_rng(18), 2, 3)
        with pytest.raises(T.ShapeMismatchError, match="gru"):
            nn.gru_forward(tensor(np.zeros((4, 2), dtype=np.float32)), params)
        with pytest.raises(T.ShapeMismatchError, match="gru"):
            nn.gru_forward(tensor(np.zeros((4, 1, 3), dtype=np.float32)), params)
        with pytest.raises(TypeError):
            nn.gru_forward(tensor(np.zeros((4, 1, 2), dtype=np.float32)), params,
                           tensor(np.ones((1, 3), dtype=np.float32)))

    def test_appears_as_one_tape_op(self):
        params = nn.init_gru(np.random.default_rng(22), 2, 3)
        x = tensor(np.ones((6, 1, 2)), requires_grad=True)
        tape = Tape.trace(T.sum_(nn.gru_forward(x, params)))
        assert tape.op_ids() == ["gru_sequence", "sum"]

    def test_gradient_through_time(self):
        rng = np.random.default_rng(19)
        params = f64_gru(nn.init_gru(rng, 2, 3))
        err = grad_check(lambda t: T.sum_(nn.gru_forward(t, params)),
                         f64(rng.normal(size=(4, 2, 2))))
        assert err < GRAD_TOL

    def test_gradient_wrt_recurrent_weight(self):
        rng = np.random.default_rng(20)
        base = nn.init_gru(rng, 2, 3)
        x = f64(rng.normal(size=(4, 1, 2)))

        def f(t):
            params = f64_gru(base)
            params.uh = t
            return T.sum_(nn.gru_forward(x, params))

        err = grad_check(f, f64(base.uh.data))
        assert err < GRAD_TOL

    @pytest.mark.parametrize("name", GRU_FIELDS)
    def test_gradient_wrt_each_weight(self, name):
        rng = np.random.default_rng(23)
        base = nn.init_gru(rng, 2, 3)
        x = f64(rng.normal(size=(5, 2, 2)))
        proj = f64(rng.normal(size=(2, 3)))

        def f(t):
            params = f64_gru(base)
            setattr(params, name, t)
            return T.sum_(T.mul(nn.gru_forward(x, params), proj))

        err = grad_check(f, f64(getattr(base, name).data))
        assert err < GRAD_TOL, name


class TestLayerNorm:
    def test_known_value(self):
        out = nn.layer_norm(f64([1.0, 2.0, 3.0]), f64([1.0, 1.0, 1.0]),
                            f64([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [-1.224745, 0.0, 1.224745], atol=1e-4)

    def test_matches_numpy_formula(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 5, 8))
        gamma = rng.normal(size=(8,))
        beta = rng.normal(size=(8,))
        out = nn.layer_norm(f64(x), f64(gamma), f64(beta))
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_normalized_moments(self):
        rng = np.random.default_rng(22)
        x = rng.normal(loc=7.0, scale=3.0, size=(4, 64))
        out = nn.layer_norm(f64(x), f64(np.ones(64)), f64(np.zeros(64)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient(self):
        rng = np.random.default_rng(23)
        gamma = f64(rng.normal(size=(6,)))
        beta = f64(rng.normal(size=(6,)))
        err = grad_check(lambda t: T.sum_(T.tanh(nn.layer_norm(t, gamma, beta))),
                         f64(rng.normal(size=(3, 6))))
        assert err < GRAD_TOL


class TestSoftmax:
    def test_known_value(self):
        out = nn.softmax(f64([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=(3, int(rng.integers(2, 9))))
            out = nn.softmax(f64(x), axis=-1)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out.data >= 0)

    def test_shift_invariance_and_stability(self):
        x = np.array([1.0, 2.0, 3.0])
        a = nn.softmax(f64(x)).data
        b = nn.softmax(f64(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(np.isfinite(b))

    def test_temperature_known_value(self):
        out = nn.softmax_temp(f64([0.2, 0.1]), 0.05)
        # gap 0.1 at T 0.05 -> sigmoid(2)
        expected = 1.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(out.data, [expected, 1.0 - expected], atol=1e-9)

    def test_low_temperature_sharpens_to_argmax(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            logits = rng.normal(size=5)
            logits[rng.integers(5)] += 0.3  # ensure a clear winner
            out = nn.softmax_temp(f64(logits), 1e-3).data
            onehot = np.zeros(5)
            onehot[np.argmax(logits)] = 1.0
            np.testing.assert_allclose(out, onehot, atol=1e-6)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            nn.softmax_temp(f64([1.0]), 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(26)
        w = f64(rng.normal(size=(4,)))
        err = grad_check(lambda t: T.sum_(T.mul(nn.softmax_temp(t, 0.7), w)),
                         f64(rng.normal(size=(4,))))
        assert err < GRAD_TOL


class TestMultiHeadAttention:
    @staticmethod
    def params(rng, d):
        raw = nn.init_mha(rng, d)
        fields = {f.name: f64(getattr(raw, f.name).data)
                  for f in dataclasses.fields(raw)}
        return MHAParams(**fields)

    def test_output_shape_and_row_stochastic_probs(self):
        rng = np.random.default_rng(27)
        params = self.params(rng, 8)
        x = f64(rng.normal(size=(2, 5, 8)))
        out, probs = nn.multi_head_attention(x, params, heads=2)
        assert out.shape == (2, 5, 8)
        assert probs.shape == (2, 2, 5, 5)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_zero_queries_give_uniform_attention(self):
        rng = np.random.default_rng(28)
        params = self.params(rng, 4)
        params.wq.data[:] = 0.0
        params.bq.data[:] = 0.0
        _, probs = nn.multi_head_attention(f64(rng.normal(size=(1, 6, 4))), params, heads=2)
        np.testing.assert_allclose(probs.data, 1.0 / 6.0, atol=1e-12)

    def test_single_head_matches_numpy_reference(self):
        rng = np.random.default_rng(29)
        d = 4
        params = self.params(rng, d)
        x = rng.normal(size=(1, 3, d))
        out, _ = nn.multi_head_attention(f64(x), params, heads=1)

        g = lambda n: getattr(params, n).data
        q = x @ g("wq") + g("bq")
        k = x @ g("wk") + g("bk")
        v = x @ g("wv") + g("bv")
        s = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        expected = (p @ v) @ g("wo") + g("bo")
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_heads_must_divide_width(self):
        rng = np.random.default_rng(30)
        with pytest.raises(ValueError, match="divisible"):
            nn.multi_head_attention(f64(rng.normal(size=(1, 3, 6))),
                                    self.params(rng, 6), heads=4)

    def test_gradient(self):
        rng = np.random.default_rng(31)
        params = self.params(rng, 4)
        err = grad_check(
            lambda t: T.mean(nn.multi_head_attention(t, params, heads=2)[0]),
            f64(rng.normal(size=(1, 3, 4))))
        assert err < GRAD_TOL

    def test_gradient_wrt_projection(self):
        rng = np.random.default_rng(32)
        base = self.params(rng, 4)
        x = f64(rng.normal(size=(1, 3, 4)))

        def f(t):
            fields = {f.name: f64(getattr(base, f.name).data)
                      for f in dataclasses.fields(base)}
            fields["wv"] = t
            return T.mean(nn.multi_head_attention(x, MHAParams(**fields), heads=2)[0])

        assert grad_check(f, f64(base.wv.data)) < GRAD_TOL


class TestParamPlumbing:
    def test_iter_params_order_is_field_order(self):
        rng = np.random.default_rng(33)
        gru = nn.init_gru(rng, 2, 3)
        names = [n for n, _ in nn.iter_params(gru, "gru")]
        assert names == ["gru.wz", "gru.uz", "gru.bz", "gru.wr", "gru.ur",
                         "gru.br", "gru.wh", "gru.uh", "gru.bh"]

    def test_iter_params_walks_lists_and_dicts(self):
        rng = np.random.default_rng(34)
        tree = {"layers": [nn.init_linear(rng, 2, 2), nn.init_linear(rng, 2, 2)]}
        names = [n for n, _ in nn.iter_params(tree)]
        assert names == ["layers.0.w", "layers.0.b", "layers.1.w", "layers.1.b"]

    def test_init_bounds(self):
        rng = np.random.default_rng(35)
        lin = nn.init_linear(rng, 16, 8)
        assert np.all(np.abs(lin.w.data) <= 0.25)
        gru = nn.init_gru(rng, 4, 16)
        assert np.all(np.abs(gru.uh.data) <= 0.25)
        assert all(p.requires_grad for _, p in nn.iter_params(gru))
