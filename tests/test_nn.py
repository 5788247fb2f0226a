"""Kernel checks: hand-worked values, independent numpy references, and
finite-difference gradients for every kernel."""

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import Tape, grad_check
from prformer import nn, tensor as T
from prformer.nn import GRUParams, LinearParams, MHAParams
from prformer.tensor import backward, no_grad, tensor

GRAD_TOL = 1e-6


def f64(x, requires_grad=False):
    return tensor(np.asarray(x, dtype=np.float64), requires_grad=requires_grad)


class CountingNumpy:
    """Stands in for a module's `np`: each numpy function it hands out counts
    its calls; types and constants pass through."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


class BroadcastRecordingNumpy:
    """Stands in for a module's `np`: the arrays its `empty`, `empty_like`,
    `repeat` and `array` hand out append to `broadcasts` each elementwise
    ufunc call whose array operands differ in shape; all else passes
    through."""

    def __init__(self):
        self.broadcasts = []
        broadcasts = self.broadcasts

        class Recording(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
                shapes = [a.shape for a in inputs + out if isinstance(a, np.ndarray)]
                if ufunc.signature is None and method == "__call__" and len(set(shapes)) > 1:
                    broadcasts.append((ufunc.__name__, shapes))
                plain = [a.view(np.ndarray) if isinstance(a, Recording) else a
                         for a in inputs + out]
                if out:
                    kwargs["out"] = tuple(plain[len(inputs):])
                result = getattr(ufunc, method)(*plain[:len(inputs)], **kwargs)
                return out[0] if out else result  # out itself: `+=` keeps the class

        self.recording = Recording

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("empty", "empty_like", "repeat", "array"):
            return attr
        return lambda *args, **kwargs: attr(*args, **kwargs).view(self.recording)


def scalar_gru(wz=0.0, uz=0.0, bz=0.0, wr=0.0, ur=0.0, br=0.0,
               wh=0.0, uh=0.0, bh=0.0):
    """A one-unit GRU from per-gate scalars, fused into `GRUParams` layout."""
    return GRUParams(w=f64([[wz, wr, wh]]), u_zr=f64([[uz, ur]]), u_h=f64([[uh]]),
                     b=f64([bz, br, bh]))


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
        err = grad_check(lambda t: T.sum_(oracles.tanh(nn.linear(t, params))),
                         f64(rng.normal(size=(4, 3))))
        assert err < GRAD_TOL


def batch_last(x):
    """Channel-major (B, C, L) <-> the pyramid's (L, C, B), either way."""
    return np.ascontiguousarray(np.transpose(x, (2, 1, 0)))


def kernel_major(w):
    """A (C_out, C_in, K) conv weight as `conv1d` stores it: (C_out, K·C_in)."""
    return w.transpose(0, 2, 1).reshape(w.shape[0], -1)


class TestConv1d:
    def test_known_non_overlapping_value(self):
        x = f64(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        w = f64([[1.0, 1.0]])
        out = nn.conv1d(x, w, f64([0.0]))
        np.testing.assert_allclose(out.data[:, 0, 0], [3.0, 7.0])

    def test_weight_columns_are_kernel_major(self):
        # column j * C_in + c multiplies channel c at patch step j
        x = f64(np.array([[1.0, 10.0], [2.0, 20.0]]).reshape(2, 2, 1))  # (T, C_in, N)
        w = f64([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        out = nn.conv1d(x, w, f64([0.0, 0.0]))
        np.testing.assert_allclose(out.data[0, :, 0], [1.0, 20.0])

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
            x = rng.normal(size=(2, 3, length))
            w = rng.normal(size=(4, 3, k))
            out = oracles.conv1d(f64(x), f64(w), stride=stride)
            assert out.shape == (2, 4, (length - k) // stride + 1)
            out = nn.conv1d(f64(batch_last(x)), f64(kernel_major(w)), f64(np.zeros(4)))
            assert out.shape == (length // k, 4, 2)

    def test_bias_is_per_output_channel(self):
        x = f64(np.zeros((6, 1, 1)))
        w = f64(np.zeros((2, 3)))
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
                lambda t: T.sum_(oracles.tanh(oracles.conv1d(t, f64(w), f64(b), stride=stride))),
                f64(x))
            assert err < GRAD_TOL, f"x grad, stride {stride}"
            err = grad_check(
                lambda t: T.sum_(oracles.tanh(oracles.conv1d(f64(x), t, f64(b), stride=stride))),
                f64(w))
            assert err < GRAD_TOL, f"w grad, stride {stride}"
        err = grad_check(lambda t: T.sum_(oracles.conv1d(f64(x), f64(w), t, stride=2)),
                         f64(b))
        assert err < GRAD_TOL

    @pytest.mark.parametrize("length,k", [(12, 3), (10, 3), (7, 7), (9, 1), (13, 4)])
    def test_patch_gradients_match_finite_differences(self, length, k):
        rng = np.random.default_rng(length * 10 + k)
        x = rng.normal(size=(length, 3, 2))
        w = rng.normal(size=(4, 3 * k))
        b = rng.normal(size=(4,))
        err = grad_check(lambda t: T.sum_(oracles.tanh(nn.conv1d(t, f64(w), f64(b)))), f64(x))
        assert err < GRAD_TOL, "x grad"
        err = grad_check(lambda t: T.sum_(oracles.tanh(nn.conv1d(f64(x), t, f64(b)))), f64(w))
        assert err < GRAD_TOL, "w grad"
        err = grad_check(lambda t: T.sum_(oracles.tanh(nn.conv1d(f64(x), f64(w), t))), f64(b))
        assert err < GRAD_TOL, "b grad"

    @pytest.mark.parametrize("length,k", [(24, 4), (26, 4), (15, 5), (17, 16), (6, 1)])
    def test_patch_conv_matches_strided_oracle(self, length, k):
        # both run on the oracle's channel-major leaves; the kernel reaches
        # them through permutes and the weight refold, recorded on the tape
        rng = np.random.default_rng(length * 100 + k)
        x0 = rng.normal(size=(3, 2, length))
        w0 = rng.normal(size=(5, 2, k))
        b0 = rng.normal(size=(5,))
        proj = f64(rng.normal(size=(3, 5, length // k)))

        def patch_conv(x, w, b):
            w_flat = T.reshape(T.permute(w, (0, 2, 1)), (5, 2 * k))
            return T.permute(nn.conv1d(T.permute(x, (2, 1, 0)), w_flat, b), (2, 1, 0))

        results = []
        for conv in (patch_conv, lambda x, w, b: oracles.conv1d(x, w, b, stride=k)):
            x, w, b = f64(x0, True), f64(w0, True), f64(b0, True)
            out = conv(x, w, b)
            backward(T.sum_(T.mul(out, proj)))
            results.append((out.data, x.grad, w.grad, b.grad))
        for name, fused, ref in zip(("out", "x", "w", "b"), *results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6, err_msg=name)
        if length % k:
            assert np.all(results[0][1][:, :, length // k * k:] == 0.0)

    def test_appears_as_one_tape_op(self):
        x = tensor(np.ones((8, 1, 1)), requires_grad=True)
        out = nn.conv1d(x, tensor(np.ones((2, 4))), tensor(np.zeros(2)))
        assert Tape.trace(T.sum_(out)).op_ids() == ["conv1d", "sum"]


class TestUpsampleRepeat:
    def test_doubling_repeats_each_step(self):
        x = f64(np.array([1.0, 2.0]).reshape(2, 1, 1))
        out = nn.upsample_repeat(x, 4)
        np.testing.assert_allclose(out.data[:, 0, 0], [1.0, 1.0, 2.0, 2.0])

    def test_uneven_lengths_cover_whole_target(self):
        x = f64(np.arange(7, dtype=np.float64).reshape(7, 1, 1))
        out = nn.upsample_repeat(x, 15)
        assert out.shape == (15, 1, 1)
        # zero-order hold: non-decreasing, first/last preserved
        vals = out.data[:, 0, 0]
        assert vals[0] == 0.0 and vals[-1] == 6.0
        assert np.all(np.diff(vals) >= 0)

    def test_backward_sums_repeats(self):
        x = tensor(np.ones((2, 1, 1)), requires_grad=True)
        backward(T.sum_(nn.upsample_repeat(x, 5)))
        # index map 0,0,0,1,1 -> counts 3,2
        np.testing.assert_allclose(x.grad[:, 0, 0], [3.0, 2.0])

    def test_gradient(self):
        rng = np.random.default_rng(15)
        weight = f64(rng.normal(size=(9, 2, 1)))
        err = grad_check(
            lambda t: T.sum_(T.mul(nn.upsample_repeat(t, 9), weight)),
            f64(rng.normal(size=(4, 2, 1))))
        assert err < GRAD_TOL

    def test_gradient_exact_ratio(self):
        # one run sum per input step for every ratio, whole or not
        rng = np.random.default_rng(16)
        for target in (4, 6, 12):
            weight = f64(rng.normal(size=(target, 3, 2)))
            err = grad_check(
                lambda t: T.sum_(T.mul(nn.upsample_repeat(t, target), weight)),
                f64(rng.normal(size=(4, 3, 2))))
            assert err < GRAD_TOL, target

    @pytest.mark.parametrize("l_in,target", [(2, 4), (3, 7), (4, 12), (7, 15), (5, 5)])
    def test_matches_channel_major_oracle(self, l_in, target):
        rng = np.random.default_rng(l_in * 100 + target)
        x0 = rng.normal(size=(2, 3, l_in))
        proj = f64(rng.normal(size=(2, 3, target)))
        results = []
        for up in (lambda x: T.permute(nn.upsample_repeat(T.permute(x, (2, 1, 0)), target),
                                       (2, 1, 0)),
                   lambda x: oracles.upsample_repeat(x, target)):
            x = f64(x0, True)
            out = up(x)
            backward(T.sum_(T.mul(out, proj)))
            results.append((out.data, x.grad))
        for name, fused, ref in zip(("out", "x"), *results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12, err_msg=name)


GRU_FIELDS = tuple(f.name for f in dataclasses.fields(GRUParams))
# each per-gate weight as (fused field, block index); together the nine
# blocks cover every entry of the four fields
GATE_BLOCKS = {"wz": ("w", 0), "uz": ("u_zr", 0), "bz": ("b", 0),
               "wr": ("w", 1), "ur": ("u_zr", 1), "br": ("b", 1),
               "wh": ("w", 2), "uh": ("u_h", 0), "bh": ("b", 2)}


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
        fused = nn.gru_forward(f64([[[1.0]]]), params)  # (T, in, B) = (1, 1, 1)
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
        x = rng.normal(size=(6, 3, 2))  # (T, in, B)
        fast = nn.gru_forward(f64(x), params)
        h = f64(np.zeros((2, 4)))
        for t in range(6):
            h = oracles.gru_step(f64(x[t].T), h, params)
        np.testing.assert_allclose(fast.data, h.data, rtol=1e-10)

    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_composed_oracle_with_gradients(self, t_len):
        rng = np.random.default_rng(60 + t_len)
        base = nn.init_gru(rng, 3, 5)
        x0 = rng.normal(size=(t_len, 3, 4))
        proj = f64(rng.normal(size=(4, 5)))
        results = []
        for gru in (nn.gru_forward, oracles.gru_forward):
            x, params = f64(x0, True), f64_gru(base, requires_grad=True)
            out = gru(x, params)
            backward(T.sum_(T.mul(out, proj)))
            results.append([out.data, x.grad] + [getattr(params, n).grad for n in GRU_FIELDS])
        for name, fused, ref in zip(("out", "x") + GRU_FIELDS, *results):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6, err_msg=name)
        with no_grad():
            unrecorded = nn.gru_forward(f64(x0), f64_gru(base))
        assert unrecorded.data.tobytes() == results[0][0].tobytes()

    def test_matches_pure_numpy_recurrence(self):
        rng = np.random.default_rng(17)
        params = nn.init_gru(rng, 2, 3)
        x = rng.normal(size=(5, 2, 1))
        out = nn.gru_forward(tensor(x.astype(np.float32)), params)
        with no_grad():
            unrecorded = nn.gru_forward(tensor(x.astype(np.float32)), params)
        assert out.requires_grad and not unrecorded.requires_grad
        assert unrecorded.data.tobytes() == out.data.tobytes()

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        w, u_zr, u_h, b = (getattr(params, n).data.astype(np.float64) for n in GRU_FIELDS)
        z_, r_, h_ = slice(0, 3), slice(3, 6), slice(6, 9)
        h = np.zeros((1, 3))
        for t in range(5):
            z = sig(x[t].T @ w[:, z_] + h @ u_zr[:, z_] + b[z_])
            r = sig(x[t].T @ w[:, r_] + h @ u_zr[:, r_] + b[r_])
            cand = np.tanh(x[t].T @ w[:, h_] + (r * h) @ u_h + b[h_])
            h = (1.0 - z) * h + z * cand
        np.testing.assert_allclose(out.data, h, atol=1e-5)

    def test_rejects_unbatched_input_and_initial_state(self):
        params = nn.init_gru(np.random.default_rng(18), 2, 3)
        with pytest.raises(TypeError):
            nn.gru_forward(tensor(np.zeros((4, 2, 1), dtype=np.float32)), params,
                           tensor(np.ones((1, 3), dtype=np.float32)))

    def test_unrecorded_run_keeps_no_history(self):
        # T=200 steps: the recorded run keeps h_0..h_T, the gates and the
        # candidates, (4T + 1) * H * B values; the unrecorded run keeps,
        # whatever T, one step's projections (3H, B), the halved bias spread
        # over the batch (3H, B), the halved (H, 2H) recurrent weights and a
        # ring of two state slots, one gate slot, one candidate slot and one
        # step buffer, 6 * H * B values
        rng = np.random.default_rng(24)
        t_len, batch, hidden = 200, 64, 32
        params = f64_gru(nn.init_gru(rng, 4, hidden), requires_grad=True)
        x = f64(rng.normal(size=(t_len, 4, batch)))
        peaks = {}
        for mode in ("recorded", "no_grad"):
            tracemalloc.start()
            with no_grad() if mode == "no_grad" else contextlib.nullcontext():
                out = nn.gru_forward(x, params)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del out
        step = 3 * hidden * batch * 8
        ring = 6 * hidden * batch * 8
        assert peaks["no_grad"] < 2 * step + params.u_zr.data.nbytes + ring + step // 2
        history = (4 * t_len + 1) * hidden * batch * 8
        assert peaks["recorded"] > peaks["no_grad"] + 0.9 * history

    def test_recorded_backward_keeps_no_gate_history(self):
        # BPTT holds the gradients it returns, the per-step weight-gradient
        # shares (T, 3H·in + 3H·H + 3H) and a few (3H, B) step buffers, never a
        # whole-sequence (T, 3H, B) gate gradient or (T, H, B) r·h
        rng = np.random.default_rng(25)
        t_len, in_dim, batch, hidden = 200, 4, 256, 16
        params = f64_gru(nn.init_gru(rng, in_dim, hidden), requires_grad=True)
        x = f64(rng.normal(size=(t_len, in_dim, batch)), requires_grad=True)
        loss = T.sum_(nn.gru_forward(x, params))
        tracemalloc.start()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        grads = x.data.nbytes + sum(getattr(params, n).data.nbytes for n in GRU_FIELDS)
        shares = t_len * 3 * hidden * (in_dim + hidden + 1) * 8
        step = 3 * hidden * batch * 8
        assert peak < grads + shares + 4 * step

    def test_numpy_calls_linear_in_length(self, monkeypatch):
        # a cost gate no host load can waive: forward plus BPTT make exactly
        # a·T + b numpy calls, so a BPTT that replays the sequence for each
        # step, quadratic in T, fails it
        rng = np.random.default_rng(26)
        params = nn.init_gru(rng, 2, 3)
        xs = {t_len: tensor(rng.normal(size=(t_len, 2, 4)).astype(np.float32),
                            requires_grad=True) for t_len in (8, 16, 32)}
        counter = CountingNumpy()
        monkeypatch.setattr(nn, "np", counter)
        calls = {}
        for t_len, x in xs.items():
            counter.calls = 0
            backward(T.sum_(nn.gru_forward(x, params)))
            calls[t_len] = counter.calls
        per_step = (calls[16] - calls[8]) // 8
        assert per_step > 0 and calls[8] - 8 * per_step >= 0, calls
        assert calls[16] == calls[8] + 8 * per_step, calls
        assert calls[32] == calls[8] + 24 * per_step, calls

    def test_steps_add_no_broadcast_operand(self, monkeypatch):
        # a cost gate no host load can waive: numpy spreads a (3H, 1) bias
        # column over (3H, B) one row at a time, over twice as slow as a
        # same-shape add, so every elementwise op of the forward and BPTT
        # takes operands of one shape
        rng = np.random.default_rng(27)
        params = nn.init_gru(rng, 2, 3)
        xs = [tensor(rng.normal(size=(t_len, 2, 4)).astype(np.float32), requires_grad=True)
              for t_len in (8, 16)]
        recorder = BroadcastRecordingNumpy()
        monkeypatch.setattr(nn, "np", recorder)
        for x in xs:
            backward(T.sum_(nn.gru_forward(x, params)))
        assert recorder.broadcasts == []

    @pytest.mark.parametrize("t_len,in_dim,batch,hidden", [
        pytest.param(1, 3, 9, 6, id="1"),
        pytest.param(2, 3, 9, 6, id="2"),
        pytest.param(7, 3, 9, 6, id="7"),
        pytest.param(7, 3, 1, 6, id="batch1"),
        # train-long's levels 0 and 2: B·C = 224 rows, 16 conv channels
        pytest.param(60, 16, 224, 42, id="level0"),
        pytest.param(15, 16, 224, 44, id="level2"),
        # forecast-long's three levels at L=720
        pytest.param(30, 16, 224, 42, id="forecast-level0"),
        pytest.param(15, 16, 224, 42, id="forecast-level1"),
        pytest.param(7, 16, 224, 44, id="forecast-level2")])
    def test_bitwise_equal_to_gate_major_oracle(self, t_len, in_dim, batch, hidden):
        # float32, as the model runs: the kernel keeps the oracle's order of
        # operations and its sgemm calls, so the output and all five gradients
        # match it bit for bit; odd and even T cover both slots of the
        # unrecorded ring
        rng = np.random.default_rng(90 + t_len)
        base = nn.init_gru(rng, in_dim, hidden)
        x0 = rng.normal(size=(t_len, in_dim, batch)).astype(np.float32)
        proj = tensor(rng.normal(size=(batch, hidden)).astype(np.float32))
        results = []
        for gru in (nn.gru_forward, oracles.gru_gate_major):
            x = tensor(x0, requires_grad=True)
            params = GRUParams(**{n: tensor(getattr(base, n).data, requires_grad=True)
                                  for n in GRU_FIELDS})
            out = gru(x, params)
            backward(T.sum_(T.mul(out, proj)))
            with no_grad():
                unrecorded = gru(x, params)
            results.append([out.data, unrecorded.data, x.grad]
                           + [getattr(params, n).grad for n in GRU_FIELDS])
        for name, got, ref in zip(("out", "unrecorded", "x") + GRU_FIELDS, *results):
            assert got.dtype == ref.dtype == np.float32, name
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name

    def test_appears_as_one_tape_op(self):
        params = nn.init_gru(np.random.default_rng(22), 2, 3)
        x = tensor(np.ones((6, 2, 1)), requires_grad=True)
        tape = Tape.trace(T.sum_(nn.gru_forward(x, params)))
        assert tape.op_ids() == ["gru_sequence", "sum"]

    def test_gradient_through_time(self):
        rng = np.random.default_rng(19)
        params = f64_gru(nn.init_gru(rng, 2, 3))
        err = grad_check(lambda t: T.sum_(nn.gru_forward(t, params)),
                         f64(rng.normal(size=(4, 2, 3))))
        assert err < GRAD_TOL

    @pytest.mark.parametrize("name", GATE_BLOCKS)
    def test_gradient_wrt_each_weight(self, name):
        rng = np.random.default_rng(23)
        base = nn.init_gru(rng, 2, 3)
        x = f64(rng.normal(size=(5, 2, 2)))  # (T, in, B)
        proj = f64(rng.normal(size=(2, 3)))
        field, i = GATE_BLOCKS[name]
        full, h = getattr(base, field).data, base.hidden_size
        before, block, after = full[..., :i * h], full[..., i * h:(i + 1) * h], full[..., (i + 1) * h:]

        def f(t):
            params = f64_gru(base)
            setattr(params, field, T.concat([f64(before), t, f64(after)], axis=full.ndim - 1))
            return T.sum_(T.mul(nn.gru_forward(x, params), proj))

        err = grad_check(f, f64(block))
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
        err = grad_check(lambda t: T.sum_(oracles.tanh(nn.layer_norm(t, gamma, beta))),
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
            out = nn.softmax(f64(x))
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out.data >= 0)

    def test_shift_invariance_and_stability(self):
        x = np.array([1.0, 2.0, 3.0])
        a = nn.softmax(f64(x)).data
        b = nn.softmax(f64(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(np.isfinite(b))

    def test_gradient(self):
        rng = np.random.default_rng(26)
        w = f64(rng.normal(size=(4,)))
        err = grad_check(lambda t: T.sum_(T.mul(nn.softmax(t), w)),
                         f64(rng.normal(size=(4,))))
        assert err < GRAD_TOL


class TestMultiHeadAttention:
    @staticmethod
    def params(rng, d):
        raw = nn.init_mha(rng, d)
        q, v, o = (LinearParams(f64(lin.w.data), f64(lin.b.data))
                   for lin in (raw.q, raw.v, raw.o))
        return MHAParams(q, f64(raw.k.data), v, o)

    def test_output_shape_and_row_stochastic_probs(self, softmax_outputs):
        rng = np.random.default_rng(27)
        params = self.params(rng, 8)
        x = f64(rng.normal(size=(2, 5, 8)))
        out = nn.multi_head_attention(x, params, heads=2)
        assert out.shape == (2, 5, 8)
        [probs] = softmax_outputs
        assert probs.shape == (2, 2, 5, 5)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_zero_queries_give_uniform_attention(self, softmax_outputs):
        rng = np.random.default_rng(28)
        params = self.params(rng, 4)
        params.q.w.data[:] = 0.0
        params.q.b.data[:] = 0.0
        nn.multi_head_attention(f64(rng.normal(size=(1, 6, 4))), params, heads=2)
        [probs] = softmax_outputs
        np.testing.assert_allclose(probs.data, 1.0 / 6.0, atol=1e-12)

    def test_single_head_matches_numpy_reference(self):
        rng = np.random.default_rng(29)
        d = 4
        params = self.params(rng, d)
        x = rng.normal(size=(1, 3, d))
        out = nn.multi_head_attention(f64(x), params, heads=1)

        g = lambda lin: x @ lin.w.data + lin.b.data
        q, k, v = g(params.q), x @ params.k.data, g(params.v)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        expected = (p @ v) @ params.o.w.data + params.o.b.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(31)
        params = self.params(rng, 4)
        err = grad_check(
            lambda t: T.mean(nn.multi_head_attention(t, params, heads=2)),
            f64(rng.normal(size=(1, 3, 4))))
        assert err < GRAD_TOL

    def test_gradient_wrt_projection(self):
        rng = np.random.default_rng(32)
        base = self.params(rng, 4)
        x = f64(rng.normal(size=(1, 3, 4)))

        def f(t):
            params = dataclasses.replace(base, v=LinearParams(t, base.v.b))
            return T.mean(nn.multi_head_attention(x, params, heads=2))

        assert grad_check(f, f64(base.v.w.data)) < GRAD_TOL


class TestParamPlumbing:
    def test_iter_params_order_is_field_order(self):
        rng = np.random.default_rng(33)
        gru = nn.init_gru(rng, 2, 3)
        names = [n for n, _ in nn.iter_params(gru, "gru")]
        assert names == ["gru.w", "gru.u_zr", "gru.u_h", "gru.b"]

    def test_init_gru_fuses_per_gate_draws_in_order(self):
        in_dim, hidden = 2, 3
        gru = nn.init_gru(np.random.default_rng(36), in_dim, hidden)
        rng = np.random.default_rng(36)
        bound = 1.0 / np.sqrt(hidden)
        draw = lambda *shape: rng.uniform(-bound, bound, size=shape).astype(np.float32)
        (wz, uz, bz), (wr, ur, br), (wh, uh, bh) = [
            (draw(in_dim, hidden), draw(hidden, hidden), draw(hidden)) for _ in "zrh"]
        expected = {"w": np.concatenate([wz, wr, wh], axis=1),
                    "u_zr": np.concatenate([uz, ur], axis=1), "u_h": uh,
                    "b": np.concatenate([bz, br, bh])}
        for name, want in expected.items():
            got = getattr(gru, name).data
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes(), name

    def test_init_conv1d_rearranges_the_drawn_weight(self):
        # the weight is drawn as (C_out, C_in, K), then the bias, as before the
        # kernel-major layout, so seeded inits keep their values
        weight, bias = nn.init_conv1d(np.random.default_rng(37), 3, 4, 2)
        rng = np.random.default_rng(37)
        bound = 1.0 / np.sqrt(3 * 2)
        drawn = rng.uniform(-bound, bound, size=(4, 3, 2)).astype(np.float32)
        drawn_bias = rng.uniform(-bound, bound, size=(4,)).astype(np.float32)
        assert weight.shape == (4, 6) and weight.data.tobytes() == kernel_major(drawn).tobytes()
        assert bias.data.tobytes() == drawn_bias.tobytes()
        assert weight.requires_grad and bias.requires_grad

    def test_iter_params_walks_lists(self):
        rng = np.random.default_rng(34)
        tree = [nn.init_linear(rng, 2, 2), nn.init_linear(rng, 2, 2)]
        names = [n for n, _ in nn.iter_params(tree, "layers")]
        assert names == ["layers.0.w", "layers.0.b", "layers.1.w", "layers.1.b"]

    def test_init_bounds(self):
        rng = np.random.default_rng(35)
        lin = nn.init_linear(rng, 16, 8)
        assert np.all(np.abs(lin.w.data) <= 0.25)
        key = np.abs(nn.init_mha(rng, 16).k.data)  # U(±1/√D), like a linear's weight
        assert key.max() <= 0.25 and key.max() > 0.9 * 0.25
        gru = nn.init_gru(rng, 4, 16)
        assert np.all(np.abs(gru.u_h.data) <= 0.25)
        assert all(p.requires_grad for _, p in nn.iter_params(gru))
