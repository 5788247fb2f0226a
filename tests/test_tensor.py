"""Engine-level checks: forward values, gradients against finite differences,
graph mechanics, and the op tape."""

import numpy as np
import pytest

import oracles
from oracles import NonDeterministicFunctionError, Tape, grad_check
from prformer import tensor as T
from prformer.tensor import Tensor, backward, no_grad, tensor

GRAD_TOL = 1e-6  # float64 central differences; rel error formula maxes at ~1e-9


class TestForwardValues:
    def test_matmul_known_product(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[1.0], [1.0]])
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]], rtol=1e-6)

    def test_sigmoid_matches_logistic(self):
        x = tensor([-50.0, 0.0, 2.0, 50.0], dtype=np.float64)
        out = oracles.sigmoid(x)
        expected = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_unary_values(self):
        x = tensor([0.25, 1.0, 4.0], dtype=np.float64)
        np.testing.assert_allclose(T.sqrt(x).data, [0.5, 1.0, 2.0])
        np.testing.assert_allclose(T.exp(tensor([0.0])).data, [1.0])
        np.testing.assert_allclose(T.relu(tensor([-2.0, 3.0])).data, [0.0, 3.0])
        np.testing.assert_allclose(T.abs_(tensor([-1.5, 2.0])).data, [1.5, 2.0])

    def test_structural_ops_round_trip(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(2, 3, 4)))
        assert T.permute(x, (2, 0, 1)).shape == (4, 2, 3)
        assert T.permute(x, (0, 2, 1)).shape == (2, 4, 3)
        assert T.reshape(x, (6, 4)).shape == (6, 4)
        assert oracles.narrow(x, 1, 1, 2).shape == (2, 2, 4)
        both = T.concat([x, x], axis=2)
        assert both.shape == (2, 3, 8)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(scale=10.0, size=(4, 5)))
        for fn in (oracles.tanh, oracles.sigmoid, T.exp, T.relu, T.abs_):
            assert np.all(np.isfinite(fn(x).data)), fn.__name__


class TestBackwardValues:
    def test_square_gradient(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_(T.mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-6)

    def test_product_rule(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = tensor([3.0, 5.0], requires_grad=True)
        backward(T.sum_(T.mul(x, y)))
        np.testing.assert_allclose(x.grad, [3.0, 5.0])
        np.testing.assert_allclose(y.grad, [1.0, 2.0])

    def test_tanh_derivative_value(self):
        x = tensor([0.5], dtype=np.float64, requires_grad=True)
        backward(T.sum_(oracles.tanh(x)))
        np.testing.assert_allclose(x.grad, [1.0 - np.tanh(0.5) ** 2], atol=1e-12)
        np.testing.assert_allclose(x.grad, [0.786448], atol=1e-6)

    def test_abs_subgradient_zero_at_zero(self):
        # relu's too: both are kinked at 0
        for op, want in ((T.abs_, [-1.0, 0.0, 1.0]), (T.relu, [0.0, 0.0, 1.0])):
            x = tensor([-2.0, 0.0, 3.0], requires_grad=True)
            backward(T.sum_(op(x)))
            np.testing.assert_array_equal(x.grad, want)

    def test_shared_subexpression_accumulates(self):
        x = tensor([3.0], requires_grad=True)
        backward(T.sum_(T.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_repeated_backward_accumulates_on_leaves(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_(T.mul(x, x))
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0, 8.0], rtol=1e-6)

    def test_only_leaves_collect_grad(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        mid = T.mul(x, x)
        backward(T.sum_(mid))
        assert mid.grad is None
        assert x.grad is not None

    def test_broadcast_gradient_shapes(self):
        rng = np.random.default_rng(2)
        stats = tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)
        full = tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        backward(T.sum_(T.mul(T.sub(full, stats), stats)))
        assert stats.grad.shape == (2, 1, 3)
        assert full.grad.shape == (2, 5, 3)

    def test_long_chain_no_recursion_limit(self):
        x = tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = T.add(y, x)
        backward(T.sum_(y))
        np.testing.assert_allclose(x.grad, [5001.0])


class TestGraphMechanics:
    def test_no_grad_builds_no_graph(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            y = T.mul(x, x)
        assert y.op is None and not y.requires_grad

    def test_non_scalar_loss_backpropagates_its_sum(self):
        grads = []
        for reduce in (lambda y: y, T.sum_):
            x = tensor([1.0, -2.0, 3.0], requires_grad=True)
            w = tensor([[0.5], [4.0]], requires_grad=True)
            backward(reduce(T.mul(T.reshape(x, (1, 3)), w)))
            grads.append((x.grad, w.grad))
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_shape_mismatches_raise_numpys_value_error(self):
        # the engine checks no shapes: numpy raises before any node is built
        a, b = (tensor(np.zeros(shape), requires_grad=True) for shape in ((2, 3), (4, 5)))
        mismatched = [
            lambda: T.add(a, b),
            lambda: T.matmul(a, b),  # shared weight: one GEMM over folded rows
            lambda: T.matmul(tensor(np.zeros((2, 2, 2, 3))), tensor(np.zeros((2, 2, 4, 5)))),
            lambda: T.reshape(a, (7,)),
            lambda: T.concat([a, tensor(np.zeros((2, 4))), tensor(np.zeros((1, 3)))], axis=0),
        ]
        for op in mismatched:
            with pytest.raises(ValueError):
                op()

    def test_dropout_mask_backward_matches_mask(self):
        rng = np.random.default_rng(3)
        x = tensor(np.ones((1000,)), requires_grad=True)
        out = T.dropout_mask(x, 0.3, rng)
        assert out.op == "mul"  # by a constant mask
        kept = out.data > 0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.7, rtol=1e-6)
        assert abs(kept.mean() - 0.7) < 0.05
        backward(T.sum_(out))
        np.testing.assert_allclose(x.grad, out.data, rtol=1e-6)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_backward_skips_a_constant(self, op):
        # the closure computes no gradient for an operand off the tape, either side
        var = tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        const = tensor([2.0, 5.0])
        g = np.ones((2, 2), dtype=np.float32)
        grad_var, grad_const = getattr(T, op)(var, const)._backward(g)
        assert grad_var.shape == (2, 2) and grad_const is None
        grad_const, grad_var = getattr(T, op)(const, var)._backward(g)
        assert grad_const is None and grad_var.shape == (2, 2)

    def test_reductions_keep_a_reduced_axis_and_spread_without_copy(self):
        x = tensor(np.arange(12.0).reshape(3, 4), dtype=np.float32, requires_grad=True)
        assert T.sum_(x, axis=1).shape == (3, 1) and T.mean(x, axis=0).shape == (1, 4)
        assert T.sum_(x).shape == T.mean(x).shape == ()
        (spread,) = T.mean(x)._backward(np.ones((), dtype=np.float32))
        np.testing.assert_array_equal(spread, np.full((3, 4), 1.0 / 12, dtype=np.float32))
        assert spread.strides == (0, 0)  # a broadcast view of one number
        (spread,) = T.mean(x, axis=1)._backward(np.ones((3, 1), dtype=np.float32))
        np.testing.assert_array_equal(spread, np.full((3, 4), 0.25, dtype=np.float32))

    def test_dropout_rate_zero_is_identity(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        assert T.dropout_mask(x, 0.0, np.random.default_rng(0)) is x


class TestTape:
    def test_trace_orders_ops_and_counts(self):
        x = tensor(np.ones((2, 2)), requires_grad=True)
        y = oracles.tanh(T.matmul(x, x))
        tape = Tape.trace(T.sum_(y))
        assert tape.op_ids() == ["matmul", "tanh", "sum"]
        assert tape.op_counts() == {"matmul": 1, "tanh": 1, "sum": 1}

    def test_matmul_flops_rule(self):
        a = tensor(np.ones((3, 4)), requires_grad=True)
        b = tensor(np.ones((4, 5)))
        tape = Tape.trace(T.matmul(a, b))
        assert tape.flops() == 2 * 3 * 4 * 5

    def test_batched_matmul_flops_scale_with_batch(self):
        a = tensor(np.ones((7, 3, 4)), requires_grad=True)
        b = tensor(np.ones((7, 4, 5)))
        tape = Tape.trace(T.matmul(a, b))
        assert tape.flops() == 7 * 2 * 3 * 4 * 5


class TestGradCheck:
    def test_eps_outside_range_rejected(self):
        f = lambda t: T.sum_(t)
        for eps in (1e-8, 1e-2, 0.0):
            with pytest.raises(ValueError):
                grad_check(f, tensor([1.0]), eps=eps)

    def test_nondeterministic_function_rejected(self):
        state = {"n": 0}

        def flaky(t):
            state["n"] += 1
            return T.sum_(T.mul(t, tensor(state["n"], dtype=np.float64)))

        with pytest.raises(NonDeterministicFunctionError):
            grad_check(flaky, tensor([1.0]))

    def test_composite_function_gradient(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 3))

        def f(t):
            h = oracles.tanh(T.matmul(t, tensor(w, dtype=np.float64)))
            return T.mean(T.mul(h, h))

        err = grad_check(f, tensor(rng.normal(size=(2, 3))))
        assert err < GRAD_TOL

    def test_every_primitive_against_finite_differences(self):
        rng = np.random.default_rng(5)
        point = rng.normal(size=(2, 3)) + 3.0  # keep away from 0 for div/sqrt/abs
        other = tensor(rng.normal(size=(2, 3)) + 2.0, dtype=np.float64)
        cases = {
            "add": lambda t: T.sum_(T.add(t, other)),
            "sub": lambda t: T.sum_(T.sub(other, t)),
            "mul": lambda t: T.sum_(T.mul(t, other)),
            "div": lambda t: T.sum_(T.div(other, t)),
            "matmul": lambda t: T.sum_(T.matmul(t, T.permute(other, (1, 0)))),
            "permute": lambda t: T.sum_(T.mul(T.permute(t, (1, 0)), T.permute(other, (1, 0)))),
            "reshape": lambda t: T.sum_(T.mul(T.reshape(t, (6,)), T.reshape(other, (6,)))),
            "concat": lambda t: T.sum_(T.mul(T.concat([t, t], axis=0),
                                             T.concat([other, other], axis=0))),
            "slice": lambda t: T.sum_(T.mul(oracles.narrow(t, 1, 1, 2),
                                            oracles.narrow(other, 1, 0, 2))),
            "mean": lambda t: T.sum_(T.mean(T.mul(t, t), axis=1)),
            "sqrt": lambda t: T.sum_(T.sqrt(t)),
            "exp": lambda t: T.sum_(T.exp(T.mul(t, tensor(0.1, dtype=np.float64)))),
            "tanh": lambda t: T.sum_(oracles.tanh(t)),
            "sigmoid": lambda t: T.sum_(oracles.sigmoid(t)),
            "relu": lambda t: T.sum_(T.relu(t)),
            "abs": lambda t: T.sum_(T.abs_(t)),
        }
        for name, f in cases.items():
            err = grad_check(f, tensor(point))
            assert err < GRAD_TOL, f"{name}: rel err {err}"

    def test_shared_weight_matmul(self):
        # an N-d input times a 2-d weight folds the leading axes into GEMM rows;
        # the reference is the broadcast path, one product per batch summed
        rng = np.random.default_rng(7)
        a0, w0 = rng.normal(size=(3, 2, 4, 5)), rng.normal(size=(5, 6))
        proj = tensor(rng.normal(size=(3, 2, 4, 6)), dtype=np.float64)
        grads = []
        for stacked in (False, True):
            a, w = tensor(a0, requires_grad=True), tensor(w0, requires_grad=True)
            out = T.matmul(a, T.reshape(w, (1, 5, 6)) if stacked else w)
            backward(T.sum_(T.mul(out, proj)))
            grads.append((out.data, a.grad, w.grad))
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        w = tensor(w0)
        assert grad_check(lambda t: T.sum_(T.mul(T.matmul(t, w), proj)), tensor(a0)) < GRAD_TOL
        a = tensor(a0)
        assert grad_check(lambda t: T.sum_(T.mul(T.matmul(a, t), proj)), tensor(w0)) < GRAD_TOL

    def test_random_broadcast_shapes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            b, l, c = (int(rng.integers(1, 4)) for _ in range(3))
            small = tensor(rng.normal(size=(b, 1, c)) + 2.0, dtype=np.float64)

            def f(t):
                return T.sum_(T.div(T.mul(t, small), small))

            err = grad_check(f, tensor(rng.normal(size=(b, l, c))))
            assert err < GRAD_TOL

    def test_reported_error_is_relative(self):
        # doubling the analytic gradient of a large-magnitude function should
        # still produce an O(1) error under the max(1, |analytic|) denominator
        def wrong(t):
            return T.sum_(T.mul(T.mul(t, t), tensor(1000.0, dtype=np.float64)))

        err = grad_check(wrong, tensor([1.0]))
        assert err < GRAD_TOL  # correct analytic side stays tiny even at scale 1000

