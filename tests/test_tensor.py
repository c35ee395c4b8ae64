"""Kernel-level tests: forward values against direct oracles, gradients
against central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from denoiseclf import tensor as T
from denoiseclf.tensor import (Adam, DegenerateAxisError, DimensionError,
                               LabelError, OptimizerError, Tensor,
                               finite_difference_check)


def rand_tensor(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).values, b.values)

    def test_hand_multiplication(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(
            T.matmul(a, b).values, [[5.0, 6.0], [0.0, 0.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
        err = finite_difference_check(
            lambda: T.sum_all(T.matmul(a, b)), [a, b])
        assert err < 1e-5


class TestAdd:
    def test_additive_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal((x + Tensor(np.zeros(3))).values,
                                      x.values)

    def test_elementwise(self):
        out = Tensor([1.0, 2.0]) + Tensor([10.0, 20.0])
        np.testing.assert_array_equal(out.values, [11.0, 22.0])

    def test_non_broadcastable_shapes(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4,)))

    def test_broadcast_gradient(self):
        rng = np.random.default_rng(1)
        x, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (3,))
        err = finite_difference_check(
            lambda: T.sum_all(T.mul(x + b, x + b)), [x, b])
        assert err < 1e-5


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_direct_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(Tensor(x), axis=0)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_argmax_monotonicity_and_row_sum(self, xs):
        out = T.softmax(Tensor(xs), axis=0).values
        assert abs(out.sum() - 1.0) < 1e-9
        # exp rounding can tie values closer than one ulp, so compare the
        # attained maximum rather than the index
        assert xs[int(np.argmax(out))] == pytest.approx(max(xs), abs=1e-12)

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
           st.floats(-100, 100))
    def test_shift_invariant_argmax(self, xs, c):
        base = T.softmax(Tensor(xs), axis=0).values
        shifted = T.softmax(Tensor(np.array(xs) + c), axis=0).values
        assert np.argmax(base) == np.argmax(shifted)


class TestLayernorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((3, 5), 7.0))
        out = T.layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 8)))
        out = T.layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).values
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_degenerate_axis(self):
        with pytest.raises(DegenerateAxisError):
            T.layernorm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)),
                        Tensor(np.zeros(1)))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x, g, b = (rand_tensor(rng, (3, 6)), rand_tensor(rng, (6,)),
                   rand_tensor(rng, (6,)))
        w = Tensor(rng.normal(size=(3, 6)))
        err = finite_difference_check(
            lambda: T.sum_all(T.mul(T.layernorm(x, g, b), w)), [x, g, b])
        assert err < 1e-4


class TestMseLoss:
    def test_zero_at_equality(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert float(T.mse_loss(x, Tensor(x.values.copy())).values) == 0.0

    def test_hand_value(self):
        out = T.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert float(out.values) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.mse_loss(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_gradient_formula(self):
        rng = np.random.default_rng(4)
        pred = rand_tensor(rng, (2, 3))
        target = Tensor(rng.normal(size=(2, 3)))
        loss = T.mse_loss(pred, target)
        loss.backward()
        np.testing.assert_allclose(
            pred.grad, 2.0 * (pred.values - target.values) / 6)
        err = finite_difference_check(
            lambda: T.mse_loss(pred, target), [pred])
        assert err < 1e-6


class TestCrossEntropy:
    def test_uniform_logits_two_classes(self):
        out = T.cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert float(out.values) == pytest.approx(math.log(2), rel=1e-12)

    def test_huge_correct_margin_goes_to_zero(self):
        out = T.cross_entropy(Tensor([[100.0, 0.0, 0.0]]), [0])
        assert float(out.values) < 1e-10

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 3))
        labels = [0, 2, 1, 1]
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(probs[i, l])
                             for i, l in enumerate(labels)])
        out = T.cross_entropy(Tensor(z), labels)
        assert float(out.values) == pytest.approx(expected, rel=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            T.cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_label_error_is_the_corpus_label_error(self):
        # one class, so the CLI maps both to its label exit code
        from denoiseclf import data, errors
        assert LabelError is data.LabelError is errors.LabelError


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gives_2x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.sum_all(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.values)

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (x + x).backward()

    def test_diamond_graph_sums_both_paths(self):
        # z = x*y + x*x: dz/dx = y + 2x, dz/dy = x (hand oracle)
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        z = T.sum_all(T.mul(x, y) + T.mul(x, x))
        z.backward()
        np.testing.assert_allclose(x.grad, [5.0 + 4.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_untracked_constant_gets_no_gradient(self):
        rng = np.random.default_rng(7)
        w = rand_tensor(rng, (3, 4))
        x = Tensor(rng.normal(size=(4, 2)))
        T.sum_all(T.matmul(w, x)).backward()
        assert w.grad is not None
        assert x.grad is None

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        T.sum_all(x).backward()
        loss2 = T.sum_all(x)
        loss2.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_two_layer_mlp_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 4)))
        w1 = rand_tensor(rng, (4, 5))
        b1 = rand_tensor(rng, (5,))
        w2 = rand_tensor(rng, (5, 3))
        b2 = rand_tensor(rng, (3,))
        target = Tensor(rng.normal(size=(2, 3)))

        def loss_fn():
            h = T.tanh(T.matmul(x, w1) + b1)
            return T.mse_loss(T.matmul(h, w2) + b2, target)

        assert finite_difference_check(loss_fn, [w1, b1, w2, b2]) < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        Adam([p], lr=0.1, weight_decay=0.0).step()
        np.testing.assert_array_equal(p.values, [1.0, 2.0])

    def test_missing_grad_raises(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(OptimizerError):
            Adam([p]).step()

    def test_single_step_hand_oracle(self):
        # w=1, g=1, lr=0.1, betas (0.9, 0.999), eps 1e-8, first step
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=0.1).step()
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.values, [expected], rtol=1e-15)

    def test_zeroes_grads_after_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=0.1).step()
        assert p.grad is None

    def test_convex_quadratic_decreases_after_warm_start(self):
        w = Tensor([0.0], requires_grad=True)
        opt = Adam([w], lr=0.02)
        losses = []
        for _ in range(120):
            loss = T.sum_all(T.mul(w + Tensor([-3.0]), w + Tensor([-3.0])))
            losses.append(float(loss.values))
            loss.backward()
            opt.step()
        warm = losses[20:120]
        assert all(b <= a + 1e-9 for a, b in zip(warm, warm[1:]))


class TestDeterminism:
    def test_identical_seed_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            a = rand_tensor(rng, (3, 3))
            b = rand_tensor(rng, (3, 3))
            loss = T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b)))
            loss.backward()
            return loss.values.copy(), a.grad.copy()

        (l1, g1), (l2, g2) = run(), run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_ops_pass_finite_difference_suite(seed):
    from denoiseclf.gradcheck import run_op_checks
    for result in run_op_checks(seed):
        assert result.passed, f"{result.name}: {result.max_rel_err}"


class TestErf:
    """The vectorized erf behind GELU against libm's, in ulps."""

    @staticmethod
    def ulps(got, ref):
        return np.abs(got - ref) / np.spacing(np.abs(ref))

    def test_dense_grid_within_a_few_ulp(self):
        xs = np.linspace(-6.0, 6.0, 600_001)
        ref = np.array([math.erf(v) for v in xs])
        # the worst case sits just past the 0.46875 interval boundary,
        # where erf = 1 - erfc with erfc near 0.5
        assert self.ulps(T._erf(xs), ref).max() <= 5

    def test_tails(self):
        big = np.concatenate([np.linspace(6.0, 40.0, 3401), [1e10, 1e300]])
        np.testing.assert_array_equal(T._erf(big), 1.0)
        np.testing.assert_array_equal(T._erf(-big), -1.0)
        tiny = np.array([5e-324, 1e-300, 1e-200, 1e-20, 1e-8])
        assert self.ulps(T._erf(tiny), [math.erf(v) for v in tiny]).max() <= 1
        assert self.ulps(T._erf(-tiny),
                         [math.erf(v) for v in -tiny]).max() <= 1

    def test_special_values(self):
        out = T._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[0] == 0.0 and math.copysign(1.0, out[1]) == -1.0
        assert out[2] == 1.0 and out[3] == -1.0 and math.isnan(out[4])

    def test_matches_scipy_on_random_points(self):
        special = pytest.importorskip("scipy.special")
        xs = np.random.default_rng(0).normal(scale=2.0, size=100_000)
        assert self.ulps(T._erf(xs), special.erf(xs)).max() <= 6

    def test_gelu_value_uses_it(self):
        x = np.array([-3.0, -0.5, 0.0, 0.3, 2.0])
        expected = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
        np.testing.assert_allclose(T.gelu(Tensor(x)).values, expected,
                                   rtol=1e-15, atol=0)


class TestBatchAxes:
    """Leading batch axes on the ops that the batched model uses."""

    def test_matmul_batched_left_operand_matches_rows(self):
        rng = np.random.default_rng(30)
        x, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
        out = T.matmul(Tensor(x), Tensor(w)).values
        for b in range(3):
            np.testing.assert_allclose(out[b], x[b] @ w, rtol=1e-14)

    def test_matmul_batched_gradients(self):
        rng = np.random.default_rng(31)
        x, w = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (4, 2))
        q, k = rand_tensor(rng, (2, 2, 3, 4)), rand_tensor(rng, (2, 2, 4, 3))
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.matmul(x, w), T.matmul(x, w))),
            [x, w]) < 1e-6
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.matmul(q, k), T.matmul(q, k))),
            [q, k]) < 1e-6

    def test_matmul_batch_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))

    def test_transpose_axes_gradient(self):
        rng = np.random.default_rng(32)
        x = rand_tensor(rng, (2, 3, 4))
        w = Tensor(rng.normal(size=(3, 4, 2)))
        out = T.transpose(x, (1, 2, 0))
        assert out.shape == (3, 4, 2)
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.transpose(x, (1, 2, 0)), w)), [x]) < 1e-6

    def test_index_scatters_repeated_picks(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x[:, [0, 2, 0]]
        np.testing.assert_array_equal(out.values, [[0, 2, 0], [3, 5, 3]])
        T.sum_all(out).backward()
        np.testing.assert_array_equal(x.grad, [[2, 0, 1], [2, 0, 1]])

    def test_index_strided_gradient(self):
        rng = np.random.default_rng(33)
        x = rand_tensor(rng, (3, 8))
        w = Tensor(rng.normal(size=(3, 2)))
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(x[:, ::4], w)), [x]) < 1e-6

    def test_take_rows_with_id_matrix(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        ids = np.array([[0, 3], [3, 3]])
        out = T.take_rows(table, ids)
        assert out.shape == (2, 2, 2)
        np.testing.assert_array_equal(out.values[1, 0], [6.0, 7.0])
        T.sum_all(out).backward()
        np.testing.assert_array_equal(table.grad[:, 0], [1, 0, 0, 3])

    def test_softmax_and_layernorm_on_batches(self):
        rng = np.random.default_rng(34)
        s = rand_tensor(rng, (2, 3, 4))
        g, b = rand_tensor(rng, (4,)), rand_tensor(rng, (4,))
        w = Tensor(rng.normal(size=(2, 3, 4)))
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.softmax(s, axis=-1), w)), [s]) < 1e-6
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.layernorm(s, g, b), w)),
            [s, g, b]) < 1e-6

    def test_cross_entropy_over_leading_axes(self):
        rng = np.random.default_rng(35)
        z = rng.normal(size=(2, 3, 4))
        labels = np.array([[0, 3, 1], [2, 2, 0]])
        flat = T.cross_entropy(Tensor(z.reshape(6, 4)), labels.reshape(6))
        out = T.cross_entropy(Tensor(z), labels)
        assert float(out.values) == float(flat.values)
        logits = rand_tensor(rng, (2, 3, 4))
        assert finite_difference_check(
            lambda: T.cross_entropy(logits, labels), [logits]) < 1e-6

    def test_cross_entropy_label_shape_must_match(self):
        with pytest.raises(DimensionError):
            T.cross_entropy(Tensor(np.zeros((2, 3, 4))), [0, 1])
