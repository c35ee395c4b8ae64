"""Kernel-level tests: forward values against direct oracles, gradients
against central finite differences."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from denoiseclf import tensor as T
from denoiseclf.gradcheck import (OP_CASES, CheckResult,
                                  finite_difference_check)
from denoiseclf.tensor import (Adam, DegenerateAxisError, DimensionError,
                               LabelError, NonFiniteError, OptimizerError,
                               Tensor)


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
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_direct_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_argmax_monotonicity_and_row_sum(self, xs):
        out = T.softmax(Tensor(xs)).values
        assert abs(out.sum() - 1.0) < 1e-9
        # exp rounding can tie values closer than one ulp, so compare the
        # attained maximum rather than the index
        assert xs[int(np.argmax(out))] == pytest.approx(max(xs), abs=1e-12)

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
           st.floats(-100, 100))
    @example(xs=[-2.220446049250313e-16, 0.0], c=3.0)
    def test_shift_invariant_argmax(self, xs, c):
        shifted = T.softmax(Tensor(np.array(xs) + c)).values
        # adding c can round two near-equal inputs to a tie, so compare the
        # attained maximum rather than the index
        assert xs[int(np.argmax(shifted))] == pytest.approx(max(xs),
                                                            abs=1e-12)


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

    @pytest.mark.parametrize("op, const_shape", [
        (T.matmul, (4, 2)), (T.add, (4,)), (T.mul, ())],
        ids=["matmul", "add", "mul"])
    def test_constant_operand_never_enters_the_graph(self, op, const_shape):
        rng = np.random.default_rng(8)
        w = rand_tensor(rng, (3, 4))
        out = op(w, Tensor(rng.normal(size=const_shape)))
        assert out._parents == (w,)
        assert len(out._vjps(np.ones(out.shape))) == 1

    def test_repeated_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        T.sum_all(x).backward()
        loss2 = T.sum_all(x)
        loss2.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    @pytest.mark.parametrize("a_first", [True, False])
    def test_add_shares_its_gradient_but_a_later_sum_copies(self, a_first):
        # add's VJPs hand both operands the one g they get; a is then kept
        # or not, depending on which path reaches it first, and a's second
        # contribution must not be written into the g that b holds. Newest
        # first, the add reaches a first when it is newer than a's other
        # consumer
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        direct = T.mul(a, Tensor([10.0, 100.0])) if a_first else None
        s = T.add(a, b)
        g = np.array([5.0, 7.0])
        g_a, g_b = s._vjps(g)
        assert g_a is g and g_b is g
        via_add = T.sum_all(T.mul(s, Tensor([5.0, 7.0])))
        if not a_first:
            direct = T.mul(a, Tensor([10.0, 100.0]))
        (via_add + T.sum_all(direct)).backward()
        np.testing.assert_array_equal(b.grad, [5.0, 7.0])
        np.testing.assert_array_equal(a.grad, [15.0, 107.0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_first_gradient_gets_the_layout_of_a_fresh_buffer(self, order):
        # transpose's VJP returns a transposed view of g; storing it, or
        # storing a C-ordered g for F-ordered values, would change the
        # strides the next matmul sees
        rng = np.random.default_rng(9)
        w = Tensor(np.array(rng.normal(size=(3, 4)), order=order),
                   requires_grad=True)
        k = rng.normal(size=(4, 3))
        T.sum_all(T.mul(T.transpose(w), Tensor(k))).backward()
        assert w.grad.strides == np.zeros_like(w.values).strides
        np.testing.assert_array_equal(w.grad, k.T)

    def test_op_output_with_three_consumers_sums_them_all(self):
        # h = 2w is read by add, mul and index: dloss/dh = 1 + c + [3, 0, 0]
        # (h[:1] broadcasts over three elements)
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        h = T.mul(w, Tensor(2.0))
        T.sum_all(h + h * Tensor([10.0, 20.0, 30.0]) + h[:1]).backward()
        np.testing.assert_array_equal(w.grad, [28.0, 42.0, 62.0])
        assert h.grad is None

    def test_long_chain_runs_without_recursion(self):
        # far deeper than the interpreter's recursion limit
        x = Tensor([0.0], requires_grad=True)
        y = x
        for _ in range(20_000):
            y = y + Tensor([0.0])
        T.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    @pytest.mark.parametrize("values", [3.0, [3.0]], ids=["0d", "1d"])
    def test_scalar_leaf_gets_ones(self, values):
        x = Tensor(values, requires_grad=True)
        x.backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.values))

    def test_op_output_shared_by_two_losses(self):
        # h = w * [3, 4]; the first loss adds [5, 6] * 3|4 and the second,
        # sum(h * h), adds 2h * 3|4; h keeps no gradient between the passes
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(w, Tensor([3.0, 4.0]))
        T.sum_all(h * Tensor([5.0, 6.0])).backward()
        np.testing.assert_array_equal(w.grad, [15.0, 24.0])
        assert h.grad is None
        T.sum_all(h * h).backward()
        np.testing.assert_array_equal(w.grad, [15.0 + 18.0, 24.0 + 64.0])

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


def _reference_adam(values, grads, lr, weight_decay, beta1=0.9,
                    beta2=0.999, eps=1e-8):
    """Per-tensor Adam, one tensor at a time, in Adam's expression order;
    ``grads[t][i]`` is tensor i's gradient at step t + 1."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, step_grads in enumerate(grads, start=1):
        bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for p, mi, vi, g in zip(values, m, v2, step_grads):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            update = (mi / bc1) / (np.sqrt(vi / bc2) + eps)
            if weight_decay:
                update = update + weight_decay * p
            p -= lr * update
    return values


SHAPES = {
    "mixed_shapes": [(3, 4), (5,), (), (2, 3, 2), (1, 1)],
    # two slices of one model with an unoptimized tensor between them,
    # like the encoder and the head of baseline phase 2
    "two_groups": [(4, 6), (6,), None, (6, 2), (2,)],
}


class TestFlatAdam:
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_matches_per_tensor_reference_bit_for_bit(self, case):
        rng = np.random.default_rng(11)
        tensors = [rand_tensor(rng, shape or (3,)) for shape in SHAPES[case]]
        params = [t for t, shape in zip(tensors, SHAPES[case]) if shape]
        frozen = [t for t, shape in zip(tensors, SHAPES[case]) if not shape]
        frozen_before = [t.values.copy() for t in frozen]
        grads = [[rng.normal(size=p.shape) for p in params] for _ in range(6)]
        expected = _reference_adam([p.values for p in params], grads,
                                   lr=0.05, weight_decay=0.01)
        opt = Adam(params, lr=0.05, weight_decay=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g.copy()
            opt.step()
        for p, want in zip(params, expected):
            assert p.shape == want.shape
            assert p.values.tobytes() == want.tobytes()
        for t, before in zip(frozen, frozen_before):
            assert t.values.tobytes() == before.tobytes()

    def test_rebound_values_still_train(self):
        # every training call builds its own Adam, so values rebound with
        # .copy() between calls (as a benchmark restores a snapshot) are
        # packed afresh and not left behind in an old buffer
        def make():
            rng = np.random.default_rng(12)
            return [rand_tensor(rng, (4, 3)), rand_tensor(rng, (3,))]

        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(5, 4)))
        target = Tensor(rng.normal(size=(5, 3)))

        def train(params):
            opt = Adam(params, lr=0.05, weight_decay=0.01)
            for _ in range(5):
                T.mse_loss(T.matmul(x, params[0]) + params[1],
                           target).backward()
                opt.step()

        rebound = make()
        snapshot = [p.values.copy() for p in rebound]
        train(rebound)
        for p, initial in zip(rebound, snapshot):
            p.values = initial.copy()
        train(rebound)
        fresh = make()
        train(fresh)
        for p, q, initial in zip(rebound, fresh, snapshot):
            assert not np.array_equal(p.values, initial)
            assert p.values.tobytes() == q.values.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_write(self, bad):
        rng = np.random.default_rng(14)
        params = [rand_tensor(rng, (2, 3)), rand_tensor(rng, (4,))]
        grads = [[rng.normal(size=p.shape) for p in params] for _ in range(2)]
        expected = _reference_adam([p.values for p in params], grads,
                                   lr=0.1, weight_decay=0.01)
        opt = Adam(params, lr=0.1, weight_decay=0.01)
        for p, g in zip(params, grads[0]):
            p.grad = g.copy()
        opt.step()
        before = [p.values.copy() for p in params]
        params[0].grad = np.ones((2, 3))
        params[1].grad = np.array([1.0, bad, 1.0, 1.0])
        with pytest.raises(NonFiniteError, match="1 of 2 params, the first at index 1"):
            opt.step()
        assert opt.t == 1
        for p, b in zip(params, before):
            assert p.values.tobytes() == b.tobytes()
        # the moments are untouched too: the next finite step matches a
        # run that never saw the bad one
        for p, g in zip(params, grads[1]):
            p.grad = g.copy()
        opt.step()
        for p, want in zip(params, expected):
            assert p.values.tobytes() == want.tobytes()


    def test_non_finite_write_raises_before_any_write(self):
        big = Tensor(np.array([1.5e308, 1.0]))
        small = Tensor(np.array([2.0, 3.0]))
        opt = Adam([small, big], lr=1e308)
        before = [p.values.copy() for p in (small, big)]
        small.grad = np.zeros(2)
        big.grad = np.array([-1.0, 0.0])
        # the write check reports the overflow, with no numpy warning first
        with pytest.raises(NonFiniteError, match="would write non-finite "
                           "values to 1 of 2 params, the first at index 1"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step()
        for p, b in zip((small, big), before):
            assert p.values.tobytes() == b.tobytes()


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
    results = run_op_checks(seed)
    assert [r.name for r in results] == [case[0] for case in OP_CASES]
    for result in results:
        assert result.passed, f"{result.name}: {result.max_rel_err}"


def test_op_cases_are_pinned_in_order():
    # the table's order is its draw order, so a dropped, added or moved row
    # changes the operands of every row after it
    assert [case[0] for case in OP_CASES] == [
        "matmul", "add_broadcast", "mul", "softmax", "layernorm", "mse_loss",
        "cross_entropy", "gelu", "tanh", "affine", "attention",
        "mlp_rows_none", "mlp_rows_tanh", "mlp_rows_gelu",
        "mlp_columns_none", "mlp_columns_tanh", "mlp_columns_gelu",
        "attention_query_rows"]


class TestFiniteDifferenceCheck:
    """The checker itself: a wrong gradient fails, whatever the layout of
    the parameters it nudges."""

    @staticmethod
    def poisoned_identity(x, poison, where):
        """The identity as a hand-built op whose VJP writes ``poison`` at
        ``where``."""
        def vjp(g):
            grad = np.array(g, dtype=np.float64)
            grad[where] = poison
            return grad
        return T._make(x.values.copy(), (x, vjp))

    # a NaN in the first element only must survive the finite errors after
    # it; an infinite gradient gives inf / inf = NaN
    @pytest.mark.parametrize("poison, where", [(np.nan, (0, 0)),
                                               (np.inf, ...)])
    def test_non_finite_gradient_fails(self, poison, where):
        x = rand_tensor(np.random.default_rng(40), (2, 3))
        with np.errstate(invalid="ignore"):
            err = finite_difference_check(lambda: T.sum_all(
                self.poisoned_identity(x, poison, where)), [x])
        assert math.isnan(err)
        assert not CheckResult("poisoned", err).passed

    @pytest.mark.parametrize("layout", ["c", "transposed", "strided"])
    def test_any_memory_layout(self, layout):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(8, 8))
        values = {"c": a[:3, :4].copy(), "transposed": a[:4, :3].T,
                  "strided": a[:6:2, :4]}[layout]
        # apart from the C layout, a flat reshape of these values is a copy
        assert np.shares_memory(values.reshape(-1), values) == (layout == "c")
        x = Tensor(values, requires_grad=True)
        w = rand_tensor(rng, (3, 4))
        before = [x.values.copy(), w.values.copy()]
        assert finite_difference_check(
            lambda: T.sum_all(T.mul(T.mul(x, x), w)), [x, w]) < 1e-6
        for p, b in zip((x, w), before):
            assert p.values.tobytes() == b.tobytes()


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
            lambda: T.sum_all(T.mul(T.softmax(s), w)), [s]) < 1e-6
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
