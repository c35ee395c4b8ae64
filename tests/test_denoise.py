import math

import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf.denoise import DenoiseConfig, DenoiseStack, refine
from denoiseclf.encoder import ParamTable
from denoiseclf.errors import DimensionError
from denoiseclf.tensor import Tensor
from denoiseclf.tokenizer import ConfigError


class TestConfig:
    def test_default_hidden_dims_are_geometric_means(self):
        cfg = DenoiseConfig(dims=(768, 128, 32, 12))
        assert cfg.hidden_dims == (math.ceil(math.sqrt(768 * 128)),
                                   math.ceil(math.sqrt(128 * 32)),
                                   math.ceil(math.sqrt(32 * 12)))

    def test_increasing_chain_rejected(self):
        with pytest.raises(ConfigError):
            DenoiseConfig(dims=(8, 16, 4, 2))

    def test_equal_widths_allowed(self):
        DenoiseConfig(dims=(4, 4, 4, 4))

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            DenoiseConfig(dims=(8, 4, 2, 1), activation="relu")

    def test_for_hidden_size_default_chain(self):
        cfg = DenoiseConfig.for_hidden_size(64)
        assert cfg.dims == (64, 16, 8, 4)

    def test_for_hidden_size_too_small(self):
        with pytest.raises(ConfigError):
            DenoiseConfig.for_hidden_size(2)


class TestShapes:
    def test_paper_scale_latent_shapes(self):
        cfg = DenoiseConfig(dims=(768, 128, 32, 12))
        stack = DenoiseStack(cfg, ParamTable(np.random.default_rng(0)))
        h = Tensor(np.random.default_rng(1).normal(size=(768, 3)))
        z1, z2, z = stack.compress(h)
        assert z1.shape == (128, 3)
        assert z2.shape == (32, 3)
        assert z.shape == (12, 3)
        assert stack.reconstruct(z).shape == (768, 3)

    def test_wrong_input_width_rejected(self):
        stack = DenoiseStack(DenoiseConfig(dims=(8, 4, 2, 1)),
                             ParamTable(np.random.default_rng(2)))
        with pytest.raises(DimensionError):
            stack.compress(Tensor(np.zeros((7, 3))))
        with pytest.raises(DimensionError):
            stack.reconstruct(Tensor(np.zeros((2, 3))))


class TestAffineBehaviour:
    def test_pure_affine_chain_is_linear_in_input(self):
        # with zero biases the default (no activation) stack is a single
        # linear map, so f(ax) == a f(x) and f(x+y) == f(x)+f(y)
        table = ParamTable(np.random.default_rng(3))
        stack = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)), table)
        for p in table.tensors.values():
            if p.values.ndim == 2 and p.values.shape[1] == 1:
                p.values[:] = 0.0
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 5)).T)
        y = Tensor(rng.normal(size=(8, 5)).T)
        fx, fy = stack(x).values, stack(y).values
        np.testing.assert_allclose(
            stack(Tensor(2.5 * x.values)).values, 2.5 * fx, rtol=1e-10)
        np.testing.assert_allclose(
            stack(Tensor(x.values + y.values)).values, fx + fy, rtol=1e-9,
            atol=1e-12)

    def test_identity_chain_can_represent_identity(self):
        # width-preserving chain with identity weights and zero biases
        table = ParamTable(np.random.default_rng(5))
        stack = DenoiseStack(
            DenoiseConfig(dims=(4, 4, 4, 4), hidden_dims=(4, 4, 4)), table)
        for p in table.tensors.values():
            if p.values.shape == (4, 4):
                p.values[:] = np.eye(4)
            else:
                p.values[:] = 0.0
        x = np.random.default_rng(6).normal(size=(4, 3)).T
        np.testing.assert_allclose(stack(Tensor(x)).values, x, atol=1e-12)

    def test_position_locality(self):
        # each sequence position (one row) is mapped independently
        stack = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)),
                             ParamTable(np.random.default_rng(7)))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 4)).T.copy()
        base = stack(Tensor(x)).values
        x2 = x.copy()
        x2[2] += rng.normal(size=8)
        out = stack(Tensor(x2)).values
        changed = np.abs(out - base).max(axis=1) > 0
        np.testing.assert_array_equal(changed, [False, False, True, False])

    def test_rows_keep_their_shape_and_batch_axis(self):
        stack = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)),
                             ParamTable(np.random.default_rng(7)))
        x = np.random.default_rng(8).normal(size=(3, 4, 8))
        out = stack(Tensor(x)).values
        assert out.shape == (3, 4, 8)
        for b in range(3):
            np.testing.assert_allclose(out[b], stack(Tensor(x[b])).values,
                                       rtol=0, atol=1e-12)

    def test_tanh_activation_breaks_linearity(self):
        stack = DenoiseStack(
            DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
            ParamTable(np.random.default_rng(9)))
        x = Tensor(np.random.default_rng(10).normal(size=(8, 3)).T)
        fx = stack(x).values
        f2x = stack(Tensor(2.0 * x.values)).values
        assert not np.allclose(f2x, 2.0 * fx)


class TestLossAndGradients:
    def test_loss_zero_at_perfect_reconstruction(self):
        h = Tensor(np.random.default_rng(11).normal(size=(8, 3)))
        assert float(T.mse_loss(h, Tensor(h.values.copy())).values) == 0.0

    def test_loss_target_receives_no_gradient(self):
        rng = np.random.default_rng(12)
        h_rec = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h_comp = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        T.mse_loss(h_rec, h_comp).backward()
        assert h_rec.grad is not None
        assert h_comp.grad is None

    def test_loss_is_the_mse_of_the_rows(self):
        # the stack takes its MSE over columns; the value and the gradients
        # are those of the MSE over the rows it returns, up to summation
        # order
        table = ParamTable(np.random.default_rng(13))
        stack = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)), table)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 8))
        target = rng.normal(size=(2, 3, 8))
        params = list(table.tensors.values())
        results = []
        for loss_fn in (lambda: stack.loss(Tensor(x), target),
                        lambda: T.mse_loss(stack(Tensor(x)), Tensor(target))):
            for p in params:
                p.grad = None
            loss = loss_fn()
            loss.backward()
            results.append((float(loss.values), [p.grad for p in params]))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)

    def test_stack_gradient_matches_finite_differences(self):
        from denoiseclf.gradcheck import run_block_checks
        results = {r.name: r for r in run_block_checks()}
        assert results["denoise_stack"].passed

    def test_training_reduces_reconstruction_error(self):
        # a few Adam steps on a fixed pair must drop the MSE substantially
        from denoiseclf.tensor import Adam
        table = ParamTable(np.random.default_rng(13))
        stack = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)), table)
        rng = np.random.default_rng(14)
        h_inc = Tensor(rng.normal(size=(8, 5)).T)
        h_comp = Tensor(rng.normal(scale=0.1, size=(8, 5)).T)
        params = list(table.tensors.values())
        opt = Adam(params, lr=1e-2)
        first = None
        for _ in range(60):
            loss = T.mse_loss(stack(h_inc), h_comp)
            if first is None:
                first = float(loss.values)
            loss.backward()
            opt.step()
        last = float(T.mse_loss(stack(h_inc), h_comp).values)
        assert last < 0.2 * first


class TestRefine:
    def test_zero_blocks_is_identity(self):
        h = Tensor(np.random.default_rng(17).normal(size=(8, 4)).T)
        np.testing.assert_array_equal(refine(h, [1] * 4, [], 2).values,
                                      h.values)
