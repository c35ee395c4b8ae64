"""The engine's lean kernels against the plain expressions they replaced.

``affine`` fuses ``matmul`` and ``add``; ``_erf`` runs only the branches its
input reaches; GELU, layernorm and softmax work in place; ``transpose``
inverts its axes only in the VJP. Each must do the same IEEE operations on
every element as its reference, kept below, so every comparison is on the
bits, not within a tolerance.
"""

import math

import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf.errors import DimensionError
from denoiseclf.tensor import Tensor
from denoiseclf.train import fit
# the gelu stack, its corpus and its training config that test_fused trains
from test_fused import CFG, _examples, _model, same_bits


# -- references: every branch of every element, by boolean mask -----------

def ref_ratio(num, den, z, head):
    xnum, xden = num[-1] * z, z
    for i in range(head):
        xnum = (xnum + num[i]) * z
        xden = (xden + den[i]) * z
    return (xnum + num[head]) / (xden + den[head])


def ref_exp_neg_sq(y):
    ysq = np.trunc(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def ref_erf(x):
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    mid = (y > 0.46875) & (y <= 4.0)
    big = ~(small | mid)
    xs = x[small]
    out[small] = xs * ref_ratio(T._ERF_A, T._ERF_B, xs * xs, 3)
    ym = y[mid]
    erfc_mid = ref_exp_neg_sq(ym) * ref_ratio(T._ERFC_C, T._ERFC_D, ym, 7)
    yb = np.minimum(y[big], 30.0)
    zb = 1.0 / (yb * yb)
    erfc_big = ref_exp_neg_sq(yb) * (
        (T._INV_SQRT_PI - zb * ref_ratio(T._ERFC_P, T._ERFC_Q, zb, 4)) / yb)
    out[mid] = np.copysign((0.5 - erfc_mid) + 0.5, x[mid])
    out[big] = np.copysign((0.5 - erfc_big) + 0.5, x[big])
    return out


def ref_gelu(x):
    e = ref_erf(x * (1.0 / math.sqrt(2.0)))
    values = 0.5 * x * (1.0 + e)

    def vjp(g):
        pdf = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
        return g * (0.5 * (1.0 + e) + x * pdf)
    return values, vjp


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))
    return y, vjp


def ref_layernorm(x, gain, bias, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    values = xhat * gain + bias

    def x_vjp(g):
        gx = g * gain
        return inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return values, (x_vjp, lambda g: T._unbroadcast(g * xhat, gain.shape),
                    lambda g: T._unbroadcast(g, bias.shape))


def composed_affine(a, b, bias):
    return T.add(T.matmul(a, b), bias)


# -- (a) erf on every branch mix -------------------------------------------

RNG = np.random.default_rng(20)
SMALL = np.nextafter(0.46875, 0.0)
ERF_INPUTS = {
    "all_small": RNG.uniform(-0.46875, 0.46875, size=(4, 5, 16)),
    "small_and_mid": RNG.uniform(-4.0, 4.0, size=(3, 40)),
    "all_three": RNG.uniform(-9.0, 9.0, size=(2, 3, 50)),
    "nan_among_small": np.array([0.1, np.nan, -0.2, -np.nan, 0.46875]),
    "nan_among_small_and_mid": np.array([0.1, np.nan, 1.5, -3.0]),
    "nan_everywhere": np.array([0.2, np.nan, 1.5, 6.0, -np.inf]),
    "infinities": np.array([np.inf, -np.inf, 0.3, -2.0]),
    "only_infinities": np.array([[np.inf], [-np.inf]]),
    "empty": np.zeros((0, 3)),
    "thresholds": np.array([0.46875, -0.46875, 4.0, -4.0, SMALL,
                            np.nextafter(0.46875, 1.0), np.nextafter(4.0, 5.0),
                            -np.nextafter(4.0, 5.0)]),
    "small_threshold_only": np.array([0.46875, -0.46875, 0.25]),
    "mid_threshold_only": np.array([4.0, -4.0, 0.25, 1.0]),
    "just_above_small": np.linspace(np.nextafter(0.46875, 1.0), 0.5, 9),
    "just_above_small_with_small": np.concatenate(
        [np.linspace(0.4, 0.5, 11), -np.linspace(0.4, 0.5, 11)]),
    "negative_zero": np.array([-0.0, 0.0, -0.0]),
    "negative_zero_with_mid": np.array([-0.0, 2.0, 0.0]),
    "non_contiguous": RNG.uniform(-6.0, 6.0, size=(8, 6)).T,
    "scalar": np.asarray(0.3),
}


@pytest.mark.parametrize("name", sorted(ERF_INPUTS))
def test_erf_matches_the_masked_reference(name):
    x = ERF_INPUTS[name]
    assert same_bits(T._erf(x), ref_erf(x))


def test_erf_leaves_its_input_alone():
    x = ERF_INPUTS["all_three"].copy()
    T._erf(x)
    assert same_bits(x, ERF_INPUTS["all_three"])


# -- (b) gelu, layernorm, softmax, transpose -------------------------------

def grads_of(out: Tensor, g):
    """The gradient ``out``'s node hands each parent, keyed by its id."""
    return dict(zip((id(p) for p in out._parents), out._vjps(g)))


@pytest.mark.parametrize("scale", [0.05, 1.0, 4.0])
def test_gelu_forward_and_vjp(scale):
    # 0.05 keeps every erf input small; 1.0 and 4.0 reach the mid and big
    # branches
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0.0, scale, size=(2, 7, 12)), requires_grad=True)
    g = rng.normal(size=x.shape)
    out = T.gelu(x)
    values, vjp = ref_gelu(x.values)
    assert same_bits(out.values, values)
    assert same_bits(grads_of(out, g)[id(x)], vjp(g))


def test_layernorm_forward_and_three_vjps():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(1.0, 3.0, size=(2, 3, 12)), requires_grad=True)
    gain = Tensor(rng.normal(size=(12,)), requires_grad=True)
    bias = Tensor(rng.normal(size=(12,)), requires_grad=True)
    g = rng.normal(size=x.shape)
    out = T.layernorm(x, gain, bias)
    values, (x_vjp, gain_vjp, bias_vjp) = ref_layernorm(
        x.values, gain.values, bias.values)
    assert same_bits(out.values, values)
    grads = grads_of(out, g)
    assert same_bits(grads[id(x)], x_vjp(g))
    assert same_bits(grads[id(gain)], gain_vjp(g))
    assert same_bits(grads[id(bias)], bias_vjp(g))


def test_softmax_forward_and_vjp():
    rng = np.random.default_rng(3)
    raw = rng.normal(0.0, 4.0, size=(3, 5, 7))
    raw[..., -2:] += -1e9   # masked keys, as attention adds them
    x = Tensor(raw, requires_grad=True)
    g = rng.normal(size=raw.shape)
    out = T.softmax(x)
    values, vjp = ref_softmax(raw)
    assert same_bits(out.values, values)
    assert same_bits(grads_of(out, g)[id(x)], vjp(g))


@pytest.mark.parametrize("axes", [None, (0, 2, 1, 3), (1, 2, 3, 0),
                                  (3, 0, 2, 1)])
def test_transpose_forward_and_vjp(axes):
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    out = T.transpose(x, axes)
    assert same_bits(out.values, np.transpose(x.values, axes))
    g = rng.normal(size=out.shape)
    inverse = None if axes is None else tuple(np.argsort(axes))
    assert same_bits(grads_of(out, g)[id(x)], np.transpose(g, inverse))


# -- (c) affine against matmul + add ---------------------------------------

AFFINE_CASES = {
    # [d, 1] column bias, as the denoise stages use it
    "columns": ((4, 6), (6, 10), (4, 1)),
    # [H] row bias over leading batch axes, as the transformer blocks use it
    "rows": ((2, 5, 6), (6, 3), (3,)),
    "rows_two_batch_axes": ((2, 3, 4, 5), (5, 6), (6,)),
    "batched_right_operand": ((4, 5), (2, 5, 6), (4, 1)),
}


@pytest.mark.parametrize("name", sorted(AFFINE_CASES))
def test_affine_matches_matmul_plus_add(name):
    rng = np.random.default_rng(5)
    shapes = AFFINE_CASES[name]
    grads, values = [], []
    arrays = [rng.normal(size=s) for s in shapes]
    for op in (T.affine, composed_affine):
        a, b, bias = (Tensor(v.copy(), requires_grad=True) for v in arrays)
        out = op(a, b, bias)
        weights = Tensor(np.random.default_rng(6).normal(size=out.shape))
        T.sum_all(T.mul(out, weights)).backward()
        values.append(out.values)
        grads.append([a.grad, b.grad, bias.grad])
    assert same_bits(values[0], values[1])
    for fused, composed in zip(*grads):
        assert same_bits(fused, composed)


@pytest.mark.parametrize("bias_shape", [(5,), (2, 4, 3), (4, 2)])
def test_affine_rejects_a_bias_that_does_not_broadcast(bias_shape):
    a, b = Tensor(np.ones((4, 6))), Tensor(np.ones((6, 3)))
    with pytest.raises(DimensionError, match="bias shape"):
        T.affine(a, b, Tensor(np.ones(bias_shape)))


def test_affine_rejects_incompatible_operands():
    with pytest.raises(DimensionError, match="incompatible shapes"):
        T.affine(Tensor(np.ones((4, 6))), Tensor(np.ones((5, 3))),
                 Tensor(np.ones(3)))
    with pytest.raises(DimensionError, match="incompatible shapes"):
        T.affine(Tensor(np.ones(6)), Tensor(np.ones((6, 3))),
                 Tensor(np.ones(3)))


# -- (d) training is the same with the fused op as with matmul + add -------

def _train_gelu_stack():
    model = _model("gelu")
    fit(_examples(), model, CFG)
    return {name: p.values for name, p in model.named_parameters()}


def test_training_with_affine_matches_composed_matmul_and_add(monkeypatch):
    fused = _train_gelu_stack()
    monkeypatch.setattr(T, "affine", composed_affine)
    composed = _train_gelu_stack()
    assert fused.keys() == composed.keys()
    for name in fused:
        assert same_bits(fused[name], composed[name]), name
