"""The fused kernels, ``attention`` and ``mlp``, against references built
here from the composed bodies they replaced: ``self_attention`` as
``affine``/``reshape``/``transpose``/``matmul``/``mul``/``softmax``, and the
feed-forward and each denoise stage as ``affine``, activation, ``affine``.

The forward does the same IEEE operations as its reference, so values are
compared on the bits. The backward is hand-written and sums in another
order (every weight gradient is one 2-D product over all rows), so
gradients are compared within 1e-12.
"""

import math

import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf.data import PairedExample, sentences_of
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.errors import DimensionError
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tensor import Tensor
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import (TrainConfig, evaluate, train_phase1,
                              train_phase2)

GRAD_TOL = 1e-12


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# -- references: the composed bodies the kernels replaced -------------------

def ref_mask_bias(mask):
    m = np.array(mask, dtype=np.float64)
    m[m.sum(axis=-1) == 0, 0] = 1.0
    return (1.0 - m)[..., None, None, :] * -1e9


def ref_attention(x, mask, num_heads, wq, bq, wk, bk, wv, bv, wo, bo,
                  queries=None):
    rows = x if queries is None else queries
    dh = x.shape[-1] // num_heads
    n = len(x.shape) - 2
    heads_first = (*range(n), n + 1, n, n + 2)
    keys_last = (*range(n), n + 1, n + 2, n)

    def heads(a, w, b, axes):
        split = T.reshape(T.affine(a, w, b), (*a.shape[:-1], num_heads, dh))
        return T.transpose(split, axes)

    q = heads(rows, wq, bq, heads_first)
    k = heads(x, wk, bk, keys_last)
    v = heads(x, wv, bv, heads_first)
    scores = T.mul(T.matmul(q, k), Tensor(1.0 / math.sqrt(dh)))
    att = T.softmax(scores + Tensor(ref_mask_bias(mask)))
    ctx = T.reshape(T.transpose(T.matmul(att, v), heads_first), rows.shape)
    return T.affine(ctx, wo, bo)


ACTIVATIONS = {None: lambda t: t, "tanh": T.tanh, "gelu": T.gelu}


def ref_mlp(x, w1, b1, w2, b2, activation=None, columns=False):
    act = ACTIVATIONS[activation]
    if columns:
        return T.affine(w2, act(T.affine(w1, x, b1)), b2)
    return T.affine(act(T.affine(x, w1, b1)), w2, b2)


# -- cases -------------------------------------------------------------------

H, HEADS, FF = 8, 2, 12
# x shape -> mask; every batched case has a partly and a fully masked row
ATTENTION_CASES = {
    "L_H": ((5, H), (1, 1, 1, 0, 0)),
    "B1": ((1, 5, H), ((1, 1, 0, 0, 0),)),
    "B_L_H": ((3, 5, H), ((1, 1, 1, 1, 1), (1, 1, 0, 0, 0),
                          (0, 0, 0, 0, 0))),
    "B1_B2_L_H": ((2, 2, 5, H), (((1, 1, 1, 0, 0), (0, 0, 0, 0, 0)),
                                 ((1, 0, 0, 0, 0), (1, 1, 1, 1, 1)))),
}
ROW_SHAPES = {"L_H": (5, H), "B1": (1, 5, H), "B_L_H": (3, 5, H),
              "B1_B2_L_H": (2, 2, 5, H)}


def tracked(rng, shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def attention_operands(rng, x_shape):
    weights = []
    for _ in range(4):
        weights += [tracked(rng, (H, H), 0.5), tracked(rng, (H,), 0.5)]
    return [tracked(rng, x_shape)] + weights


def mlp_operands(rng, columns, x_shape=None):
    if columns:
        # a denoise stage: [d_out, d_in] weights, [d_out, 1] biases
        return [tracked(rng, (6, 7)), tracked(rng, (5, 6), 0.5),
                tracked(rng, (5, 1)), tracked(rng, (4, 5), 0.5),
                tracked(rng, (4, 1))]
    return [tracked(rng, x_shape), tracked(rng, (H, FF), 0.5),
            tracked(rng, (FF,)), tracked(rng, (FF, H), 0.5),
            tracked(rng, (H,))]


def run(op, operands, call, weights):
    """Output values and every operand's gradient of sum(out * weights)."""
    for t in operands:
        t.grad = None
    out = call(op, operands)
    T.sum_all(T.mul(out, Tensor(weights))).backward()
    return out.values, [t.grad for t in operands]


def assert_matches_reference(kernel, reference, operands, call):
    rng = np.random.default_rng(99)
    weights = rng.normal(size=call(reference, operands).shape)
    values, grads = run(kernel, operands, call, weights)
    ref_values, ref_grads = run(reference, operands, call, weights)
    assert same_bits(values, ref_values)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g is not None and g.shape == ref.shape, i
        np.testing.assert_allclose(g, ref, rtol=0, atol=GRAD_TOL,
                                   err_msg=f"operand {i}")
        assert np.abs(ref).max() > 0, i


def attention_call(mask):
    return lambda op, ops: op(ops[0], mask, HEADS, *ops[1:])


def query_rows_operands(rng, x_shape, rows=2):
    """The attention operands plus separate query rows, last."""
    operands = attention_operands(rng, x_shape)
    return operands + [tracked(rng, (*x_shape[:-2], rows, H))]


def mlp_call(activation, columns):
    return lambda op, ops: op(*ops, activation, columns=columns)


class TestAgainstTheComposedBodies:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_attention(self, case):
        x_shape, mask = ATTENTION_CASES[case]
        operands = attention_operands(np.random.default_rng(1), x_shape)
        assert_matches_reference(T.attention, ref_attention, operands,
                                 attention_call(mask))

    @pytest.mark.parametrize("case", sorted(ROW_SHAPES))
    @pytest.mark.parametrize("activation", [None, "tanh", "gelu"])
    def test_mlp_rows(self, case, activation):
        operands = mlp_operands(np.random.default_rng(2), False,
                                ROW_SHAPES[case])
        assert_matches_reference(T.mlp, ref_mlp, operands,
                                 mlp_call(activation, False))

    @pytest.mark.parametrize("activation", [None, "tanh", "gelu"])
    def test_mlp_columns(self, activation):
        operands = mlp_operands(np.random.default_rng(3), True)
        assert_matches_reference(T.mlp, ref_mlp, operands,
                                 mlp_call(activation, True))

    @pytest.mark.parametrize("case", ["B_L_H", "B1_B2_L_H"])
    def test_attention_with_query_rows(self, case):
        # queries and output from two separate rows, keys and values from x
        x_shape, mask = ATTENTION_CASES[case]
        operands = query_rows_operands(np.random.default_rng(15), x_shape)
        assert_matches_reference(T.attention, ref_attention, operands,
                                 attention_call(mask))

    def test_key_length_differs_from_head_width(self):
        # L=3 against dh=4: a key gradient put back with the wrong axes
        # cannot even keep its shape
        rng = np.random.default_rng(4)
        operands = attention_operands(rng, (2, 3, H))
        assert_matches_reference(T.attention, ref_attention, operands,
                                 attention_call(((1, 1, 0), (1, 1, 1))))

    def test_key_length_equals_head_width(self):
        # L = dh = 4: a wrong transpose keeps the shape, so only the values
        # can tell
        rng = np.random.default_rng(5)
        operands = attention_operands(rng, (2, 4, H))
        assert_matches_reference(T.attention, ref_attention, operands,
                                 attention_call(((1, 1, 1, 0), (1, 1, 1, 1))))


class MatmulCounter:
    """Stands in for numpy inside the tensor module and counts matmuls."""

    def __init__(self):
        self.calls = 0

    def matmul(self, *args, **kwargs):
        self.calls += 1
        return np.matmul(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def kernel(name):
    return T.attention if name.startswith("attention") else T.mlp


KERNELS = {
    "attention": (attention_operands, (3, 5, H), 3,
                  attention_call(ATTENTION_CASES["B_L_H"][1])),
    # x then feeds only the keys and the values
    "attention_query_rows": (query_rows_operands, (3, 5, H), 2,
                             attention_call(ATTENTION_CASES["B_L_H"][1])),
    "mlp_rows": (lambda rng, shape: mlp_operands(rng, False, shape),
                 (3, 5, H), 1, mlp_call("gelu", False)),
    "mlp_columns": (lambda rng, shape: mlp_operands(rng, True),
                    None, 1, mlp_call("tanh", True)),
}


class TestGraph:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_untracked_input_gets_no_gradient_and_no_vjp(self, name,
                                                         monkeypatch):
        make, shape, input_products, call = KERNELS[name]
        counts = {}
        for x_tracked in (True, False):
            operands = make(np.random.default_rng(6), shape)
            operands[0].requires_grad = x_tracked
            out = call(kernel(name), operands)
            assert len(out._parents) == len(operands) - (not x_tracked)
            counter = MatmulCounter()
            monkeypatch.setattr(T, "np", counter)
            T.sum_all(out).backward()
            monkeypatch.setattr(T, "np", np)
            counts[x_tracked] = counter.calls
            assert (operands[0].grad is not None) == x_tracked
            assert all(t.grad is not None for t in operands[1:])
        # the input's VJP is the only work skipped
        assert counts[True] - counts[False] == input_products

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_no_grad_output_has_no_parents(self, name):
        make, shape, _, call = KERNELS[name]
        operands = make(np.random.default_rng(7), shape)
        tracked_out = call(kernel(name), operands)
        with T.no_grad():
            out = call(kernel(name), operands)
        assert out._parents == () and out._vjps == ()
        assert same_bits(out.values, tracked_out.values)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_all_constant_operands_make_a_constant(self, name):
        make, shape, _, call = KERNELS[name]
        operands = make(np.random.default_rng(8), shape)
        for t in operands:
            t.requires_grad = False
        out = call(kernel(name), operands)
        assert out._parents == () and out._vjps == ()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_second_backward_adds_the_same_gradients(self, name):
        make, shape, _, call = KERNELS[name]
        operands = make(np.random.default_rng(9), shape)
        out = call(kernel(name), operands)
        loss = T.sum_all(T.mul(out, out))
        loss.backward()
        first = [t.grad.copy() for t in operands]
        loss.backward()
        for t, g in zip(operands, first):
            assert same_bits(t.grad, 2.0 * g)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_two_losses_over_one_output_get_their_own_gradients(self, name):
        # a backward that replayed the first pass's gradients would hand
        # loss_b the gradients of loss_a
        make, shape, _, call = KERNELS[name]
        operands = make(np.random.default_rng(10), shape)
        out = call(kernel(name), operands)
        rng = np.random.default_rng(11)
        loss_a = T.sum_all(T.mul(out, Tensor(rng.normal(size=out.shape))))
        loss_b = T.sum_all(T.mul(out, Tensor(rng.normal(size=out.shape))))
        loss_a.backward()
        grads_a = [t.grad.copy() for t in operands]
        for t in operands:
            t.grad = None
        loss_b.backward()
        grads_b = [t.grad.copy() for t in operands]
        for t in operands:
            t.grad = None
        loss_a.backward()
        loss_b.backward()
        for t, ga, gb in zip(operands, grads_a, grads_b):
            np.testing.assert_allclose(t.grad, ga + gb, rtol=0, atol=1e-12)
        assert not np.allclose(grads_a[0], grads_b[0])


class TestShapeErrors:
    def test_columns_must_be_two_dimensional(self):
        operands = mlp_operands(np.random.default_rng(12), True)
        x = Tensor(np.ones((2, 6, 7)))
        with pytest.raises(DimensionError, match="columns"):
            T.mlp(x, *operands[1:], columns=True)

    def test_mismatched_weights(self):
        operands = mlp_operands(np.random.default_rng(13), False, (3, H))
        with pytest.raises(DimensionError, match="incompatible shapes"):
            T.mlp(Tensor(np.ones((3, H + 1))), *operands[1:])

    def test_mask_that_does_not_fit_the_rows(self):
        operands = attention_operands(np.random.default_rng(14), (2, 4, H))
        with pytest.raises(DimensionError, match="mask"):
            T.attention(operands[0], np.ones((3, 4)), HEADS, *operands[1:])


# -- training: the kernels against the composed bodies -----------------------

def _examples():
    pairs = [("good nite", "good night"), ("sweet dreamz", "sweet dreams"),
             ("happy fun day", "happy fun day"), ("bad dya", "bad day"),
             ("awful trubble", "awful trouble"),
             ("hard work pain", "hard work pain"), ("nice nite", None),
             ("sad day", None), ("fun fun", None)]
    return [PairedExample(i % 2, inc, comp)
            for i, (inc, comp) in enumerate(pairs)]


def _model(activation):
    examples = _examples()
    vocab = build_vocab(sentences_of(examples))
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=12, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=20,
                              vocab_size=len(vocab), num_classes=2),
        denoise=DenoiseConfig(dims=(12, 8, 6, 4), activation=activation),
        n_post=1)
    return TextClassifier(config, vocab, seed=3)


CFG = TrainConfig(phase1_epochs=4, phase1_lr=1e-2, phase2_epochs=3,
                  phase2_lr=5e-3, batch_size=4, seed=1, aux_mse_weight=0.1)


def _use_references(monkeypatch):
    monkeypatch.setattr(T, "attention", ref_attention)
    monkeypatch.setattr(T, "mlp", ref_mlp)


@pytest.mark.parametrize("activation", [None, "tanh", "gelu"])
def test_phase1_is_bit_identical_to_the_composed_stages(activation,
                                                        monkeypatch):
    def trained():
        model = _model(activation)
        curve = train_phase1([ex for ex in _examples() if ex.complete],
                             model, CFG)
        return curve, {name: p.values for name, p in model.named_parameters()}

    curve, fused = trained()
    _use_references(monkeypatch)
    ref_curve, composed = trained()
    assert curve == ref_curve
    assert fused.keys() == composed.keys()
    for name in fused:
        assert same_bits(fused[name], composed[name]), name


def test_phase2_with_aux_and_unpaired_examples_matches(monkeypatch):
    examples = _examples()
    assert sum(ex.complete is None for ex in examples) == 3

    def trained():
        model = _model("gelu")
        history = train_phase2(examples, model, CFG)
        params = {name: p.values for name, p in model.named_parameters()}
        return history, params, evaluate(examples, model).counts

    history, fused, counts = trained()
    _use_references(monkeypatch)
    ref_history, composed, ref_counts = trained()
    for record, ref in zip(history, ref_history):
        assert abs(record["loss"] - ref["loss"]) <= 1e-10
    for name in fused:
        np.testing.assert_allclose(fused[name], composed[name], rtol=0,
                                   atol=1e-10, err_msg=name)
    np.testing.assert_array_equal(counts, ref_counts)
    initial = dict(_model("gelu").named_parameters())
    # every parameter moved but the key biases, whose gradient is exactly 0
    for name in fused:
        if name.endswith(".bk"):
            assert not fused[name].any(), name
        else:
            assert not np.array_equal(fused[name], initial[name].values), name
