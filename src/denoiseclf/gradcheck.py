"""Finite-difference gradient checking: ``finite_difference_check`` and the
suite that runs it on every differentiable kernel, on the end-to-end
classification loss and on the two objectives the trainer optimizes, at
tiny configurations.

Central differences D(h) with h = ``STEP`` = 1e-5; an op passes when the
max relative error against the analytic gradient is below 1e-4. The one
exception is the gelu chain's ``phase2_loss_gelu_richardson`` line: it uses
the Richardson estimate ``(4·D(h/2) − D(h)) / 3`` at the same h. That
estimate cancels D's O(h²) truncation error; on the gelu chain plain
central differences read about 3e-3 and the Richardson estimate about 7e-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .data import PairedExample, sentences_of
from .denoise import DenoiseConfig, DenoiseStack
from .encoder import (EncoderConfig, EncoderParams, ParamTable,
                      self_attention, transformer_block)
from .model import ModelConfig, TextClassifier
from .tensor import Tensor
from .tokenizer import build_vocab
from .train import cache_embeddings, phase1_loss, phase2_loss

TOLERANCE = 1e-4
STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _central(loss_at, h: float = STEP) -> float:
    """The central difference ``D(h) = (L(x + h) - L(x - h)) / 2h``."""
    return (loss_at(h) - loss_at(-h)) / (2.0 * h)


def _richardson(loss_at) -> float:
    """``(4·D(h/2) − D(h)) / 3`` of the central difference D at h = STEP."""
    return (4.0 * _central(loss_at, STEP / 2) - _central(loss_at)) / 3.0


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Sequence[Tensor],
                            estimate=_central) -> float:
    """Max relative error between the analytic gradient and ``estimate``,
    which returns one element's numeric derivative from ``loss_at(d)``, the
    loss with that element moved by ``d``. A NaN or infinite error is the
    result, so a non-finite gradient fails.

    ``loss_fn`` must rebuild the graph from ``params`` on every call. Each
    element is moved in the parameter's own storage, whatever its memory
    layout, and put back bit for bit.
    """
    loss = loss_fn()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    errors = []
    for p, ana in zip(params, analytic):
        for i in range(p.values.size):
            orig = p.values.flat[i]

            def loss_at(d: float) -> float:
                p.values.flat[i] = orig + d
                with T.no_grad():
                    return float(loss_fn().values)

            num = estimate(loss_at)
            p.values.flat[i] = orig
            a = ana.flat[i]
            # floor the denominator so double-precision FD noise on near-zero
            # gradients does not register as relative error
            scale = max(abs(num), abs(a), 1e-5)
            errors.append(abs(num - a) / scale)
    return np.max(errors, initial=0.0)


def _param(rng, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


def _check_op(name, loss_fn, params, estimate=_central) -> CheckResult:
    return CheckResult(name, finite_difference_check(loss_fn, params,
                                                     estimate))


def _summed(op):
    """The loss ``sum(op(*operands))``."""
    return lambda operands, _: T.sum_all(op(*operands))


def _weighted(op):
    """The loss ``sum(op(*operands) * w)`` for the row's constant ``w``."""
    return lambda operands, w: T.sum_all(T.mul(op(*operands), w))


_ATTENTION_WEIGHTS = ((4, 4), (4,)) * 4  # wq, bq, wk, bk, wv, bv, wo, bo

# One row per op check: (name, loss(operands, constant), operand shapes,
# constant shape or None). ``run_op_checks`` draws each row's operands,
# then its constant, from one seeded stream in table order, so a row
# added anywhere but the end changes the draws of every row after it.
OP_CASES = (
    ("matmul", _summed(T.matmul), ((3, 4), (4, 2)), None),
    ("add_broadcast", _summed(lambda x, b: T.mul(x + b, x + b)),
     ((3, 5), (5,)), None),
    ("mul", _summed(lambda u, v: T.mul(T.mul(u, v), v)), ((4, 4), (4, 4)),
     None),
    ("softmax", _weighted(T.softmax), ((3, 6),), (3, 6)),
    ("layernorm", _weighted(T.layernorm), ((4, 6), (6,), (6,)), (4, 6)),
    ("mse_loss", lambda ops, target: T.mse_loss(*ops, target), ((3, 4),),
     (3, 4)),
    ("cross_entropy", lambda ops, _: T.cross_entropy(*ops, [0, 2, 1, 1]),
     ((4, 3),), None),
    ("gelu", _summed(T.gelu), ((3, 4),), None),
    ("tanh", _summed(T.tanh), ((3, 4),), None),
    ("affine", _weighted(T.affine), ((2, 3, 4), (4, 5), (5,)), (2, 3, 5)),
    # two leading axes; one partly and one fully masked row
    ("attention", _weighted(lambda x, *w: T.attention(
        x, (((1, 1, 0), (1, 1, 1)), ((0, 0, 0), (1, 0, 0))), 2, *w)),
     ((2, 2, 3, 4),) + _ATTENTION_WEIGHTS, (2, 2, 3, 4)),
) + tuple(
    (f"mlp_{layout}_{activation or 'none'}",
     _weighted(partial(T.mlp, activation=activation,
                       columns=layout == "columns")), shapes, out_shape)
    for layout, shapes, out_shape in (
        ("rows", ((2, 3, 4), (4, 5), (5,), (5, 3), (3,)), (2, 3, 3)),
        ("columns", ((4, 6), (5, 4), (5, 1), (3, 5), (3, 1)), (3, 6)))
    for activation in (None, "tanh", "gelu")
) + (
    # queries and output from two separate rows, keys and values from all
    # of x; one row with a pad and one fully masked row
    ("attention_query_rows", _weighted(lambda x, rows, *w: T.attention(
        x, ((1, 1, 0), (0, 0, 0)), 2, *w, queries=rows)),
     ((2, 3, 4), (2, 2, 4)) + _ATTENTION_WEIGHTS, (2, 2, 4)),
)


def run_op_checks(seed: int = 0) -> list[CheckResult]:
    """One result per ``OP_CASES`` row, in table order."""
    rng = np.random.default_rng(seed)
    results = []
    for name, loss, shapes, constant_shape in OP_CASES:
        operands = [_param(rng, shape) for shape in shapes]
        constant = (None if constant_shape is None
                    else Tensor(rng.normal(size=constant_shape)))
        results.append(_check_op(name, lambda: loss(operands, constant),
                                 operands))
    return results


def run_block_checks(seed: int = 1) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(hidden_size=8, seq_len=4, num_layers=1, num_heads=2,
                        ff_size=12, vocab_size=10, num_classes=2)
    table = ParamTable(rng)
    blk = EncoderParams(cfg, table).blocks[0]
    x = _param(rng, (4, 8))
    mask = (1, 1, 1, 0)
    target = Tensor(rng.normal(size=(4, 8)))
    block_params = [x] + table.under("block0.")

    def block_loss():
        return T.mse_loss(transformer_block(x, mask, blk, cfg.num_heads),
                          target)

    results = [_check_op("transformer_block", block_loss, block_params)]

    dn = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)), table.scope("stack"))
    h = Tensor(rng.normal(0.0, 1.0, size=(8, 4)).T.copy(), requires_grad=True)
    dn_target = Tensor(rng.normal(size=(8, 4)).T)
    dn_params = [h] + table.under("stack.")
    results.append(_check_op(
        "denoise_stack", lambda: T.mse_loss(dn(h), dn_target), dn_params))

    # a batch of two rows: one partly masked, one fully masked (which
    # attends to position 0 only)
    xb = _param(rng, (2, 4, 8))
    batch_mask = ((1, 1, 0, 0), (0, 0, 0, 0))
    batch_target = Tensor(rng.normal(size=(2, 4, 8)))
    attention_params = [xb] + table.under("block0.")[:8]
    results.append(_check_op(
        "batched_attention",
        lambda: T.mse_loss(self_attention(xb, batch_mask, blk, cfg.num_heads),
                           batch_target),
        attention_params))
    return results


def run_end_to_end_check(seed: int = 2) -> CheckResult:
    """Gradient of the full classification loss at H=8, L=4, 1+1 layers."""
    vocab = build_vocab(["good day", "bad day", "good good", "bad bad"])
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=4, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab), num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2)),
        n_post=1)
    model = TextClassifier(cfg, vocab, seed=seed)
    seqs = [model.encode_sentence("good day"), model.encode_sentence("bad day")]
    labels = [0, 1]

    def loss_fn():
        return T.cross_entropy(model.logits(seqs), labels)

    return _check_op("end_to_end_loss", loss_fn, model.parameters())


_OBJECTIVE_EXAMPLES = [PairedExample(0, "good nite", "good night"),
                       PairedExample(1, "bad dya", "bad day"),
                       PairedExample(2, "so so dy", "so so day"),
                       PairedExample(1, "bad")]


def _objective_model(activation: str | None, seed: int) -> TextClassifier:
    vocab = build_vocab(sentences_of(_OBJECTIVE_EXAMPLES))
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab), num_classes=3),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation=activation),
        n_post=1)
    return TextClassifier(cfg, vocab, seed=seed)


def run_objective_checks(seed: int = 3) -> list[CheckResult]:
    """``phase1_loss`` and ``phase2_loss`` at H=8, L=6, 1+1 layers, on
    four examples of 1-3 words, so every row has pads, and the last one
    unpaired. ``_aux_loss`` holds its target, the complete sentences'
    encoding, constant; the aux line moves only parameters outside the
    encoder, which the target does not depend on, so finite differences
    hold it fixed too, as training does.

    The first three lines use the tanh chain. ``phase2_loss`` is checked
    again on the affine chain, the default, with central differences, and
    on the gelu chain with the Richardson estimate."""
    examples = _OBJECTIVE_EXAMPLES
    model = _objective_model("tanh", seed)
    cached = cache_embeddings(examples[:3], model)
    affine = _objective_model(None, seed)
    gelu = _objective_model("gelu", seed)
    return [
        _check_op("phase1_loss",
                  lambda: phase1_loss(model, cached, np.arange(3)),
                  model.denoise_parameters()),
        _check_op("phase2_loss_aux",
                  lambda: phase2_loss(model, examples, 0.5),
                  model.params.under("stack.", "post.", "head.")),
        _check_op("phase2_loss", lambda: phase2_loss(model, examples, 0.0),
                  model.parameters()),
        _check_op("phase2_loss_affine",
                  lambda: phase2_loss(affine, examples, 0.0),
                  affine.parameters()),
        _check_op("phase2_loss_gelu_richardson",
                  lambda: phase2_loss(gelu, examples, 0.0),
                  gelu.parameters(), _richardson)]


def run_all(seed: int = 0) -> list[CheckResult]:
    results = run_op_checks(seed)
    results += run_block_checks(seed + 1)
    results.append(run_end_to_end_check(seed + 2))
    results += run_objective_checks(seed + 3)
    return results
