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
    loss with that element moved by ``d``.

    ``loss_fn`` must rebuild the graph from ``params`` on every call.
    """
    loss = loss_fn()
    for p in params:
        p.grad = None
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]

            def loss_at(d: float) -> float:
                flat[i] = orig + d
                with T.no_grad():
                    return float(loss_fn().values)

            num = estimate(loss_at)
            flat[i] = orig
            a = ana.reshape(-1)[i]
            # floor the denominator so double-precision FD noise on near-zero
            # gradients does not register as relative error
            scale = max(abs(num), abs(a), 1e-5)
            worst = max(worst, abs(num - a) / scale)
    return worst


def _param(rng, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


def _check_op(name, loss_fn, params, estimate=_central) -> CheckResult:
    return CheckResult(name, finite_difference_check(loss_fn, params,
                                                     estimate))


def run_op_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
    results.append(_check_op(
        "matmul", lambda: T.sum_all(T.matmul(a, b)), [a, b]))

    x, bias = _param(rng, (3, 5)), _param(rng, (5,))
    results.append(_check_op(
        "add_broadcast",
        lambda: T.sum_all(T.mul(x + bias, x + bias)), [x, bias]))

    u, v = _param(rng, (4, 4)), _param(rng, (4, 4))
    results.append(_check_op(
        "mul", lambda: T.sum_all(T.mul(T.mul(u, v), v)), [u, v]))

    s = _param(rng, (3, 6))
    w = Tensor(rng.normal(size=(3, 6)))
    results.append(_check_op(
        "softmax",
        lambda: T.sum_all(T.mul(T.softmax(s), w)), [s]))

    ln_x = _param(rng, (4, 6))
    ln_g, ln_b = _param(rng, (6,)), _param(rng, (6,))
    wl = Tensor(rng.normal(size=(4, 6)))
    results.append(_check_op(
        "layernorm",
        lambda: T.sum_all(T.mul(T.layernorm(ln_x, ln_g, ln_b), wl)),
        [ln_x, ln_g, ln_b]))

    pred = _param(rng, (3, 4))
    target = Tensor(rng.normal(size=(3, 4)))
    results.append(_check_op(
        "mse_loss", lambda: T.mse_loss(pred, target), [pred]))

    logits = _param(rng, (4, 3))
    labels = [0, 2, 1, 1]
    results.append(_check_op(
        "cross_entropy", lambda: T.cross_entropy(logits, labels), [logits]))

    g = _param(rng, (3, 4))
    results.append(_check_op("gelu", lambda: T.sum_all(T.gelu(g)), [g]))

    t = _param(rng, (3, 4))
    results.append(_check_op("tanh", lambda: T.sum_all(T.tanh(t)), [t]))

    aa, ab, abias = (_param(rng, (2, 3, 4)), _param(rng, (4, 5)),
                     _param(rng, (5,)))
    wa = Tensor(rng.normal(size=(2, 3, 5)))
    results.append(_check_op(
        "affine", lambda: T.sum_all(T.mul(T.affine(aa, ab, abias), wa)),
        [aa, ab, abias]))

    # two leading axes; one partly and one fully masked row
    ax = _param(rng, (2, 2, 3, 4))
    att_w = [_param(rng, shape) for _ in range(4) for shape in ((4, 4), (4,))]
    att_mask = (((1, 1, 0), (1, 1, 1)), ((0, 0, 0), (1, 0, 0)))
    wt = Tensor(rng.normal(size=(2, 2, 3, 4)))
    results.append(_check_op(
        "attention",
        lambda: T.sum_all(T.mul(T.attention(ax, att_mask, 2, *att_w), wt)),
        [ax] + att_w))

    for layout, shapes, out_shape in (
            ("rows", ((2, 3, 4), (4, 5), (5,), (5, 3), (3,)), (2, 3, 3)),
            ("columns", ((4, 6), (5, 4), (5, 1), (3, 5), (3, 1)), (3, 6))):
        for activation in (None, "tanh", "gelu"):
            operands = [_param(rng, shape) for shape in shapes]
            weights = Tensor(rng.normal(size=out_shape))
            results.append(_check_op(
                f"mlp_{layout}_{activation or 'none'}",
                lambda: T.sum_all(T.mul(T.mlp(
                    *operands, activation, columns=layout == "columns"),
                    weights)),
                operands))

    # queries and output from two separate rows, keys and values from all
    # of qx; one row with a pad and one fully masked row
    qx, q_rows = _param(rng, (2, 3, 4)), _param(rng, (2, 2, 4))
    q_w = [_param(rng, shape) for _ in range(4) for shape in ((4, 4), (4,))]
    wq = Tensor(rng.normal(size=(2, 2, 4)))
    results.append(_check_op(
        "attention_query_rows",
        lambda: T.sum_all(T.mul(T.attention(
            qx, ((1, 1, 0), (0, 0, 0)), 2, *q_w, queries=q_rows), wq)),
        [qx, q_rows] + q_w))
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
