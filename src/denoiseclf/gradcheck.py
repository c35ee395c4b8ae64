"""Finite-difference verification suite for every differentiable kernel and
for the end-to-end training loss at a tiny configuration.

Central differences with h = 1e-5; an op passes when the max relative error
against the analytic gradient is below 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .denoise import DenoiseConfig, DenoiseStack
from .encoder import (EncoderConfig, EncoderParams, self_attention,
                      transformer_block)
from .model import ModelConfig, TextClassifier
from .tensor import Tensor, finite_difference_check
from .tokenizer import build_vocab, encode

TOLERANCE = 1e-4
STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _param(rng, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


def _check_op(name, loss_fn, params) -> CheckResult:
    return CheckResult(name, finite_difference_check(loss_fn, params, h=STEP))


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
        lambda: T.sum_all(T.mul(T.softmax(s, axis=1), w)), [s]))

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

    return results


def run_block_checks(seed: int = 1) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(hidden_size=8, seq_len=4, num_layers=1, num_heads=2,
                        ff_size=12, vocab_size=10, num_classes=2)
    params = EncoderParams(cfg, rng)
    blk = params.blocks[0]
    x = _param(rng, (4, 8))
    mask = (1, 1, 1, 0)
    target = Tensor(rng.normal(size=(4, 8)))
    block_params = [x] + [p for _, p in blk.named_parameters("blk")]

    def block_loss():
        return T.mse_loss(transformer_block(x, mask, blk, cfg.num_heads),
                          target)

    results = [_check_op("transformer_block", block_loss, block_params)]

    dn = DenoiseStack(DenoiseConfig(dims=(8, 6, 4, 2)), rng)
    h = _param(rng, (8, 4))
    dn_target = Tensor(rng.normal(size=(8, 4)))
    dn_params = [h] + [p for _, p in dn.named_parameters()]
    results.append(_check_op(
        "denoise_stack", lambda: T.mse_loss(dn(h), dn_target), dn_params))

    # a batch of two rows: one partly masked, one fully masked (which
    # attends to position 0 only)
    xb = _param(rng, (2, 4, 8))
    batch_mask = ((1, 1, 0, 0), (0, 0, 0, 0))
    batch_target = Tensor(rng.normal(size=(2, 4, 8)))
    attention_params = [xb] + [p for _, p in blk.named_parameters("blk")][:8]
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


def run_all(seed: int = 0) -> list[CheckResult]:
    results = run_op_checks(seed)
    results += run_block_checks(seed + 1)
    results.append(run_end_to_end_check(seed + 2))
    return results
