"""Transformer encoder front half: summed embeddings plus vanilla blocks.

Input embedding is the sum of token, segment and position table rows. Blocks
are post-layernorm: attention + residual + LN, then GELU feedforward +
residual + LN. ``embed`` and ``encode_intermediate`` take a list of B
``TokenSequence``s, so a batch runs as one forward over [B, L, H] rows with
one mask row per sequence. ``encode_intermediate`` emits the (hidden,
sequence) column layout consumed by the denoising stacks, [H, B*L].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, VocabError
from .tensor import Tensor
from .tokenizer import TokenSequence


@dataclass(frozen=True)
class EncoderConfig:
    hidden_size: int = 64
    seq_len: int = 32
    num_layers: int = 2
    num_heads: int = 4
    ff_size: int = 128
    vocab_size: int = 1000
    num_classes: int = 2

    def __post_init__(self):
        for name in ("hidden_size", "seq_len", "num_layers", "num_heads",
                     "ff_size", "vocab_size", "num_classes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.hidden_size % self.num_heads:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")


def _init(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    """Truncated-normal init (resample beyond 2 sigma), tracked for gradients."""
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals, requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class BlockParams:
    """One transformer block: attention projections, FFN, two layernorms."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        h, f = cfg.hidden_size, cfg.ff_size
        self.wq, self.wk, self.wv, self.wo = (_init(rng, (h, h)) for _ in range(4))
        self.bq, self.bk, self.bv, self.bo = (_zeros((h,)) for _ in range(4))
        self.w1, self.b1 = _init(rng, (h, f)), _zeros((f,))
        self.w2, self.b2 = _init(rng, (f, h)), _zeros((h,))
        self.ln1_g, self.ln1_b = _ones((h,)), _zeros((h,))
        self.ln2_g, self.ln2_b = _ones((h,)), _zeros((h,))

    def named_parameters(self, prefix: str):
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                     "w1", "b1", "w2", "b2",
                     "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
            yield f"{prefix}.{name}", getattr(self, name)


class EncoderParams:
    """Embedding tables plus a stack of transformer blocks."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.token_table = _init(rng, (cfg.vocab_size, cfg.hidden_size))
        self.segment_table = _init(rng, (2, cfg.hidden_size))
        self.position_table = _init(rng, (cfg.seq_len, cfg.hidden_size))
        self.blocks = [BlockParams(cfg, rng) for _ in range(cfg.num_layers)]

    def named_parameters(self):
        yield "token_table", self.token_table
        yield "segment_table", self.segment_table
        yield "position_table", self.position_table
        for i, blk in enumerate(self.blocks):
            yield from blk.named_parameters(f"block{i}")


def field_rows(seqs: Sequence[TokenSequence], name: str) -> np.ndarray:
    """One field of B sequences as a [B, L] array."""
    return np.asarray([getattr(s, name) for s in seqs])


def embed(seqs: Sequence[TokenSequence], params: EncoderParams) -> Tensor:
    """Sum token, segment and position embeddings -> [B, L, H]."""
    token_ids = field_rows(seqs, "token_ids")
    if token_ids.max() >= params.cfg.vocab_size:
        raise VocabError(
            f"token id {token_ids.max()} outside vocabulary of size "
            f"{params.cfg.vocab_size}")
    tok = T.take_rows(params.token_table, token_ids)
    seg = T.take_rows(params.segment_table, field_rows(seqs, "segment_ids"))
    pos = T.take_rows(params.position_table, field_rows(seqs, "position_ids"))
    return tok + seg + pos


def _mask_bias(mask) -> np.ndarray:
    """Additive pre-softmax bias [..., 1, 1, L] from a [..., L] mask: 0 on
    real keys, -inf-ish on pads; broadcasts over heads and query positions.

    An all-masked row falls back to attending to position 0 only, so no
    softmax row can become NaN.
    """
    m = np.array(mask, dtype=np.float64)
    m[m.sum(axis=-1) == 0, 0] = 1.0
    return (1.0 - m)[..., None, None, :] * -1e9


def self_attention(x: Tensor, mask, blk: BlockParams, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [..., L, H] rows.

    All heads of all rows run as one batched matmul over [..., heads, L, dh].
    """
    *lead, length, h = x.shape
    dh = h // num_heads
    n = len(lead)
    # [.., L, nh, dh] -> [.., nh, L, dh] (self-inverse) and -> [.., nh, dh, L]
    heads_first = (*range(n), n + 1, n, n + 2)
    keys_last = (*range(n), n + 1, n + 2, n)

    def heads(w, b, axes):
        split = T.reshape(T.matmul(x, w) + b, (*lead, length, num_heads, dh))
        return T.transpose(split, axes)

    q = heads(blk.wq, blk.bq, heads_first)
    k = heads(blk.wk, blk.bk, keys_last)
    v = heads(blk.wv, blk.bv, heads_first)
    scores = T.mul(T.matmul(q, k), Tensor(1.0 / math.sqrt(dh)))
    att = T.softmax(scores + Tensor(_mask_bias(mask)), axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(att, v), heads_first), x.shape)
    return T.matmul(ctx, blk.wo) + blk.bo


def transformer_block(x: Tensor, mask, blk: BlockParams,
                      num_heads: int) -> Tensor:
    x = T.layernorm(x + self_attention(x, mask, blk, num_heads),
                    blk.ln1_g, blk.ln1_b)
    ff = T.matmul(T.gelu(T.matmul(x, blk.w1) + blk.b1), blk.w2) + blk.b2
    return T.layernorm(x + ff, blk.ln2_g, blk.ln2_b)


def to_columns(x: Tensor) -> Tensor:
    """[B, L, H] rows -> [H, B*L] columns, sequence b in columns
    b*L .. b*L + L - 1."""
    return T.transpose(T.reshape(x, (-1, x.shape[-1])))


def encode_intermediate(seqs: Sequence[TokenSequence],
                        params: EncoderParams) -> Tensor:
    """Run embedding + all blocks, emitting the [H, B*L] column layout."""
    x = embed(seqs, params)
    mask = field_rows(seqs, "attention_mask")
    for blk in params.blocks:
        x = transformer_block(x, mask, blk, params.cfg.num_heads)
    return to_columns(x)
