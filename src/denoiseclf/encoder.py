"""Transformer encoder front half: summed embeddings plus vanilla blocks.

Input embedding is the sum of token, segment and position table rows: one
sentence per input, so the segment row is the attention mask's value and the
position row is the column index. Blocks are post-layernorm: attention +
residual + LN, then GELU feedforward + residual + LN, the attention and the
feedforward each one fused op.
``embed`` and ``encode_intermediate`` take a list of B ``TokenSequence``s,
so a batch runs as one forward over [B, L, H] rows with one mask row per
sequence. Those rows are the one layout every module hands to the next,
from the embedding through the denoising stacks to the classifier head.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")
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
    """Sum token, segment and position embeddings -> [B, L, H]; segment
    row 1 at the real positions and 0 at the pads, position row t at
    column t."""
    token_ids = field_rows(seqs, "token_ids")
    if token_ids.max() >= params.cfg.vocab_size:
        raise VocabError(
            f"token id {token_ids.max()} outside vocabulary of size "
            f"{params.cfg.vocab_size}")
    tok = T.take_rows(params.token_table, token_ids)
    seg = T.take_rows(params.segment_table, field_rows(seqs, "attention_mask"))
    pos = T.take_rows(params.position_table,
                      np.broadcast_to(np.arange(token_ids.shape[1]),
                                      token_ids.shape))
    return tok + seg + pos


def self_attention(x: Tensor, mask, blk: BlockParams, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [..., L, H] rows (mask
    [..., L]), one ``tensor.attention`` op."""
    return T.attention(x, mask, num_heads, blk.wq, blk.bq, blk.wk, blk.bk,
                       blk.wv, blk.bv, blk.wo, blk.bo)


def transformer_block(x: Tensor, mask, blk: BlockParams,
                      num_heads: int) -> Tensor:
    x = T.layernorm(x + self_attention(x, mask, blk, num_heads),
                    blk.ln1_g, blk.ln1_b)
    ff = T.mlp(x, blk.w1, blk.b1, blk.w2, blk.b2, "gelu")
    return T.layernorm(x + ff, blk.ln2_g, blk.ln2_b)


def encode_intermediate(seqs: Sequence[TokenSequence],
                        params: EncoderParams) -> Tensor:
    """Run embedding + all blocks -> [B, L, H] rows."""
    x = embed(seqs, params)
    mask = field_rows(seqs, "attention_mask")
    for blk in params.blocks:
        x = transformer_block(x, mask, blk, params.cfg.num_heads)
    return x
