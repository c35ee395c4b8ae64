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

import copy
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, CorruptionError, VocabError, check_fields
from .tensor import Tensor
from .tokenizer import TokenSequence


@dataclass(frozen=True)
class EncoderConfig:
    hidden_size: int = 64
    seq_len: int = 32
    num_layers: int = 2
    num_heads: int = 4
    ff_size: int | None = None  # default: 2 * hidden_size
    vocab_size: int = 1000
    num_classes: int = 2

    def __post_init__(self):
        check_fields(self)
        if self.ff_size is None:
            object.__setattr__(self, "ff_size", 2 * self.hidden_size)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"{f.name} must be positive")
        if self.hidden_size % self.num_heads:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")


class ParamTable:
    """A model's parameters as one ordered name -> ``Tensor`` map; each is
    made once, by the call that names it and gives its shape and init.
    From ``rng``, the weights draw in the order they are made (biases and
    gains draw nothing). From ``arrays`` (a checkpoint's), each parameter
    takes the array of its name once its shape and finiteness are checked,
    and nothing is drawn. ``scope`` gives a sub-module a view that prefixes
    its names."""

    def __init__(self, rng: np.random.Generator | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        self.rng, self.arrays, self.prefix = rng, arrays, ""
        self.tensors: dict[str, Tensor] = {}

    def scope(self, name: str) -> "ParamTable":
        view = copy.copy(self)   # shares the map
        view.prefix = f"{self.prefix}{name}."
        return view

    def under(self, *prefixes: str) -> list[Tensor]:
        """The tensors whose names start with one of ``prefixes``, in order."""
        return [t for n, t in self.tensors.items() if n.startswith(prefixes)]

    def normal(self, name: str, shape, std: float = 0.02) -> Tensor:
        """Truncated-normal init: each value beyond 2 sigma is redrawn."""
        def draw():
            vals = self.rng.normal(0.0, std, size=shape)
            bad = np.abs(vals) > 2.0 * std
            while bad.any():
                vals[bad] = self.rng.normal(0.0, std, size=int(bad.sum()))
                bad = np.abs(vals) > 2.0 * std
            return vals
        return self._make(name, shape, draw)

    def const(self, name: str, shape, value: float = 0.0) -> Tensor:
        return self._make(name, shape, lambda: np.full(shape, value))

    def _make(self, name: str, shape, init) -> Tensor:
        name = self.prefix + name
        if self.arrays is None:
            values = init()
        else:
            values = self.arrays.get(name)
            if values is None:
                raise CorruptionError(f"array {name} is missing")
            if values.shape != shape:
                raise CorruptionError(
                    f"array {name} has shape {values.shape}, "
                    f"expected {shape}")
            if not np.isfinite(values).all():
                raise CorruptionError(f"array {name} is not finite")
        self.tensors[name] = Tensor(values, requires_grad=True)
        return self.tensors[name]


class BlockParams:
    """One transformer block: attention projections, FFN, two layernorms."""

    def __init__(self, cfg: EncoderConfig, p: ParamTable):
        h, f = cfg.hidden_size, cfg.ff_size
        self.wq, self.bq = p.normal("wq", (h, h)), p.const("bq", (h,))
        self.wk, self.bk = p.normal("wk", (h, h)), p.const("bk", (h,))
        self.wv, self.bv = p.normal("wv", (h, h)), p.const("bv", (h,))
        self.wo, self.bo = p.normal("wo", (h, h)), p.const("bo", (h,))
        self.w1, self.b1 = p.normal("w1", (h, f)), p.const("b1", (f,))
        self.w2, self.b2 = p.normal("w2", (f, h)), p.const("b2", (h,))
        self.ln1_g = p.const("ln1_g", (h,), 1.0)
        self.ln1_b = p.const("ln1_b", (h,))
        self.ln2_g = p.const("ln2_g", (h,), 1.0)
        self.ln2_b = p.const("ln2_b", (h,))


class EncoderParams:
    """Embedding tables plus a stack of transformer blocks."""

    def __init__(self, cfg: EncoderConfig, p: ParamTable):
        self.cfg = cfg
        h = cfg.hidden_size
        self.token_table = p.normal("token_table", (cfg.vocab_size, h))
        self.segment_table = p.normal("segment_table", (2, h))
        self.position_table = p.normal("position_table", (cfg.seq_len, h))
        self.blocks = [BlockParams(cfg, p.scope(f"block{i}"))
                       for i in range(cfg.num_layers)]


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


def self_attention(x: Tensor, mask, blk: BlockParams, num_heads: int,
                   queries: Tensor | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over [..., L, H] rows (mask
    [..., L]), one ``tensor.attention`` op; ``queries`` are the rows its
    queries and output come from (default: all of x)."""
    return T.attention(x, mask, num_heads, blk.wq, blk.bq, blk.wk, blk.bk,
                       blk.wv, blk.bv, blk.wo, blk.bo, queries)


def transformer_block(x: Tensor, mask, blk: BlockParams, num_heads: int,
                      queries: Tensor | None = None) -> Tensor:
    """One block over [..., L, H] rows; with ``queries`` it computes only
    those rows, attending over every row of x."""
    rows = x if queries is None else queries
    x = T.layernorm(rows + self_attention(x, mask, blk, num_heads, queries),
                    blk.ln1_g, blk.ln1_b)
    ff = T.mlp(x, blk.w1, blk.b1, blk.w2, blk.b2, "gelu")
    return T.layernorm(x + ff, blk.ln2_g, blk.ln2_b)


def run_blocks(x: Tensor, mask, blocks: Sequence[BlockParams],
               num_heads: int, cls_only: bool = False) -> Tensor:
    """[B, L, H] rows (mask [B, L]) through ``blocks``. With ``cls_only``
    the last block computes only the [CLS] row, all a classifier head
    reads: its output is [B, 1, H]."""
    for i, blk in enumerate(blocks):
        last = cls_only and i == len(blocks) - 1
        x = transformer_block(x, mask, blk, num_heads,
                              x[:, :1] if last else None)
    return x


def encode_intermediate(seqs: Sequence[TokenSequence],
                        params: EncoderParams,
                        cls_only: bool = False) -> Tensor:
    """Run embedding + all blocks -> [B, L, H] rows, or with ``cls_only``
    the [B, 1, H] [CLS] rows (see ``run_blocks``)."""
    return run_blocks(embed(seqs, params),
                      field_rows(seqs, "attention_mask"), params.blocks,
                      params.cfg.num_heads, cls_only)
