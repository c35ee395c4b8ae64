"""Denoising reconstruction block: compression/reconstruction MLP stacks.

The compression stack maps each position's H-wide embedding down through
three stages (each a pair of affine maps) to a narrow latent code; the
reconstruction stack mirrors the chain back up to H. Trained against the
clean-sentence embedding under MSE, then refined by post-reconstruction
transformer blocks. ``DenoiseStack`` and ``refine`` take and return
[B, L, H] rows; only inside the stack (``compress``, ``reconstruct``) do the
stages run over [H, B*L] columns, the layout of the paper's notation and of
the stored [out, in] weights.

The stage maps are affine by default; an optional smooth nonlinearity can be
switched in between the two affine maps of each stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import (BlockParams, EncoderConfig, _init, _zeros,
                      transformer_block)
from .errors import ConfigError
from .tensor import Tensor


@dataclass(frozen=True)
class DenoiseConfig:
    """Dimension chain d0 > d1 > d2 > d3 plus per-stage hidden widths."""
    dims: tuple[int, int, int, int]
    hidden_dims: tuple[int, int, int] = ()
    activation: str | None = None  # None (pure affine), "tanh" or "gelu"

    def __post_init__(self):
        d0, d1, d2, d3 = self.dims
        # default chains compress strictly; equal widths are allowed so a
        # lossless identity stack can be configured
        if not (d0 >= d1 >= d2 >= d3 >= 1):
            raise ConfigError(
                f"compression dims must be non-increasing, got {self.dims}")
        if not self.hidden_dims:
            object.__setattr__(self, "hidden_dims", tuple(
                math.ceil(math.sqrt(a * b))
                for a, b in zip(self.dims[:-1], self.dims[1:])))
        if len(self.hidden_dims) != 3:
            raise ConfigError("hidden_dims must have one width per stage")
        if self.activation not in (None, "tanh", "gelu"):
            raise ConfigError(f"unknown activation {self.activation!r}")

    @classmethod
    def for_hidden_size(cls, h: int, activation: str | None = None) -> "DenoiseConfig":
        """Toy-scale default chain (H, H/4, H/8, H/16)."""
        dims = (h, max(h // 4, 4), max(h // 8, 2), max(h // 16, 1))
        if not (dims[0] > dims[1] > dims[2] > dims[3]):
            raise ConfigError(f"hidden size {h} too small for a default chain")
        return cls(dims=dims, activation=activation)


class _Affine:
    """The weight [out, in] and bias [out, 1] of y = W x + b, applied along
    the hidden axis of [in, N] columns."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        # fan-in scaled init: a 0.02-sigma init collapses the six-layer
        # affine chain toward zero and leaves the downstream layernorm
        # amplifying numerical noise
        self.w = _init(rng, (d_out, d_in), std=1.0 / math.sqrt(d_in))
        self.b = _zeros((d_out, 1))


class DenoiseStack:
    """Paired compression and reconstruction stacks over the dim chain."""

    def __init__(self, cfg: DenoiseConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.dims
        a = cfg.hidden_dims
        # compression: d0 -> a1 -> d1 -> a2 -> d2 -> a3 -> d3
        self.down = [
            (_Affine(d[0], a[0], rng), _Affine(a[0], d[1], rng)),
            (_Affine(d[1], a[1], rng), _Affine(a[1], d[2], rng)),
            (_Affine(d[2], a[2], rng), _Affine(a[2], d[3], rng)),
        ]
        # reconstruction mirrors back: d3 -> a3 -> d2 -> a2 -> d1 -> a1 -> d0
        self.up = [
            (_Affine(d[3], a[2], rng), _Affine(a[2], d[2], rng)),
            (_Affine(d[2], a[1], rng), _Affine(a[1], d[1], rng)),
            (_Affine(d[1], a[0], rng), _Affine(a[0], d[0], rng)),
        ]

    def named_parameters(self):
        for i, (first, second) in enumerate(self.down, start=1):
            yield f"down{i}.w1", first.w
            yield f"down{i}.b1", first.b
            yield f"down{i}.w2", second.w
            yield f"down{i}.b2", second.b
        for i, (first, second) in enumerate(self.up, start=1):
            yield f"up{i}.w1", first.w
            yield f"up{i}.b1", first.b
            yield f"up{i}.w2", second.w
            yield f"up{i}.b2", second.b

    def _stage(self, x: Tensor, pair) -> Tensor:
        first, second = pair
        return T.mlp(x, first.w, first.b, second.w, second.b,
                     self.cfg.activation, columns=True)

    def compress(self, h_inc: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """[H, N] columns -> latent codes (z1, z2, z) of widths d1, d2, d3."""
        if h_inc.shape[0] != self.cfg.dims[0]:
            raise ConfigError(
                f"compress expects hidden dim {self.cfg.dims[0]}, "
                f"got {h_inc.shape[0]}")
        z1 = self._stage(h_inc, self.down[0])
        z2 = self._stage(z1, self.down[1])
        z = self._stage(z2, self.down[2])
        return z1, z2, z

    def reconstruct(self, z: Tensor) -> Tensor:
        """Latent [d3, N] -> reconstructed embedding [H, N]."""
        if z.shape[0] != self.cfg.dims[3]:
            raise ConfigError(
                f"reconstruct expects latent dim {self.cfg.dims[3]}, "
                f"got {z.shape[0]}")
        rec2 = self._stage(z, self.up[0])
        rec1 = self._stage(rec2, self.up[1])
        return self._stage(rec1, self.up[2])

    def _reconstructed_columns(self, x: Tensor) -> Tensor:
        """[..., H] rows -> their reconstruction as [H, N] columns."""
        columns = T.transpose(T.reshape(x, (-1, x.shape[-1])))
        return self.reconstruct(self.compress(columns)[2])

    def __call__(self, x: Tensor) -> Tensor:
        """[..., H] rows -> reconstructed rows of the same shape."""
        return T.reshape(T.transpose(self._reconstructed_columns(x)), x.shape)

    def loss(self, x: Tensor, target: np.ndarray) -> Tensor:
        """MSE of ``self(x)`` against ``target`` rows, taken over columns."""
        return T.mse_loss(self._reconstructed_columns(x),
                          target.reshape(-1, target.shape[-1]).T)


@dataclass
class PostTransformer:
    """Post-reconstruction transformer blocks, structurally identical to the
    encoder's."""
    blocks: list = field(default_factory=list)
    num_heads: int = 1

    @classmethod
    def build(cls, cfg: EncoderConfig, n_post: int,
              rng: np.random.Generator) -> "PostTransformer":
        return cls(blocks=[BlockParams(cfg, rng) for _ in range(n_post)],
                   num_heads=cfg.num_heads)

    def named_parameters(self):
        for i, blk in enumerate(self.blocks):
            yield from blk.named_parameters(f"post{i}")


def refine(x: Tensor, mask, post: PostTransformer) -> Tensor:
    """Run [B, L, H] rows (mask [B, L]) through the post blocks."""
    for blk in post.blocks:
        x = transformer_block(x, mask, blk, post.num_heads)
    return x
