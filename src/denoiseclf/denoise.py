"""Denoising reconstruction block: compression/reconstruction MLP stacks.

The compression stack maps each position's H-wide embedding down through
three stages (each a pair of affine maps) to a narrow latent code; the
reconstruction stack mirrors the chain back up to H. Trained against the
clean-sentence embedding under MSE, then refined by post-reconstruction
transformer blocks. ``DenoiseStack`` takes and returns [B, L, H] rows;
only inside the stack (``compress``, ``reconstruct``) do the stages run over
[H, B*L] columns, the layout of the paper's notation and of the stored
[out, in] weights. A wrong input width fails in ``tensor.mlp``. ``refine``
takes [B, L, H] rows and returns the [B, 1, H] [CLS] rows the head reads.

The stage maps are affine by default; an optional smooth nonlinearity can be
switched in between the two affine maps of each stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import ParamTable, run_blocks
from .errors import ConfigError, check_fields
from .tensor import Tensor


@dataclass(frozen=True)
class DenoiseConfig:
    """Dimension chain d0 > d1 > d2 > d3 plus per-stage hidden widths."""
    dims: tuple[int, int, int, int]
    hidden_dims: tuple[int, int, int] = ()
    activation: str | None = None  # None (pure affine), "tanh" or "gelu"

    def __post_init__(self):
        check_fields(self)
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
        if min(self.hidden_dims) < 1:
            raise ConfigError(
                f"hidden_dims must be >= 1, got {self.hidden_dims}")
        if self.activation not in (None, "tanh", "gelu"):
            raise ConfigError(f"unknown activation {self.activation!r}")

    @classmethod
    def for_hidden_size(cls, h: int) -> "DenoiseConfig":
        """Toy-scale default chain (H, H/4, H/8, H/16), pure affine."""
        dims = (h, max(h // 4, 4), max(h // 8, 2), max(h // 16, 1))
        if not (dims[0] > dims[1] > dims[2] > dims[3]):
            raise ConfigError(f"hidden size {h} too small for a default chain")
        return cls(dims=dims)


def _stage_params(p: ParamTable, d_in: int, width: int, d_out: int):
    """(w1, b1, w2, b2) of one stage, d_in -> width -> d_out. Fan-in scaled
    init: a 0.02-sigma init collapses the six-layer affine chain toward zero
    and leaves the downstream layernorm amplifying numerical noise."""
    return (p.normal("w1", (width, d_in), std=1.0 / math.sqrt(d_in)),
            p.const("b1", (width, 1)),
            p.normal("w2", (d_out, width), std=1.0 / math.sqrt(width)),
            p.const("b2", (d_out, 1)))


class DenoiseStack:
    """Paired compression and reconstruction stacks over the dim chain; each
    stage is the weights [out, in] and biases [out, 1] of two affine maps
    y = W x + b, applied along the hidden axis of [in, N] columns."""

    def __init__(self, cfg: DenoiseConfig, p: ParamTable):
        self.cfg = cfg
        # compression: d0 -> a1 -> d1 -> a2 -> d2 -> a3 -> d3; reconstruction
        # mirrors it back: d3 -> a3 -> d2 -> a2 -> d1 -> a1 -> d0
        chain = list(zip(cfg.dims[:-1], cfg.hidden_dims, cfg.dims[1:]))
        self.down = [_stage_params(p.scope(f"down{i}"), d_in, width, d_out)
                     for i, (d_in, width, d_out) in enumerate(chain, 1)]
        self.up = [_stage_params(p.scope(f"up{i}"), d_out, width, d_in)
                   for i, (d_in, width, d_out) in enumerate(chain[::-1], 1)]

    def _stage(self, x: Tensor, stage) -> Tensor:
        return T.mlp(x, *stage, self.cfg.activation, columns=True)

    def compress(self, h_inc: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """[H, N] columns -> latent codes (z1, z2, z) of widths d1, d2, d3."""
        z1 = self._stage(h_inc, self.down[0])
        z2 = self._stage(z1, self.down[1])
        z = self._stage(z2, self.down[2])
        return z1, z2, z

    def reconstruct(self, z: Tensor) -> Tensor:
        """Latent [d3, N] -> reconstructed embedding [H, N]."""
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


def refine(x: Tensor, mask, blocks, num_heads: int) -> Tensor:
    """Run [B, L, H] rows (mask [B, L]) through the post ``blocks``, a list
    of ``BlockParams``, for the classifier head: the last block computes
    only the [CLS] row, so the output is [B, 1, H]; with no block it is x
    (see ``encoder.run_blocks``)."""
    return run_blocks(x, mask, blocks, num_heads, cls_only=True)
