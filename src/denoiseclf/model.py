"""Full classifier: encoder, denoising block, post blocks and softmax head.

``mode="stacked"`` routes the intermediate embedding through the denoising
stacks and post-reconstruction blocks; ``mode="baseline"`` bypasses them,
classifying straight off the encoder's [CLS] row. The forward methods take
a list of ``TokenSequence``s, which runs as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .denoise import DenoiseConfig, DenoiseStack, refine
from .encoder import (BlockParams, EncoderConfig, EncoderParams, ParamTable,
                      encode_intermediate, field_rows)
from .errors import ConfigError, check_fields
from .tensor import Tensor
from .tokenizer import TokenSequence, Vocabulary, encode, trim_to_longest

MODES = ("stacked", "baseline")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    denoise: DenoiseConfig | None = None
    n_post: int | None = None  # default: same as encoder depth
    mode: str = "stacked"

    def __post_init__(self):
        check_fields(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.denoise is None:
            object.__setattr__(
                self, "denoise",
                DenoiseConfig.for_hidden_size(self.encoder.hidden_size))
        if self.denoise.dims[0] != self.encoder.hidden_size:
            raise ConfigError(
                f"denoise chain starts at {self.denoise.dims[0]}, encoder "
                f"hidden size is {self.encoder.hidden_size}")
        if self.n_post is None:
            object.__setattr__(self, "n_post", self.encoder.num_layers)
        if self.n_post < 0:
            raise ConfigError(f"n_post must be >= 0, got {self.n_post}")


class TextClassifier:
    """The model; its parameters are the one ordered map ``params.tensors``,
    in checkpoint order. ``arrays`` (a checkpoint's name -> array map)
    supplies every parameter in place of draws from ``seed``."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0,
                 *, arrays: dict[str, np.ndarray] | None = None):
        if len(vocab) > config.encoder.vocab_size:
            raise ConfigError(
                f"vocabulary has {len(vocab)} entries but config allows "
                f"{config.encoder.vocab_size}")
        if config.encoder.seq_len < 3:   # room for [CLS] and [SEP]
            raise ConfigError(
                f"seq_len must be >= 3, got {config.encoder.seq_len}")
        h, c = config.encoder.hidden_size, config.encoder.num_classes
        if c < 2:
            raise ConfigError(f"need at least 2 classes, got {c}")
        self.config = config
        self.vocab = vocab
        p = self.params = ParamTable(
            np.random.default_rng(seed) if arrays is None else None, arrays)
        self.encoder = EncoderParams(config.encoder, p.scope("encoder"))
        self.stack = DenoiseStack(config.denoise, p.scope("stack"))
        self.post = [BlockParams(config.encoder, p.scope(f"post.post{i}"))
                     for i in range(config.n_post)]
        # linear map from the [CLS] feature to class logits
        self.head_w = p.normal("head.w", (h, c))
        self.head_b = p.const("head.b", (c,))

    # -- parameter groups ---------------------------------------------------
    def named_parameters(self):
        return iter(self.params.tensors.items())

    def parameters(self):
        return list(self.params.tensors.values())

    def denoise_parameters(self):
        return self.params.under("stack.")

    def trainable_parameters(self):
        """Parameters updated in phase 2, honoring the mode."""
        if self.config.mode == "baseline":
            return self.params.under("encoder.", "head.")
        return self.parameters()

    # -- forward ------------------------------------------------------------
    def encode_sentence(self, sentence: str) -> TokenSequence:
        return encode(sentence, self.vocab, self.config.encoder.seq_len)

    def intermediate(self, seqs: Sequence[TokenSequence]) -> Tensor:
        """Encoder output of B sequences as [B, L, H] rows."""
        return encode_intermediate(seqs, self.encoder)

    def logits(self, seqs: Sequence[TokenSequence],
               partial: Tensor | None = None) -> Tensor:
        """[B, C] for B sequences, read off the [CLS] rows of the final
        features. The block that feeds the head computes only that row
        (``cls_only``); with no post block, stacked mode reads row 0 of the
        stack output. In stacked mode ``partial`` reuses an already
        computed ``stack(intermediate(seqs))``; baseline mode ignores it."""
        if self.config.mode == "baseline":
            h = encode_intermediate(seqs, self.encoder, cls_only=True)
        else:
            if partial is None:
                partial = self.stack(self.intermediate(seqs))
            h = refine(partial, field_rows(seqs, "attention_mask"), self.post,
                       self.config.encoder.num_heads)
        return T.affine(h[:, 0], self.head_w, self.head_b)

    def predict(self, seqs: Sequence[TokenSequence]
                ) -> tuple[np.ndarray, np.ndarray]:
        """Class probabilities [B, C] and argmax labels [B] (ties -> lowest
        index).

        The forward runs only as wide as the batch's longest sentence: a pad
        key's softmax weight is exactly 0, every other op works position by
        position and the head reads the [CLS] row, so cutting pads changes
        only the summation order. Training keeps full width, because its
        reconstruction MSE counts the pad positions.
        """
        with T.no_grad():
            probs = T.softmax(self.logits(trim_to_longest(seqs))).values
        return probs, np.argmax(probs, axis=-1)

    def predict_sentence(self, sentence: str) -> tuple[np.ndarray, int]:
        probs, labels = self.predict([self.encode_sentence(sentence)])
        return probs[0], int(labels[0])
