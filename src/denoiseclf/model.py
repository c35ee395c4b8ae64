"""Full classifier: encoder, denoising block, post blocks and softmax head.

``mode="stacked"`` routes the intermediate embedding through the denoising
stacks and post-reconstruction blocks; ``mode="baseline"`` bypasses them,
classifying straight off the encoder's [CLS] column. The forward methods take
a list of ``TokenSequence``s, which runs as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .denoise import DenoiseConfig, DenoiseStack, PostTransformer, refine
from .encoder import (EncoderConfig, EncoderParams, _init, _zeros,
                      encode_intermediate, field_rows)
from .errors import ConfigError
from .tensor import Tensor
from .tokenizer import TokenSequence, Vocabulary, encode

MODES = ("stacked", "baseline")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    denoise: DenoiseConfig | None = None
    n_post: int | None = None  # default: same as encoder depth
    mode: str = "stacked"

    def __post_init__(self):
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


class ClassifierHead:
    """Linear map from the [CLS] feature to class logits."""

    def __init__(self, hidden_size: int, num_classes: int,
                 rng: np.random.Generator):
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {num_classes}")
        self.w = _init(rng, (hidden_size, num_classes))
        self.b = _zeros((num_classes,))

    def named_parameters(self):
        yield "head.w", self.w
        yield "head.b", self.b


class TextClassifier:
    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0):
        if len(vocab) > config.encoder.vocab_size:
            raise ConfigError(
                f"vocabulary has {len(vocab)} entries but config allows "
                f"{config.encoder.vocab_size}")
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        self.encoder = EncoderParams(config.encoder, rng)
        self.stack = DenoiseStack(config.denoise, rng)
        self.post = PostTransformer.build(config.encoder, config.n_post, rng)
        self.head = ClassifierHead(config.encoder.hidden_size,
                                   config.encoder.num_classes, rng)

    # -- parameter groups ---------------------------------------------------
    def named_parameters(self):
        for name, p in self.encoder.named_parameters():
            yield f"encoder.{name}", p
        for name, p in self.stack.named_parameters():
            yield f"stack.{name}", p
        for name, p in self.post.named_parameters():
            yield f"post.{name}", p
        yield from self.head.named_parameters()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def denoise_parameters(self):
        return [p for _, p in self.stack.named_parameters()]

    def trainable_parameters(self):
        """Parameters updated in phase 2, honoring the mode."""
        if self.config.mode == "baseline":
            params = [p for _, p in self.encoder.named_parameters()]
            params += [p for _, p in self.head.named_parameters()]
            return params
        return self.parameters()

    # -- forward ------------------------------------------------------------
    def encode_sentence(self, sentence: str) -> TokenSequence:
        return encode(sentence, self.vocab, self.config.encoder.seq_len)

    def intermediate(self, seqs: Sequence[TokenSequence]) -> Tensor:
        """Encoder output of B sequences in [H, B*L] layout."""
        return encode_intermediate(seqs, self.encoder)

    def logits(self, seqs: Sequence[TokenSequence],
               partial: Tensor | None = None) -> Tensor:
        """[B, C] for B sequences, read off the [CLS] columns of the final
        [H, B*L] feature map. In stacked mode ``partial`` reuses an already
        computed ``stack(intermediate(seqs))``; baseline mode ignores it."""
        if self.config.mode == "baseline":
            h_rec = self.intermediate(seqs)
        else:
            if partial is None:
                partial = self.stack(self.intermediate(seqs))
            h_rec = refine(partial, field_rows(seqs, "attention_mask"),
                           self.post)
        cls = T.transpose(h_rec[:, ::h_rec.shape[1] // len(seqs)])  # [B, H]
        return T.matmul(cls, self.head.w) + self.head.b

    def predict(self, seqs: Sequence[TokenSequence]
                ) -> tuple[np.ndarray, np.ndarray]:
        """Class probabilities [B, C] and argmax labels [B] (ties -> lowest
        index)."""
        with T.no_grad():
            probs = T.softmax(self.logits(seqs), axis=-1).values
        return probs, np.argmax(probs, axis=-1)

    def predict_sentence(self, sentence: str) -> tuple[np.ndarray, int]:
        probs, labels = self.predict([self.encode_sentence(sentence)])
        return probs[0], int(labels[0])
