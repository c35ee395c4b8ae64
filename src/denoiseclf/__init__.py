"""Noise-robust text classification: a from-scratch transformer encoder
with a denoising reconstruction block, a seeded corruption channel, and
word-level evaluation metrics (WER, inverted BLEU, micro/macro F1)."""

from .data import PairedExample, load_corpus, make_dataset
from .denoise import DenoiseConfig, DenoiseStack
from .encoder import EncoderConfig
from .metrics import (ConfusionMatrix, bleu, ibleu, macro_scores,
                      micro_scores, normalize_matrix, wer)
from .model import ModelConfig, TextClassifier
from .noise import NoiseSpec, calibrate, corrupt
from .tensor import Adam, Tensor
from .tokenizer import Vocabulary, build_vocab, encode
from .train import TrainConfig, evaluate, fit, train_phase1, train_phase2

__version__ = "0.1.0"

__all__ = [
    "Adam", "ConfusionMatrix", "DenoiseConfig", "DenoiseStack",
    "EncoderConfig", "ModelConfig", "NoiseSpec", "PairedExample", "Tensor",
    "TextClassifier", "TrainConfig", "Vocabulary", "bleu", "build_vocab",
    "calibrate", "corrupt", "encode", "evaluate", "fit", "ibleu",
    "load_corpus", "macro_scores", "make_dataset", "micro_scores",
    "normalize_matrix", "train_phase1", "train_phase2", "wer",
]
