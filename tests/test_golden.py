"""Pinned SHA-256 digests of the corruption channel's output and of
checkpoint files.

Regenerated corpora must stay byte-identical across versions of the
package, not only across runs of one version: a faster kernel in
``noise`` or ``metrics`` that shifts one random draw, one threshold or one
WER float changes these digests. Checkpoints of seeded, untrained models
pin the parameter init and the file format the same way; a trained
model's bytes depend on the host's BLAS kernels, so none is pinned. A
deliberate change to either output has to update its digests and say so.
"""

import hashlib

import numpy as np
import pytest

from denoiseclf.checkpoint import save_checkpoint
from denoiseclf.data import make_dataset, split_corpus
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import NoiseSpec, corrupt_corpus
from denoiseclf.tokenizer import build_vocab

# words from both replacement tables, so all five categories change text
WORDS = ("please", "you", "your", "message", "people", "tomorrow", "thanks",
         "want", "going", "know", "about", "night", "the", "good", "dreams",
         "send", "train", "late", "station", "really", "day", "so")


def labeled_corpus(n=48, seed=4):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(3)),
             " ".join(rng.choice(WORDS, size=int(rng.integers(4, 10)))))
            for _ in range(n)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def all_kinds_spec(**extra) -> NoiseSpec:
    pool = tuple(sorted({w for _, s in labeled_corpus() for w in s.split()}))
    return NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.05,
                     p_abbreviate=0.1, p_casual=0.1, pool=pool, seed=4,
                     **extra)


DATASET_DIGESTS = {
    "fixed": {
        "train.tsv": "cbe00b8501312b3d1c5d9fd655704f6225f6a14ddb6eef6235ebd2f314d17ab6",
        "test.tsv": "7407802f501c1873ee2a485177a8b95c18da7b31be4572eb39135145e89b6033",
        "manifest.txt": "81a89017248d940c9a9e68e55cce0d02ae3f5ec3a7fac9e01fa92fc8f0aabef5",
    },
    "target": {
        "train.tsv": "69815c52aec5c3978b01fbece0f2cf6cf7e7c20daa44ca47f95f61392d56aa84",
        "test.tsv": "7fd19863af3b1a9efae4c53a8d9c5b9b9753a058a3baa43ef6552215269b3e4d",
        "manifest.txt": "6380b22ce995ee6467ed2b07b66fc38f66fae9578d29bf57c10c794d7048c76a",
    },
}


@pytest.mark.parametrize("case", sorted(DATASET_DIGESTS))
def test_make_dataset_files(case, tmp_path):
    spec = all_kinds_spec(target_wer=0.3 if case == "target" else None)
    train, test = split_corpus(labeled_corpus(), 0.25, 4)
    make_dataset(train, test, spec, tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes())
           for name in DATASET_DIGESTS[case]}
    assert got == DATASET_DIGESTS[case]


CORPUS_DIGESTS = {
    "table": (
        NoiseSpec(p_delete=0.05, p_substitute=0.4, p_repeat=0.05,
                  p_abbreviate=0.1, p_casual=0.1, substitution_policy="table",
                  substitution_table={"night": "nite", "train": "trane",
                                      "good": "gud"}, seed=5),
        "08d4ca5a0dc9fb5cd99c50cb6fccaee6c7bde920249aa066acfa002797f14d95"),
    "empty_pool": (
        NoiseSpec(p_delete=0.1, p_substitute=0.4, p_repeat=0.1,
                  p_abbreviate=0.1, p_casual=0.1, seed=6),
        "7ef9847c951603e38488f3c07867beb02f2c491adad34c9c3011ba202d2ec7c0"),
}


@pytest.mark.parametrize("case", sorted(CORPUS_DIGESTS))
def test_corrupt_corpus_output(case):
    spec, expected = CORPUS_DIGESTS[case]
    noisy = corrupt_corpus([s for _, s in labeled_corpus()], spec)
    assert sha256("\n".join(noisy).encode("utf-8")) == expected


CHECKPOINT_DIGESTS = {
    "stacked_tanh": "ab8f20229428612e8e2af4877760470a4f4e4266ce7176334af711b9adb2e71b",
    "baseline": "ba5983d39508b9ddfa6d20a9336b82d8499fada13162a8d78d54fb5185900b05",
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DIGESTS))
def test_untrained_checkpoint_bytes(case, tmp_path):
    vocab = build_vocab([s for _, s in labeled_corpus()])
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=3),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=1, mode="stacked" if case == "stacked_tanh" else "baseline")
    path = tmp_path / "model.ckpt"
    save_checkpoint(TextClassifier(config, vocab, seed=12), path)
    assert sha256(path.read_bytes()) == CHECKPOINT_DIGESTS[case]
