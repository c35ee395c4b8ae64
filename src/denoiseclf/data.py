"""Corpus ingestion and emission: TSV paired corpora, noisy-dataset
generation with a manifest, flat key=value config files, and a synthetic
labeled-corpus generator for experiments.

Corpus files are UTF-8 TSV: ``label<TAB>incomplete<TAB>complete``. Test
splits omit (or leave empty) the complete column, and the loader drops it
structurally so no evaluation path can read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LabelError, ParseError
from .fileio import atomic_write_bytes, atomic_write_text  # noqa: F401
from .metrics import corpus_wer, ibleu
from .noise import NoiseSpec, calibrate, corrupt_corpus
from .tokenizer import normalize


@dataclass(frozen=True)
class PairedExample:
    label: int
    incomplete: str
    complete: str | None = None


def load_corpus(path: str | Path, split: str = "train",
                num_classes: int | None = None) -> list[PairedExample]:
    """Parse a corpus TSV. For ``split="test"`` the complete column is
    dropped even if present."""
    path = Path(path)
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    examples = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(path, lineno, "expected label<TAB>sentence")
        try:
            label = int(parts[0])
        except ValueError:
            raise ParseError(path, lineno,
                             f"label {parts[0]!r} is not an integer") from None
        if label < 0 or (num_classes is not None and label >= num_classes):
            raise LabelError(
                f"{path}:{lineno}: label {label} outside "
                f"[0, {num_classes})")
        incomplete = parts[1]
        if not normalize(incomplete):
            raise ParseError(path, lineno, "incomplete sentence is empty "
                             "after normalization")
        complete = parts[2] if len(parts) > 2 and parts[2] else None
        if split == "test":
            complete = None
        examples.append(PairedExample(label, incomplete, complete))
    return examples


def save_corpus(examples: list[PairedExample], path: str | Path,
                include_complete: bool = True) -> None:
    lines = []
    for ex in examples:
        if include_complete and ex.complete is not None:
            lines.append(f"{ex.label}\t{ex.incomplete}\t{ex.complete}")
        else:
            lines.append(f"{ex.label}\t{ex.incomplete}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def make_dataset(train_clean: list[tuple[int, str]],
                 test_clean: list[tuple[int, str]],
                 spec: NoiseSpec, out_dir: str | Path) -> dict:
    """Corrupt a clean labeled corpus into paired train/test splits.

    The train split keeps the clean sentence as the complete column; the
    test split ships only the corrupted text. Emits ``train.tsv``,
    ``test.tsv`` and ``manifest.txt`` and returns the manifest mapping.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_sentences = [s for _, s in train_clean] + [s for _, s in test_clean]
    if spec.target_wer is not None:
        # calibration's last pass is this dataset; it is not run again
        spec, noisy, (pooled, mean) = calibrate(all_sentences, spec)
    else:
        noisy = corrupt_corpus(all_sentences, spec)
        pooled, mean = corpus_wer(all_sentences, noisy)
    noisy_train = noisy[:len(train_clean)]
    noisy_test = noisy[len(train_clean):]
    train = [PairedExample(label, inc if normalize(inc) else clean, clean)
             for (label, clean), inc in zip(train_clean, noisy_train)]
    test = [PairedExample(label, inc if normalize(inc) else clean, None)
            for (label, clean), inc in zip(test_clean, noisy_test)]
    save_corpus(train, out_dir / "train.tsv", include_complete=True)
    save_corpus(test, out_dir / "test.tsv", include_complete=False)
    manifest = {
        "seed": spec.seed,
        "p_delete": spec.p_delete,
        "p_substitute": spec.p_substitute,
        "p_repeat": spec.p_repeat,
        "p_abbreviate": spec.p_abbreviate,
        "p_casual": spec.p_casual,
        "wer_pooled": pooled,
        "wer_mean": mean,
        "ibleu": ibleu(all_sentences, noisy),
        "train_size": len(train),
        "test_size": len(test),
    }
    atomic_write_text(out_dir / "manifest.txt", format_config(manifest))
    return manifest


def split_corpus(examples: list[tuple[int, str]], test_fraction: float,
                 seed: int) -> tuple[list, list]:
    """Deterministic shuffled split helper for synthetic corpora."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    n_test = max(1, int(round(test_fraction * len(examples))))
    test_idx = set(order[:n_test].tolist())
    train = [examples[i] for i in range(len(examples)) if i not in test_idx]
    test = [examples[i] for i in range(len(examples)) if i in test_idx]
    return train, test


# -- flat key = value config files ------------------------------------------

def parse_config(path: str | Path) -> dict[str, str]:
    config = {}
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(path, lineno, "expected key = value")
        key, _, value = stripped.partition("=")
        config[key.strip()] = value.strip()
    return config


def format_config(mapping: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in mapping.items())


# -- synthetic corpora -------------------------------------------------------

_CLASS_WORDS = (
    ("great", "love", "happy", "wonderful", "enjoy", "best", "amazing",
     "fantastic", "smile", "fun"),
    ("awful", "hate", "sad", "terrible", "worst", "boring", "angry",
     "horrible", "cry", "pain"),
    ("train", "station", "depart", "arrive", "platform", "schedule",
     "connection", "transfer", "line", "stop"),
)

_FILLER = ("the", "a", "is", "was", "it", "this", "day", "time", "thing",
           "really", "so", "very", "i", "feel", "about")


def synthetic_corpus(n_per_class: int, num_classes: int = 2, seed: int = 0,
                     words_per_sentence: int = 7) -> list[tuple[int, str]]:
    """Labeled sentences whose class is carried by a few indicative words
    mixed with shared filler; used by the demos and experiment harness."""
    if num_classes > len(_CLASS_WORDS):
        raise ValueError(f"at most {len(_CLASS_WORDS)} synthetic classes")
    rng = np.random.default_rng(seed)
    corpus = []
    for label in range(num_classes):
        indicative = _CLASS_WORDS[label]
        for _ in range(n_per_class):
            n_ind = int(rng.integers(2, 4))
            words = list(rng.choice(indicative, size=n_ind))
            words += list(rng.choice(_FILLER,
                                     size=words_per_sentence - n_ind))
            rng.shuffle(words)
            corpus.append((label, " ".join(words)))
    order = rng.permutation(len(corpus))
    return [corpus[i] for i in order]
