"""Corpus ingestion and emission: TSV paired corpora, noisy-dataset
generation with a manifest, flat key=value config files, a synthetic
labeled-corpus generator for experiments, and the package's one writer of
files (``atomic_write_text``/``atomic_write_bytes``: temp file, then rename),
which ``checkpoint`` imports from here.

Corpus files are UTF-8 TSV: ``label<TAB>incomplete<TAB>complete``. Test
splits omit (or leave empty) the complete column, and the loader drops it
structurally so no evaluation path can read it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, LabelError, ParseError
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
        if complete is not None and not normalize(complete):
            raise ParseError(path, lineno, "complete sentence is empty "
                             "after normalization")
        examples.append(PairedExample(label, incomplete, complete))
    return examples


def sentences_of(examples) -> list[str]:
    """Every incomplete sentence, then every complete one: all the text a
    split gives the vocabulary."""
    return ([ex.incomplete for ex in examples]
            + [ex.complete for ex in examples if ex.complete is not None])


def save_corpus(examples: list[PairedExample], path: str | Path) -> None:
    lines = []
    for ex in examples:
        if ex.complete is not None:
            lines.append(f"{ex.label}\t{ex.incomplete}\t{ex.complete}")
        else:
            lines.append(f"{ex.label}\t{ex.incomplete}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 via a temp file, then rename."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` via a temp file, then rename."""
    _atomic_write(path, payload)


def _atomic_write(path: str | Path, payload: bytes) -> None:
    """Write to a temp file in ``path``'s directory, then rename it over
    ``path``, so a reader sees the old file or the new one, never a part.
    The public writers call this body, not each other, so wrapping either
    by name (as ``perfbench/tracer.py`` does) sees each write once."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_dataset(train_clean: list[tuple[int, str]],
                 test_clean: list[tuple[int, str]],
                 spec: NoiseSpec, out_dir: str | Path) -> dict:
    """Corrupt a clean labeled corpus into paired train/test splits.

    The train split keeps the clean sentence as the complete column; the
    test split ships only the corrupted text. Emits ``train.tsv``,
    ``test.tsv`` and ``manifest.txt`` and returns the manifest mapping.
    """
    # the clean corpus normalized once, for every pass and metric reading it
    clean = [normalize(s) for _, s in train_clean + test_clean]
    if spec.target_wer is not None:
        # calibration's last pass is this dataset; it is not run again
        spec, noisy, (pooled, mean) = calibrate(clean, spec)
    else:
        noisy = corrupt_corpus(clean, spec)
        pooled, mean = corpus_wer(clean, noisy)
    noisy_tokens = [normalize(s) for s in noisy]
    emptied = [i for i, tokens in enumerate(noisy_tokens) if not tokens]
    for i in emptied:  # a sentence the channel emptied is written clean
        noisy[i], noisy_tokens[i] = " ".join(clean[i]), clean[i]
    if emptied:  # the manifest scores the corpus as written
        pooled, mean = corpus_wer(clean, noisy_tokens)
    train = [PairedExample(label, noisy[i], s)
             for i, (label, s) in enumerate(train_clean)]
    test = [PairedExample(label, noisy[i], None)
            for i, (label, _) in enumerate(test_clean, len(train_clean))]
    # made only now, so a spec or corpus rejected above leaves no outdir
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(train, out_dir / "train.tsv")
    save_corpus(test, out_dir / "test.tsv")
    manifest = {
        "seed": spec.seed,
        "p_delete": spec.p_delete,
        "p_substitute": spec.p_substitute,
        "p_repeat": spec.p_repeat,
        "p_abbreviate": spec.p_abbreviate,
        "p_casual": spec.p_casual,
        "wer_pooled": pooled,
        "wer_mean": mean,
        "ibleu": ibleu(clean, noisy_tokens),
        "train_size": len(train),
        "test_size": len(test),
    }
    atomic_write_text(out_dir / "manifest.txt", format_config(manifest))
    return manifest


def split_corpus(examples: list[tuple[int, str]], test_fraction: float,
                 seed: int) -> tuple[list, list]:
    """Deterministic shuffled split helper for synthetic corpora. Raises
    ``DataError`` when the held-out count leaves no training sentence."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must lie in (0, 1)")
    if not examples:
        raise DataError("empty corpus")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    n_test = max(1, int(round(test_fraction * len(examples))))
    if n_test == len(examples):
        raise DataError(f"test fraction {test_fraction} holds out all "
                        f"{n_test} sentences and leaves none to train on")
    test_idx = set(order[:n_test].tolist())
    train = [examples[i] for i in range(len(examples)) if i not in test_idx]
    test = [examples[i] for i in range(len(examples)) if i in test_idx]
    return train, test


# -- flat key = value config files ------------------------------------------

def config_lines(path: str | Path) -> list[tuple[int, str, str]]:
    """Each ``key = value`` line of a flat config file as (line number, key,
    value), in file order; blank lines and ``#`` comments are skipped."""
    lines = []
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(path, lineno, "expected key = value")
        key, _, value = stripped.partition("=")
        lines.append((lineno, key.strip(), value.strip()))
    return lines


def parse_config(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in config_lines(path)}


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
WORDS_PER_SENTENCE = 7


def synthetic_corpus(n_per_class: int, num_classes: int = 2,
                     seed: int = 0) -> list[tuple[int, str]]:
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
            # the draw choice() makes with replacement and no p, without
            # its copy of the word tuple into a string array
            words = [indicative[i] for i in
                     rng.integers(0, len(indicative), size=n_ind)]
            words += [_FILLER[i] for i in rng.integers(
                0, len(_FILLER), size=WORDS_PER_SENTENCE - n_ind)]
            rng.shuffle(words)
            corpus.append((label, " ".join(words)))
    order = rng.permutation(len(corpus))
    return [corpus[i] for i in order]
