"""Word-level tokenization: vocabulary building and sentence framing.

Sentences are lower-cased, stripped of punctuation (apostrophes inside words
survive), whitespace-split, framed as ``[CLS] ... [SEP]`` and padded to a
fixed length. Segment ids are 1 up to and including the first ``[SEP]`` and
0 afterwards.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, CorpusError, VocabError
from .fileio import atomic_write_text

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def normalize(sentence: str) -> list[str]:
    """Lower-case and split into bare word tokens, keeping inner apostrophes."""
    return _TOKEN_RE.findall(sentence.lower())


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for tok, i in zip(RESERVED, range(4)):
            if self.token_to_id.setdefault(tok, i) != i:
                raise VocabError(f"reserved token {tok} must map to id {i}")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if not hasattr(self, "_id_to_token"):
            self._id_to_token = {i: t for t, i in self.token_to_id.items()}
        try:
            return self._id_to_token[idx]
        except KeyError:
            raise VocabError(f"unknown token id {idx}") from None

    def words(self) -> list[str]:
        """Non-reserved tokens, in id order."""
        return [t for t, i in sorted(self.token_to_id.items(), key=lambda kv: kv[1])
                if t not in RESERVED]

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_lines())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls.from_lines(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def from_lines(cls, text: str) -> "Vocabulary":
        mapping = {}
        for line in text.splitlines():
            if not line:
                continue
            tok, _, idx = line.partition("\t")
            mapping[tok] = int(idx)
        return cls(mapping)

    def to_lines(self) -> str:
        lines = sorted(self.token_to_id.items(), key=lambda kv: kv[1])
        return "".join(f"{tok}\t{i}\n" for tok, i in lines)


def build_vocab(corpus: list[str], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from whitespace tokens with count >= min_count.

    Ordering is frequency-descending, ties broken lexicographically, so the
    id assignment is stable regardless of corpus order.
    """
    if not corpus:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for sentence in corpus:
        counts.update(normalize(sentence))
    kept = sorted((t for t, c in counts.items() if c >= min_count),
                  key=lambda t: (-counts[t], t))
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for i, tok in enumerate(kept, start=len(RESERVED)):
        mapping[tok] = i
    return Vocabulary(mapping)


@dataclass(frozen=True)
class TokenSequence:
    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    position_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    max_len: int


def encode(sentence: str, vocab: Vocabulary, max_len: int = 32) -> TokenSequence:
    """Frame a sentence as [CLS] tokens [SEP] padded to ``max_len``."""
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3, got {max_len}")
    tokens = normalize(sentence)[:max_len - 2]
    ids = [CLS_ID] + [vocab.id_of(t) for t in tokens] + [SEP_ID]
    n = len(ids)
    ids += [PAD_ID] * (max_len - n)
    segments = [1] * n + [0] * (max_len - n)
    mask = [1] * n + [0] * (max_len - n)
    return TokenSequence(
        token_ids=tuple(ids),
        segment_ids=tuple(segments),
        position_ids=tuple(range(max_len)),
        attention_mask=tuple(mask),
        max_len=max_len,
    )


def decode(seq: TokenSequence, vocab: Vocabulary) -> list[str]:
    """Recover the content tokens (reserved frame tokens dropped)."""
    out = []
    for idx, m in zip(seq.token_ids, seq.attention_mask):
        if not m:
            break
        tok = vocab.token_of(idx)
        if tok not in (CLS, SEP, PAD):
            out.append(tok)
    return out
