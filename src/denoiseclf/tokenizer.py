"""Word-level tokenization: vocabulary building and sentence framing.

Sentences are lower-cased, stripped of punctuation (apostrophes inside words
survive), whitespace-split, framed as ``[CLS] ... [SEP]`` and padded to a
fixed length. A sequence is its token ids and its attention mask, 1 up to
and including the ``[SEP]`` and 0 on the pads. With one sentence per input
the encoder reads the segment row from the mask and the position row from
the column index.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigError, DataError, VocabError

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def normalize(sentence: str) -> list[str]:
    """Lower-case and split into bare word tokens, keeping inner apostrophes."""
    return _TOKEN_RE.findall(sentence.lower())


def as_tokens(sentence: str | list[str]) -> list[str]:
    """``normalize(sentence)``, or the sentence itself when it is already
    a token list, so a corpus read many times is normalized once."""
    return sentence if isinstance(sentence, list) else normalize(sentence)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for tok, i in zip(RESERVED, range(4)):
            if self.token_to_id.setdefault(tok, i) != i:
                raise VocabError(f"reserved token {tok} must map to id {i}")
        if sorted(self.token_to_id.values()) != list(range(len(self))):
            raise VocabError("vocabulary ids must be the embedding rows "
                             f"0..{len(self) - 1}, each once")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

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


def build_vocab(corpus: list[str]) -> Vocabulary:
    """Build a vocabulary from every word token of the corpus.

    Ordering is frequency-descending, ties broken lexicographically, so the
    id assignment is stable regardless of corpus order.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for sentence in corpus:
        counts.update(normalize(sentence))
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for i, tok in enumerate(kept, start=len(RESERVED)):
        mapping[tok] = i
    return Vocabulary(mapping)


@dataclass(frozen=True)
class TokenSequence:
    token_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]


def trim_to_longest(seqs: Sequence[TokenSequence]) -> list[TokenSequence]:
    """Cut B sequences to the batch's longest real length.

    ``encode`` makes the mask a prefix, [CLS] tokens [SEP] and then pads, so
    only pad positions go; a batch holding a sentence that fills its length
    keeps its full width.
    """
    width = max(sum(s.attention_mask) for s in seqs)
    return [TokenSequence(s.token_ids[:width], s.attention_mask[:width])
            for s in seqs]


def encode(sentence: str, vocab: Vocabulary, max_len: int = 32) -> TokenSequence:
    """Frame a sentence as [CLS] tokens [SEP] padded to ``max_len``."""
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3, got {max_len}")
    tokens = normalize(sentence)[:max_len - 2]
    ids = [CLS_ID] + [vocab.id_of(t) for t in tokens] + [SEP_ID]
    n = len(ids)
    ids += [PAD_ID] * (max_len - n)
    return TokenSequence(token_ids=tuple(ids),
                         attention_mask=(1,) * n + (0,) * (max_len - n))
