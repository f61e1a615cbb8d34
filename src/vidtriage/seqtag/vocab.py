"""Word vocabulary with reserved unknown/padding ids."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


@dataclass(frozen=True)
class Vocab:
    """Dense word-to-id map; id 0 is unknown, id 1 is padding."""

    id_to_word: tuple[str, ...]

    def __post_init__(self):
        if self.id_to_word[:2] != (UNK_TOKEN, PAD_TOKEN):
            raise ValueError("vocab must reserve ids 0/1 for <unk>/<pad>")
        object.__setattr__(
            self, "_word_to_id", {w: i for i, w in enumerate(self.id_to_word)}
        )

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        lookup = self._word_to_id
        return [lookup.get(t, UNK_ID) for t in tokens]


def build_vocab(tokens: Sequence[str]) -> Vocab:
    """Build a vocabulary from every token of a corpus.

    Id order is deterministic: frequency descending, then lexicographic,
    so permuted corpora produce identical vocabularies.
    """
    if not tokens:
        raise ValueError("build_vocab requires a non-empty corpus")
    counts = Counter(tokens)
    kept = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocab(id_to_word=(UNK_TOKEN, PAD_TOKEN, *kept))
