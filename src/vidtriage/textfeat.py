"""Deterministic text analytics used as classifier features.

Everything here is a pure function of its inputs: tokenization, sentence
splitting, a syllable heuristic, Flesch-Kincaid grade level, and counters
over small phrase lexicons. No model downloads, no randomness.
``split_words`` is the one word rule, for ``tokenize`` and term dictionaries.

Phrases are matched through a ``PhraseIndex`` kept on each lexicon.
Per-token results (syllables, active-verb hits) go into a ``TokenMemo``
that lives as long as one stage: ``compute_text_features`` makes one per
call. No table is kept at module level, so a stage computes the same
tables whatever ran before it in the process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .artifacts import read_lines


class UndefinedReadabilityError(ValueError):
    """Raised when a grade level is requested for text with no words or sentences."""


_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")
_WORD_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789"
                    else 32 for c in range(256))
# A newline, or a whole run of '.', '!' and '?' that whitespace or the
# end of text follows. The look-behind rejects a start inside a run, so a
# long run is matched once rather than once per character; the run's
# first character leads the pattern so the engine can skip to it fast.
_TERMINATOR_RE = re.compile(
    r"[.!?\n](?:(?<=\n)|(?<![.!?]{2})[.!?]*(?=\s|\Z))")
_VOWEL_RUN_RE = re.compile(r"[aeiouy]+")

# Titles and shorthand whose trailing period does not end a sentence.
_ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "fr", "sr", "jr", "st",
    "vs", "etc", "fig", "al", "inc", "ltd", "dept", "est", "approx",
    "e.g", "i.e",
})
_LONGEST_ABBREVIATION = max(map(len, _ABBREVIATIONS))

_BE_FORMS = frozenset({"am", "is", "are", "was", "were", "be", "been", "being"})


@dataclass(frozen=True)
class TokenizedText:
    """Lowercased word tokens plus sentence spans as token-index ranges.

    Sentence ranges are disjoint, ordered, and jointly cover every token.
    """

    tokens: tuple[str, ...]
    sentences: tuple[tuple[int, int], ...]

    @property
    def word_count(self) -> int:
        return len(self.tokens)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)

    def sentence_tokens(self) -> list[list[str]]:
        return [list(self.tokens[a:b]) for a, b in self.sentences]


@dataclass(frozen=True)
class TextFeatures:
    word_count: int
    unique_word_count: int
    sentence_count: int
    transition_word_count: int
    summary_word_count: int
    active_verb_count: int
    readability: float


class PhraseIndex:
    """Longest-first, left-to-right, non-overlapping phrase matcher.

    Built once per phrase set. It maps each phrase's first word to the
    widths of the phrases that start with it, longest first, so a window
    of tokens is joined and looked up only when its first token starts a
    phrase of that width. Membership in ``phrases`` decides every match.
    """

    def __init__(self, phrases: Iterable[str]):
        self.phrases = frozenset(phrases)
        widths: dict[str, set[int]] = {}
        for phrase in self.phrases:
            words = phrase.split(" ")
            widths.setdefault(words[0], set()).add(len(words))
        self._widths = {w: sorted(ws, reverse=True) for w, ws in widths.items()}

    def matches(self, tokens: Sequence[str]) -> list[tuple[int, int]]:
        """(start, width) of every match in ``tokens``, left to right.

        Tokens are non-empty and hold no whitespace, as ``tokenize`` makes
        them, so a window joins into a phrase only when its first token is
        the phrase's first word and its width the phrase's word count.
        """
        n = len(tokens)
        found = []
        free = 0
        for i, token in enumerate(tokens):
            if i < free or token not in self._widths:
                continue
            for width in self._widths[token]:
                if width <= n - i and " ".join(tokens[i:i + width]) in self.phrases:
                    found.append((i, width))
                    free = i + width
                    break
        return found


@dataclass(frozen=True)
class Lexicon:
    """Named set of lowercase single- or multi-word phrases."""

    name: str
    entries: frozenset[str]

    def __post_init__(self):
        for phrase in self.entries:
            if phrase != phrase.strip() or phrase != phrase.lower():
                raise ValueError(f"lexicon {self.name!r}: bad entry {phrase!r}")

    @cached_property
    def index(self) -> PhraseIndex:
        return PhraseIndex(self.entries)


@dataclass
class TokenMemo:
    """Per-token results shared by the texts of one stage.

    ``syllables`` maps a token to its syllable count. ``verb_hits`` maps a
    verb lexicon's entries to {token: some base form is an entry}.
    """

    syllables: dict[str, int] = field(default_factory=dict)
    verb_hits: dict[frozenset[str], dict[str, bool]] = field(default_factory=dict)


def load_lexicon(path, name: Optional[str] = None) -> Lexicon:
    """Load a lexicon file: one phrase per line, '#' starts a comment."""
    path = Path(path)
    entries = set()
    for line in read_lines(path):
        phrase = line.split("#", 1)[0].strip().lower()
        if phrase:
            entries.add(" ".join(phrase.split()))
    return Lexicon(name=name or path.stem, entries=frozenset(entries))


def _closes_abbreviation(text: str, i: int) -> bool:
    """Whether the word before position i is an abbreviation or an initial.

    The word is the run of letters, digits, '.' and "'" that ends at i,
    where a whole run of terminators starts, so the word ends in no
    period. A word longer than every abbreviation is neither, so at most
    one character more than the longest abbreviation is read.
    """
    k = i
    while (k > 0 and i - k <= _LONGEST_ABBREVIATION
           and (text[k - 1].isalnum() or text[k - 1] in ".'")):
        k -= 1
    word = text[k:i].lower()
    return word in _ABBREVIATIONS or (len(word) == 1 and word.isalpha())


def split_words(text: str) -> list[str]:
    """Lowercased runs of ASCII letters and digits; an apostrophe between
    two runs stays inside the word, as in "crohn's". Text without an
    apostrophe is split where ``_WORD_BYTES`` puts spaces (each character
    that is not ASCII encodes as one '?'), 2.5x faster than ``_WORD_RE``."""
    text = text.lower()
    if "'" in text:
        return _WORD_RE.findall(text)
    return text.encode("ascii", "replace").translate(_WORD_BYTES).decode().split()


def tokenize(text: str) -> TokenizedText:
    """Split text into lowercase word tokens grouped into sentences.

    A newline ends a sentence. So does a run of '.', '!' and '?' that
    whitespace or the end of text follows, unless the run is all periods
    and closes an abbreviation or a single-letter initial. Chunks that
    contain no word tokens are dropped. Each character is read a bounded
    number of times, so the time is linear in the text.
    """
    chunks: list[str] = []
    start = 0
    for m in _TERMINATOR_RE.finditer(text):
        # A newline, or a run holding '!' or '?', always ends a sentence.
        if m.group().strip(".") or not _closes_abbreviation(text, m.start()):
            chunks.append(text[start:m.end()])
            start = m.end()
    chunks.append(text[start:])

    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    for chunk in chunks:
        words = split_words(chunk)
        if not words:
            continue
        sentences.append((len(tokens), len(tokens) + len(words)))
        tokens.extend(words)
    return TokenizedText(tokens=tuple(tokens), sentences=tuple(sentences))


def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel runs with a silent-e adjustment, min 1."""
    if not word or not word.isalpha():
        raise ValueError(f"count_syllables expects an alphabetic word, got {word!r}")
    w = word.lower()
    runs = len(_VOWEL_RUN_RE.findall(w))
    if runs > 1 and w.endswith("e") and not w.endswith("le"):
        runs -= 1
    return max(runs, 1)


def _token_syllables(token: str) -> int:
    letters = "".join(c for c in token if c.isalpha())
    if not letters:
        return 1
    return count_syllables(letters)


def readability(text: str) -> float:
    """Flesch-Kincaid grade level of the text.

    grade = 0.39 * words/sentences + 11.8 * syllables/words - 15.59.
    Unpunctuated transcripts form one long sentence and thus score very
    high grades; trivial text can score below zero. Both are expected.
    """
    tok = tokenize(text)
    return readability_from_tokens(tok)


def readability_from_tokens(tok: TokenizedText,
                            memo: Optional[TokenMemo] = None) -> float:
    if tok.word_count == 0 or tok.sentence_count == 0:
        raise UndefinedReadabilityError("readability needs at least one word and sentence")
    table = (memo if memo is not None else TokenMemo()).syllables
    for t in set(tok.tokens).difference(table):
        table[t] = _token_syllables(t)
    syllables = sum(map(table.__getitem__, tok.tokens))
    return (0.39 * tok.word_count / tok.sentence_count
            + 11.8 * syllables / tok.word_count
            - 15.59)


def lexicon_count(tok: TokenizedText, lex: Lexicon) -> int:
    """Count lexicon phrase occurrences: longest match first, non-overlapping."""
    return len(lex.index.matches(tok.tokens))


def _verb_base_candidates(word: str) -> list[str]:
    """Strip common inflections so 'removes', 'removed', 'removing' hit 'remove'."""
    cands = [word]
    if word.endswith("ies") and len(word) > 4:
        cands.append(word[:-3] + "y")
    if word.endswith("es") and len(word) > 3:
        cands.append(word[:-2])
    if word.endswith("s") and len(word) > 3:
        cands.append(word[:-1])
    if word.endswith("ied") and len(word) > 4:
        cands.append(word[:-3] + "y")
    if word.endswith("ed") and len(word) > 3:
        cands.append(word[:-2])
        cands.append(word[:-1])
    if word.endswith("ing") and len(word) > 4:
        base = word[:-3]
        cands.append(base)
        cands.append(base + "e")
        if len(base) >= 3 and base[-1] == base[-2]:
            cands.append(base[:-1])
    return cands


def active_verb_count(tok: TokenizedText, verb_lex: Lexicon,
                      memo: Optional[TokenMemo] = None) -> int:
    """Count verb-lexicon tokens not immediately preceded by a be-form.

    A passive construction like "polyps are removed" puts a be-form right
    before the verb, so skipping those approximates active voice without a
    part-of-speech tagger.
    """
    entries = verb_lex.entries
    hits = (memo if memo is not None else TokenMemo()).verb_hits.setdefault(entries, {})
    for t in set(tok.tokens).difference(hits):
        hits[t] = any(c in entries for c in _verb_base_candidates(t))
    return sum(1 for prev, t in zip(("",) + tok.tokens, tok.tokens)
               if hits[t] and prev not in _BE_FORMS)


def extract_text_features(
    text: str,
    transition_lex: Lexicon,
    summary_lex: Lexicon,
    verb_lex: Lexicon,
    memo: Optional[TokenMemo] = None,
) -> TextFeatures:
    """Compute the full per-text feature block.

    Empty or speechless inputs produce all-zero counts and a readability of
    0.0, so a silent video flows through the pipeline instead of aborting
    it. Pass one ``memo`` to every call of a stage to reuse per-token work
    across its texts.
    """
    tok = tokenize(text)
    # ``tokenize`` puts every word in a sentence, so a text with a word
    # always has a defined grade level.
    if tok.word_count == 0:
        return TextFeatures(0, 0, 0, 0, 0, 0, 0.0)
    return TextFeatures(
        word_count=tok.word_count,
        unique_word_count=len(set(tok.tokens)),
        sentence_count=tok.sentence_count,
        transition_word_count=lexicon_count(tok, transition_lex),
        summary_word_count=lexicon_count(tok, summary_lex),
        active_verb_count=active_verb_count(tok, verb_lex, memo),
        readability=readability_from_tokens(tok, memo),
    )


def load_stopwords(path) -> frozenset[str]:
    """Stopword files share the lexicon format; only single words are kept."""
    lex = load_lexicon(path, name="stopwords")
    return frozenset(w for w in lex.entries if " " not in w)
