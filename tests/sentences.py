"""Per-sentence forms of the flat sentence layout, for the tests.

The package holds sentences end to end: flat tokens, label ids (indexes
into ``LABELS``), sentence lengths and video ids. Tests build small
corpora sentence by sentence; the adapters here convert between the two
layouts. The per-sentence functions the package once used to repair,
read, pad and score sentences stay here as the oracles its array forms
are checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional, Sequence

import numpy as np

from vidtriage.medterm import (B_MED, I_MED, LABELS, O,
                               DictionaryFormatError, read_conll)
from vidtriage.seqtag import TagMetrics, label_names
from vidtriage.artifacts import read_lines

# The (previous, next) label pairs BIO admits; O stands before a start.
_FOLLOWS = frozenset({(a, b) for a in LABELS for b in LABELS} - {(O, I_MED)})


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """Token sequence with aligned BIO labels over the single class MED."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )
        if not _FOLLOWS.issuperset(zip((O,) + self.labels, self.labels)):
            for prev, lab in zip((O,) + self.labels, self.labels):
                if lab not in LABELS:
                    raise ValueError(f"unknown label {lab!r}")
                if (prev, lab) not in _FOLLOWS:
                    raise ValueError("I-MED may not follow O or start a sentence")


# ---------------------------------------------------------------- adapters


def label_ids(names) -> list[int]:
    """The id of each label name; an unknown name raises ValueError."""
    return [LABELS.index(name) for name in names]


def flat_tokens(sentences: Sequence[Sequence[str]]):
    """The tokens of ``sentences`` end to end, and each one's length."""
    return list(chain.from_iterable(sentences)), [len(s) for s in sentences]


def flat(corpus: Sequence[TaggedSentence]):
    """Tokens, label ids and lengths of a corpus of TaggedSentences, as
    ``read_conll`` reads them and the trainers take them."""
    tokens, lengths = flat_tokens([s.tokens for s in corpus])
    return (tokens, np.array(label_ids(chain.from_iterable(
        s.labels for s in corpus)), dtype=np.int8), lengths)


def flat_metric(metric, predicted, gold) -> TagMetrics:
    """``metric`` of per-sentence label-name lists, scored end to end."""
    return metric(label_ids(chain.from_iterable(predicted)),
                  label_ids(chain.from_iterable(gold)))


def tagged(tokens, labels, lengths) -> list[TaggedSentence]:
    """TaggedSentences of tokens and label ids of sentences of
    ``lengths`` tokens end to end."""
    tokens, names = iter(tokens), iter(label_names(np.asarray(labels)))
    return [TaggedSentence(tuple(islice(tokens, n)), tuple(islice(names, n)))
            for n in lengths]


def read_tagged(path) -> tuple[list[TaggedSentence], list[Optional[str]]]:
    """``read_conll``'s sentences as TaggedSentences, and their video ids."""
    tokens, labels, lengths, video_ids = read_conll(path)
    return tagged(tokens, labels, lengths), video_ids


def tag_by_sentence(tag, *model_and_sentences):
    """Each sentence's label names from one ``tag(*model, tokens,
    lengths)``, given ``*model, sentences``."""
    *model, sentences = model_and_sentences
    tokens, lengths = flat_tokens(sentences)
    names = iter(label_names(tag(*model, tokens, lengths)))
    return [list(islice(names, n)) for n in lengths]


def sentence_tokens(text) -> list[list[str]]:
    """Each sentence's tokens of a ``TokenizedText``."""
    return [list(text.tokens[a:b]) for a, b in text.sentences]


# ----------------------------------------------------------------- oracles


def repair_bio(labels: Sequence[str]) -> list[str]:
    """Rewrite an illegal I-MED (after O or at sentence start) as B-MED."""
    out = []
    prev = O
    for lab in labels:
        if lab == I_MED and prev == O:
            lab = B_MED
        out.append(lab)
        prev = lab
    return out


def span_offsets(labels: Sequence[str]) -> list[tuple[int, int]]:
    """``(start, end)`` token offsets of each span of one sentence, in
    order. A B-MED opens a span and an O closes it; any other label
    continues the open span, so an I-MED with no span open starts none.
    """
    spans = []
    start = None
    for i, lab in enumerate(labels):
        if lab == B_MED:
            if start is not None:
                spans.append((start, i))
            start = i
        elif lab == O and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(labels)))
    return spans


def ref_span_forms(tokens: Sequence[str], labels: Sequence[str]) -> list[str]:
    """Each span's tokens of one sentence joined by single spaces,
    lowercased."""
    return [" ".join(tokens[a:b]).lower() for a, b in span_offsets(labels)]


def pad_batch(sequences: Sequence[Sequence[int]],
              fill: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences to (B, T) with ``fill``; 0/1 float mask."""
    lengths = np.array([len(seq) for seq in sequences])
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.full(mask.shape, fill, dtype=np.intp)
    out[mask] = np.concatenate(sequences)
    return out, mask.astype(float)


def check_corpus(sentences, labels) -> None:
    """Raise ValueError unless there are sentences, none empty, each with
    as many labels as tokens."""
    if len(sentences) == 0:
        raise ValueError("no sentences")
    if len(sentences) != len(labels):
        raise ValueError(
            f"{len(sentences)} sentences vs {len(labels)} label sequences"
        )
    for i, (s, l) in enumerate(zip(sentences, labels)):
        if len(s) == 0:
            raise ValueError(f"sentence {i} is empty")
        if len(s) != len(l):
            raise ValueError(
                f"sentence {i}: {len(s)} tokens vs {len(l)} labels"
            )


def _check_aligned(predictions, gold):
    if len(predictions) != len(gold):
        raise ValueError(
            f"{len(predictions)} predicted sequences vs {len(gold)} gold"
        )
    for i, (p, g) in enumerate(zip(predictions, gold)):
        if len(p) != len(g):
            raise ValueError(
                f"sequence {i}: {len(p)} predicted labels vs {len(g)} gold"
            )


def ref_evaluate_tagger(predictions, gold) -> TagMetrics:
    """Token-level P/R/F of per-sentence label-name lists; predictions
    are BIO-repaired sentence by sentence before scoring."""
    _check_aligned(predictions, gold)
    tp = fp = fn = 0
    for pred_seq, gold_seq in zip(predictions, gold):
        for p, g in zip(repair_bio(pred_seq), gold_seq):
            if p in (B_MED, I_MED) and p == g:
                tp += 1
            else:
                if p in (B_MED, I_MED):
                    fp += 1
                if g in (B_MED, I_MED):
                    fn += 1
    return TagMetrics.from_counts(tp, fp, fn)


def ref_evaluate_tagger_spans(predictions, gold) -> TagMetrics:
    """Exact-span P/R/F of per-sentence label-name lists, predictions
    BIO-repaired sentence by sentence."""
    _check_aligned(predictions, gold)
    tp = n_pred = n_gold = 0
    for pred_seq, gold_seq in zip(predictions, gold):
        pred_spans = set(span_offsets(repair_bio(pred_seq)))
        gold_spans = set(span_offsets(gold_seq))
        tp += len(pred_spans & gold_spans)
        n_pred += len(pred_spans)
        n_gold += len(gold_spans)
    return TagMetrics.from_counts(tp, n_pred - tp, n_gold - tp)


def ref_read_conll(path) -> tuple[list[TaggedSentence], list[Optional[str]]]:
    """Read a CoNLL-style file sentence by sentence, each sentence's
    labels checked by TaggedSentence when it ends; the first bad label or
    row raises DictionaryFormatError naming its line."""
    sentences: list[TaggedSentence] = []
    video_ids: list[Optional[str]] = []
    rows, rows_at = [], []  # the open sentence's rows and their lines
    current_vid: Optional[str] = None
    for lineno, line in enumerate(read_lines(path) + [""], start=1):
        if line.startswith("#"):
            m = re.match(r"#\s*video_id\s*=\s*(\S+)", line)
            if m:
                current_vid = m.group(1)
            continue
        if line.strip() and line.count("\t") == 1:
            rows.append(line)
            rows_at.append(lineno)
            continue
        if rows:
            cells = "\t".join(rows).split("\t")
            labels = tuple(cells[1::2])
            try:
                sentences.append(TaggedSentence(tuple(cells[::2]), labels))
            except ValueError as exc:
                bad = [p in _FOLLOWS
                       for p in zip((O,) + labels, labels)].index(False)
                raise DictionaryFormatError(
                    f"{path}:{rows_at[bad]}: {exc}") from None
            video_ids.append(current_vid)
            rows, rows_at = [], []
        if line.strip():
            raise DictionaryFormatError(
                f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}"
            )
    return sentences, video_ids
