"""Token and span precision/recall/F of tagger label ids, and the span
rule that the term counts share.

The functions that take label ids import numpy when they run, so the
command line, which imports :class:`TagMetrics`, loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..medterm import B_MED, I_MED, LABELS, O

_B, _I, _O = map(LABELS.index, (B_MED, I_MED, O))


@dataclass(frozen=True)
class TagMetrics:
    precision: float
    recall: float
    f_measure: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "TagMetrics":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = (2 * precision * recall / (precision + recall)
             if precision + recall > 0 else 0.0)
        return cls(precision=precision, recall=recall, f_measure=f)


def span_bounds(labels):
    """Start and end offsets, in token order, of the spans in an array of
    label ids of sentences end to end in which no I-MED starts a sentence,
    as in a corpus ``read_conll`` accepts and in tagger output: a span is
    a B-MED and the I-MEDs after it, so an I-MED after an O starts none
    and no span crosses a sentence end."""
    import numpy as np
    labels = np.asarray(labels)
    begins = np.flatnonzero(labels == _B)
    stops = np.append(np.flatnonzero(labels != _I), len(labels))
    return begins, stops[np.searchsorted(stops, begins, "right")]


def _aligned(predicted, gold):
    import numpy as np
    predicted, gold = np.asarray(predicted), np.asarray(gold)
    if predicted.shape != gold.shape:
        raise ValueError(
            f"{len(predicted)} predicted labels vs {len(gold)} gold")
    return predicted, gold


def evaluate_tagger(predicted, gold) -> TagMetrics:
    """Token-level precision/recall/F over the positive labels, given the
    label ids of the same tokens.

    Micro-averaged across B-MED and I-MED: a token counts as a true
    positive only when predicted and gold labels agree exactly, so a B/I
    confusion costs both a false positive and a false negative.
    """
    predicted, gold = _aligned(predicted, gold)
    positive = predicted != _O
    tp = int((positive & (predicted == gold)).sum())
    return TagMetrics.from_counts(tp, int(positive.sum()) - tp,
                                  int((gold != _O).sum()) - tp)


def evaluate_tagger_spans(predicted, gold) -> TagMetrics:
    """Secondary report: exact-span precision/recall/F, given the label
    ids of the same tokens, spans as ``span_bounds`` reads them.

    A predicted span counts only when both its boundaries match a gold
    span. Stricter than the token-level view and more sensitive to the
    boundary errors dictionary projection tends to make.
    """
    import numpy as np
    predicted, gold = _aligned(predicted, gold)
    # A span is one key, its start and end; each start opens one span.
    keys = [begins * (len(gold) + 1) + ends
            for begins, ends in map(span_bounds, (predicted, gold))]
    tp = len(np.intersect1d(*keys, assume_unique=True))
    return TagMetrics.from_counts(tp, len(keys[0]) - tp, len(keys[1]) - tp)
