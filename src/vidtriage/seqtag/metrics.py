"""Token-level evaluation of tagger output, plus BIO repair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..medterm import B_MED, I_MED, O, span_offsets

_POSITIVE = (B_MED, I_MED)


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


def repair_bio(labels: Sequence[str]) -> list[str]:
    """Rewrite an illegal I-MED (after O or at sentence start) as B-MED.

    Per-token softmax output can emit sequences no BIO reading admits;
    promoting the stray inside-tag to a span start is the minimal fix.
    """
    out = []
    prev = O
    for lab in labels:
        if lab == I_MED and prev == O:
            lab = B_MED
        out.append(lab)
        prev = lab
    return out


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


def evaluate_tagger(
    predictions: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
) -> TagMetrics:
    """Token-level precision/recall/F over the positive labels.

    Micro-averaged across B-MED and I-MED: a token counts as a true
    positive only when predicted and gold labels agree exactly, so a B/I
    confusion costs both a false positive and a false negative. Predictions
    are BIO-repaired before scoring.
    """
    _check_aligned(predictions, gold)
    tp = fp = fn = 0
    for pred_seq, gold_seq in zip(predictions, gold):
        for p, g in zip(repair_bio(pred_seq), gold_seq):
            if p in _POSITIVE and p == g:
                tp += 1
            else:
                if p in _POSITIVE:
                    fp += 1
                if g in _POSITIVE:
                    fn += 1
    return TagMetrics.from_counts(tp, fp, fn)


def evaluate_tagger_spans(
    predictions: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
) -> TagMetrics:
    """Secondary report: exact-span precision/recall/F.

    A predicted span counts only when both its boundaries match a gold
    span. Stricter than the token-level view and more sensitive to the
    boundary errors dictionary projection tends to make.
    """
    _check_aligned(predictions, gold)
    tp = n_pred = n_gold = 0
    for pred_seq, gold_seq in zip(predictions, gold):
        pred_spans = set(span_offsets(repair_bio(pred_seq)))
        gold_spans = set(span_offsets(gold_seq))
        tp += len(pred_spans & gold_spans)
        n_pred += len(pred_spans)
        n_gold += len(gold_spans)
    return TagMetrics.from_counts(tp, n_pred - tp, n_gold - tp)

