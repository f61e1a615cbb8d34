"""Token and span tagging metrics of label ids, against the per-sentence
oracles."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vidtriage.medterm import LABELS
from vidtriage.seqtag import TagMetrics, evaluate_tagger, evaluate_tagger_spans
from vidtriage.seqtag._trainutil import decode_in_batches

from sentences import (flat_metric, label_ids, ref_evaluate_tagger,
                       ref_evaluate_tagger_spans, repair_bio)

B, I, O = "B-MED", "I-MED", "O"


def test_from_counts_table_values():
    m = TagMetrics.from_counts(tp=22, fp=2, fn=1)
    assert m.precision == pytest.approx(0.917, abs=0.001)
    assert m.recall == pytest.approx(0.957, abs=0.001)
    assert m.f_measure == pytest.approx(0.936, abs=0.001)


def test_from_counts_degenerate():
    z = TagMetrics.from_counts(0, 0, 0)
    assert (z.precision, z.recall, z.f_measure) == (0.0, 0.0, 0.0)


def test_repair_bio():
    assert repair_bio([I, I, O]) == [B, I, O]
    assert repair_bio([O, I, B]) == [O, B, B]
    assert repair_bio([B, I, I]) == [B, I, I]
    assert repair_bio([]) == []
    # Idempotence on already valid sequences.
    rng = np.random.default_rng(9)
    labels = [B, I, O]
    for _ in range(500):
        seq = [labels[i] for i in rng.integers(0, 3, size=rng.integers(0, 10))]
        fixed = repair_bio(seq)
        assert repair_bio(fixed) == fixed
        prev = O
        for lab in fixed:
            assert not (lab == I and prev == O)
            prev = lab


def test_evaluate_tagger_exact_and_confused():
    gold = [[B, I, O, B]]
    perfect = flat_metric(evaluate_tagger, [[B, I, O, B]], gold)
    assert perfect.precision == 1.0 and perfect.recall == 1.0

    # B/I confusion scores as one fp plus one fn, not a partial credit.
    confused = flat_metric(evaluate_tagger, [repair_bio([I, I, O, B])], gold)
    # Repair turns the leading I into B, so it matches after repair.
    assert confused.f_measure == 1.0

    swapped = flat_metric(evaluate_tagger, [[B, B, O, B]], gold)
    # Position 1: predicted B, gold I -> fp and fn.
    assert swapped.precision == pytest.approx(2 / 3)
    assert swapped.recall == pytest.approx(2 / 3)


def test_evaluate_tagger_counts_by_hand():
    gold = [[B, I, O], [O, B, O]]
    pred = [[B, O, O], [B, B, O]]
    m = flat_metric(evaluate_tagger, pred, gold)
    # tp = 2 (B at 0,0 and B at 1,1), fp = 1 (B at 1,0), fn = 1 (I at 0,1).
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)


def test_evaluate_tagger_length_mismatch():
    with pytest.raises(ValueError):
        flat_metric(evaluate_tagger, [[B]], [[B, O]])
    with pytest.raises(ValueError):
        flat_metric(evaluate_tagger, [[B]], [[B], [O]])


def test_evaluate_tagger_spans():
    gold = [[B, I, O, B]]
    m = flat_metric(evaluate_tagger_spans, [[B, O, O, B]], gold)
    # Predicted spans: (0,1) and (3,4); gold spans: (0,2) and (3,4).
    assert m.precision == pytest.approx(0.5)
    assert m.recall == pytest.approx(0.5)
    perfect = flat_metric(evaluate_tagger_spans, [[B, I, O, B]], gold)
    assert perfect.f_measure == 1.0


def test_micro_average_random_consistency():
    rng = np.random.default_rng(31)
    labels = [B, I, O]
    for _ in range(100):
        n_sent = int(rng.integers(1, 6))
        gold, pred = [], []
        for _ in range(n_sent):
            n = int(rng.integers(1, 8))
            gold.append(repair_bio(
                [labels[i] for i in rng.integers(0, 3, size=n)]
            ))
            pred.append([labels[i] for i in rng.integers(0, 3, size=n)])
        m = flat_metric(evaluate_tagger, [repair_bio(p) for p in pred], gold)
        # Recompute micro counts by hand over repaired predictions.
        tp = fp = fn = 0
        for g, p in zip(gold, pred):
            p = repair_bio(p)
            for gl, pl in zip(g, p):
                if pl in (B, I) and pl == gl:
                    tp += 1
                else:
                    if pl in (B, I):
                        fp += 1
                    if gl in (B, I):
                        fn += 1
        expect = TagMetrics.from_counts(tp, fp, fn)
        assert m.precision == pytest.approx(expect.precision)
        assert m.recall == pytest.approx(expect.recall)
        assert m.f_measure == pytest.approx(expect.f_measure)


# Sentences of (gold, predicted) label pairs, drawn at random, so spans
# often run to a sentence end and the next sentence starts on B-MED, or
# on an I-MED that repair turns into one.
_PAIRS = st.lists(st.lists(st.tuples(st.sampled_from(LABELS),
                                     st.sampled_from(LABELS)),
                           min_size=1, max_size=8),
                  min_size=1, max_size=6)
# Gold spans end at each sentence end, the next sentence starting on a
# span; predictions keep only the first sentence's span.
_ENDS_IN_SPANS = [[(B, B), (I, I)], [(B, O), (I, O)], [(B, I), (O, O)]]


@settings(max_examples=400, deadline=None)
@given(sentences=_PAIRS, empty=st.booleans(), width=st.integers(1, 4))
@example(sentences=_ENDS_IN_SPANS, empty=False, width=1)
@example(sentences=_ENDS_IN_SPANS, empty=True, width=2)
def test_flat_metrics_match_the_per_sentence_oracle(sentences, empty, width):
    # Gold is well-formed, as read_conll gives it; predictions are
    # repaired by decode_in_batches, as tagging gives them, and the
    # oracle repairs them sentence by sentence. With ``empty`` nothing is
    # predicted.
    gold = [repair_bio([g for g, _ in s]) for s in sentences]
    raw = [[O if empty else p for _, p in s] for s in sentences]
    raw_ids = np.array(label_ids(chain.from_iterable(raw)))
    predicted = decode_in_batches([len(s) for s in sentences],
                                  lambda at, real: raw_ids[at], width)
    gold_ids = np.array(label_ids(chain.from_iterable(gold)), dtype=np.int8)
    assert evaluate_tagger(predicted, gold_ids) \
        == ref_evaluate_tagger(raw, gold)
    assert evaluate_tagger_spans(predicted, gold_ids) \
        == ref_evaluate_tagger_spans(raw, gold)
