"""Linear-chain CRF: brute-force oracles, gradients, training."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from vidtriage.medterm import TaggedSentence
from vidtriage.seqtag import (
    TrainConfig,
    crf_log_partition,
    crf_loss_grad,
    crf_sequence_score,
    crf_viterbi,
    tag_with_crf,
    train_crf,
)
from vidtriage.seqtag.crf import (
    N_LABELS,
    _emission_matrix,
    _padded_emissions,
    _viterbi_batch,
    build_feature_index,
    init_crf,
    token_features,
    word_shape,
)

B, I, O = "B-MED", "I-MED", "O"


def brute_force_partition(emit, trans, start):
    scores = [
        sequence_score(emit, trans, start, seq)
        for seq in itertools.product(range(emit.shape[1]),
                                     repeat=emit.shape[0])
    ]
    return float(logsumexp(scores))


def sequence_score(emit, trans, start, seq):
    total = start[seq[0]] + emit[0, seq[0]]
    for t in range(1, len(seq)):
        total += trans[seq[t - 1], seq[t]] + emit[t, seq[t]]
    return float(total)


def brute_force_viterbi(emit, trans, start):
    """Argmax by enumeration; product() yields sequences in lexicographic
    order and only a strictly greater score replaces the incumbent, so
    ties resolve to the lexicographically smallest sequence."""
    best_seq, best_score = None, -np.inf
    for seq in itertools.product(range(emit.shape[1]), repeat=emit.shape[0]):
        s = sequence_score(emit, trans, start, seq)
        if s > best_score:
            best_seq, best_score = seq, s
    return list(best_seq)


def random_instance(rng, max_len=6, n_labels=3):
    n = int(rng.integers(1, max_len + 1))
    emit = rng.normal(0.0, 2.0, size=(n, n_labels))
    trans = rng.normal(0.0, 2.0, size=(n_labels, n_labels))
    start = rng.normal(0.0, 2.0, size=n_labels)
    return emit, trans, start


# ---------------------------------------------------------------- oracle


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(100):
        emit, trans, start = random_instance(rng)
        assert crf_log_partition(emit, trans, start) == pytest.approx(
            brute_force_partition(emit, trans, start), abs=1e-8
        )


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(100):
        emit, trans, start = random_instance(rng)
        assert crf_viterbi(emit, trans, start) \
            == brute_force_viterbi(emit, trans, start)


def test_viterbi_tie_prefers_lower_label_id():
    # All-zero scores: every sequence ties, so all-zeros must win.
    emit = np.zeros((4, 3))
    trans = np.zeros((3, 3))
    start = np.zeros(3)
    assert crf_viterbi(emit, trans, start) == [0, 0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_viterbi_matches_brute_force(lengths, integer, seed):
    # Integer-valued scores make exact ties, which must go to the lower
    # label id in every row; padding holds junk that must not matter.
    rng = np.random.default_rng(seed)

    def scores(shape):
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.normal(0.0, 2.0, size=shape)

    trans, start = scores((N_LABELS, N_LABELS)), scores(N_LABELS)
    emit = scores((len(lengths), max(lengths), N_LABELS))
    paths = _viterbi_batch(emit, np.array(lengths), trans, start)
    for row, path, n in zip(emit, paths, lengths):
        expected = brute_force_viterbi(row[:n], trans, start)
        assert path[:n].tolist() == expected
        assert crf_viterbi(row[:n], trans, start) == expected


def test_padded_emissions_equal_per_sentence_bits():
    rng = np.random.default_rng(404)
    w_emit = rng.normal(0.0, 1.0, size=(40, N_LABELS))
    w_pad = np.vstack([w_emit, np.zeros((1, N_LABELS))])
    encoded = [
        [rng.integers(0, 40, size=int(rng.integers(0, 12)))
         for _ in range(int(rng.integers(1, 8)))]
        for _ in range(9)
    ]
    emit = _padded_emissions(w_pad, encoded)
    assert emit.shape == (9, max(len(s) for s in encoded), N_LABELS)
    for row, sent in zip(emit, encoded):
        np.testing.assert_array_equal(row[:len(sent)],
                                      _emission_matrix(w_emit, sent))
        assert not row[len(sent):].any()


def test_sequence_score_consistency():
    rng = np.random.default_rng(303)
    for _ in range(50):
        emit, trans, start = random_instance(rng, max_len=4)
        for seq in itertools.product(range(3), repeat=emit.shape[0]):
            assert crf_sequence_score(emit, trans, start, list(seq)) \
                == pytest.approx(sequence_score(emit, trans, start, seq))


def test_partition_bounds_every_sequence():
    rng = np.random.default_rng(404)
    for _ in range(50):
        emit, trans, start = random_instance(rng)
        log_z = crf_log_partition(emit, trans, start)
        for seq in itertools.product(range(3), repeat=emit.shape[0]):
            assert crf_sequence_score(emit, trans, start, list(seq)) \
                <= log_z + 1e-9


# -------------------------------------------------------------- features


def test_word_shape():
    assert word_shape("Colon") == "Xx"
    assert word_shape("CT") == "X"
    assert word_shape("b12") == "xd"
    assert word_shape("x-ray") == "x-x"


def test_token_features_context():
    feats = token_features(["early", "colon", "cancer"], 1)
    assert "w=colon" in feats
    assert "prev=early" in feats
    assert "next=cancer" in feats
    first = token_features(["early"], 0)
    assert "prev=<s>" in first and "next=</s>" in first


# -------------------------------------------------------------- gradient


def test_crf_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    sentences = [["colon", "cancer", "facts"], ["drink", "water"],
                 ["polyp", "found", "during", "test"]]
    labels = [[B, I, O], [O, O], [B, O, O, O]]
    index = build_feature_index(sentences)
    params = init_crf(index)
    for arr in (params.w_emit, params.w_trans, params.w_start):
        arr += rng.normal(0.0, 0.5, size=arr.shape)

    l2 = 0.01
    loss, grads = crf_loss_grad(params, sentences, labels, l2=l2)
    eps = 1e-6
    for name in ("w_emit", "w_trans", "w_start"):
        arr = getattr(params, name)
        flat_idx = [tuple(ix) for ix in np.ndindex(*arr.shape)]
        picks = rng.choice(len(flat_idx), size=min(20, len(flat_idx)),
                           replace=False)
        for p in picks:
            ix = flat_idx[p]
            orig = arr[ix]
            arr[ix] = orig + eps
            up, _ = crf_loss_grad(params, sentences, labels, l2=l2)
            arr[ix] = orig - eps
            down, _ = crf_loss_grad(params, sentences, labels, l2=l2)
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-10)
            assert abs(fd - grads[name][ix]) / denom < 1e-4


def test_crf_loss_validates():
    sentences = [["a", "b"]]
    index = build_feature_index(sentences)
    params = init_crf(index)
    with pytest.raises(ValueError):
        crf_loss_grad(params, [], [])
    with pytest.raises(ValueError):
        crf_loss_grad(params, sentences, [[O]])
    with pytest.raises(ValueError):
        crf_loss_grad(params, sentences, [["bogus", O]])


# -------------------------------------------------------------- training


def _toy_corpus():
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit", "home", "rest"]
    rng = np.random.default_rng(77)
    corpus = []
    for _ in range(80):
        tokens, labels = [], []
        for _ in range(int(rng.integers(3, 8))):
            if rng.random() < 0.3:
                tokens.append(marked[int(rng.integers(len(marked)))])
                labels.append(B)
            else:
                tokens.append(plain[int(rng.integers(len(plain)))])
                labels.append(O)
        corpus.append(TaggedSentence(tokens=tuple(tokens),
                                     labels=tuple(labels)))
    return corpus


def test_train_crf_learns_toy_corpus():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=20, batch_size=8)
    params, history = train_crf(corpus, config)
    assert history[0]["train_loss"] > history[-1]["train_loss"]
    pred = tag_with_crf(params, [["polyp", "advice"], ["visit", "colitis"]])
    assert pred == [[B, O], [O, B]]


def test_train_crf_deterministic():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=5, batch_size=8)
    p1, h1 = train_crf(corpus, config)
    p2, h2 = train_crf(corpus, config)
    assert h1 == h2
    assert np.array_equal(p1.w_emit, p2.w_emit)
    assert np.array_equal(p1.w_trans, p2.w_trans)
    assert np.array_equal(p1.w_start, p2.w_start)


def test_tag_with_crf_outputs_well_formed():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=3, batch_size=8)
    params, _ = train_crf(corpus, config)
    rng = np.random.default_rng(123)
    vocab = ["polyp", "water", "unseenword", "colitis", "advice"]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        sent = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
        labels = tag_with_crf(params, [sent])[0]
        prev = O
        for lab in labels:
            assert lab in (B, I, O)
            assert not (lab == I and prev == O)
            prev = lab
