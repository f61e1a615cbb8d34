"""BLSTM tagger: forward pass, gradients, masking, training loop."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidtriage.medterm import LABELS, TaggedSentence
from vidtriage.seqtag import (
    PAD_ID,
    UNK_ID,
    TrainConfig,
    TrainingDivergedError,
    blstm_loss_grad,
    build_vocab,
    init_blstm,
    repair_bio,
    tag_with_blstm,
    train_blstm,
)
from vidtriage.seqtag import blstm
from vidtriage.seqtag.blstm import PARAM_NAMES

B, I, O = "B-MED", "I-MED", "O"


def small_params(seed=0, vocab_size=9, d_emb=3, d_hid=4):
    rng = np.random.default_rng(seed)
    config = TrainConfig(seed=0, d_emb=d_emb, d_hid=d_hid)
    return init_blstm(vocab_size, config, rng=rng)


def forward_one(params, token_ids):
    """Label log-probabilities of one sentence, shape (T, 3), from a
    one-row padded batch."""
    ids, mask = blstm._pad_batch([token_ids], PAD_ID)
    return blstm._forward_batch(params, ids, mask)[-1][0]


# ----------------------------------------------------------------- vocab


def test_build_vocab_and_encode():
    corpus = [
        TaggedSentence(tokens=("colon", "cancer"), labels=(B, I)),
        TaggedSentence(tokens=("colon", "facts"), labels=(B, O)),
    ]
    vocab = build_vocab(corpus)
    assert vocab.encode(["colon", "neverseen"])[1] == UNK_ID
    assert UNK_ID == 0 and PAD_ID == 1
    ids = vocab.encode(["colon", "cancer", "facts"])
    assert len(set(ids)) == 3 and UNK_ID not in ids


# --------------------------------------------------------------- forward


def test_forward_shapes_and_distribution():
    params = small_params()
    logp = forward_one(params, [2, 5, 7])
    assert logp.shape == (3, 3)
    np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)


def test_forward_deterministic():
    params = small_params()
    a = forward_one(params, [2, 3, 4, 5])
    b = forward_one(params, [2, 3, 4, 5])
    np.testing.assert_array_equal(a, b)


def test_init_forget_bias_one():
    params = small_params()
    d = params.d_hid
    # Gate order i, f, o, g: the forget slice of each bias starts at d.
    np.testing.assert_array_equal(params.b_fwd[d:2 * d], 1.0)
    np.testing.assert_array_equal(params.b_bwd[d:2 * d], 1.0)
    assert params.b_fwd[:d].max() == 0.0


# --------------------------------------------------------------- masking


def test_padding_does_not_change_loss():
    params = small_params()
    batch_ids = [[2, 5, 7, 3, 8], [4, 6]]
    batch_labels = [[0, 1, 2, 2, 0], [2, 1]]
    loss_batched, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=0.0)

    # Token-mean over both sentences computed without any padding.
    total, n = 0.0, 0
    for ids, labs in zip(batch_ids, batch_labels):
        logp = forward_one(params, ids)
        total += -sum(logp[t, lab] for t, lab in enumerate(labs))
        n += len(ids)
    assert loss_batched == pytest.approx(total / n, rel=1e-12)


def test_duplication_invariance():
    params = small_params()
    ids = [[2, 5, 7], [4, 6, 3, 8]]
    labels = [[0, 1, 2], [2, 0, 1, 2]]
    base, _ = blstm_loss_grad(params, ids, labels, l2=0.05)
    doubled, _ = blstm_loss_grad(params, ids * 2, labels * 2, l2=0.05)
    assert doubled == pytest.approx(base, rel=1e-12)


# -------------------------------------------------------------- gradient


def test_blstm_gradient_matches_finite_differences():
    params = small_params(seed=12)
    batch_ids = [[2, 5, 7, 3], [4, 6]]
    batch_labels = [[0, 1, 2, 2], [2, 0]]
    l2 = 0.01
    _, grads = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)

    rng = np.random.default_rng(9)
    eps = 1e-5
    for name in PARAM_NAMES:
        arr = getattr(params, name)
        flat = [tuple(ix) for ix in np.ndindex(*arr.shape)]
        picks = rng.choice(len(flat), size=min(15, len(flat)), replace=False)
        for p in picks:
            ix = flat[p]
            orig = arr[ix]
            arr[ix] = orig + eps
            up, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)
            arr[ix] = orig - eps
            down, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-10)
            assert abs(fd - grads[name][ix]) / denom < 1e-4, \
                f"{name}{ix}: fd {fd} vs analytic {grads[name][ix]}"


def test_pad_embedding_gets_no_gradient():
    params = small_params()
    _, grads = blstm_loss_grad(params, [[2, 5, 7], [4]], [[0, 1, 2], [2]])
    np.testing.assert_array_equal(grads["embed"][PAD_ID], 0.0)


# -------------------------------------------------------------- training


def _toy_corpus():
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit", "home", "rest"]
    rng = np.random.default_rng(88)
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


def test_train_blstm_learns_toy_corpus():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=25, batch_size=8, d_emb=16, d_hid=16)
    params, vocab, history = train_blstm(corpus, config)
    assert history[0]["train_loss"] > history[-1]["train_loss"]
    pred = tag_with_blstm(params, vocab,
                          [["polyp", "advice"], ["visit", "colitis"]])
    assert pred == [[B, O], [O, B]]


def test_train_blstm_deterministic():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=4, batch_size=8, d_emb=8, d_hid=8)
    p1, v1, h1 = train_blstm(corpus, config)
    p2, v2, h2 = train_blstm(corpus, config)
    assert h1 == h2
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))


def test_train_blstm_divergence_raises():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=5, batch_size=8, lr=1e200,
                         d_emb=4, d_hid=4)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_blstm(corpus, config)
    assert "epoch" in str(err.value)


def test_tag_with_blstm_outputs_well_formed():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=3, batch_size=8, d_emb=8, d_hid=8)
    params, vocab, _ = train_blstm(corpus, config)
    rng = np.random.default_rng(321)
    words = ["polyp", "water", "unseenword", "colitis", "advice"]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        sent = [words[i] for i in rng.integers(0, len(words), size=n)]
        labels = tag_with_blstm(params, vocab, [sent])[0]
        prev = O
        for lab in labels:
            assert lab in (B, I, O)
            assert not (lab == I and prev == O)
            prev = lab


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 12), min_size=blstm.EVAL_BATCH + 1,
                     max_size=3 * blstm.EVAL_BATCH),
    empty_at=st.lists(st.integers(0, 3 * blstm.EVAL_BATCH), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_tagging_matches_per_sentence(lengths, empty_at, seed):
    # More non-empty sentences than one batch holds, with empty ones
    # mixed in.
    for i in empty_at:
        lengths.insert(i, 0)
    rng = np.random.default_rng(seed)
    words = ["polyp", "water", "colitis", "advice", "colon", "visit"]
    vocab = build_vocab([TaggedSentence(tokens=tuple(words),
                                        labels=(O,) * len(words))])
    params = small_params(seed=seed, vocab_size=vocab.size)
    # "unseen" maps to the unknown-word id.
    pool = [*words, "unseen"]
    sentences = [[pool[i] for i in rng.integers(0, len(pool), size=n)]
                 for n in lengths]

    batches = []
    forward = blstm._forward_batch

    def recording(p, ids, mask):
        out = forward(p, ids, mask)
        batches.append((ids, mask, out[-1]))
        return out

    with mock.patch.object(blstm, "_forward_batch", recording):
        tagged = tag_with_blstm(params, vocab, sentences)
    n_real = len(lengths) - len(empty_at)
    assert len(batches) == -(-n_real // blstm.EVAL_BATCH) >= 2
    for ids, mask, logp in batches:
        for row_ids, row_mask, row_logp in zip(ids, mask, logp):
            n = int(row_mask.sum())
            single = forward_one(params, row_ids[:n].tolist())
            np.testing.assert_allclose(row_logp[:n], single, rtol=0,
                                       atol=1e-12)
    for tokens, labels in zip(sentences, tagged):
        logp = forward_one(params, vocab.encode(tokens))
        expected = repair_bio([LABELS[i] for i in np.argmax(logp, axis=1)])
        assert labels == expected
