"""The tagger training loop shared by both architectures: patience-based
early stopping, best-parameter restore, training without a dev slice, and
the gradient order the loop relies on."""

import dataclasses

import numpy as np
import pytest

from vidtriage.seqtag import (TrainConfig, blstm_loss_grad, build_vocab,
                              crf_loss_grad, init_blstm, train_blstm,
                              train_crf)
from vidtriage.seqtag.crf import build_feature_index, init_crf

from sentences import TaggedSentence, flat, flat_tokens, label_ids

B, O = "B-MED", "O"


def _noisy_corpus():
    """Medical and plain words with one label in ten flipped, so a large
    step size overfits and the dev loss turns up within a few epochs."""
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit"]
    rng = np.random.default_rng(77)
    corpus = []
    for _ in range(40):
        tokens, labels = [], []
        for _ in range(int(rng.integers(3, 8))):
            med = rng.random() < 0.3
            tokens.append((marked if med else plain)[int(rng.integers(4))])
            labels.append(B if med != (rng.random() < 0.1) else O)
        corpus.append(TaggedSentence(tokens=tuple(tokens),
                                     labels=tuple(labels)))
    return corpus


def _crf(corpus, config):
    params, history = train_crf(*flat(corpus), config)
    return params.arrays(), history


def _blstm(corpus, config):
    params, _, history = train_blstm(*flat(corpus), config)
    return params.arrays(), history


@pytest.mark.parametrize("train, lr", [(_crf, 0.1), (_blstm, 1.0)],
                         ids=["crf", "blstm"])
def test_early_stopping_restores_best_epoch(train, lr):
    corpus = _noisy_corpus()
    config = TrainConfig(seed=4, epochs=30, batch_size=8, lr=lr, patience=1,
                         dev_fraction=0.25, d_emb=8, d_hid=8)
    params, history = train(corpus, config)
    best_epoch = int(np.argmin([r["dev_loss"] for r in history])) + 1
    assert best_epoch > 1
    # Patience 1: the first epoch without a better dev loss is the last.
    assert len(history) == best_epoch + 1

    best_params, best_history = train(
        corpus, dataclasses.replace(config, epochs=best_epoch))
    assert best_history == history[:best_epoch]
    for got, want in zip(params, best_params):
        np.testing.assert_array_equal(got, want)

    # Without a dev slice nothing stops early.
    _, full = train(corpus, dataclasses.replace(
        config, dev_fraction=0.0, epochs=len(history) + 1))
    assert [r["epoch"] for r in full] == list(range(1, len(history) + 2))
    assert not any("dev_loss" in r for r in full)


def test_gradients_come_in_arrays_order():
    # fit_tagger steps and penalizes each weight block with the gradient
    # at the same position of the dict that the loss returns.
    corpus = _noisy_corpus()[:6]
    tokens = [s.tokens for s in corpus]
    labels = [s.labels for s in corpus]
    crf = init_crf(build_feature_index(*flat_tokens(tokens)))
    _, crf_grads = crf_loss_grad(crf, tokens, labels, l2=0.1)
    vocab = build_vocab(flat(corpus)[0])
    blstm = init_blstm(vocab.size, TrainConfig(seed=0, d_emb=4, d_hid=4),
                       np.random.default_rng(0))
    _, blstm_grads = blstm_loss_grad(
        blstm, [vocab.encode(t) for t in tokens],
        [label_ids(l) for l in labels], l2=0.1)
    for params, grads in [(crf, crf_grads), (blstm, blstm_grads)]:
        assert [id(getattr(params, key)) for key in grads] \
            == [id(w) for w in params.arrays()]
        for w, g in zip(params.arrays(), grads.values()):
            assert g.shape == w.shape
