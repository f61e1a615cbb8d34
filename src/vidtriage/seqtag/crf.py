"""Linear-chain CRF tagger with hand-built feature templates.

Inference is exact: the partition function comes from a log-space forward
pass and decoding from a max-product recursion. Scores live in three
weight blocks: per-feature emission weights, a label transition matrix,
and a start vector. Training minimizes the mean per-sentence negative
log-likelihood plus an L2 penalty by mini-batch gradient descent; each
minibatch runs one forward-backward over right-padded emissions.

Tokens become feature ids through a ``FeatureEncoder`` that each call
(building the index, training, a loss evaluation, tagging) makes for
itself. It builds a distinct word's feature strings once and reuses their
ids for every later token of that word, the way CRFsuite caches
attributes; no table outlives the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..medterm import TaggedSentence
from ..numeric import logsumexp
from ._trainutil import (N_LABELS, _check_corpus, _pad_batch, add_l2,
                         decode_in_batches, encode_labels, fit_tagger)
from .config import TrainConfig

_BOS = "<s>"
_EOS = "</s>"


def word_shape(word: str) -> str:
    """Collapse a word to character-class runs: Xx, d, x-d and so on."""
    shape: list[str] = []
    for ch in word:
        if ch.isupper():
            cls = "X"
        elif ch.islower():
            cls = "x"
        elif ch.isdigit():
            cls = "d"
        else:
            cls = ch
        if not shape or shape[-1] != cls:
            shape.append(cls)
    return "".join(shape)


class FeatureEncoder:
    """Feature ids of tokens under one feature index, built once per word.

    A token's features are, in order: ``bias``, ``w=`` and ``shape=`` of
    its word; ``prev=`` and ``next=``, its lowercased neighbours (``<s>``
    and ``</s>`` at the ends); and the ``pre1..3``/``suf1..3`` affixes of
    its lowercased word, where the word is long enough. The encoder keeps,
    per distinct word, the ids before the context and after it and the
    lowercased word, and per lowercased neighbour its ``prev=`` and its
    ``next=`` ids.

    Features missing from the index are dropped; with ``grow`` they are
    added instead, with the next free id, in first-seen order. Make one per
    call, as ``textfeat.TokenMemo`` is made per stage: nothing outlives it.
    """

    def __init__(self, feature_index: dict[str, int], grow: bool = False):
        self.feature_index = feature_index
        self._grow = grow
        self._words: dict[str, tuple[tuple[int, ...], tuple[int, ...],
                                     str]] = {}
        self._prev: dict[str, tuple[int, ...]] = {}
        self._next: dict[str, tuple[int, ...]] = {}

    def _ids(self, feats: list[str]) -> tuple[int, ...]:
        index = self.feature_index
        if self._grow:
            return tuple([index.setdefault(f, len(index)) for f in feats])
        return tuple([index[f] for f in feats if f in index])

    def encode(self, tokens: Sequence[str]) -> list[tuple[int, ...]]:
        """Each token's feature ids, in template order."""
        words, prev_ids, next_ids = self._words, self._prev, self._next
        encoded = []
        prev_low = _BOS
        last = len(tokens) - 1
        for i, word in enumerate(tokens):
            entry = words.get(word)
            if entry is None:
                low = word.lower()
                head = self._ids(["bias", f"w={low}",
                                  f"shape={word_shape(word)}"])
            else:
                head, tail, low = entry
            if i < last:
                nxt = words.get(tokens[i + 1])
                next_low = tokens[i + 1].lower() if nxt is None else nxt[2]
            else:
                next_low = _EOS
            before = prev_ids.get(prev_low)
            if before is None:
                before = prev_ids[prev_low] = self._ids([f"prev={prev_low}"])
            after = next_ids.get(next_low)
            if after is None:
                after = next_ids[next_low] = self._ids([f"next={next_low}"])
            # A new word's affix ids come after its context ids, so that a
            # growing index numbers features in template order.
            if entry is None:
                affixes = []
                for k in range(1, min(len(low), 3) + 1):
                    affixes.append(f"pre{k}={low[:k]}")
                    affixes.append(f"suf{k}={low[-k:]}")
                tail = self._ids(affixes)
                words[word] = (head, tail, low)
            encoded.append(head + before + after + tail)
            prev_low = low
        return encoded


def build_feature_index(sentences: Sequence[Sequence[str]]) -> dict[str, int]:
    """Assign dense ids to every feature seen, in first-seen order."""
    encoder = FeatureEncoder({}, grow=True)
    for tokens in sentences:
        encoder.encode(tokens)
    return encoder.feature_index


@dataclass
class CrfParams:
    feature_index: dict[str, int]
    w_emit: np.ndarray
    w_trans: np.ndarray
    w_start: np.ndarray

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.w_emit, self.w_trans, self.w_start)

    def copy(self) -> "CrfParams":
        return CrfParams(
            feature_index=dict(self.feature_index),
            w_emit=self.w_emit.copy(),
            w_trans=self.w_trans.copy(),
            w_start=self.w_start.copy(),
        )


def init_crf(feature_index: dict[str, int]) -> CrfParams:
    """Zero-initialized weights; the objective is convex so zeros suffice."""
    return CrfParams(
        feature_index=dict(feature_index),
        w_emit=np.zeros((len(feature_index), N_LABELS)),
        w_trans=np.zeros((N_LABELS, N_LABELS)),
        w_start=np.zeros(N_LABELS),
    )


def _flat_ids(tokens: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Every token's feature ids end to end, and each token's id count."""
    counts = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    flat = np.fromiter(itertools.chain.from_iterable(tokens), dtype=np.intp,
                       count=int(counts.sum()))
    return flat, counts


def _padded_emissions(
    w_pad: np.ndarray, encoded: Sequence[Sequence[Sequence[int]]]
) -> np.ndarray:
    """(B, T, L) emissions of a right-padded batch, from one gather.

    ``w_pad`` is ``w_emit`` plus one all-zero last row. Every token's
    feature ids are padded with that row's id to the longest feature list,
    so each token sums its own rows in order, and then zeros. Padding
    positions score zero.
    """
    flat, counts = _flat_ids([ids for sent in encoded for ids in sent])
    ids = np.full((len(counts), counts.max()), w_pad.shape[0] - 1,
                  dtype=np.intp)
    ids[np.arange(ids.shape[1]) < counts[:, None]] = flat
    lengths = np.array([len(sent) for sent in encoded])
    emit = np.zeros((len(encoded), lengths.max(), w_pad.shape[1]))
    emit[np.arange(emit.shape[1]) < lengths[:, None]] = \
        w_pad[ids].sum(axis=1)
    return emit


def _check_scores(emit: np.ndarray, trans: np.ndarray, start: np.ndarray):
    emit = np.asarray(emit, dtype=float)
    trans = np.asarray(trans, dtype=float)
    start = np.asarray(start, dtype=float)
    if emit.ndim != 2 or emit.shape[0] == 0:
        raise ValueError("emission matrix must be (T, L) with T >= 1")
    n = emit.shape[1]
    if trans.shape != (n, n) or start.shape != (n,):
        raise ValueError("transition/start shapes do not match emissions")
    return emit, trans, start


def crf_log_partition(
    emit: np.ndarray, trans: np.ndarray, start: np.ndarray
) -> float:
    """Log of the summed exponentiated scores of every label sequence."""
    emit, trans, start = _check_scores(emit, trans, start)
    lengths = np.array([emit.shape[0]])
    return float(_forward_batch(emit[None], lengths, trans, start)[1][0])


def crf_sequence_score(
    emit: np.ndarray,
    trans: np.ndarray,
    start: np.ndarray,
    labels: Sequence[int],
) -> float:
    """Unnormalized score of one label sequence."""
    emit, trans, start = _check_scores(emit, trans, start)
    if len(labels) != emit.shape[0]:
        raise ValueError(
            f"{len(labels)} labels for {emit.shape[0]} tokens"
        )
    score = float(start[labels[0]] + emit[0, labels[0]])
    for t in range(1, emit.shape[0]):
        score += float(trans[labels[t - 1], labels[t]] + emit[t, labels[t]])
    return score


def crf_viterbi(
    emit: np.ndarray, trans: np.ndarray, start: np.ndarray
) -> list[int]:
    """Highest-scoring label sequence; ties go to the lower label id.

    The recursion runs backward and the path is rebuilt front to back, so
    among equal-scoring optima the returned sequence is the
    lexicographically smallest (argmax keeps the first maximum).
    """
    emit, trans, start = _check_scores(emit, trans, start)
    lengths = np.array([emit.shape[0]])
    return _viterbi_batch(emit[None], lengths, trans, start)[0].tolist()


def _viterbi_batch(
    emit: np.ndarray, lengths: np.ndarray, trans: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """(B, T) best label ids of right-padded (B, T, L) emissions.

    Row b runs crf_viterbi's recursion over its first lengths[b] tokens;
    its entries past that length are padding and mean nothing.
    """
    n, t_max, _ = emit.shape
    best_to_end = emit.copy()
    for t in range(t_max - 2, -1, -1):
        step = emit[:, t] + np.max(
            trans[None] + best_to_end[:, t + 1][:, None, :], axis=2
        )
        inner = (t < lengths - 1)[:, None]
        best_to_end[:, t] = np.where(inner, step, emit[:, t])
    path = np.empty((n, t_max), dtype=np.intp)
    path[:, 0] = np.argmax(start + best_to_end[:, 0], axis=1)
    for t in range(1, t_max):
        path[:, t] = np.argmax(trans[path[:, t - 1]] + best_to_end[:, t],
                               axis=1)
    return path


def _forward_batch(emit, lengths, trans, start):
    """(B, T, L) log forward scores and (B,) log-partitions of a padded batch.

    alpha[b, t, j] sums, in log space, the scores of every label prefix of
    row b that ends in label j at token t; past a row's length it is junk.
    """
    alpha = np.empty_like(emit)
    alpha[:, 0] = start + emit[:, 0]
    for t in range(1, emit.shape[1]):
        alpha[:, t] = emit[:, t] + logsumexp(alpha[:, t - 1, :, None] + trans,
                                             axis=1)
    return alpha, logsumexp(alpha[np.arange(len(emit)), lengths - 1], axis=1)


def _marginals(emit, lengths, trans, start):
    """(B, T, L) token and (B, T-1, L, L) pair marginals, and (B,) log Z.

    pair[b, t] is the joint marginal of the labels at tokens t and t+1.
    Beta is held at 0 from each row's last real token onward, and both
    marginals are 0 wherever a token is padding.
    """
    alpha, log_z = _forward_batch(emit, lengths, trans, start)
    beta = np.zeros_like(emit)
    for t in range(emit.shape[1] - 2, -1, -1):
        step = logsumexp(trans + (emit[:, t + 1] + beta[:, t + 1])[:, None],
                         axis=2)
        beta[:, t] = np.where((t < lengths - 1)[:, None], step, 0.0)
    real = (np.arange(emit.shape[1]) < lengths[:, None])[:, :, None]
    shift = log_z[:, None, None]
    token = np.exp(np.where(real, alpha + beta - shift, -np.inf))
    pair = np.exp(np.where(
        real[:, 1:, None],
        alpha[:, :-1, :, None] + trans
        + (emit[:, 1:] + beta[:, 1:] - shift)[:, :, None], -np.inf,
    ))
    return token, pair, log_z


def _padded_batch(params, encoded, label_ids):
    """Emissions, lengths, gold labels and gold scores of a padded batch."""
    w_pad = np.vstack([params.w_emit, np.zeros((1, N_LABELS))])
    emit = _padded_emissions(w_pad, encoded)
    gold, mask = _pad_batch(label_ids, 0)
    picked = np.take_along_axis(emit, gold[:, :, None], axis=2)[:, :, 0]
    gold_score = params.w_start[gold[:, 0]] + (
        (picked * mask).sum(axis=1)
        + (params.w_trans[gold[:, :-1], gold[:, 1:]] * mask[:, 1:]).sum(axis=1)
    )
    return emit, mask.sum(axis=1).astype(np.intp), gold, gold_score


def _loss_grad_encoded(params: CrfParams, encoded: list, label_ids: list,
                       l2: float) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL plus L2 and its gradients: expected minus observed counts."""
    emit, lengths, gold, gold_score = _padded_batch(params, encoded,
                                                    label_ids)
    token, pair, log_z = _marginals(emit, lengths, params.w_trans,
                                    params.w_start)
    rows, cols = np.arange(len(encoded))[:, None], np.arange(emit.shape[1])
    real = cols < lengths[:, None]
    token[rows, cols, gold] -= real
    pair[rows, cols[:-1], gold[:, :-1], gold[:, 1:]] -= real[:, 1:]
    flat, counts = _flat_ids([ids for sent in encoded for ids in sent])
    g_emit = np.zeros_like(params.w_emit)
    np.add.at(g_emit, flat, np.repeat(token[real], counts, axis=0))
    g_trans = pair.sum(axis=(0, 1))
    g_start = token[:, 0].sum(axis=0)
    n = len(encoded)
    loss = float(np.sum(log_z - gold_score)) / n
    grads = {"w_emit": g_emit, "w_trans": g_trans, "w_start": g_start}
    for g in grads.values():
        g /= n
    return add_l2(loss, grads, params, l2), grads


def crf_loss_grad(
    params: CrfParams,
    sentences: Sequence[Sequence[str]],
    labels: Sequence[Sequence[str]],
    l2: float = 0.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-sentence negative log-likelihood plus L2, with gradients.

    Gradients come from forward-backward marginals: expected feature
    counts under the model minus observed counts.
    """
    _check_corpus(sentences, labels)
    encoder = FeatureEncoder(params.feature_index)
    encoded = [encoder.encode(s) for s in sentences]
    label_ids = [encode_labels(l) for l in labels]
    return _loss_grad_encoded(params, encoded, label_ids, l2)


def _chunk_loss(params: CrfParams, encoded: list,
                label_ids: list) -> tuple[float, int]:
    """Summed per-sentence negative log-likelihood, without the L2 term,
    and the number of sentences."""
    emit, lengths, _, gold_score = _padded_batch(params, encoded, label_ids)
    log_z = _forward_batch(emit, lengths, params.w_trans, params.w_start)[1]
    return float(np.sum(log_z - gold_score)), len(encoded)


def train_crf(
    corpus: Sequence[TaggedSentence],
    config: TrainConfig,
) -> tuple[CrfParams, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice.

    The dev slice is split off by the seeded shuffle; training stops when
    its mean negative log-likelihood fails to improve for `patience`
    epochs, and the best-scoring parameters are restored.
    """
    sentences = [s.tokens for s in corpus]
    params = init_crf(build_feature_index(sentences))
    encoder = FeatureEncoder(params.feature_index)
    encoded = [encoder.encode(s) for s in sentences]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    return fit_tagger("crf", params, _loss_grad_encoded, _chunk_loss,
                      encoded, [s.labels for s in corpus], config, rng)


def tag_with_crf(
    params: CrfParams, sentences: Sequence[Sequence[str]]
) -> list[list[str]]:
    """Viterbi-decode each sentence to BIO labels.

    Sentences are decoded in length-sorted, right-padded batches.
    Transitions are learned, not constrained, so a decode can start a
    sentence with I-MED; the output is BIO-repaired before being returned.
    """
    w_pad = np.vstack([params.w_emit, np.zeros((1, params.w_emit.shape[1]))])
    encoder = FeatureEncoder(params.feature_index)

    def best_ids(batch):
        emit = _padded_emissions(w_pad, [encoder.encode(s) for s in batch])
        lengths = np.array([len(s) for s in batch])
        return _viterbi_batch(emit, lengths, params.w_trans, params.w_start)

    return decode_in_batches(sentences, best_ids)
