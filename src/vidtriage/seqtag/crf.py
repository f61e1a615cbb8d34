"""Linear-chain CRF tagger with hand-built feature templates.

Inference is exact: the partition function comes from a scaled forward
pass in the probability domain (Rabiner, Proc. IEEE 1989) and decoding
from a log-space max-product recursion. Scores live in three weight
blocks: per-feature emission weights, a label transition matrix, and a
start vector. Training minimizes the mean per-sentence negative
log-likelihood plus an L2 penalty by mini-batch gradient descent; each
minibatch runs one scaled forward-backward over right-padded emissions.

Each call (building the index, training, a loss evaluation, tagging)
makes its own ``FeatureEncoder``. It builds each distinct word's feature
ids once, the way CRFsuite caches attributes, and turns a batch into one
matrix of feature ids, a row per token and a column per template; absent
features point at an all-zero row of the padded emission weights. One
gather of that matrix gives the emissions in training, in the dev loss
and in tagging. No table outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..medterm import LABELS
from ._trainutil import (N_LABELS, add_l2, decode_in_batches, fit_tagger,
                         list_batch)
from .config import TrainConfig

_BOS = "<s>"
_EOS = "</s>"
# Sentences per tagging batch: the emission gather and the Viterbi step
# are elementwise, so a wide batch spreads their per-call cost (README).
_DECODE_BATCH = 512


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


_PREV, _NEXT = 3, 4  # the columns of a token's prev= and next= features


def _word_features(word: str) -> list[Optional[str]]:
    """A word's 11 feature names, in template order: ``bias``, ``w=``,
    ``shape=``, ``prev=`` and ``next=`` (what it gives the tokens after
    and before it), ``pre1``, ``suf1`` ... ``suf3`` (None if too long)."""
    low = word.lower()
    row = ["bias", f"w={low}", f"shape={word_shape(word)}",
           f"prev={low}", f"next={low}"]
    for k in (1, 2, 3):
        row += ([f"pre{k}={low[:k]}", f"suf{k}={low[-k:]}"]
                if len(low) >= k else [None, None])
    return row


class FeatureEncoder:
    """Feature id matrices of sentences under one feature index.

    ``encode`` gives a batch of words one ``(tokens, 11)`` int matrix,
    a row per token and a column per template (``_word_features``). An
    absent feature (not in the index, or an affix longer than the word)
    gets ``len(feature_index)``, the id of the all-zero row that pads
    ``w_emit``. Each distinct word's row of ids is built once, as CRFsuite
    caches attributes; a token's ``prev=`` and ``next=`` ids are its
    neighbours' rows shifted by one within the sentence, with ``<s>`` and
    ``</s>`` at the ends. Make one per call: nothing outlives it.
    """

    def __init__(self, feature_index: dict[str, int]):
        self.feature_index = feature_index
        self.zero = len(feature_index)
        self._first = feature_index.get(f"prev={_BOS}", self.zero)
        self._last = feature_index.get(f"next={_EOS}", self.zero)
        self._codes: dict[str, int] = {}
        self._table = np.empty((0, 11), dtype=np.intp)

    def encode(self, words: Sequence[str],
               lengths: Sequence[int]) -> np.ndarray:
        """The feature ids of ``words``, sentences of ``lengths`` words."""
        codes = self._codes
        new = [w for w in dict.fromkeys(words) if w not in codes]
        if new:
            get, zero = self.feature_index.get, self.zero
            codes.update(zip(new, range(len(codes), len(codes) + len(new))))
            self._table = np.concatenate([self._table, np.array(
                [[zero if f is None else get(f, zero)
                  for f in _word_features(w)] for w in new], dtype=np.intp,
            )])
        ids = self._table[np.fromiter(map(codes.__getitem__, words),
                                      dtype=np.intp, count=len(words))]
        lengths = np.fromiter(filter(None, lengths), np.intp)
        ends = np.cumsum(lengths)
        ids[1:, _PREV] = ids[:-1, _PREV]
        ids[:-1, _NEXT] = ids[1:, _NEXT]
        ids[ends - lengths, _PREV] = self._first
        ids[ends - 1, _NEXT] = self._last
        return ids


def build_feature_index(tokens: Sequence[str],
                        lengths: Sequence[int]) -> dict[str, int]:
    """Assign dense ids to every feature seen in sentences of ``lengths``
    tokens end to end, in first-seen order: token by token, and each
    token's features in column order."""
    names = {f"prev={_BOS}": 0, f"next={_EOS}": 1}
    for word in dict.fromkeys(tokens):
        for name in _word_features(word):
            if name is not None:
                names.setdefault(name, len(names))
    # Renumber the names that occur, by where each first occurs.
    flat = FeatureEncoder(names).encode(tokens, lengths).ravel()
    first = np.full(len(names) + 1, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    occurs = np.flatnonzero(first[:-1] < flat.size)
    by_id = list(names)
    return {by_id[k]: i
            for i, k in enumerate(occurs[np.argsort(first[occurs])].tolist())}


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


def _emissions(w_pad: np.ndarray, ids: np.ndarray,
               lengths: np.ndarray) -> np.ndarray:
    """(B, T, L) emissions of a right-padded batch: each token of ``ids``
    adds its rows of ``w_pad`` (``w_emit`` and a zero row) column by
    column, as ``w_pad[ids].sum(axis=1)`` would, but gathered by the
    transposed ids, about 3x faster. Padding positions score zero."""
    emit = np.zeros((len(lengths), lengths.max(), w_pad.shape[1]))
    emit[np.arange(emit.shape[1]) < lengths[:, None]] = \
        np.take(w_pad, ids.T, axis=0).sum(axis=0)
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
    n, t_max, n_labels = emit.shape
    best_to_end = emit.copy()
    for t in range(t_max - 2, -1, -1):
        # The max over next labels, as elementwise maxima of label columns.
        after = best_to_end[:, t + 1, :, None]
        step = trans[:, 0] + after[:, 0]
        for j in range(1, n_labels):
            np.maximum(step, trans[:, j] + after[:, j], out=step)
        step += emit[:, t]
        inner = (t < lengths - 1)[:, None]
        best_to_end[:, t] = np.where(inner, step, emit[:, t])
    path = np.empty((n, t_max), dtype=np.intp)
    path[:, 0] = np.argmax(start + best_to_end[:, 0], axis=1)
    for t in range(1, t_max):
        path[:, t] = np.argmax(trans[path[:, t - 1]] + best_to_end[:, t],
                               axis=1)
    return path


# A sum that underflows to 0 turns the pass non-finite without a warning;
# the non-finite loss then raises TrainingDivergedError.
@np.errstate(divide="ignore", invalid="ignore")
def _forward_batch(emit, lengths, trans, start):
    """Scaled forward pass of right-padded (B, T, L) emissions: the
    time-major state ``(alpha, scale, x, e, real)`` and the (B,) log Z.

    Scores are exponentiated less their max (per token for ``x``), and
    each forward vector is divided by its sum, ``scale`` (L copies); past
    a row's end both are junk. A sum underflows only when a row's
    transition (or start) and emission score gaps both exceed about 700."""
    shift = emit.max(axis=2, keepdims=True)
    x = np.exp(emit - shift).transpose(1, 0, 2).copy()
    e, row_sums = np.exp(trans - trans.max()), np.ones(trans.shape)
    alpha, scale = np.empty_like(x), np.empty_like(x)
    step = np.exp(start - start.max()) * x[0]
    for t in range(len(x)):
        if t:
            np.dot(alpha[t - 1], e, out=step)
            step *= x[t]
        np.dot(step, row_sums, out=scale[t])  # each row's sum, L times
        np.divide(step, scale[t], out=alpha[t])
    real = (np.arange(len(x))[:, None] < lengths)[:, :, None]
    log_z = (np.log(scale) + shift.transpose(1, 0, 2)).sum(axis=0, where=real)
    return (alpha, scale, x, e, real), \
        log_z[:, 0] + start.max() + (lengths - 1) * trans.max()


@np.errstate(divide="ignore", invalid="ignore")
def _marginals(emit, lengths, trans, start):
    """(B, T, L) token and (B, T-1, L, L) pair marginals, and (B,) log Z.

    pair[b, t] is the joint marginal of the labels at tokens t and t+1.
    With ``c`` the forward scales and nxt = x * beta / c, token marginals
    are alpha * beta and pair ones alpha[t] outer nxt[t + 1] times e; both
    are exact zeros on padding.
    """
    (alpha, c, x, e, real), log_z = _forward_batch(emit, lengths, trans, start)
    nxt, beta, ended = x / c * real, np.ones_like(x), ~real
    for t in range(len(x) - 2, -1, -1):
        nxt[t + 1] *= beta[t + 1]
        np.dot(nxt[t + 1], e.T, out=beta[t])
        beta[t] += ended[t + 1]  # nxt is 0 past a row's end: beta is 0 + 1
    token = alpha * beta * real
    pair = alpha[:-1, :, :, None] * e * nxt[1:, :, None]
    return token.transpose(1, 0, 2), pair.transpose(1, 0, 2, 3), log_z


def _padded_batch(params, inputs, gold, real):
    """Feature ids of the real tokens, emissions, lengths and gold scores
    of a (B, T) batch of feature id rows and gold label ids whose real
    tokens ``real`` marks; padding may hold any ids."""
    ids = inputs[real]
    w_pad = np.vstack([params.w_emit, np.zeros((1, N_LABELS))])
    lengths = real.sum(axis=1)
    emit = _emissions(w_pad, ids, lengths)
    picked = np.take_along_axis(emit, gold[:, :, None], axis=2)[:, :, 0]
    gold_score = params.w_start[gold[:, 0]] + (
        (picked * real).sum(axis=1)
        + (params.w_trans[gold[:, :-1], gold[:, 1:]] * real[:, 1:]).sum(axis=1)
    )
    return ids, emit, lengths, gold_score


def _batch_loss_grad(params: CrfParams, inputs: np.ndarray, gold: np.ndarray,
                     real: np.ndarray,
                     l2: float) -> tuple[float, dict[str, np.ndarray]]:
    """Mean NLL plus L2 and its gradients: expected minus observed counts."""
    ids, emit, lengths, gold_score = _padded_batch(params, inputs, gold, real)
    token, pair, log_z = _marginals(emit, lengths, params.w_trans,
                                    params.w_start)
    rows, cols = np.arange(len(gold))[:, None], np.arange(emit.shape[1])
    token[rows, cols, gold] -= real
    pair[rows, cols[:-1], gold[:, :-1], gold[:, 1:]] -= real[:, 1:]
    # Scattered in row-major order of ids, as the bits depend on the order.
    g_pad = np.zeros((len(params.w_emit) + 1, N_LABELS))
    np.add.at(g_pad, ids, token[real][:, None])
    g_emit = g_pad[:-1]
    g_trans = pair.sum(axis=(0, 1))
    g_start = token[:, 0].sum(axis=0)
    n = len(gold)
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
    """Mean per-sentence negative log-likelihood plus L2, with gradients,
    of per-sentence token and label-name lists: one batch of training's
    loss, for the tests.

    Gradients come from forward-backward marginals: expected feature
    counts under the model minus observed counts.
    """
    encoder = FeatureEncoder(params.feature_index)
    return _batch_loss_grad(params, *list_batch(
        [encoder.encode(s, [len(s)]) for s in sentences],
        [[LABELS.index(lab) for lab in seq] for seq in labels]), l2)


def _chunk_loss(params: CrfParams, inputs: np.ndarray, gold: np.ndarray,
                real: np.ndarray) -> tuple[float, int]:
    """Summed per-sentence negative log-likelihood, without the L2 term,
    and the number of sentences."""
    _, emit, lengths, gold_score = _padded_batch(params, inputs, gold, real)
    log_z = _forward_batch(emit, lengths, params.w_trans, params.w_start)[1]
    return float(np.sum(log_z - gold_score)), len(gold)


def train_crf(
    tokens: Sequence[str],
    labels: Sequence[int],
    lengths: Sequence[int],
    config: TrainConfig,
) -> tuple[CrfParams, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice,
    over the tokens and label ids of sentences of ``lengths`` tokens end
    to end.

    The dev slice is split off by the seeded shuffle; training stops when
    its mean negative log-likelihood fails to improve for `patience`
    epochs, and the best-scoring parameters are restored.
    """
    params = init_crf(build_feature_index(tokens, lengths))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    return fit_tagger(
        "crf", params, _batch_loss_grad, _chunk_loss,
        FeatureEncoder(params.feature_index).encode(tokens, lengths),
        labels, lengths, config, rng)


def tag_with_crf(params: CrfParams, tokens: Sequence[str],
                 lengths: Sequence[int]) -> np.ndarray:
    """BIO-repaired Viterbi label ids (learned transitions may start with
    I-MED) of sentences of ``lengths`` tokens, end to end in ``tokens``,
    in length-sorted, right-padded batches."""
    w_pad = np.vstack([params.w_emit, np.zeros((1, params.w_emit.shape[1]))])
    encoder = FeatureEncoder(params.feature_index)

    def best_ids(at, real):
        lengths = real.sum(axis=1)
        words = list(map(tokens.__getitem__, at[real].tolist()))
        emit = _emissions(w_pad, encoder.encode(words, lengths), lengths)
        return _viterbi_batch(emit, lengths, params.w_trans, params.w_start)

    return decode_in_batches(lengths, best_ids, _DECODE_BATCH)
