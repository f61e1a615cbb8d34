"""Linear-chain CRF tagger with hand-built feature templates.

Inference is exact: the partition function comes from a log-space forward
pass and decoding from a max-product recursion. Scores live in three
weight blocks: per-feature emission weights, a label transition matrix,
and a start vector. Training minimizes the mean per-sentence negative
log-likelihood plus an L2 penalty by mini-batch gradient descent; each
minibatch runs one forward-backward over right-padded emissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..medterm import LABELS, TaggedSentence
from ._trainutil import (
    EVAL_BATCH, _check_corpus, _pad_batch, decode_in_batches, fit_tagger,
    logsumexp,
)
from .config import TrainConfig

N_LABELS = len(LABELS)
_LABEL_TO_ID = {lab: i for i, lab in enumerate(LABELS)}

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


def token_features(tokens: Sequence[str], i: int) -> list[str]:
    """Feature strings for one token: identity, shape, context, affixes."""
    word = tokens[i]
    low = word.lower()
    prev = tokens[i - 1].lower() if i > 0 else _BOS
    nxt = tokens[i + 1].lower() if i + 1 < len(tokens) else _EOS
    feats = [
        "bias",
        f"w={low}",
        f"shape={word_shape(word)}",
        f"prev={prev}",
        f"next={nxt}",
    ]
    for k in (1, 2, 3):
        if len(low) >= k:
            feats.append(f"pre{k}={low[:k]}")
            feats.append(f"suf{k}={low[-k:]}")
    return feats


def build_feature_index(sentences: Sequence[Sequence[str]]) -> dict[str, int]:
    """Assign dense ids to every feature seen, in first-seen order."""
    index: dict[str, int] = {}
    for tokens in sentences:
        for i in range(len(tokens)):
            for feat in token_features(tokens, i):
                if feat not in index:
                    index[feat] = len(index)
    return index


def encode_sentence(
    feature_index: dict[str, int], tokens: Sequence[str]
) -> list[np.ndarray]:
    """Per-token arrays of active feature ids; unseen features are dropped."""
    encoded = []
    for i in range(len(tokens)):
        ids = [feature_index[f] for f in token_features(tokens, i)
               if f in feature_index]
        encoded.append(np.asarray(ids, dtype=np.intp))
    return encoded


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


def _padded_emissions(
    w_pad: np.ndarray, encoded: Sequence[Sequence[np.ndarray]]
) -> np.ndarray:
    """(B, T, L) emissions of a right-padded batch, from one gather.

    ``w_pad`` is ``w_emit`` plus one all-zero last row. Every token's
    feature ids are padded with that row's id to the longest feature list,
    so each token sums its own rows in order, and then zeros. Padding
    positions score zero.
    """
    tokens = [ids for sent in encoded for ids in sent]
    n_ids = np.array([len(ids) for ids in tokens])
    ids = np.full((len(tokens), n_ids.max()), w_pad.shape[0] - 1,
                  dtype=np.intp)
    ids[np.arange(ids.shape[1]) < n_ids[:, None]] = np.concatenate(tokens)
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


def encode_labels(labels: Sequence[str]) -> list[int]:
    try:
        return [_LABEL_TO_ID[lab] for lab in labels]
    except KeyError as exc:
        raise ValueError(f"unknown label {exc.args[0]!r}") from None


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
    tokens = [ids for sent in encoded for ids in sent]
    owner = np.repeat(np.arange(len(tokens)), [len(ids) for ids in tokens])
    g_emit = np.zeros_like(params.w_emit)
    np.add.at(g_emit, np.concatenate(tokens), token[real][owner])
    g_trans = pair.sum(axis=(0, 1))
    g_start = token[:, 0].sum(axis=0)
    n = len(encoded)
    loss = float(np.sum(log_z - gold_score)) / n
    for g in (g_emit, g_trans, g_start):
        g /= n
    if l2:
        for w, g in zip(params.arrays(), (g_emit, g_trans, g_start)):
            loss += l2 * float(np.sum(w * w))
            g += 2.0 * l2 * w
    return loss, {"w_emit": g_emit, "w_trans": g_trans, "w_start": g_start}


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
    encoded = [encode_sentence(params.feature_index, s) for s in sentences]
    label_ids = [encode_labels(l) for l in labels]
    return _loss_grad_encoded(params, encoded, label_ids, l2)


def _mean_nll(params: CrfParams, encoded: list, label_ids: list) -> float:
    """Mean per-sentence negative log-likelihood, without the L2 term."""
    total = 0.0
    for lo in range(0, len(encoded), EVAL_BATCH):
        emit, lengths, _, gold_score = _padded_batch(
            params, encoded[lo:lo + EVAL_BATCH], label_ids[lo:lo + EVAL_BATCH]
        )
        log_z = _forward_batch(emit, lengths, params.w_trans,
                               params.w_start)[1]
        total += float(np.sum(log_z - gold_score))
    return total / len(encoded)


def train_crf(
    corpus: Sequence[TaggedSentence],
    config: TrainConfig,
) -> tuple[CrfParams, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice.

    The dev slice is split off by the seeded shuffle; training stops when
    its mean negative log-likelihood fails to improve for `patience`
    epochs, and the best-scoring parameters are restored.
    """
    sentences = [list(s.tokens) for s in corpus]
    labels = [list(s.labels) for s in corpus]
    _check_corpus(sentences, labels)
    params = init_crf(build_feature_index(sentences))
    encoded = [encode_sentence(params.feature_index, s) for s in sentences]
    label_ids = [encode_labels(l) for l in labels]

    def loss_grad(params, batch_encoded, batch_labels):
        loss, g = _loss_grad_encoded(params, batch_encoded, batch_labels,
                                     config.l2)
        return loss, [g["w_emit"], g["w_trans"], g["w_start"]]

    rng = np.random.Generator(np.random.PCG64(config.seed))
    return fit_tagger("crf", params, loss_grad, _mean_nll, encoded,
                      label_ids, config, rng)


def tag_with_crf(
    params: CrfParams, sentences: Sequence[Sequence[str]]
) -> list[list[str]]:
    """Viterbi-decode each sentence to BIO labels.

    Sentences are decoded in length-sorted, right-padded batches.
    Transitions are learned, not constrained, so a decode can start a
    sentence with I-MED; the output is BIO-repaired before being returned.
    """
    w_pad = np.vstack([params.w_emit, np.zeros((1, params.w_emit.shape[1]))])

    def best_ids(batch):
        emit = _padded_emissions(
            w_pad, [encode_sentence(params.feature_index, s) for s in batch]
        )
        lengths = np.array([len(s) for s in batch])
        return _viterbi_batch(emit, lengths, params.w_trans, params.w_start)

    return decode_in_batches(sentences, best_ids)
