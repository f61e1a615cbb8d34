"""Label ids, the training loop with its checks and L2 term, padding and
batched decode of both taggers."""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..medterm import LABELS
from .config import TrainConfig, TrainingDivergedError
from .metrics import repair_bio

P = TypeVar("P")

N_LABELS = len(LABELS)
_LABEL_TO_ID = {lab: i for i, lab in enumerate(LABELS)}
_LABEL_NAMES = np.array(LABELS, dtype=object)

# Sentences per padded forward pass of the dev loss and of BLSTM tagging.
# BLSTM tagging costs a flat 3.9-4.2 us/token from 48 to 256 (medians, one
# BLAS thread, Xeon VM); 64 keeps the dev-loss chunks, and so the summation
# order of both taggers' dev losses, as they were.
EVAL_BATCH = 64


def encode_labels(labels: Sequence[str]) -> list[int]:
    try:
        return [_LABEL_TO_ID[lab] for lab in labels]
    except KeyError as exc:
        raise ValueError(f"unknown label {exc.args[0]!r}") from None


def _pad_batch(
    sequences: Sequence[Sequence[int]], fill: int
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences to (B, T) with ``fill``; 0/1 float mask."""
    lengths = np.array([len(seq) for seq in sequences])
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.full(mask.shape, fill, dtype=np.intp)
    out[mask] = np.concatenate(sequences)
    return out, mask.astype(float)


def add_l2(loss: float, grads: dict, params, l2: float) -> float:
    """``loss`` plus l2 times the sum of squares of ``params.arrays()``;
    each gradient of ``grads``, in that order, gains 2 * l2 * w in place."""
    if l2:
        for w, g in zip(params.arrays(), grads.values()):
            loss += l2 * float(np.sum(w * w))
            g += 2.0 * l2 * w
    return loss


def clip_gradients(grads: Sequence[np.ndarray], clip_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most clip_norm.

    Returns the pre-clipping norm.
    """
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if clip_norm > 0 and norm > clip_norm:
        scale = clip_norm / norm
        for g in grads:
            g *= scale
    return norm


def split_train_dev(
    n: int, dev_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled index split; the dev slice drives early stopping.

    With fewer than two examples, or a zero fraction, everything trains and
    the dev slice is empty (early stopping is then disabled).
    """
    perm = rng.permutation(n)
    if n < 2 or dev_fraction <= 0:
        return perm, perm[:0]
    n_dev = min(n - 1, max(1, int(round(dev_fraction * n))))
    return perm[n_dev:], perm[:n_dev]


def _check_corpus(sentences, labels):
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


def fit_tagger(
    name: str,
    params: P,
    loss_grad: Callable[[P, list, list, float],
                        tuple[float, dict[str, np.ndarray]]],
    summed_loss: Callable[[P, list, list], tuple[float, float]],
    inputs: Sequence,
    labels: Sequence[Sequence[str]],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[P, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice.

    ``inputs`` holds one encoded sentence, one entry per token, for each
    label sequence; the corpus is checked and its labels encoded here.
    ``loss_grad(params, inputs, label_ids, l2)`` returns a batch's loss
    and its gradients in ``params.arrays()`` order. ``summed_loss`` returns
    the unpenalized loss of one EVAL_BATCH chunk of the dev slice, summed
    over its units (sentences or tokens), and the unit count; the dev loss
    is the ratio of their totals.

    The seeded shuffle splits off the dev slice, then draws one
    permutation per epoch. Training stops once the dev loss has failed to
    improve for ``patience`` epochs, and the best parameters are restored.
    A non-finite train or dev loss raises TrainingDivergedError naming the
    epoch and the learning rate.
    """
    _check_corpus(inputs, labels)
    label_ids = [encode_labels(l) for l in labels]

    def pick(indices):
        return [inputs[i] for i in indices], [label_ids[i] for i in indices]

    def check_finite(loss, epoch):
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"{name} training diverged at epoch {epoch} with learning "
                f"rate {config.lr:g}; lower --lr")

    train_idx, dev_idx = split_train_dev(len(inputs), config.dev_fraction,
                                         rng)
    dev_inputs, dev_labels = pick(dev_idx)
    best_dev = np.inf
    best_params = params.copy()
    bad_epochs = 0
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_idx)
        weighted = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            loss, grads = loss_grad(params, *pick(batch), config.l2)
            check_finite(loss, epoch)
            grads = list(grads.values())
            clip_gradients(grads, config.clip_norm)
            for w, g in zip(params.arrays(), grads):
                w -= config.lr * g
            weighted += loss * len(batch)
        record = {"epoch": epoch, "train_loss": weighted / len(order)}
        if len(dev_idx):
            total = count = 0.0
            for lo in range(0, len(dev_idx), EVAL_BATCH):
                chunk_total, chunk_count = summed_loss(
                    params, dev_inputs[lo:lo + EVAL_BATCH],
                    dev_labels[lo:lo + EVAL_BATCH])
                total += chunk_total
                count += chunk_count
            dev = total / count
            check_finite(dev, epoch)
            record["dev_loss"] = dev
            if dev < best_dev:
                best_dev = dev
                best_params = params.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
        history.append(record)
        if len(dev_idx) and bad_epochs >= config.patience:
            break
    if len(dev_idx):
        params = best_params
    return params, history


def decode_in_batches(
    sentences: Sequence[Sequence],
    best_ids: Callable[[list], np.ndarray],
    width: int,
) -> list[list[str]]:
    """BIO labels for every sentence, decoded in length-sorted batches.

    A sentence is any sequence with one entry per token: words, or their
    vocabulary ids. The non-empty sentences, in one stable argsort of
    their lengths, are cut into batches of ``width``; ``best_ids(batch)``
    returns a right-padded (B, T) array of label ids, of which each row's
    first len(sentence) entries are kept. Labels are BIO-repaired and
    returned in input order; an empty sentence gets no labels.
    """
    tagged: list[list[str]] = [[] for _ in sentences]
    lengths = np.fromiter(map(len, sentences), np.intp, len(sentences))
    order = np.argsort(lengths, kind="stable").tolist()[(lengths == 0).sum():]
    for lo in range(0, len(order), width):
        rows = order[lo:lo + width]
        best = best_ids([sentences[i] for i in rows])
        for i, labels in zip(rows, _LABEL_NAMES[best].tolist()):
            tagged[i] = repair_bio(labels[:len(sentences[i])])
    return tagged
