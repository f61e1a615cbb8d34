"""The training loop, checks, padding and batched decode of both taggers."""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..medterm import LABELS
from .config import TrainConfig
from .metrics import repair_bio

P = TypeVar("P")

# Sentences per padded forward pass outside training: dev loss and tagging.
EVAL_BATCH = 64


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss turns non-finite."""


def logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum first."""
    top = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def _pad_batch(
    sequences: Sequence[Sequence[int]], fill: int
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences to (B, T) with ``fill``; 0/1 float mask."""
    lengths = np.array([len(seq) for seq in sequences])
    mask = np.arange(lengths.max()) < lengths[:, None]
    out = np.full(mask.shape, fill, dtype=np.intp)
    out[mask] = np.concatenate(sequences)
    return out, mask.astype(float)


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
    loss_grad: Callable[[P, list, list], tuple[float, Sequence[np.ndarray]]],
    dev_loss: Callable[[P, list, list], float],
    inputs: Sequence,
    labels: Sequence,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[P, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice.

    ``loss_grad(params, inputs, labels)`` returns a batch's loss and its
    gradients in ``params.arrays()`` order; ``dev_loss`` scores the dev
    slice. The seeded shuffle splits off the dev slice, then draws one
    permutation per epoch. Training stops once the dev loss has failed to
    improve for ``patience`` epochs, and the best parameters are restored.
    A non-finite train or dev loss raises TrainingDivergedError naming the
    epoch.
    """

    def pick(indices):
        return [inputs[i] for i in indices], [labels[i] for i in indices]

    train_idx, dev_idx = split_train_dev(len(inputs), config.dev_fraction,
                                         rng)
    best_dev = np.inf
    best_params = params.copy()
    bad_epochs = 0
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(train_idx)
        weighted = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            loss, grads = loss_grad(params, *pick(batch))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"{name} training diverged at epoch {epoch}"
                )
            clip_gradients(grads, config.clip_norm)
            for w, g in zip(params.arrays(), grads):
                w -= config.lr * g
            weighted += loss * len(batch)
        record = {"epoch": epoch, "train_loss": weighted / len(order)}
        if len(dev_idx):
            dev = dev_loss(params, *pick(dev_idx))
            if not np.isfinite(dev):
                raise TrainingDivergedError(
                    f"{name} training diverged at epoch {epoch}"
                )
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
    sentences: Sequence[Sequence[str]],
    best_ids: Callable[[list], np.ndarray],
) -> list[list[str]]:
    """BIO labels for every sentence, decoded in length-sorted batches.

    The non-empty sentences are stably sorted by length and cut into
    batches of EVAL_BATCH; ``best_ids(batch)`` returns a right-padded
    (B, T) array of label ids, of which each row's first len(sentence)
    entries are kept. Labels are BIO-repaired and returned in input
    order; an empty sentence gets no labels.
    """
    tagged: list[list[str]] = [[] for _ in sentences]
    order = sorted((i for i, s in enumerate(sentences) if len(s)),
                   key=lambda i: len(sentences[i]))
    for lo in range(0, len(order), EVAL_BATCH):
        rows = order[lo:lo + EVAL_BATCH]
        best = best_ids([sentences[i] for i in rows])
        for i, ids in zip(rows, best):
            tagged[i] = repair_bio([LABELS[k]
                                    for k in ids[:len(sentences[i])]])
    return tagged
