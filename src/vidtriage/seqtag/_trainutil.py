"""Label ids, the training loop with its checks and L2 term, the
padding gather, batched decode of both taggers, and the spans their label
ids mark.

Sentences lie end to end: per-token inputs and label ids, and each
sentence's length. A batch is a list of sentence indices, gathered by
``pad_positions`` into (B, T) rows."""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..medterm import B_MED, I_MED, LABELS, O
from .config import TrainConfig, TrainingDivergedError
from .metrics import span_bounds

P = TypeVar("P")

N_LABELS = len(LABELS)
_LABEL_NAMES = np.array(LABELS, dtype=object)
_B, _I, _O = map(LABELS.index, (B_MED, I_MED, O))

# Sentences per padded forward pass of the dev loss and of BLSTM tagging.
# BLSTM tagging costs a flat 3.9-4.2 us/token from 48 to 256 (medians, one
# BLAS thread, Xeon VM); 64 keeps the dev-loss chunks, and so the summation
# order of both taggers' dev losses, as they were.
EVAL_BATCH = 64


def pad_positions(starts: np.ndarray, lengths: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) positions of the sentences ``rows``, of ``lengths`` tokens
    from ``starts`` end to end, each row padded with its last position,
    and the (B, T) mask of the real ones."""
    n = lengths[rows]
    steps = np.arange(n.max())
    return (starts[rows, None] + np.minimum(steps, n[:, None] - 1),
            steps < n[:, None])


def batcher(inputs: Sequence, labels: Sequence[int],
            lengths: Sequence[int]) -> Callable:
    """``pick(rows)``: the (B, T) inputs and label ids of the sentences
    ``rows`` gathered by ``pad_positions``, and the mask of real tokens,
    given one input (a word id or a row of feature ids) and one label id
    per token of sentences of ``lengths`` tokens end to end. No sentence,
    an empty one, or sizes that do not add up raise ValueError."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if not len(lengths) or not lengths.all():
        raise ValueError("no sentences, or an empty one")
    if not len(inputs) == len(labels) == lengths.sum():
        raise ValueError(f"{len(inputs)} tokens and {len(labels)} labels "
                         f"for sentences of {lengths.sum()}")
    starts = np.cumsum(lengths) - lengths
    inputs, labels = np.asarray(inputs), np.asarray(labels)

    def pick(rows):
        at, real = pad_positions(starts, lengths, rows)
        return inputs[at], labels[at], real

    return pick


def list_batch(inputs: Sequence[Sequence], labels: Sequence[Sequence[int]]):
    """Per-sentence inputs and label ids gathered into one batch, as
    ``batcher`` gathers a minibatch; sequences that differ in number or
    length raise ValueError."""
    lengths = [len(s) for s in inputs]
    if [len(s) for s in labels] != lengths:
        raise ValueError("sentences and label sequences differ in number "
                         "or length")
    return batcher([x for s in inputs for x in s],
                   [y for s in labels for y in s],
                   lengths)(np.arange(len(lengths)))


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


def fit_tagger(
    name: str,
    params: P,
    loss_grad: Callable[..., tuple[float, dict[str, np.ndarray]]],
    summed_loss: Callable[..., tuple[float, float]],
    inputs: Sequence,
    labels: Sequence[int],
    lengths: Sequence[int],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[P, list[dict]]:
    """Mini-batch gradient descent with early stopping on a held-out slice.

    ``inputs`` and ``labels`` hold one input and one label id per token
    of sentences of ``lengths`` tokens end to end, checked by
    ``batcher``, which gathers each batch of sentences.
    ``loss_grad(params, inputs, labels, real, l2)`` returns a batch's loss
    and its gradients in ``params.arrays()`` order. ``summed_loss(params,
    inputs, labels, real)`` returns the unpenalized loss of one EVAL_BATCH
    chunk of the dev slice, summed over its units (sentences or tokens),
    and the unit count; the dev loss is the ratio of their totals.

    The seeded shuffle splits off the dev slice, then draws one
    permutation per epoch. Training stops once the dev loss has failed to
    improve for ``patience`` epochs, and the best parameters are restored.
    A non-finite train or dev loss raises TrainingDivergedError naming the
    epoch and the learning rate.
    """
    pick = batcher(inputs, labels, lengths)

    def check_finite(loss, epoch):
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"{name} training diverged at epoch {epoch} with learning "
                f"rate {config.lr:g}; lower --lr")

    train_idx, dev_idx = split_train_dev(len(lengths), config.dev_fraction,
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
                    params, *pick(dev_idx[lo:lo + EVAL_BATCH]))
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
    lengths: Sequence[int],
    best_ids: Callable[[np.ndarray, np.ndarray], np.ndarray],
    width: int,
) -> np.ndarray:
    """Label ids of sentences of ``lengths`` tokens lying end to end,
    BIO-repaired: an I-MED that starts a sentence or follows an O becomes
    a B-MED. The non-empty sentences, in one stable argsort of their
    lengths, are cut into batches of ``width``; ``best_ids(at, real)``
    gets a batch's ``pad_positions`` and returns (B, T) label ids."""
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    labels = np.empty(lengths.sum(), dtype=np.int8)
    order = np.argsort(lengths, kind="stable")[(lengths == 0).sum():]
    for lo in range(0, len(order), width):
        at, real = pad_positions(starts, lengths, order[lo:lo + width])
        labels[at[real]] = best_ids(at, real)[real]
    # An I-MED at a sentence start or right after an O becomes B-MED.
    after_o = np.append(True, labels[:-1] == _O)
    after_o[starts[lengths > 0]] = True
    labels[(labels == _I) & after_o] = _B
    return labels


def label_names(labels: np.ndarray) -> list[str]:
    return _LABEL_NAMES[labels].tolist()


def span_forms(tokens: Sequence[str], lengths: Sequence[int],
               labels: np.ndarray):
    """Each span's sentence index and form, its tokens joined by single
    spaces and lowercased, in token order; spans as ``span_bounds`` reads
    the label ids of sentences of ``lengths`` tokens end to end."""
    begins, ends = span_bounds(labels)
    sentence = np.searchsorted(np.cumsum(lengths), begins, "right")
    return ((k, " ".join(tokens[a:b]).lower()) for k, a, b
            in zip(sentence.tolist(), begins.tolist(), ends.tolist()))


def term_counts(tokens: Sequence[str], lengths: Sequence[int],
                labels: np.ndarray, video_ids: Sequence[str]) -> dict:
    """Each video's number of distinct ``span_forms``, given each
    sentence's video and the label ids of ``decode_in_batches``."""
    forms = {vid: set() for vid, _ in zip(video_ids, lengths, strict=True)}
    for k, form in span_forms(tokens, lengths, labels):
        forms[video_ids[k]].add(form)
    return {vid: len(f) for vid, f in forms.items()}
