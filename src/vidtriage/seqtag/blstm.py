"""Bidirectional LSTM tagger implemented directly on numpy arrays.

One embedding table feeds two LSTM passes, one per direction, whose
hidden states are concatenated and mapped to per-token label log
probabilities. All math is float64 and the gradients come from
backpropagation through time, so they can be verified against finite
differences. Mini-batches are right-padded; masks freeze the recurrent
state on padding steps and keep padded positions out of the loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from ..medterm import LABELS, TaggedSentence
from ._trainutil import (
    EVAL_BATCH, _check_corpus, _pad_batch, decode_in_batches, fit_tagger,
    logsumexp,
)
from .config import TrainConfig
from .crf import encode_labels
from .vocab import PAD_ID, Vocab, build_vocab

N_LABELS = len(LABELS)

PARAM_NAMES = ("embed", "w_fwd", "b_fwd", "w_bwd", "b_bwd", "w_out", "b_out")


@dataclass
class BlstmParams:
    """Weights in gate order i, f, o, g along the first axis of w/b."""

    embed: np.ndarray
    w_fwd: np.ndarray
    b_fwd: np.ndarray
    w_bwd: np.ndarray
    b_bwd: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def d_emb(self) -> int:
        return self.embed.shape[1]

    @property
    def d_hid(self) -> int:
        return self.w_fwd.shape[0] // 4

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in PARAM_NAMES)

    def copy(self) -> "BlstmParams":
        return BlstmParams(*(a.copy() for a in self.arrays()))


def init_blstm(
    vocab_size: int,
    config: TrainConfig,
    rng: Optional[np.random.Generator] = None,
) -> BlstmParams:
    """Seeded initialization: uniform Glorot weights, zero biases.

    The forget-gate bias starts at one so early updates keep cell state
    flowing instead of erasing it.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(config.seed))
    d, h = config.d_emb, config.d_hid

    def glorot(rows: int, cols: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    b_fwd = np.zeros(4 * h)
    b_fwd[h:2 * h] = 1.0
    b_bwd = b_fwd.copy()
    return BlstmParams(
        embed=rng.uniform(-0.1, 0.1, size=(vocab_size, d)),
        w_fwd=glorot(4 * h, d + h),
        b_fwd=b_fwd,
        w_bwd=glorot(4 * h, d + h),
        b_bwd=b_bwd,
        w_out=glorot(N_LABELS, 2 * h),
        b_out=np.zeros(N_LABELS),
    )


def _run_direction(
    w: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    mask: np.ndarray,
    reverse: bool,
    steps: Optional[list[dict]] = None,
) -> np.ndarray:
    """One LSTM pass over a padded batch; returns the hidden states.

    On a padding step the mask holds h and c at their previous values, so
    right-padded sequences behave exactly like unpadded ones. Given a
    ``steps`` list, each step's gate cache is appended to it for
    backpropagation; decoding passes none and keeps only h and c.
    """
    n, t_max, _ = x.shape
    h_dim = w.shape[0] // 4
    h = np.zeros((n, h_dim))
    c = np.zeros((n, h_dim))
    h_out = np.zeros((n, t_max, h_dim))
    order = range(t_max - 1, -1, -1) if reverse else range(t_max)
    for t in order:
        z = np.concatenate([x[:, t], h], axis=1) @ w.T + b
        gate_i = expit(z[:, :h_dim])
        gate_f = expit(z[:, h_dim:2 * h_dim])
        gate_o = expit(z[:, 2 * h_dim:3 * h_dim])
        gate_g = np.tanh(z[:, 3 * h_dim:])
        c_hat = gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c_hat)
        m = mask[:, t][:, None]
        if steps is not None:
            steps.append({
                "t": t, "h_prev": h, "c_prev": c, "i": gate_i, "f": gate_f,
                "o": gate_o, "g": gate_g, "tanh_c": tanh_c, "m": m,
            })
        c = m * c_hat + (1.0 - m) * c
        h = m * (gate_o * tanh_c) + (1.0 - m) * h
        h_out[:, t] = h
    return h_out


def _back_direction(
    w: np.ndarray,
    x: np.ndarray,
    steps: list[dict],
    dh_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, _, d = x.shape
    h_dim = w.shape[0] // 4
    g_w = np.zeros_like(w)
    g_b = np.zeros(w.shape[0])
    dx = np.zeros_like(x)
    dh = np.zeros((n, h_dim))
    dc = np.zeros((n, h_dim))
    for step in reversed(steps):
        t = step["t"]
        m = step["m"]
        dh = dh + dh_out[:, t]
        dh_hat = m * dh
        dh_prev = (1.0 - m) * dh
        dc_hat = m * dc + dh_hat * step["o"] * (1.0 - step["tanh_c"] ** 2)
        dc = (1.0 - m) * dc + dc_hat * step["f"]
        d_i = dc_hat * step["g"] * step["i"] * (1.0 - step["i"])
        d_f = dc_hat * step["c_prev"] * step["f"] * (1.0 - step["f"])
        d_o = dh_hat * step["tanh_c"] * step["o"] * (1.0 - step["o"])
        d_g = dc_hat * step["i"] * (1.0 - step["g"] ** 2)
        dz = np.concatenate([d_i, d_f, d_o, d_g], axis=1)
        inp = np.concatenate([x[:, t], step["h_prev"]], axis=1)
        g_w += dz.T @ inp
        g_b += dz.sum(axis=0)
        dinp = dz @ w
        dx[:, t] = dinp[:, :d]
        dh = dh_prev + dinp[:, d:]
    return g_w, g_b, dx


def _forward_batch(params: BlstmParams, ids: np.ndarray, mask: np.ndarray,
                   keep_steps: bool = False):
    """Padded forward pass; the step caches are kept only for training."""
    x = params.embed[ids]
    steps_f, steps_b = ([], []) if keep_steps else (None, None)
    h_f = _run_direction(params.w_fwd, params.b_fwd, x, mask, False, steps_f)
    h_b = _run_direction(params.w_bwd, params.b_bwd, x, mask, True, steps_b)
    h2 = np.concatenate([h_f, h_b], axis=2)
    logits = h2 @ params.w_out.T + params.b_out
    logp = logits - logsumexp(logits, axis=2, keepdims=True)
    return x, h2, steps_f, steps_b, logp


def blstm_forward(
    params: BlstmParams, token_ids: Sequence[int]
) -> np.ndarray:
    """Per-token label log-probabilities for one sentence, shape (T, 3)."""
    if len(token_ids) == 0:
        return np.zeros((0, N_LABELS))
    ids, mask = _pad_batch([token_ids], PAD_ID)
    _, _, _, _, logp = _forward_batch(params, ids, mask)
    return logp[0]


def _summed_nll(logp: np.ndarray, labels: np.ndarray,
                mask: np.ndarray) -> float:
    """Cross-entropy summed over the real tokens of a padded batch."""
    rows = np.arange(logp.shape[0])[:, None]
    cols = np.arange(logp.shape[1])[None, :]
    return float(-(logp[rows, cols, labels] * mask).sum())


def blstm_loss_grad(
    params: BlstmParams,
    batch_ids: Sequence[Sequence[int]],
    batch_labels: Sequence[Sequence[int]],
    l2: float = 0.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-token cross-entropy plus L2, with gradients for every block.

    The cross-entropy sum is divided by the number of real tokens in the
    batch, so duplicating every sentence leaves the loss unchanged. The L2
    term is `l2` times the sum of squares of all parameters.
    """
    _check_corpus(batch_ids, batch_labels)
    ids, mask = _pad_batch(batch_ids, PAD_ID)
    labels, _ = _pad_batch(batch_labels, 0)
    n, t_max = ids.shape
    n_tokens = float(mask.sum())
    x, h2, steps_f, steps_b, logp = _forward_batch(params, ids, mask,
                                                   keep_steps=True)

    rows = np.arange(n)[:, None]
    cols = np.arange(t_max)[None, :]
    loss = _summed_nll(logp, labels, mask) / n_tokens

    dlogits = np.exp(logp)
    dlogits[rows, cols, labels] -= 1.0
    dlogits *= (mask / n_tokens)[:, :, None]
    g_wout = np.einsum("ntl,nth->lh", dlogits, h2)
    g_bout = dlogits.sum(axis=(0, 1))
    dh2 = dlogits @ params.w_out
    h_dim = params.d_hid
    g_wf, g_bf, dx_f = _back_direction(params.w_fwd, x, steps_f,
                                       dh2[:, :, :h_dim])
    g_wb, g_bb, dx_b = _back_direction(params.w_bwd, x, steps_b,
                                       dh2[:, :, h_dim:])
    g_embed = np.zeros_like(params.embed)
    np.add.at(g_embed, ids, dx_f + dx_b)
    grads = {
        "embed": g_embed,
        "w_fwd": g_wf, "b_fwd": g_bf,
        "w_bwd": g_wb, "b_bwd": g_bb,
        "w_out": g_wout, "b_out": g_bout,
    }
    if l2:
        for name, w in zip(PARAM_NAMES, params.arrays()):
            loss += l2 * float(np.sum(w * w))
            grads[name] += 2.0 * l2 * w
    return loss, grads


def _dev_loss(
    params: BlstmParams,
    encoded: Sequence[Sequence[int]],
    label_ids: Sequence[Sequence[int]],
) -> float:
    """Mean per-token cross-entropy, without the L2 term."""
    ce = 0.0
    n_tokens = 0.0
    for lo in range(0, len(encoded), EVAL_BATCH):
        ids, mask = _pad_batch(encoded[lo:lo + EVAL_BATCH], PAD_ID)
        labels, _ = _pad_batch(label_ids[lo:lo + EVAL_BATCH], 0)
        _, _, _, _, logp = _forward_batch(params, ids, mask)
        ce += _summed_nll(logp, labels, mask)
        n_tokens += float(mask.sum())
    return ce / n_tokens


def train_blstm(
    corpus: Sequence[TaggedSentence],
    config: TrainConfig,
) -> tuple[BlstmParams, Vocab, list[dict]]:
    """Mini-batch SGD over a BIO corpus with early stopping.

    The vocabulary is built from the corpus, parameters are seeded from
    the config, and a held-out slice of the seeded shuffle drives early
    stopping: after `patience` epochs without a better dev loss, training
    stops and the best parameters are restored. A non-finite loss raises
    TrainingDivergedError naming the epoch.
    """
    _check_corpus([s.tokens for s in corpus], [s.labels for s in corpus])
    vocab = build_vocab(corpus)
    encoded = [vocab.encode(sent.tokens) for sent in corpus]
    label_ids = [encode_labels(sent.labels) for sent in corpus]

    def loss_grad(params, batch_ids, batch_labels):
        loss, g = blstm_loss_grad(params, batch_ids, batch_labels, config.l2)
        return loss, [g[name] for name in PARAM_NAMES]

    # The init weights come from the same generator, before the split.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = init_blstm(vocab.size, config, rng)
    params, history = fit_tagger("blstm", params, loss_grad, _dev_loss,
                                 encoded, label_ids, config, rng)
    return params, vocab, history


def tag_with_blstm(
    params: BlstmParams, vocab: Vocab, sentences: Sequence[Sequence[str]]
) -> list[list[str]]:
    """Argmax-decode each sentence; ties keep the lower label id.

    Sentences run through the padded forward pass in length-sorted
    batches. The per-token argmax can produce an I-MED with no span
    start, so the output is BIO-repaired before being returned.
    """

    def best_ids(batch):
        ids, mask = _pad_batch([vocab.encode(s) for s in batch], PAD_ID)
        return np.argmax(_forward_batch(params, ids, mask)[-1], axis=2)

    return decode_in_batches(sentences, best_ids)
