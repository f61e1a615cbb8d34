"""Bidirectional LSTM tagger implemented directly on numpy arrays.

One embedding table feeds two LSTM passes, one per direction, whose
hidden states are concatenated and mapped to per-token label log
probabilities. All math is float64 and the gradients come from
backpropagation through time, so they can be verified against finite
differences. ``embed[id] @ W_x.T + b`` is computed once per distinct
word id of the work unit (a minibatch, a dev-loss chunk, or a whole
``tag_with_blstm`` call), and each step adds its ids' rows to
``h @ W_h.T``. Batches run sorted by length, and each step computes only
the rows whose sentence is still running; a mask keeps padded positions
out of the loss. Training keeps each step's gates for backpropagation;
the dev loss and decoding keep none and run a leaner step on weights
folded once per call (``_fold``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..medterm import TaggedSentence
from ..numeric import logsumexp, sigmoid
from ._trainutil import (EVAL_BATCH, N_LABELS, _check_corpus, _pad_batch,
                         add_l2, decode_in_batches, fit_tagger)
from .config import TrainConfig
from .vocab import PAD_ID, Vocab, build_vocab

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
    def d_hid(self) -> int:
        return self.w_fwd.shape[0] // 4

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in PARAM_NAMES)

    def copy(self) -> "BlstmParams":
        return BlstmParams(*(a.copy() for a in self.arrays()))


def init_blstm(
    vocab_size: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> BlstmParams:
    """Uniform Glorot weights drawn from ``rng``, zero biases.

    The forget-gate bias starts at one so early updates keep cell state
    flowing instead of erasing it.
    """
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


@dataclass
class _Projection:
    """``embed[ids] @ W_x.T + b`` of each direction, W_x being the first
    d_emb columns of its weight: an (ids, 4h) array for training, or a
    ``_LeanPass`` for decoding. ``row[i]`` is the row of vocabulary id
    ``i`` (0 for ids not in ``ids``)."""

    ids: np.ndarray
    row: np.ndarray
    fwd: np.ndarray | _LeanPass
    bwd: np.ndarray | _LeanPass


def _distinct_ids(params: BlstmParams, seqs: Sequence[Sequence[int]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of ``seqs``, and each vocabulary id's index
    among them (0 for ids not in ``seqs``)."""
    ids = np.unique(np.fromiter(chain.from_iterable(seqs), dtype=np.intp))
    row = np.zeros(len(params.embed), dtype=np.intp)
    row[ids] = np.arange(len(ids))
    return ids, row


def _project(params: BlstmParams,
             seqs: Sequence[Sequence[int]]) -> _Projection:
    """Project each distinct id of ``seqs`` once, for both directions."""
    ids, row = _distinct_ids(params, seqs)
    x = params.embed[ids]
    d = x.shape[1]
    fwd = x @ params.w_fwd[:, :d].T
    fwd += params.b_fwd
    bwd = x @ params.w_bwd[:, :d].T
    bwd += params.b_bwd
    return _Projection(ids, row, fwd, bwd)


def _run_direction(
    w_h: np.ndarray,
    proj: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    reverse: bool,
    h_seq: np.ndarray,
) -> list[dict]:
    """One LSTM pass over length-sorted rows, writing h into ``h_seq``;
    returns each step's gate cache for backpropagation.

    ``rows`` (B, T) indexes ``proj``, and the rows still inside their
    sentence at step t are those from ``starts[t]`` on. Only they are
    computed: a finished row is never read again, and in the reverse pass
    a row that has not started keeps h = c = 0, so padding changes
    nothing. ``h_seq`` starts at zero and is never written on padding, so
    it also holds each step's previous h.
    """
    n, t_max = rows.shape
    h_dim = w_h.shape[1]
    c = np.zeros((n, h_dim))
    w_ht = w_h.T
    step = -1 if reverse else 1
    first = t_max - 1 if reverse else 0
    steps = []
    for t in range(first, first + step * t_max, step):
        lo = starts[t]
        z = proj[rows[lo:, t]]
        h_prev = None if t == first else h_seq[lo:, t - step]
        if h_prev is not None:
            z += h_prev @ w_ht
        ifo = sigmoid(z[:, :3 * h_dim])
        gate_i = ifo[:, :h_dim]
        gate_f = ifo[:, h_dim:2 * h_dim]
        gate_o = ifo[:, 2 * h_dim:]
        gate_g = np.tanh(z[:, 3 * h_dim:])
        # f * c_prev, kept because backprop needs it once c is overwritten.
        fc = gate_f * c[lo:]
        c[lo:] = fc + gate_i * gate_g
        tanh_c = np.tanh(c[lo:])
        h_seq[lo:, t] = gate_o * tanh_c
        steps.append({
            "t": t, "lo": lo, "h_prev": h_prev, "i": gate_i,
            "f": gate_f, "o": gate_o, "g": gate_g, "fc": fc,
            "tanh_c": tanh_c,
        })
    return steps


def _fold_gates(a: np.ndarray) -> np.ndarray:
    """Negate the i/f/o blocks of gate-major (4, ..., h) ``a`` and scale
    its g block by -2, in place. Both are exact in binary floating point
    and commute with rounding, so sums and products of folded weights are
    exactly the folded sums and products: the pre-activations come out
    folded."""
    a[:3] *= -1.0
    a[3] *= -2.0
    return a


def _lean_step(z: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """One LSTM step from folded gate-major pre-activations ``z``
    (4, n, h), which it overwrites: updates the cell state ``c`` (n, h)
    in place and writes h into ``h``.

    With e = exp(folded z), each sigmoid gate is 1 / (1 + e) and
    tanh(g) = 2 / (1 + e_g) - 1, so the gate products are divisions:
    i * tanh(g) = tanh(g) / (1 + e_i), f * c = c / (1 + e_f) and
    h = tanh(c) / (1 + e_o). Where exp overflows, 1 + e is inf and the
    gate is exactly 0; the caller ignores that overflow.
    """
    np.exp(z, out=z)
    z += 1.0
    gate_i, gate_f, gate_o, gate_g = z
    np.divide(2.0, gate_g, out=gate_g)
    gate_g -= 1.0
    gate_g /= gate_i
    c /= gate_f
    c += gate_g
    np.tanh(c, out=h)
    h /= gate_o


@dataclass
class _LeanPass:
    """One direction of a decode call, in gate-major blocks folded by
    ``_fold_gates``: ``proj`` (4, ids, h) holds ``embed[id] @ W_x.T + b``
    and ``w`` (4, h, h) each gate's block of W_h, transposed. A pass
    starts from h = c = 0, so its first step depends only on its token:
    ``h0``/``c0`` hold that step's state for each projection row in
    ``first`` (sorted)."""

    proj: np.ndarray
    w: np.ndarray
    first: np.ndarray
    h0: np.ndarray
    c0: np.ndarray


def _lean_pass(x: np.ndarray, w: np.ndarray, b: np.ndarray,
               first: np.ndarray) -> _LeanPass:
    """Fold one direction's weights for the embeddings ``x`` of a call's
    distinct ids, and tabulate the first step of the rows ``first``."""
    h_dim, d = w.shape[0] // 4, x.shape[1]
    blocks = w.reshape(4, h_dim, -1).transpose(0, 2, 1)
    proj = np.matmul(x, blocks[:, :d])
    proj += b.reshape(4, 1, h_dim)
    _fold_gates(proj)
    first = np.unique(first)
    c0 = np.zeros((len(first), h_dim))
    h0 = np.empty_like(c0)
    _lean_step(np.take(proj, first, axis=1), c0, h0)
    return _LeanPass(proj, _fold_gates(blocks[:, d:].copy()), first, h0, c0)


def _fold(params: BlstmParams,
          seqs: Sequence[Sequence[int]]) -> _Projection:
    """Project and fold a decode call over ``seqs`` (see
    ``_forward_batch``); the forward pass starts at each sentence's first
    id, the backward pass at its last."""
    ids, row = _distinct_ids(params, seqs)
    x = params.embed[ids]

    def first(k):
        return row[np.fromiter((s[k] for s in seqs if len(s)), np.intp)]

    return _Projection(ids, row,
                       _lean_pass(x, params.w_fwd, params.b_fwd, first(0)),
                       _lean_pass(x, params.w_bwd, params.b_bwd, first(-1)))


def _lean_direction(lean: _LeanPass, rows: np.ndarray, lengths: np.ndarray,
                    starts: np.ndarray, reverse: bool,
                    h_seq: np.ndarray) -> None:
    """``_run_direction`` with the lean step and no caches, writing h into
    the time-major (T, B, h) ``h_seq``: each row's first step (token 0,
    or its last token in reverse) is looked up, and the loop then
    computes the rows whose previous token is real."""
    n, t_max = rows.shape
    at = lengths - 1 if reverse else np.zeros(n, dtype=np.intp)
    k = np.searchsorted(lean.first, rows[np.arange(n), at])
    c = lean.c0[k]
    h_seq[at, np.arange(n)] = lean.h0[k]
    step = -1 if reverse else 1
    for t in range(t_max - 2, -1, -1) if reverse else range(1, t_max):
        lo = starts[t + 1] if reverse else starts[t]
        z = np.take(lean.proj, rows[lo:, t], axis=1)
        z += np.matmul(h_seq[t - step, lo:], lean.w)
        _lean_step(z, c[lo:], h_seq[t, lo:])


def _back_direction(
    w_h: np.ndarray,
    rows: np.ndarray,
    steps: list[dict],
    dh_seq: np.ndarray,
    n_proj: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate one pass: the gradients of its recurrent weights and
    of each of its ``n_proj`` projection rows."""
    n = rows.shape[0]
    h_dim = w_h.shape[1]
    g_wh = np.zeros_like(w_h)
    g_proj = np.zeros((n_proj, 4 * h_dim))
    dh = np.zeros((n, h_dim))
    dc = np.zeros((n, h_dim))
    for step in reversed(steps):
        t, lo = step["t"], step["lo"]
        dh_t = dh[lo:] + dh_seq[lo:, t]
        dc_t = dc[lo:] + dh_t * step["o"] * (1.0 - step["tanh_c"] ** 2)
        d_i = dc_t * step["g"] * step["i"] * (1.0 - step["i"])
        d_f = dc_t * step["fc"] * (1.0 - step["f"])
        d_o = dh_t * step["tanh_c"] * step["o"] * (1.0 - step["o"])
        d_g = dc_t * step["i"] * (1.0 - step["g"] ** 2)
        dz = np.concatenate([d_i, d_f, d_o, d_g], axis=1)
        # Summed per distinct id: a 0/1 (ids x live rows) product.
        g_proj += (np.arange(n_proj)[:, None] == rows[lo:, t]) @ dz
        if step["h_prev"] is not None:
            g_wh += dz.T @ step["h_prev"]
        dh[lo:] = dz @ w_h
        dc[lo:] = dc_t * step["f"]
    return g_wh, g_proj


def _forward_batch(params: BlstmParams, proj, batch_ids):
    """Label log-probabilities (B, T, L) of a right-padded batch.

    The rows run through both directions stably sorted by length,
    ascending, so the rows live at each step are a suffix that one
    searchsorted finds. The passes of a ``_project`` projection keep
    their step caches for training; those of a ``_fold`` one keep none
    and run the lean step, which must run under
    ``np.errstate(over="ignore")``. Returns the sort order, the sorted
    projection rows and hidden states, the step caches (None when
    folded) and logp, the one output put back in input order.
    """
    lengths = np.array([len(seq) for seq in batch_ids])
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    ids, _ = _pad_batch([batch_ids[i] for i in order], PAD_ID)
    rows = proj.row[ids]
    n, t_max = ids.shape
    starts = np.searchsorted(lengths, np.arange(t_max), side="right")
    h, d = params.d_hid, params.embed.shape[1]
    if isinstance(proj.fwd, _LeanPass):
        h_seq = np.zeros((2, t_max, n, h))
        _lean_direction(proj.fwd, rows, lengths, starts, False, h_seq[0])
        _lean_direction(proj.bwd, rows, lengths, starts, True, h_seq[1])
        h2 = h_seq.transpose(2, 1, 0, 3).reshape(n, t_max, 2 * h)
        steps_f = steps_b = None
    else:
        h2 = np.zeros((n, t_max, 2 * h))
        steps_f = _run_direction(params.w_fwd[:, d:], proj.fwd, rows,
                                 starts, False, h2[:, :, :h])
        steps_b = _run_direction(params.w_bwd[:, d:], proj.bwd, rows,
                                 starts, True, h2[:, :, h:])
    logits = h2 @ params.w_out.T + params.b_out
    logp = np.empty_like(logits)
    logp[order] = logits - logsumexp(logits, axis=2, keepdims=True)
    return order, rows, h2, steps_f, steps_b, logp


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
    proj = _project(params, batch_ids)
    order, rows, h2, steps_f, steps_b, logp = _forward_batch(
        params, proj, batch_ids)
    labels, mask = _pad_batch(batch_labels, 0)
    n, t_max = labels.shape
    n_tokens = float(mask.sum())
    loss = _summed_nll(logp, labels, mask) / n_tokens

    dlogits = np.exp(logp)
    dlogits[np.arange(n)[:, None], np.arange(t_max)[None, :], labels] -= 1.0
    dlogits *= (mask / n_tokens)[:, :, None]
    dlogits = dlogits[order]
    g_wout = np.einsum("ntl,nth->lh", dlogits, h2)
    g_bout = dlogits.sum(axis=(0, 1))
    dh2 = dlogits @ params.w_out
    h, d = params.d_hid, params.embed.shape[1]
    x = params.embed[proj.ids]
    g_embed = np.zeros_like(params.embed)

    def direction(w, steps, dh_seq):
        # dz summed per distinct id gives the input weights, bias and
        # embedding rows their gradients in one product each.
        g_wh, g_u = _back_direction(w[:, d:], rows, steps, dh_seq,
                                    len(proj.ids))
        g_embed[proj.ids] += g_u @ w[:, :d]
        return np.concatenate([g_u.T @ x, g_wh], axis=1), g_u.sum(axis=0)

    g_wf, g_bf = direction(params.w_fwd, steps_f, dh2[:, :, :h])
    g_wb, g_bb = direction(params.w_bwd, steps_b, dh2[:, :, h:])
    grads = {
        "embed": g_embed,
        "w_fwd": g_wf, "b_fwd": g_bf,
        "w_bwd": g_wb, "b_bwd": g_bb,
        "w_out": g_wout, "b_out": g_bout,
    }
    return add_l2(loss, grads, params, l2), grads


def _chunk_loss(
    params: BlstmParams,
    encoded: Sequence[Sequence[int]],
    label_ids: Sequence[Sequence[int]],
) -> tuple[float, float]:
    """Summed per-token cross-entropy, without the L2 term, and the number
    of tokens."""
    labels, mask = _pad_batch(label_ids, 0)
    with np.errstate(over="ignore"):
        logp = _forward_batch(params, _fold(params, encoded), encoded)[-1]
    return _summed_nll(logp, labels, mask), float(mask.sum())


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
    vocab = build_vocab(corpus)
    encoded = [vocab.encode(sent.tokens) for sent in corpus]
    # The init weights come from the same generator, before the split.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = init_blstm(vocab.size, config, rng)
    params, history = fit_tagger("blstm", params, blstm_loss_grad,
                                 _chunk_loss, encoded,
                                 [sent.labels for sent in corpus], config,
                                 rng)
    return params, vocab, history


def tag_with_blstm(
    params: BlstmParams, vocab: Vocab, sentences: Sequence[Sequence[str]]
) -> list[list[str]]:
    """Argmax-decode each sentence; ties keep the lower label id.

    The call projects and folds each distinct word id once, then runs the
    sentences in length-sorted batches. The per-token argmax can produce
    an I-MED with no span start, so the output is BIO-repaired before
    being returned.
    """
    encoded = [vocab.encode(s) for s in sentences]
    with np.errstate(over="ignore"):
        folded = _fold(params, encoded)

        def best_ids(batch):
            return np.argmax(_forward_batch(params, folded, batch)[-1],
                             axis=2)

        return decode_in_batches(encoded, best_ids, EVAL_BATCH)
