"""Bidirectional LSTM tagger implemented directly on numpy arrays.

One embedding table feeds two LSTM passes, one per direction, whose
hidden states are concatenated and mapped to per-token label log
probabilities. All math is float64 and the gradients come from
backpropagation through time, so they can be verified against finite
differences. ``_fold`` projects ``embed[id] @ W_x.T + b`` once per
distinct word id of the work unit (a minibatch, a dev-loss chunk, or a
whole ``tag_with_blstm`` call) into gate-major blocks, with the gates
folded so that one exp gives all four, and each step adds its ids' rows
to ``h @ W_h.T``. Batches run sorted by length, and each step computes
only the rows whose sentence is still running; a mask keeps padded
positions out of the loss. Training and decoding run the same loop:
training's step reads a zero state before each row's first step, and
decoding's first step is its projection row alone. Training's step
keeps its gates for backpropagation; decoding's divides by them in
place and keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..numeric import logsumexp
from ._trainutil import (EVAL_BATCH, N_LABELS, add_l2, decode_in_batches,
                         fit_tagger, list_batch)
from .config import TrainConfig
from .vocab import Vocab, build_vocab

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


def _fold_gates(a: np.ndarray) -> np.ndarray:
    """Negate the i/f/o blocks of gate-major (4, ..., h) ``a`` and scale
    its g block by -2, in place. Both are exact in binary floating point
    and commute with rounding, so sums and products of folded weights are
    exactly the folded sums and products: the pre-activations come out
    folded."""
    a[:3] *= -1.0
    a[3] *= -2.0
    return a


@dataclass
class _Pass:
    """One direction of a call in gate-major blocks folded by
    ``_fold_gates``: ``proj`` (4, ids, h) holds ``embed[id] @ W_x.T + b``
    of each distinct id of the call, and ``w`` (4, h, h) each gate's block
    of W_h, transposed."""

    proj: np.ndarray
    w: np.ndarray


def _fold(params: BlstmParams, ids: np.ndarray):
    """Project and fold each distinct id of ``ids`` once per direction,
    one stacked matmul each. Returns the sorted distinct ids, each
    vocabulary id's row among them (0 for ids not in ``ids``), and the
    forward and backward ``_Pass``."""
    ids = np.unique(ids)
    row = np.zeros(len(params.embed), dtype=np.intp)
    row[ids] = np.arange(len(ids))
    x = params.embed[ids]

    def fold(w, b):
        h_dim, d = w.shape[0] // 4, x.shape[1]
        blocks = w.reshape(4, h_dim, -1).transpose(0, 2, 1)
        proj = np.matmul(x, blocks[:, :d])
        proj += b.reshape(4, 1, h_dim)
        return _Pass(_fold_gates(proj), _fold_gates(blocks[:, d:].copy()))

    return ids, row, (fold(params.w_fwd, params.b_fwd),
                      fold(params.w_bwd, params.b_bwd))


def _forward_batch(params: BlstmParams, row: np.ndarray, passes, run,
                   ids: np.ndarray, mask: np.ndarray):
    """Label log-probabilities (B, T, L) of a (B, T) batch of word ids
    whose real ones ``mask`` marks; padding may hold any vocabulary id.

    The rows run through both directions stably sorted by length,
    ascending, so the rows live at step t are the suffix from
    ``starts[t]`` on; ``starts`` has T + 1 entries, and ``starts[T]`` is
    B. ``run(pass, rows, starts, reverse, h_seq)`` runs the forward, then
    the backward one of ``passes``, writing h into the time-major
    (T + 1, B, h) ``h_seq``. Its row T stays 0: training's step reads it
    as the state before a row's first step (t - 1 = -1 forward, t + 1 = T
    in reverse), and decoding's first steps read no state. Returns the
    sort order, the sorted projection rows, ``starts``, both ``h_seq``,
    what each ``run`` returned, the sorted (B, T, 2h) hidden states, and
    logp in input order.
    """
    lengths = mask.sum(axis=1)
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    rows = row[ids[order]]
    n, t_max = ids.shape
    starts = np.searchsorted(lengths, np.arange(t_max + 1), side="right")
    h = params.d_hid
    h_seq = np.zeros((2, t_max + 1, n, h))
    runs = [run(p, rows, starts, reverse, h_seq[k])
            for k, (p, reverse) in enumerate(zip(passes, (False, True)))]
    h2 = h_seq[:, :t_max].transpose(2, 1, 0, 3).reshape(n, t_max, 2 * h)
    logits = h2 @ params.w_out.T + params.b_out
    logp = np.empty_like(logits)
    logp[order] = logits - logsumexp(logits, axis=2, keepdims=True)
    return order, rows, starts, h_seq, runs, h2, logp


def _lean_step(z: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """Decoding's LSTM step from folded gate-major pre-activations ``z``
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


def _lean_direction(lean: _Pass, rows: np.ndarray, starts: np.ndarray,
                    reverse: bool, h_seq: np.ndarray) -> None:
    """One decode pass, stepping like ``_train_direction``: step t
    computes the rows from ``starts[t]`` on with the lean step. Only the
    rows whose previous token is real add ``h @ W_h``: none at forward
    t = 0, every live row at forward t >= 1, and the rows from
    ``starts[t + 1]`` on in reverse. A row's first step is thus the lean
    step of its projection row alone, from c = 0."""
    n, t_max = rows.shape
    c = np.zeros((n, lean.w.shape[1]))
    step = -1 if reverse else 1
    for t in range(t_max - 1, -1, -1) if reverse else range(t_max):
        lo = starts[t]
        z = np.take(lean.proj, rows[lo:, t], axis=1)
        on = starts[t + 1] if reverse else (lo if t else n)
        z[:, on - lo:] += np.matmul(h_seq[t - step, on:], lean.w)
        _lean_step(z, c[lo:], h_seq[t, lo:])


def _train_direction(lean: _Pass, rows: np.ndarray, starts: np.ndarray,
                     reverse: bool, h_seq: np.ndarray):
    """One training pass. Step t computes the rows from ``starts[t]`` on,
    those still inside their sentence: a finished row is never read
    again, and in reverse a row that has not started reads the zero state
    of its padding, so padding changes nothing.

    A step takes one in-place exp of the folded pre-activations, adds 1
    and takes the reciprocal. That gives R: the gates i, f, o and
    sigma(2g), with tanh(g) = 2 sigma(2g) - 1. Returns the cell states,
    time-major (T + 1, B, h) like ``h_seq``, and each step's R, tanh(g)
    and tanh(c).
    """
    t_max = rows.shape[1]
    c_seq = np.zeros_like(h_seq)
    step = -1 if reverse else 1
    steps = []
    for t in range(t_max - 1, -1, -1) if reverse else range(t_max):
        lo = starts[t]
        r = np.take(lean.proj, rows[lo:, t], axis=1)
        r += np.matmul(h_seq[t - step, lo:], lean.w)
        np.exp(r, out=r)
        r += 1.0
        np.reciprocal(r, out=r)
        gate_i, gate_f, gate_o, sig_g = r
        tanh_g = 2.0 * sig_g - 1.0
        c = c_seq[t, lo:]
        np.multiply(gate_f, c_seq[t - step, lo:], out=c)
        c += gate_i * tanh_g
        tanh_c = np.tanh(c)
        np.multiply(gate_o, tanh_c, out=h_seq[t, lo:])
        steps.append((t, r, tanh_g, tanh_c))
    return c_seq, steps


def _back_direction(w_h: np.ndarray, rows: np.ndarray, starts: np.ndarray,
                    reverse: bool, h_seq: np.ndarray, cache,
                    dh_seq: np.ndarray, n_proj: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate one training pass, given W_h in gate blocks ``w_h``
    (4, h, h), the pass's states and ``cache`` and dL/dh (T, B, h).
    Returns the gradients of ``w_h`` and, gate-major (4, n_proj, h), of
    each projection row.

    dL/d(activation) is one (4, m, h) block, multiplied once by
    R (1 - R), the sigmoid's derivative (R - R^2 would cancel near
    R = 1); tanh(g) = 2 sigma(2g) - 1 has the derivative 4 R (1 - R), so
    the g block is scaled by 4 first.
    """
    c_seq, steps = cache
    g_wh = np.zeros_like(w_h)
    g_proj = np.zeros((4, n_proj, w_h.shape[1]))
    dh = np.zeros(h_seq.shape[1:])
    dc = np.zeros_like(dh)
    step = -1 if reverse else 1
    for t, r, tanh_g, tanh_c in reversed(steps):
        lo = starts[t]
        gate_i, gate_f, gate_o, _ = r
        dh_t = dh[lo:] + dh_seq[t, lo:]
        dc_t = dc[lo:] + dh_t * gate_o * (1.0 - tanh_c * tanh_c)
        da = np.empty_like(r)
        np.multiply(dc_t, tanh_g, out=da[0])
        np.multiply(dc_t, c_seq[t - step, lo:], out=da[1])
        np.multiply(dh_t, tanh_c, out=da[2])
        np.multiply(dc_t, gate_i, out=da[3])
        da[3] *= 4.0
        da *= r * (1.0 - r)
        # Summed per distinct id: a 0/1 (ids x live rows) product.
        g_proj += np.matmul(np.arange(n_proj)[:, None] == rows[lo:, t], da)
        g_wh += np.matmul(da.transpose(0, 2, 1), h_seq[t - step, lo:])
        dh[lo:] = np.matmul(da, w_h).sum(axis=0)
        dc[lo:] = dc_t * gate_f
    return g_wh, g_proj


def _summed_nll(logp: np.ndarray, labels: np.ndarray,
                mask: np.ndarray) -> float:
    """Cross-entropy summed over the real tokens of a padded batch."""
    rows = np.arange(logp.shape[0])[:, None]
    cols = np.arange(logp.shape[1])[None, :]
    return float(-(logp[rows, cols, labels] * mask).sum())


def _batch_loss_grad(
    params: BlstmParams,
    padded: np.ndarray,
    labels: np.ndarray,
    real: np.ndarray,
    l2: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-token cross-entropy plus L2, with gradients for every
    block, of a (B, T) batch of word ids and label ids whose real tokens
    ``real`` marks; padding may hold any ids.

    The cross-entropy sum is divided by the number of real tokens in the
    batch, so duplicating every sentence leaves the loss unchanged. The L2
    term is `l2` times the sum of squares of all parameters.
    """
    ids, row, passes = _fold(params, padded[real])
    with np.errstate(over="ignore"):
        order, rows, starts, h_seq, caches, h2, logp = _forward_batch(
            params, row, passes, _train_direction, padded, real)
    n, t_max = labels.shape
    n_tokens = float(real.sum())
    loss = _summed_nll(logp, labels, real) / n_tokens

    dlogits = np.exp(logp)
    dlogits[np.arange(n)[:, None], np.arange(t_max)[None, :], labels] -= 1.0
    dlogits *= (real / n_tokens)[:, :, None]
    dlogits = dlogits[order]
    g_wout = np.einsum("ntl,nth->lh", dlogits, h2)
    g_bout = dlogits.sum(axis=(0, 1))
    h, d = params.d_hid, params.embed.shape[1]
    # Each direction's dL/dh, time-major like its states.
    dh_seq = (dlogits @ params.w_out).reshape(n, t_max, 2, h)
    x = params.embed[ids]
    g_embed = np.zeros_like(params.embed)

    def direction(k, w):
        # dz summed per distinct id gives the input weights, bias and
        # embedding rows their gradients in one product each.
        g_wh, g_proj = _back_direction(
            w[:, d:].reshape(4, h, h), rows, starts, k == 1, h_seq[k],
            caches[k], dh_seq[:, :, k].transpose(1, 0, 2), len(ids))
        g_u = g_proj.transpose(1, 0, 2).reshape(len(ids), 4 * h)
        g_embed[ids] += g_u @ w[:, :d]
        return (np.concatenate([g_u.T @ x, g_wh.reshape(4 * h, h)], axis=1),
                g_u.sum(axis=0))

    g_wf, g_bf = direction(0, params.w_fwd)
    g_wb, g_bb = direction(1, params.w_bwd)
    grads = {
        "embed": g_embed,
        "w_fwd": g_wf, "b_fwd": g_bf,
        "w_bwd": g_wb, "b_bwd": g_bb,
        "w_out": g_wout, "b_out": g_bout,
    }
    return add_l2(loss, grads, params, l2), grads


def blstm_loss_grad(
    params: BlstmParams,
    batch_ids: Sequence[Sequence[int]],
    batch_labels: Sequence[Sequence[int]],
    l2: float = 0.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Training's loss and gradients of one batch of per-sentence word id
    and label id lists, for the tests."""
    return _batch_loss_grad(params, *list_batch(batch_ids, batch_labels), l2)


def _chunk_loss(
    params: BlstmParams,
    padded: np.ndarray,
    labels: np.ndarray,
    real: np.ndarray,
) -> tuple[float, float]:
    """Summed per-token cross-entropy, without the L2 term, and the number
    of tokens, of a batch as ``_batch_loss_grad`` takes it."""
    with np.errstate(over="ignore"):
        _, row, passes = _fold(params, padded[real])
        logp = _forward_batch(params, row, passes, _lean_direction, padded,
                              real)[-1]
    return _summed_nll(logp, labels, real), float(real.sum())


def train_blstm(
    tokens: Sequence[str],
    labels: Sequence[int],
    lengths: Sequence[int],
    config: TrainConfig,
) -> tuple[BlstmParams, Vocab, list[dict]]:
    """Mini-batch SGD with early stopping over the tokens and label ids of
    sentences of ``lengths`` tokens end to end.

    The vocabulary is built from the corpus, parameters are seeded from
    the config, and a held-out slice of the seeded shuffle drives early
    stopping: after `patience` epochs without a better dev loss, training
    stops and the best parameters are restored. A non-finite loss raises
    TrainingDivergedError naming the epoch.
    """
    vocab = build_vocab(tokens)
    # The init weights come from the same generator, before the split.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = init_blstm(vocab.size, config, rng)
    params, history = fit_tagger("blstm", params, _batch_loss_grad,
                                 _chunk_loss, vocab.encode(tokens), labels,
                                 lengths, config, rng)
    return params, vocab, history


def tag_with_blstm(params: BlstmParams, vocab: Vocab, tokens: Sequence[str],
                   lengths: Sequence[int]) -> np.ndarray:
    """BIO-repaired argmax label ids (ties keep the lower) of sentences of
    ``lengths`` tokens, end to end in ``tokens``, run in length-sorted
    batches after one projection of each distinct word id."""
    encoded = np.array(vocab.encode(tokens), dtype=np.intp)
    with np.errstate(over="ignore"):
        _, row, passes = _fold(params, encoded)

        def best_ids(at, real):
            return np.argmax(_forward_batch(params, row, passes,
                                            _lean_direction, encoded[at],
                                            real)[-1], axis=2)

        return decode_in_batches(lengths, best_ids, EVAL_BATCH)
