"""BLSTM tagger: forward pass, gradients, padding, training loop."""

from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidtriage.medterm import LABELS, TaggedSentence
from vidtriage.numeric import logsumexp, sigmoid
from vidtriage.seqtag import (
    PAD_ID,
    UNK_ID,
    TrainConfig,
    TrainingDivergedError,
    blstm_loss_grad,
    build_vocab,
    init_blstm,
    repair_bio,
    tag_with_blstm,
    train_blstm,
)
from vidtriage.seqtag import blstm
from vidtriage.seqtag._trainutil import EVAL_BATCH, _check_corpus, _pad_batch
from vidtriage.seqtag.blstm import (N_LABELS, PARAM_NAMES, BlstmParams,
                                    _summed_nll)
from vidtriage.seqtag.vocab import Vocab

B, I, O = "B-MED", "I-MED", "O"


def small_params(seed=0, vocab_size=9, d_emb=3, d_hid=4):
    rng = np.random.default_rng(seed)
    config = TrainConfig(seed=0, d_emb=d_emb, d_hid=d_hid)
    return init_blstm(vocab_size, config, rng=rng)


def train_logp(params, batch):
    """Training's label log-probabilities (B, T, 3) of one batch."""
    _, row, passes = blstm._fold(params, batch)
    with np.errstate(over="ignore"):
        return blstm._forward_batch(params, row, passes,
                                    blstm._train_direction, batch)[-1]


def decode_logp(params, batch):
    """Decoding's label log-probabilities (B, T, 3) of a call over one
    batch."""
    _, row, passes = blstm._fold(params, batch)
    with np.errstate(over="ignore"):
        return blstm._forward_batch(params, row, passes,
                                    blstm._lean_direction, batch)[-1]


def forward_one(params, token_ids):
    """Label log-probabilities of one sentence, shape (T, 3), from a
    one-row training batch."""
    return train_logp(params, [token_ids])[0]


# ----------------------------------------------------------------- vocab


def test_build_vocab_and_encode():
    corpus = [
        TaggedSentence(tokens=("colon", "cancer"), labels=(B, I)),
        TaggedSentence(tokens=("colon", "facts"), labels=(B, O)),
    ]
    vocab = build_vocab(corpus)
    assert vocab.encode(["colon", "neverseen"])[1] == UNK_ID
    assert UNK_ID == 0 and PAD_ID == 1
    ids = vocab.encode(["colon", "cancer", "facts"])
    assert len(set(ids)) == 3 and UNK_ID not in ids


# --------------------------------------------------------------- forward


def test_forward_shapes_and_distribution():
    params = small_params()
    logp = forward_one(params, [2, 5, 7])
    assert logp.shape == (3, 3)
    np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)


def test_forward_deterministic():
    params = small_params()
    a = forward_one(params, [2, 3, 4, 5])
    b = forward_one(params, [2, 3, 4, 5])
    np.testing.assert_array_equal(a, b)


def test_init_forget_bias_one():
    params = small_params()
    d = params.d_hid
    # Gate order i, f, o, g: the forget slice of each bias starts at d.
    np.testing.assert_array_equal(params.b_fwd[d:2 * d], 1.0)
    np.testing.assert_array_equal(params.b_bwd[d:2 * d], 1.0)
    assert params.b_fwd[:d].max() == 0.0


# --------------------------------------------------------------- padding


def test_padding_does_not_change_loss():
    params = small_params()
    batch_ids = [[2, 5, 7, 3, 8], [4, 6]]
    batch_labels = [[0, 1, 2, 2, 0], [2, 1]]
    loss_batched, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=0.0)

    # Token-mean over both sentences computed without any padding.
    total, n = 0.0, 0
    for ids, labs in zip(batch_ids, batch_labels):
        logp = forward_one(params, ids)
        total += -sum(logp[t, lab] for t, lab in enumerate(labs))
        n += len(ids)
    assert loss_batched == pytest.approx(total / n, rel=1e-12)


def test_duplication_invariance():
    params = small_params()
    ids = [[2, 5, 7], [4, 6, 3, 8]]
    labels = [[0, 1, 2], [2, 0, 1, 2]]
    base, _ = blstm_loss_grad(params, ids, labels, l2=0.05)
    doubled, _ = blstm_loss_grad(params, ids * 2, labels * 2, l2=0.05)
    assert doubled == pytest.approx(base, rel=1e-12)


# -------------------------------------------------------------- gradient


def test_blstm_gradient_matches_finite_differences():
    params = small_params(seed=12)
    batch_ids = [[2, 5, 7, 3], [4, 6]]
    batch_labels = [[0, 1, 2, 2], [2, 0]]
    l2 = 0.01
    _, grads = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)

    rng = np.random.default_rng(9)
    eps = 1e-5
    for name in PARAM_NAMES:
        arr = getattr(params, name)
        flat = [tuple(ix) for ix in np.ndindex(*arr.shape)]
        picks = rng.choice(len(flat), size=min(15, len(flat)), replace=False)
        for p in picks:
            ix = flat[p]
            orig = arr[ix]
            arr[ix] = orig + eps
            up, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)
            arr[ix] = orig - eps
            down, _ = blstm_loss_grad(params, batch_ids, batch_labels, l2=l2)
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-10)
            assert abs(fd - grads[name][ix]) / denom < 1e-4, \
                f"{name}{ix}: fd {fd} vs analytic {grads[name][ix]}"


def test_pad_embedding_gets_no_gradient():
    params = small_params()
    _, grads = blstm_loss_grad(params, [[2, 5, 7], [4]], [[0, 1, 2], [2]])
    np.testing.assert_array_equal(grads["embed"][PAD_ID], 0.0)


# ------------------------------------------------------ reference oracle
#
# The masked recurrence that the live-row, per-distinct-id one replaced,
# kept verbatim: every step runs every row on the concatenated [x_t, h]
# with the full weight, blends the new state with the old by the padding
# mask, and scatters per-token input gradients into the embedding.


def _ref_run_direction(
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
        ifo = sigmoid(z[:, :3 * h_dim])
        gate_i = ifo[:, :h_dim]
        gate_f = ifo[:, h_dim:2 * h_dim]
        gate_o = ifo[:, 2 * h_dim:]
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


def _ref_back_direction(
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


def _ref_forward_batch(params: BlstmParams, ids: np.ndarray,
                       mask: np.ndarray, keep_steps: bool = False):
    """Padded forward pass; the step caches are kept only for training."""
    x = params.embed[ids]
    steps_f, steps_b = ([], []) if keep_steps else (None, None)
    h_f = _ref_run_direction(params.w_fwd, params.b_fwd, x, mask, False,
                             steps_f)
    h_b = _ref_run_direction(params.w_bwd, params.b_bwd, x, mask, True,
                             steps_b)
    h2 = np.concatenate([h_f, h_b], axis=2)
    logits = h2 @ params.w_out.T + params.b_out
    logp = logits - logsumexp(logits, axis=2, keepdims=True)
    return x, h2, steps_f, steps_b, logp


def _ref_blstm_loss_grad(
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
    x, h2, steps_f, steps_b, logp = _ref_forward_batch(params, ids, mask,
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
    g_wf, g_bf, dx_f = _ref_back_direction(params.w_fwd, x, steps_f,
                                           dh2[:, :, :h_dim])
    g_wb, g_bb, dx_b = _ref_back_direction(params.w_bwd, x, steps_b,
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


@st.composite
def oracle_cases(draw, saturate=False):
    """Unsorted batches of 1-20 sentences of length 1-15 (sometimes all
    of one length, or all of one token) over a vocabulary of 2-12 ids, so
    ids repeat and <unk> and <pad> ids occur; sometimes every sentence
    shares its first or its last id; small random widths; l2 zero or not.
    With ``saturate``, the LSTM weights are sometimes scaled so far that
    most pre-activations lie beyond +-750, where exp overflows; the last
    item is that scale (1 when unscaled)."""
    vocab_size = draw(st.integers(2, 12))
    n = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(["ragged", "equal", "one-token"]))
    if shape == "ragged":
        lengths = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
    else:
        lengths = [1 if shape == "one-token" else draw(st.integers(1, 15))] * n
    ids = [draw(st.lists(st.integers(0, vocab_size - 1), min_size=k,
                         max_size=k)) for k in lengths]
    shared = draw(st.sampled_from([None, 0, -1]))
    if shared is not None:
        for seq in ids:
            seq[shared] = ids[0][shared]
    labels = [draw(st.lists(st.integers(0, N_LABELS - 1), min_size=k,
                            max_size=k)) for k in lengths]
    params = small_params(seed=draw(st.integers(0, 2**32 - 1)),
                          vocab_size=vocab_size,
                          d_emb=draw(st.integers(1, 6)),
                          d_hid=draw(st.integers(1, 6)))
    # Larger weights than the init's, so that every gate saturates
    # differently and an error cannot hide in a near-zero gradient.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for w in params.arrays():
        w += rng.normal(0.0, 0.5, size=w.shape)
    scale = 1e4 if saturate and draw(st.booleans()) else 1.0
    for w in (params.w_fwd, params.b_fwd, params.w_bwd, params.b_bwd):
        w *= scale
    return (params, ids, labels, draw(st.sampled_from([0.0, 1e-3, 0.1])),
            scale)


def logp_atol(scale):
    """The bound on logp against the masked oracle: 1e-12, or 1e-11 on a
    saturated draw. There the pre-activations are sums of terms near the
    scale, which the oracle adds in another order, so they differ by
    about 1e-11, and a gate left partly open passes up to a tenth of that
    on (largest error seen 1.8e-12)."""
    return 1e-12 if scale == 1.0 else 1e-11


@settings(max_examples=150, deadline=None)
@given(case=oracle_cases(saturate=True))
def test_recurrence_matches_masked_oracle(case):
    # The training step: folded weights, one exp and one reciprocal per
    # step. Overflowing exps must give gates of exactly 0 or 1 and the
    # oracle's gradients with no warning, which pytest would turn into an
    # error: blstm_loss_grad sets its own errstate.
    params, ids, labels, l2, scale = case
    logp = train_logp(params, ids)
    padded, mask = _pad_batch(ids, PAD_ID)
    ref_logp = _ref_forward_batch(params, padded, mask)[-1]
    real = mask.astype(bool)
    np.testing.assert_allclose(logp[real], ref_logp[real], rtol=0,
                               atol=logp_atol(scale))

    loss, grads = blstm_loss_grad(params, ids, labels, l2)
    ref_loss, ref_grads = _ref_blstm_loss_grad(params, ids, labels, l2)
    assert abs(loss - ref_loss) <= 1e-12
    for name in PARAM_NAMES:
        # The embedding's gradient is dA @ W_x, which multiplies the
        # rounding of the pre-activation gradient dA by the scale.
        atol = 1e-12 * scale if name == "embed" else 1e-12
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0,
                                   atol=atol, err_msg=name)


@settings(max_examples=150, deadline=None)
@given(case=oracle_cases(saturate=True))
def test_lean_step_matches_masked_oracle(case):
    # The cache-free decode step: folded weights, one exp per step, a
    # first step from the projection row alone. Overflowing exps must
    # give gates of exactly 0 or 1 with no warning, which pytest would
    # turn into an error: the dev loss and tagging set their own errstate.
    params, ids, labels, _, scale = case
    padded, mask = _pad_batch(ids, PAD_ID)
    ref_logp = _ref_forward_batch(params, padded, mask)[-1]
    real = mask.astype(bool)
    logp = decode_logp(params, ids)
    np.testing.assert_allclose(logp[real], ref_logp[real], rtol=0,
                               atol=logp_atol(scale))

    total, count = blstm._chunk_loss(params, ids, labels)
    ref_total = _summed_nll(ref_logp, _pad_batch(labels, 0)[0], mask)
    assert count == real.sum()
    assert abs(total - ref_total) <= 1e-12 * count

    words = ("<unk>", "<pad>",
             *(f"w{i}" for i in range(2, len(params.embed))))
    vocab = Vocab(id_to_word=words)
    tagged = tag_with_blstm(params, vocab,
                            [[words[i] for i in seq] for seq in ids])
    for seq, row, got in zip(ids, ref_logp, tagged):
        best = np.argmax(row[:len(seq)], axis=1)
        assert got == repair_bio([LABELS[i] for i in best])


# -------------------------------------------------------------- training


def _toy_corpus():
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit", "home", "rest"]
    rng = np.random.default_rng(88)
    corpus = []
    for _ in range(80):
        tokens, labels = [], []
        for _ in range(int(rng.integers(3, 8))):
            if rng.random() < 0.3:
                tokens.append(marked[int(rng.integers(len(marked)))])
                labels.append(B)
            else:
                tokens.append(plain[int(rng.integers(len(plain)))])
                labels.append(O)
        corpus.append(TaggedSentence(tokens=tuple(tokens),
                                     labels=tuple(labels)))
    return corpus


def test_train_blstm_learns_toy_corpus():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=25, batch_size=8, d_emb=16, d_hid=16)
    params, vocab, history = train_blstm(corpus, config)
    assert history[0]["train_loss"] > history[-1]["train_loss"]
    pred = tag_with_blstm(params, vocab,
                          [["polyp", "advice"], ["visit", "colitis"]])
    assert pred == [[B, O], [O, B]]


def test_train_blstm_deterministic():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=4, batch_size=8, d_emb=8, d_hid=8)
    p1, v1, h1 = train_blstm(corpus, config)
    p2, v2, h2 = train_blstm(corpus, config)
    assert h1 == h2
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))


def test_train_blstm_divergence_raises():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=5, batch_size=8, lr=1e200,
                         d_emb=4, d_hid=4)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_blstm(corpus, config)
    assert "epoch" in str(err.value)


def test_tag_with_blstm_outputs_well_formed():
    corpus = _toy_corpus()
    config = TrainConfig(seed=3, epochs=3, batch_size=8, d_emb=8, d_hid=8)
    params, vocab, _ = train_blstm(corpus, config)
    rng = np.random.default_rng(321)
    words = ["polyp", "water", "unseenword", "colitis", "advice"]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        sent = [words[i] for i in rng.integers(0, len(words), size=n)]
        labels = tag_with_blstm(params, vocab, [sent])[0]
        prev = O
        for lab in labels:
            assert lab in (B, I, O)
            assert not (lab == I and prev == O)
            prev = lab


def _assert_batched_tagging_matches(lengths, seed):
    """Tagging sentences of these lengths in one call gives each one the
    log-probabilities and labels that tagging it alone gives."""
    rng = np.random.default_rng(seed)
    words = ["polyp", "water", "colitis", "advice", "colon", "visit"]
    vocab = build_vocab([TaggedSentence(tokens=tuple(words),
                                        labels=(O,) * len(words))])
    params = small_params(seed=seed, vocab_size=vocab.size)
    # "unseen" maps to the unknown-word id.
    pool = [*words, "unseen"]
    sentences = [[pool[i] for i in rng.integers(0, len(pool), size=n)]
                 for n in lengths]

    batches = []
    forward = blstm._forward_batch

    def recording(p, row, passes, run, batch_ids):
        out = forward(p, row, passes, run, batch_ids)
        batches.append((batch_ids, out[-1]))
        return out

    with mock.patch.object(blstm, "_forward_batch", recording):
        tagged = tag_with_blstm(params, vocab, sentences)
    n_real = sum(1 for n in lengths if n)
    assert len(batches) == -(-n_real // EVAL_BATCH) >= 2
    for batch_ids, logp in batches:
        for row_ids, row_logp in zip(batch_ids, logp):
            n = len(row_ids)
            single = forward_one(params, list(row_ids))
            np.testing.assert_allclose(row_logp[:n], single, rtol=0,
                                       atol=1e-12)
    for tokens, labels in zip(sentences, tagged):
        logp = forward_one(params, vocab.encode(tokens))
        expected = repair_bio([LABELS[i] for i in np.argmax(logp, axis=1)])
        assert labels == expected


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 12), min_size=EVAL_BATCH + 1,
                     max_size=3 * EVAL_BATCH),
    empty_at=st.lists(st.integers(0, 3 * EVAL_BATCH), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_tagging_matches_per_sentence(lengths, empty_at, seed):
    # More non-empty sentences than one batch holds, with empty ones
    # mixed in.
    for i in empty_at:
        lengths.insert(i, 0)
    _assert_batched_tagging_matches(lengths, seed)


@pytest.mark.parametrize("lengths", [
    [3] * (EVAL_BATCH + 5),
    [1] * (EVAL_BATCH - 2) + [4] * 5,
], ids=["all-one-length", "long-run-straddles"])
def test_batched_tagging_across_batch_boundary(lengths):
    # Equal lengths on both sides of a batch boundary: in the second case
    # the first batch's last steps run only its two length-4 rows, and
    # the next batch runs all of its rows at every step.
    _assert_batched_tagging_matches(lengths, seed=7)
