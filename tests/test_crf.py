"""Linear-chain CRF: brute-force oracles, gradients, training."""

import hashlib
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from vidtriage import numeric
from vidtriage.cli import main as cli_main
from vidtriage.medterm import LABELS
from vidtriage.seqtag import (
    TrainConfig,
    TrainingDivergedError,
    crf_log_partition,
    crf_loss_grad,
    crf_sequence_score,
    crf_viterbi,
    tag_with_crf,
    train_crf,
)
from vidtriage.seqtag import crf
from vidtriage.seqtag.crf import (
    N_LABELS,
    FeatureEncoder,
    _emissions,
    _forward_batch,
    _marginals,
    _viterbi_batch,
    build_feature_index,
    init_crf,
    word_shape,
)

from sentences import (TaggedSentence, flat, flat_tokens, repair_bio,
                       tag_by_sentence)

B, I, O = "B-MED", "I-MED", "O"

GOLDEN = Path(__file__).parent / "fixtures" / "crf_golden"


def brute_force_partition(emit, trans, start):
    scores = [
        sequence_score(emit, trans, start, seq)
        for seq in itertools.product(range(emit.shape[1]),
                                     repeat=emit.shape[0])
    ]
    return float(logsumexp(scores))


def sequence_score(emit, trans, start, seq):
    total = start[seq[0]] + emit[0, seq[0]]
    for t in range(1, len(seq)):
        total += trans[seq[t - 1], seq[t]] + emit[t, seq[t]]
    return float(total)


def brute_force_marginals(emit, trans, start):
    """Token (T, L) and pairwise (T-1, L, L) marginals by enumeration."""
    n, n_labels = emit.shape
    log_z = brute_force_partition(emit, trans, start)
    token = np.zeros((n, n_labels))
    pair = np.zeros((max(n - 1, 0), n_labels, n_labels))
    for seq in itertools.product(range(n_labels), repeat=n):
        p = np.exp(sequence_score(emit, trans, start, seq) - log_z)
        for t in range(n):
            token[t, seq[t]] += p
            if t:
                pair[t - 1, seq[t - 1], seq[t]] += p
    return token, pair


def brute_force_viterbi(emit, trans, start):
    """Argmax by enumeration; product() yields sequences in lexicographic
    order and only a strictly greater score replaces the incumbent, so
    ties resolve to the lexicographically smallest sequence."""
    best_seq, best_score = None, -np.inf
    for seq in itertools.product(range(emit.shape[1]), repeat=emit.shape[0]):
        s = sequence_score(emit, trans, start, seq)
        if s > best_score:
            best_seq, best_score = seq, s
    return list(best_seq)


def random_instance(rng, max_len=6, n_labels=3):
    n = int(rng.integers(1, max_len + 1))
    emit = rng.normal(0.0, 2.0, size=(n, n_labels))
    trans = rng.normal(0.0, 2.0, size=(n_labels, n_labels))
    start = rng.normal(0.0, 2.0, size=n_labels)
    return emit, trans, start


# ---------------------------------------------------------------- oracle


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(100):
        emit, trans, start = random_instance(rng)
        assert crf_log_partition(emit, trans, start) == pytest.approx(
            brute_force_partition(emit, trans, start), abs=1e-8
        )


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(100):
        emit, trans, start = random_instance(rng)
        assert crf_viterbi(emit, trans, start) \
            == brute_force_viterbi(emit, trans, start)


def test_viterbi_tie_prefers_lower_label_id():
    # All-zero scores: every sequence ties, so all-zeros must win.
    emit = np.zeros((4, 3))
    trans = np.zeros((3, 3))
    start = np.zeros(3)
    assert crf_viterbi(emit, trans, start) == [0, 0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=40),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_viterbi_matches_brute_force(lengths, integer, seed):
    # Integer-valued scores make exact ties, which must go to the
    # lexicographically smallest optimum in every row of a batch up to 40
    # wide; padding holds junk that must not matter.
    rng = np.random.default_rng(seed)

    def scores(shape):
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.normal(0.0, 2.0, size=shape)

    trans, start = scores((N_LABELS, N_LABELS)), scores(N_LABELS)
    emit = scores((len(lengths), max(lengths), N_LABELS))
    paths = _viterbi_batch(emit, np.array(lengths), trans, start)
    for row, path, n in zip(emit, paths, lengths):
        expected = brute_force_viterbi(row[:n], trans, start)
        assert path[:n].tolist() == expected
        assert crf_viterbi(row[:n], trans, start) == expected


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_marginals_match_brute_force(lengths, seed):
    # Padding holds junk that must not reach any row's result.
    rng = np.random.default_rng(seed)
    trans = rng.normal(0.0, 2.0, size=(N_LABELS, N_LABELS))
    start = rng.normal(0.0, 2.0, size=N_LABELS)
    emit = rng.normal(0.0, 2.0, size=(len(lengths), max(lengths), N_LABELS))
    token, pair, log_z = _marginals(emit, np.array(lengths), trans, start)
    for b, n in enumerate(lengths):
        exp_token, exp_pair = brute_force_marginals(emit[b, :n], trans,
                                                    start)
        assert log_z[b] == pytest.approx(
            brute_force_partition(emit[b, :n], trans, start), abs=1e-9)
        np.testing.assert_allclose(token[b, :n], exp_token, rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(pair[b, :n - 1], exp_pair, rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(pair[b, :n - 1].sum(axis=2),
                                   token[b, :n - 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair[b, :n - 1].sum(axis=1),
                                   token[b, 1:n], rtol=0, atol=1e-12)
        assert not token[b, n:].any() and not pair[b, n - 1:].any()


# Reference forward-backward: the log-space recursions the tagger trained
# with before it scaled the forward and backward vectors, with the same
# logsumexp; patched into the tagger, they train the bits it trained then.


def _ref_forward_batch(emit, lengths, trans, start):
    """(B, T, L) log forward scores and (B,) log-partitions of a padded batch.

    alpha[b, t, j] sums, in log space, the scores of every label prefix of
    row b that ends in label j at token t; past a row's length it is junk.
    """
    alpha = np.empty_like(emit)
    alpha[:, 0] = start + emit[:, 0]
    for t in range(1, emit.shape[1]):
        alpha[:, t] = emit[:, t] + numeric.logsumexp(
            alpha[:, t - 1, :, None] + trans, axis=1)
    return alpha, numeric.logsumexp(alpha[np.arange(len(emit)), lengths - 1],
                                    axis=1)


def _ref_marginals(emit, lengths, trans, start):
    """(B, T, L) token and (B, T-1, L, L) pair marginals, and (B,) log Z.

    Beta is held at 0 from each row's last real token onward, and both
    marginals are 0 wherever a token is padding.
    """
    alpha, log_z = _ref_forward_batch(emit, lengths, trans, start)
    beta = np.zeros_like(emit)
    for t in range(emit.shape[1] - 2, -1, -1):
        step = numeric.logsumexp(
            trans + (emit[:, t + 1] + beta[:, t + 1])[:, None], axis=2)
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


def _ref_kernels():
    """Patch the log-space reference into the tagger's training."""
    return mock.patch.multiple(crf, _forward_batch=_ref_forward_batch,
                               _marginals=_ref_marginals)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40),
    sigma=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaled_forward_backward_matches_log_space(lengths, sigma, seed):
    # Lengths and score scales past what enumeration reaches; padding
    # holds junk, which must not reach any row and gives exact zeros.
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    trans = rng.normal(0.0, sigma, size=(N_LABELS, N_LABELS))
    start = rng.normal(0.0, sigma, size=N_LABELS)
    emit = rng.normal(0.0, sigma,
                      size=(len(lengths), lengths.max(), N_LABELS))
    token, pair, log_z = _marginals(emit, lengths, trans, start)
    expected = _ref_marginals(emit, lengths, trans, start)
    for got, ref in zip((token, pair, log_z), expected):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(
        _forward_batch(emit, lengths, trans, start)[1], log_z)
    padding = np.arange(lengths.max()) >= lengths[:, None]
    assert not token[padding].any() and not pair[padding[:, 1:]].any()

    words = ["polyp", "colon", "cancer", "water", "Visit", "x-ray", "b12"]
    sentences = [[words[i] for i in rng.integers(0, len(words), size=n)]
                 for n in lengths]
    labels = [[LABELS[i] for i in rng.integers(0, N_LABELS, size=n)]
              for n in lengths]
    params = init_crf(build_feature_index(*flat_tokens(sentences)))
    for arr in params.arrays():
        arr += rng.normal(0.0, sigma, size=arr.shape)
    loss, grads = crf_loss_grad(params, sentences, labels, l2=1e-3)
    with _ref_kernels():
        ref_loss, ref_grads = crf_loss_grad(params, sentences, labels,
                                            l2=1e-3)
    assert abs(loss - ref_loss) <= 1e-10
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-10)


def test_batch_loss_grad_is_mean_of_single_sentence_calls():
    rng = np.random.default_rng(606)
    words = ["polyp", "colon", "cancer", "water", "Visit", "x-ray", "b12"]
    sentences = [
        [words[i] for i in rng.integers(0, len(words),
                                        size=int(rng.integers(1, 9)))]
        for _ in range(7)
    ]
    labels = [[(B, I, O)[i] for i in rng.integers(0, 3, size=len(s))]
              for s in sentences]
    params = init_crf(build_feature_index(*flat_tokens(sentences[:4])))
    for arr in params.arrays():
        arr += rng.normal(0.0, 0.5, size=arr.shape)
    # Sentences past the fourth may carry features the index has not seen.
    loss, grads = crf_loss_grad(params, sentences, labels, 0.0)
    singles = [crf_loss_grad(params, [s], [y], 0.0)
               for s, y in zip(sentences, labels)]
    assert loss == pytest.approx(np.mean([l for l, _ in singles]),
                                 rel=0, abs=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(
            g, np.mean([single[name] for _, single in singles], axis=0),
            rtol=0, atol=1e-12)


# Reference emissions: each token's feature ids as a list, padded at the
# end, as the tagger gathered them before the id matrix.


def _ref_flat_ids(tokens):
    """Every token's feature ids end to end, and each token's id count."""
    counts = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    flat = np.fromiter(itertools.chain.from_iterable(tokens), dtype=np.intp,
                       count=int(counts.sum()))
    return flat, counts


def _ref_padded_emissions(w_pad, encoded):
    """(B, T, L) emissions of a right-padded batch of id lists."""
    flat, counts = _ref_flat_ids([ids for sent in encoded for ids in sent])
    ids = np.full((len(counts), counts.max()), w_pad.shape[0] - 1,
                  dtype=np.intp)
    ids[np.arange(ids.shape[1]) < counts[:, None]] = flat
    lengths = np.array([len(sent) for sent in encoded])
    emit = np.zeros((len(encoded), lengths.max(), w_pad.shape[1]))
    emit[np.arange(emit.shape[1]) < lengths[:, None]] = \
        w_pad[ids].sum(axis=1)
    return emit


def test_padded_emissions_equal_per_sentence_bits():
    # Each token's ids sit in random columns of its 11, in order, and the
    # zero row (id 40) fills the rest.
    rng = np.random.default_rng(404)
    w_emit = rng.normal(0.0, 1.0, size=(40, N_LABELS))
    w_pad = np.vstack([w_emit, np.zeros((1, N_LABELS))])
    encoded = [
        [rng.integers(0, 40, size=int(rng.integers(0, 12)))
         for _ in range(int(rng.integers(1, 8)))]
        for _ in range(9)
    ]
    rows = []
    for ids in (ids for sent in encoded for ids in sent):
        row = np.full(11, 40)
        row[np.sort(rng.choice(11, size=len(ids), replace=False))] = ids
        rows.append(row)
    lengths = np.array([len(s) for s in encoded])
    emit = _emissions(w_pad, np.array(rows), lengths)
    assert emit.shape == (9, max(len(s) for s in encoded), N_LABELS)
    np.testing.assert_array_equal(emit, _ref_padded_emissions(w_pad, encoded))
    for row, sent in zip(emit, encoded):
        # Reference: each token sums its own rows of w_emit in order.
        expected = np.zeros((len(sent), N_LABELS))
        for t, ids in enumerate(sent):
            if len(ids):
                expected[t] = w_emit[ids].sum(axis=0)
        np.testing.assert_array_equal(row[:len(sent)], expected)
        assert not row[len(sent):].any()


def test_sequence_score_consistency():
    rng = np.random.default_rng(303)
    for _ in range(50):
        emit, trans, start = random_instance(rng, max_len=4)
        for seq in itertools.product(range(3), repeat=emit.shape[0]):
            assert crf_sequence_score(emit, trans, start, list(seq)) \
                == pytest.approx(sequence_score(emit, trans, start, seq))


def test_partition_bounds_every_sequence():
    rng = np.random.default_rng(404)
    for _ in range(50):
        emit, trans, start = random_instance(rng)
        log_z = crf_log_partition(emit, trans, start)
        for seq in itertools.product(range(3), repeat=emit.shape[0]):
            assert crf_sequence_score(emit, trans, start, list(seq)) \
                <= log_z + 1e-9


# -------------------------------------------------------------- features


def test_word_shape():
    assert word_shape("Colon") == "Xx"
    assert word_shape("CT") == "X"
    assert word_shape("b12") == "xd"
    assert word_shape("x-ray") == "x-x"


def _feature_names(sentences, tokens):
    index = build_feature_index(*flat_tokens(sentences))
    names = {i: f for f, i in index.items()}
    return [[names[i] for i in ids if i in names]
            for ids in FeatureEncoder(index).encode(tokens,
                                                    [len(tokens)]).tolist()]


def test_token_features_context():
    feats = _feature_names([["early", "colon", "cancer"]],
                           ["early", "colon", "cancer"])[1]
    assert feats == ["bias", "w=colon", "shape=x", "prev=early",
                     "next=cancer", "pre1=c", "suf1=n", "pre2=co", "suf2=on",
                     "pre3=col", "suf3=lon"]
    first = _feature_names([["early"]], ["early"])[0]
    assert "prev=<s>" in first and "next=</s>" in first


# Reference feature functions: each token's feature strings built afresh,
# as the tagger did before it memoized them per word.

_REF_BOS = "<s>"
_REF_EOS = "</s>"


def _ref_token_features(tokens, i):
    word = tokens[i]
    low = word.lower()
    prev = tokens[i - 1].lower() if i > 0 else _REF_BOS
    nxt = tokens[i + 1].lower() if i + 1 < len(tokens) else _REF_EOS
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


def _ref_build_feature_index(sentences):
    index = {}
    for tokens in sentences:
        for i in range(len(tokens)):
            for feat in _ref_token_features(tokens, i):
                if feat not in index:
                    index[feat] = len(index)
    return index


def _ref_encode_sentence(feature_index, tokens):
    encoded = []
    for i in range(len(tokens)):
        ids = [feature_index[f] for f in _ref_token_features(tokens, i)
               if f in feature_index]
        encoded.append(np.asarray(ids, dtype=np.intp))
    return encoded


# Mixed case, digits, words of one to three characters, letters whose
# lowercase is longer ("İ" lowers to two code points) or that have no
# one-letter uppercase ("ẞ"/"ß"), and words that spell the boundary marks.
_WORDS = st.one_of(
    st.text(alphabet="abXY09İẞß-'", min_size=1, max_size=3),
    st.sampled_from(["<s>", "</s>", "<S>", "</S>", "Colon", "colon", "COLON",
                     "İstanbul", "STRAẞE", "x-ray", "b12"]),
)
_SENTENCES = st.lists(st.lists(_WORDS, min_size=1, max_size=8),
                      min_size=1, max_size=6)


def _ref_id_rows(feature_index, tokens):
    """Each token's 11 feature ids in template order; a feature missing
    from the index, or an affix longer than the word, is the zero row's id,
    len(feature_index)."""
    zero = len(feature_index)
    rows = []
    for i in range(len(tokens)):
        feats = _ref_token_features(tokens, i)
        rows.append([feature_index.get(f, zero) for f in feats]
                    + [zero] * (11 - len(feats)))
    return rows


@settings(max_examples=200, deadline=None)
@given(train=_SENTENCES, other=_SENTENCES, seed=st.integers(0, 2**32 - 1))
def test_feature_encoder_matches_reference(train, other, seed):
    index = build_feature_index(*flat_tokens(train))
    assert list(index.items()) == list(_ref_build_feature_index(train).items())
    # A word the index has never seen, next to words it has.
    other = other + [[train[0][0], "Unseen-Word", "q", train[0][-1]]]
    # One encoder for both sets, so the second call reuses the first's
    # table; features of ``other`` that ``train`` lacks must be dropped.
    encoder = FeatureEncoder(index)
    ids = np.concatenate([
        encoder.encode([t for s in sents for t in s], [len(s) for s in sents])
        for sents in (train, other)])
    zero = len(index)
    expected = [ref for s in train + other for ref in
                _ref_encode_sentence(index, s)]
    assert ids.shape == (len(expected), 11)
    assert [[i for i in row if i != zero] for row in ids.tolist()] \
        == [ref.tolist() for ref in expected]
    assert ids.tolist() == [row for s in train + other
                            for row in _ref_id_rows(index, s)]
    rng = np.random.default_rng(seed)
    w_emit = rng.normal(0.0, 1.0, size=(len(index), N_LABELS))
    w_pad = np.vstack([w_emit, np.zeros((1, N_LABELS))])
    lengths = np.array([len(s) for s in train + other])
    emit = _emissions(w_pad, ids, lengths)
    rows = emit[np.arange(emit.shape[1]) < lengths[:, None]]
    per_token = np.array([w_emit[ref].sum(axis=0) for ref in expected])
    np.testing.assert_array_equal(rows, per_token)
    np.testing.assert_array_equal(emit, _ref_padded_emissions(
        w_pad, [_ref_encode_sentence(index, s) for s in train + other]))


def _ref_tag(params, sentences):
    tagged = []
    for tokens in sentences:
        emit = np.array([params.w_emit[ids].sum(axis=0) for ids in
                         _ref_encode_sentence(params.feature_index, tokens)])
        best = crf_viterbi(emit, params.w_trans, params.w_start)
        tagged.append(repair_bio([LABELS[k] for k in best]))
    return tagged


def test_tagging_keeps_no_state_between_calls():
    # Two models index the same words in different orders, so an id that
    # leaked from one call into the next would score the wrong rows.
    rng = np.random.default_rng(909)
    words = ["polyp", "Colon", "colon", "cancer", "water", "x-ray", "b12",
             "a", "visit"]

    def sentences(n):
        return [[words[i] for i in rng.integers(0, len(words),
                                                size=int(rng.integers(1, 9)))]
                for _ in range(n)]

    def random_model():
        params = init_crf(build_feature_index(*flat_tokens(sentences(6))))
        for arr in params.arrays():
            arr += rng.normal(0.0, 2.0, size=arr.shape)
        return params

    model_a, model_b = random_model(), random_model()
    assert model_a.feature_index != model_b.feature_index
    text = sentences(40)
    tagged_a = tag_by_sentence(tag_with_crf, model_a, text)
    tagged_b = tag_by_sentence(tag_with_crf, model_b, text)
    assert tagged_a == _ref_tag(model_a, text)
    assert tagged_b == _ref_tag(model_b, text)
    assert tagged_a != tagged_b
    assert tag_by_sentence(tag_with_crf, model_a, text) == tagged_a


def test_crf_stages_match_golden_fixture(tmp_path):
    """Retrain and retag the committed corpus; both files match byte for byte.

    The corpus was made with ``SynthConfig(seed=13, n_videos=12,
    sentences_per_video=4)``. ``tagger_crf.json`` pins the bits of the
    scaled probability-domain forward-backward: it was regenerated by the
    stages below when training left the log-space recursions, which moved
    no weight by more than 7e-14, and the tagged file kept its bytes.
    Regenerate it only for a deliberate change to what the CRF computes
    or to the model format.
    """
    work = tmp_path / "work"

    def run(*args):
        assert cli_main([str(a) for a in args]) == 0, args

    run("ingest", "--videos", GOLDEN / "videos.jsonl",
        "--transcripts", GOLDEN / "transcripts.jsonl",
        "--ocr", GOLDEN / "ocr.jsonl", "--labels", GOLDEN / "labels.jsonl",
        "--work-dir", work, "--seed", 13)
    run("build-ner-corpus", "--dictionary", GOLDEN / "dictionary.tsv",
        "--work-dir", work)
    run("train-tagger", "--arch", "crf", "--work-dir", work, "--seed", 13)
    run("tag", "--arch", "crf", "--source", "transcript", "--work-dir", work)
    for made in (work / "models" / "tagger_crf.json",
                 work / "ner" / "transcript_tagged_crf.conll"):
        assert made.read_bytes() == (GOLDEN / made.name).read_bytes(), made


# -------------------------------------------------------------- gradient


def test_crf_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    sentences = [["colon", "cancer", "facts"], ["drink", "water"],
                 ["polyp", "found", "during", "test"]]
    labels = [[B, I, O], [O, O], [B, O, O, O]]
    index = build_feature_index(*flat_tokens(sentences))
    params = init_crf(index)
    for arr in (params.w_emit, params.w_trans, params.w_start):
        arr += rng.normal(0.0, 0.5, size=arr.shape)

    l2 = 0.01
    loss, grads = crf_loss_grad(params, sentences, labels, l2=l2)
    eps = 1e-6
    for name in ("w_emit", "w_trans", "w_start"):
        arr = getattr(params, name)
        flat_idx = [tuple(ix) for ix in np.ndindex(*arr.shape)]
        picks = rng.choice(len(flat_idx), size=min(20, len(flat_idx)),
                           replace=False)
        for p in picks:
            ix = flat_idx[p]
            orig = arr[ix]
            arr[ix] = orig + eps
            up, _ = crf_loss_grad(params, sentences, labels, l2=l2)
            arr[ix] = orig - eps
            down, _ = crf_loss_grad(params, sentences, labels, l2=l2)
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-10)
            assert abs(fd - grads[name][ix]) / denom < 1e-4


def test_crf_loss_validates():
    sentences = [["a", "b"]]
    index = build_feature_index(*flat_tokens(sentences))
    params = init_crf(index)
    with pytest.raises(ValueError):
        crf_loss_grad(params, [], [])
    with pytest.raises(ValueError):
        crf_loss_grad(params, sentences, [[O]])
    with pytest.raises(ValueError):
        crf_loss_grad(params, sentences, [["bogus", O]])


# -------------------------------------------------------------- training


def _toy_corpus():
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit", "home", "rest"]
    rng = np.random.default_rng(77)
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


def test_train_crf_learns_toy_corpus():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=20, batch_size=8)
    params, history = train_crf(*flat(corpus), config)
    assert history[0]["train_loss"] > history[-1]["train_loss"]
    pred = tag_by_sentence(tag_with_crf, params,
                           [["polyp", "advice"], ["visit", "colitis"]])
    assert pred == [[B, O], [O, B]]


def test_train_crf_deterministic():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=5, batch_size=8)
    p1, h1 = train_crf(*flat(corpus), config)
    p2, h2 = train_crf(*flat(corpus), config)
    assert h1 == h2
    assert np.array_equal(p1.w_emit, p2.w_emit)
    assert np.array_equal(p1.w_trans, p2.w_trans)
    assert np.array_equal(p1.w_start, p2.w_start)


def test_train_crf_divergence_raises():
    # A step this large puts score gaps past what the scaled forward pass
    # can hold; the non-finite loss stops training, naming the epoch.
    config = TrainConfig(seed=5, epochs=5, batch_size=8, lr=1e200, l2=0.0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_crf(*flat(_toy_corpus()), config)
    assert "epoch 1" in str(err.value)


def test_train_crf_diverges_without_a_warning():
    # One clipped step of norm 5 * 1e3 moves scores by thousands, past the
    # ~700 gap a scale can hold. The scaled pass goes non-finite quietly
    # (pytest turns a RuntimeWarning into an error), and the non-finite
    # loss stops training.
    config = TrainConfig(seed=5, epochs=5, batch_size=8, lr=1e3, l2=0.0)
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        train_crf(*flat(_toy_corpus()), config)


def test_train_crf_weights_match_recorded_digest():
    # The sha256 of the trained weights' bytes pins the arithmetic of the
    # scaled probability-domain forward-backward, with emissions gathered
    # from the id matrix and the gradient scattered in id order. Training
    # with the log-space reference recursions gives the same weights
    # within 1e-10.
    config = TrainConfig(seed=5, epochs=6, batch_size=8, l2=1e-3)
    params, history = train_crf(*flat(_toy_corpus()), config)
    digest = hashlib.sha256()
    for arr in params.arrays():
        digest.update(arr.tobytes())
    assert len(history) == 6
    assert digest.hexdigest() == ("1705bcd838b48a0150d97762175b1102"
                                  "ccdeb476cc6793b08ffe7bc71920bce3")
    with _ref_kernels():
        ref_params, _ = train_crf(*flat(_toy_corpus()), config)
    for arr, ref in zip(params.arrays(), ref_params.arrays()):
        np.testing.assert_allclose(arr, ref, rtol=0, atol=1e-10)


def test_tag_with_crf_outputs_well_formed():
    corpus = _toy_corpus()
    config = TrainConfig(seed=5, epochs=3, batch_size=8)
    params, _ = train_crf(*flat(corpus), config)
    rng = np.random.default_rng(123)
    vocab = ["polyp", "water", "unseenword", "colitis", "advice"]
    for _ in range(100):
        n = int(rng.integers(1, 9))
        sent = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
        labels = tag_by_sentence(tag_with_crf, params, [sent])[0]
        prev = O
        for lab in labels:
            assert lab in (B, I, O)
            assert not (lab == I and prev == O)
            prev = lab
