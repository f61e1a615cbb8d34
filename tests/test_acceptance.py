"""Acceptance suite: nine criteria, one PASS/FAIL line each.

Each test prints exactly one line of the form

    ACCEPTANCE <n> (<name>): PASS|FAIL (<elapsed>s)

so a plain `pytest -s tests/test_acceptance.py` reads as a checklist.
Criteria with runtime budgets assert the budget as part of the check.
"""

import functools
import itertools
import re
import time

import numpy as np
import pytest
from scipy.special import expit, logsumexp

import criterion8
from sentences import (TaggedSentence, flat, flat_tokens, repair_bio,
                       tag_by_sentence)
import vidtriage.classify as clf
from vidtriage.cli import main as cli_main
from vidtriage.medterm import clean_terms, project_labels
from vidtriage.medterm import load_dictionary
from vidtriage.seqtag import (
    TrainConfig,
    blstm_loss_grad,
    build_vocab,
    crf_log_partition,
    crf_loss_grad,
    crf_viterbi,
    init_blstm,
    tag_with_blstm,
    tag_with_crf,
    train_blstm,
    train_crf,
)
from vidtriage.seqtag.blstm import PARAM_NAMES
from vidtriage.seqtag.crf import build_feature_index, init_crf
from vidtriage.synth import SynthConfig, write_synthetic_corpus
from vidtriage.textfeat import (
    Lexicon,
    active_verb_count,
    lexicon_count,
    readability,
    tokenize,
)

B, I, O = "B-MED", "I-MED", "O"


def criterion(num, name):
    """Print the per-criterion verdict line even when the test fails."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - t0
                print(f"\nACCEPTANCE {num} ({name}): FAIL ({elapsed:.1f}s)",
                      flush=True)
                raise
            elapsed = time.perf_counter() - t0
            print(f"\nACCEPTANCE {num} ({name}): PASS ({elapsed:.1f}s)",
                  flush=True)

        return wrapper

    return deco


def _run_cli(args):
    rc = cli_main([str(a) for a in args])
    assert rc == 0, f"command failed with exit {rc}: {args}"


def _ingest_args(corpus_dir, work, seed):
    return [
        "ingest",
        "--videos", corpus_dir / "videos.jsonl",
        "--transcripts", corpus_dir / "transcripts.jsonl",
        "--ocr", corpus_dir / "ocr.jsonl",
        "--labels", corpus_dir / "labels.jsonl",
        "--work-dir", work, "--seed", seed,
    ]


# ---------------------------------------------------------- criterion 1


def _brute_partition(emit, trans, start):
    scores = []
    for seq in itertools.product(range(emit.shape[1]), repeat=emit.shape[0]):
        total = start[seq[0]] + emit[0, seq[0]]
        for t in range(1, len(seq)):
            total += trans[seq[t - 1], seq[t]] + emit[t, seq[t]]
        scores.append(total)
    return float(logsumexp(scores))


def _brute_viterbi(emit, trans, start):
    # product() enumerates lexicographically; strict > keeps the first
    # (smallest) argmax, matching the declared tie rule.
    best_seq, best = None, -np.inf
    for seq in itertools.product(range(emit.shape[1]), repeat=emit.shape[0]):
        total = start[seq[0]] + emit[0, seq[0]]
        for t in range(1, len(seq)):
            total += trans[seq[t - 1], seq[t]] + emit[t, seq[t]]
        if total > best:
            best_seq, best = seq, total
    return list(best_seq)


@criterion(1, "CRF oracle equivalence")
def test_criterion_1_crf_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4001)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        emit = rng.normal(0.0, 2.0, size=(n, 3))
        trans = rng.normal(0.0, 2.0, size=(3, 3))
        start = rng.normal(0.0, 2.0, size=3)
        assert crf_log_partition(emit, trans, start) == pytest.approx(
            _brute_partition(emit, trans, start), abs=1e-8
        )
        assert crf_viterbi(emit, trans, start) \
            == _brute_viterbi(emit, trans, start)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------- criterion 2


def _check_fd(loss_fn, arrays, grads, rng, eps, tol, n_picks):
    for name, arr in arrays.items():
        flat = [tuple(ix) for ix in np.ndindex(*arr.shape)]
        picks = rng.choice(len(flat), size=min(n_picks, len(flat)),
                           replace=False)
        for p in picks:
            ix = flat[p]
            orig = arr[ix]
            arr[ix] = orig + eps
            up = loss_fn()
            arr[ix] = orig - eps
            down = loss_fn()
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grads[name][ix]), 1e-10)
            assert abs(fd - grads[name][ix]) / denom < tol, f"{name}{ix}"


@criterion(2, "gradient checks")
def test_criterion_2_gradients():
    t0 = time.perf_counter()

    # BLSTM at d_emb=3, d_hid=4.
    rng = np.random.default_rng(4002)
    config = TrainConfig(seed=0, d_emb=3, d_hid=4)
    params = init_blstm(9, config, rng=rng)
    ids = [[2, 5, 7, 3], [4, 6]]
    labels = [[0, 1, 2, 2], [2, 0]]
    _, grads = blstm_loss_grad(params, ids, labels, l2=0.01)
    _check_fd(
        lambda: blstm_loss_grad(params, ids, labels, l2=0.01)[0],
        {name: getattr(params, name) for name in PARAM_NAMES},
        grads, rng, eps=1e-5, tol=1e-4, n_picks=12,
    )

    # CRF over a small feature index.
    sentences = [["colon", "cancer", "facts"], ["drink", "water"]]
    gold = [[B, I, O], [O, O]]
    crf_params = init_crf(build_feature_index(*flat_tokens(sentences)))
    for arr in (crf_params.w_emit, crf_params.w_trans, crf_params.w_start):
        arr += rng.normal(0.0, 0.5, size=arr.shape)
    _, crf_grads = crf_loss_grad(crf_params, sentences, gold, l2=0.01)
    _check_fd(
        lambda: crf_loss_grad(crf_params, sentences, gold, l2=0.01)[0],
        {name: getattr(crf_params, name)
         for name in ("w_emit", "w_trans", "w_start")},
        crf_grads, rng, eps=1e-6, tol=1e-4, n_picks=15,
    )

    # Logistic regression at the tighter tolerance.
    X = rng.normal(size=(40, 4))
    y = (rng.random(40) < 0.5).astype(float)
    for _ in range(5):
        beta = rng.normal(0.0, 0.8, size=5)
        _, grad = clf.logreg_objective_grad(beta, X, y, 0.05)
        for j in range(5):
            up = beta.copy()
            up[j] += 1e-6
            down = beta.copy()
            down[j] -= 1e-6
            fd = (clf.logreg_objective_grad(up, X, y, 0.05)[0]
                  - clf.logreg_objective_grad(down, X, y, 0.05)[0]) / 2e-6
            denom = max(abs(fd), abs(grad[j]), 1e-12)
            assert abs(fd - grad[j]) / denom < 1e-6

    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------- criterion 3


@criterion(3, "synthetic tagger reproduction")
def test_criterion_3_synthetic_table2(tmp_path):
    t0 = time.perf_counter()
    corpus_dir = tmp_path / "corpus"
    summary = write_synthetic_corpus(
        corpus_dir, SynthConfig(seed=301, n_videos=50, sentences_per_video=10)
    )
    assert summary.n_sentences == 500
    work = tmp_path / "work"
    _run_cli(_ingest_args(corpus_dir, work, 301))
    _run_cli(["build-ner-corpus", "--dictionary",
              corpus_dir / "dictionary.tsv", "--work-dir", work])
    _run_cli(["train-tagger", "--arch", "crf",
              "--work-dir", work, "--seed", 301])
    _run_cli(["train-tagger", "--arch", "blstm",
              "--work-dir", work, "--seed", 301])
    _run_cli(["eval-tagger", "--work-dir", work])
    _run_cli(["report", "--table", "2", "--work-dir", work])

    lines = (work / "eval" / "tagger_metrics.tsv").read_text().splitlines()
    rows = {r.split("\t")[0]: r.split("\t") for r in lines[1:]}
    for arch in ("crf", "blstm"):
        f_measure = float(rows[arch][3])
        assert f_measure >= 0.90, f"{arch} token F {f_measure:.3f}"

    report = (work / "reports" / "table2.tsv").read_text().splitlines()
    assert report[0] == "model\tprecision\trecall\tf_measure"
    assert len(report) == 3
    cell = re.compile(r"^\d\.\d{3}$")
    for line, arch in zip(report[1:], ("crf", "blstm")):
        cells = line.split("\t")
        assert cells[0] == arch
        assert len(cells) == 4
        assert all(cell.match(c) for c in cells[1:]), cells

    assert time.perf_counter() - t0 < 180.0


# ---------------------------------------------------------- criterion 4


@criterion(4, "metric fixtures")
def test_criterion_4_metric_fixtures():
    m = clf.metrics_from_confusion(22, 2, 1, 32)
    assert m.positive.precision == pytest.approx(0.917, abs=0.001)
    assert m.positive.recall == pytest.approx(0.957, abs=0.001)
    assert m.positive.f_measure == pytest.approx(0.936, abs=0.001)
    assert m.accuracy == pytest.approx(0.947, abs=0.001)
    assert m.negative.precision == pytest.approx(0.970, abs=0.001)
    assert m.negative.recall == pytest.approx(0.941, abs=0.001)
    assert m.negative.f_measure == pytest.approx(0.955, abs=0.001)


# ---------------------------------------------------------- criterion 5


@criterion(5, "coefficient-sign recovery")
def test_criterion_5_sign_recovery():
    t0 = time.perf_counter()
    spec = clf.FEATURE_SPECS["recommendation"]
    big = {name: value
           for name, value in clf.SIM_RECOMMENDATION_COEFFS.items()
           if abs(value) >= 0.4}
    assert big, "no large coefficients to recover"
    successes = 0
    for rep in range(20):
        rng = np.random.default_rng(9000 + rep)
        X, y = clf.simulate_design(
            spec, clf.SIM_RECOMMENDATION_COEFFS,
            intercept=clf.SIM_RECOMMENDATION_INTERCEPT, n=2000, rng=rng,
        )
        model = clf.train_logreg(X, y, spec=spec)
        fitted = dict(zip(spec.features, model.coefficients))
        if all(np.sign(fitted[name]) == np.sign(value)
               for name, value in big.items()):
            successes += 1
    assert successes >= 19, f"sign recovery in {successes}/20 repetitions"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------- criterion 6


@criterion(6, "text-feature fixtures")
def test_criterion_6_text_features():
    assert readability("The cat sat on the mat.") \
        == pytest.approx(-1.45, abs=0.01)
    run_on = " ".join(["run"] * 100) + "."
    assert readability(run_on) == pytest.approx(35.21, abs=0.01)

    lex = Lexicon(name="t",
                  entries=frozenset({"first", "then", "finally",
                                     "in addition"}))
    assert lexicon_count(tokenize("first we then finally"), lex) == 3
    assert lexicon_count(tokenize("in addition we begin"), lex) == 1

    verbs = Lexicon(name="verbs", entries=frozenset({"remove", "explain"}))
    assert active_verb_count(tokenize("the doctor removes polyps"), verbs) == 1
    assert active_verb_count(tokenize("polyps are removed"), verbs) == 0


# ---------------------------------------------------------- criterion 7


@criterion(7, "term-cleaning conformance")
def test_criterion_7_clean_terms():
    rng = np.random.default_rng(4007)
    letters = "abcdefghij"
    stopwords = frozenset({"abba", "baddcaff", "the", "geegee", "cafe"})

    def random_terms(n):
        pieces = []
        for _ in range(n):
            words = []
            for _ in range(int(rng.integers(1, 4))):
                ln = int(rng.integers(1, 9))
                words.append("".join(
                    letters[i] for i in rng.integers(0, 10, size=ln)
                ))
            joiner = [" ", "-", ", "][int(rng.integers(3))]
            piece = joiner.join(words)
            if rng.random() < 0.3:
                piece = piece.upper()
            pieces.append(piece)
        return pieces

    for _ in range(1000):
        raw = random_terms(int(rng.integers(0, 10)))
        cleaned = clean_terms(raw, stopwords)
        assert clean_terms(cleaned, stopwords) == cleaned
        for word in cleaned:
            assert len(word) > 3
            assert word not in stopwords
            assert word == word.lower()
            assert " " not in word


# ---------------------------------------------------------- criterion 8


@criterion(8, "pipeline determinism")
def test_criterion_8_determinism(criterion_8_taggers, criterion_8_classified,
                                 tmp_path):
    # A fresh build of the seed-88 tree (both archs on both sources) is
    # byte for byte the session's shared one, which
    # test_criterion_8_tree_matches_recorded_digests pins across commits.
    shared = criterion8.tree_files(criterion_8_taggers.parent / "corpus",
                                   criterion_8_classified)
    work = criterion8.build_taggers(tmp_path)
    criterion8.build_rest(work)
    fresh = criterion8.tree_files(tmp_path / "corpus", work)
    assert fresh.keys() == shared.keys()
    for rel, path in shared.items():
        assert fresh[rel].read_bytes() == path.read_bytes(), \
            f"artifact differs: {rel}"


# ---------------------------------------------------------- criterion 9


def _bio_ok(labels):
    prev = O
    for lab in labels:
        if lab not in (B, I, O):
            return False
        if lab == I and prev == O:
            return False
        prev = lab
    return True


def _training_corpus(rng, marked, plain, n=80):
    corpus = []
    for _ in range(n):
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


@criterion(9, "BIO well-formedness")
def test_criterion_9_bio_wellformed(tmp_path):
    rng = np.random.default_rng(4009)

    # 500 dictionary projections over random word sequences.
    dict_path = tmp_path / "dict.tsv"
    dict_path.write_text(
        "colonoscopy\tdiap\ncolon cancer\tneop\npolyp\tpatf\n"
        "bowel preparation\ttopp\nsedation\ttopp\n"
    )
    dictionary = load_dictionary(dict_path)
    pool = ["colonoscopy", "colon", "cancer", "polyp", "bowel",
            "preparation", "sedation", "water", "doctor", "rest", "the"]
    for _ in range(500):
        n = int(rng.integers(1, 10))
        sent = [pool[i] for i in rng.integers(0, len(pool), size=n)]
        labels = project_labels(dictionary, sent, [len(sent)])
        repaired = repair_bio(labels)
        assert _bio_ok(repaired)
        assert labels == repaired  # already well-formed

    # 250 CRF and 250 BLSTM tagged outputs, repaired then checked.
    marked = ["polyp", "colitis", "adenoma", "sedation"]
    plain = ["water", "advice", "doctor", "visit", "home", "rest"]
    corpus = _training_corpus(rng, marked, plain)
    config = TrainConfig(seed=9, epochs=4, batch_size=8)
    crf_params, _ = train_crf(*flat(corpus), config)
    blstm_params, vocab, _ = train_blstm(*flat(corpus), config)
    assert build_vocab(flat(corpus)[0]).encode(["polyp"]) \
        == vocab.encode(["polyp"])
    test_pool = marked + plain + ["neverseen", "mystery"]
    for tagger in (
        lambda sents: tag_by_sentence(tag_with_crf, crf_params, sents),
        lambda sents: tag_by_sentence(tag_with_blstm, blstm_params, vocab,
                                      sents),
    ):
        for _ in range(250):
            n = int(rng.integers(1, 9))
            sent = [test_pool[i]
                    for i in rng.integers(0, len(test_pool), size=n)]
            labels = tagger([sent])[0]
            assert _bio_ok(repair_bio(labels))
