"""Text analytics: tokenization, syllables, readability, lexicon counts."""

import re
import string
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vidtriage.data_files import data_path
from vidtriage.medterm import (
    B_MED,
    I_MED,
    O,
    TaggedSentence,
    TermDictionary,
    project_labels,
)
from vidtriage.textfeat import (
    _WORD_RE,
    Lexicon,
    TokenizedText,
    TokenMemo,
    UndefinedReadabilityError,
    _verb_base_candidates,
    active_verb_count,
    count_syllables,
    extract_text_features,
    lexicon_count,
    load_lexicon,
    load_stopwords,
    readability,
    readability_from_tokens,
    split_words,
    tokenize,
)


@pytest.fixture(scope="module")
def lexicons():
    return (
        load_lexicon(data_path("transition_words.txt"), "transition"),
        load_lexicon(data_path("summary_words.txt"), "summary"),
        load_lexicon(data_path("active_verbs.txt"), "verbs"),
    )


# ------------------------------------------------------------- tokenizer


def test_tokenize_fixtures():
    tok = tokenize("The cat sat. It ran!")
    assert list(tok.tokens) == ["the", "cat", "sat", "it", "ran"]
    assert len(tok.sentences) == 2

    empty = tokenize("")
    assert len(empty.tokens) == 0 and len(empty.sentences) == 0

    # Abbreviation guard: "Dr." does not end the sentence.
    assert len(tokenize("Dr. Smith left.").sentences) == 1


@pytest.mark.parametrize("text, n_words", [
    ("." * 200_000, 0),
    ("!?" * 100_000, 0),
    ("a" * 100_000 + "." * 100_000 + " ", 1),
    ("." * 100_000 + "a", 1),
    ("a." * 100_000 + " ", 100_000),
    (("a." * 100_000)[:-1] + " end", 100_001),
])
def test_tokenize_is_linear_on_long_terminator_runs(text, n_words):
    # Scanning a whole run, or the word before it, once per terminator
    # takes minutes on the first four; a linear scan takes well under a
    # second on each.
    t0 = time.perf_counter()
    tok = tokenize(text)
    assert time.perf_counter() - t0 < 5.0
    assert tok.word_count == n_words


# Characters whose lowercase form is or holds ASCII (dotted capital I,
# the Kelvin sign), that are not ASCII themselves (sharp s, the fi
# ligature, a combining acute accent), apostrophes, NUL and separators.
_WORD_EDGES = st.text(st.one_of(
    st.sampled_from(list("aZ09'\u2019 .-\t\n\x00\u0130\u212a\u00df\ufb01\u0301")),
    st.characters()), max_size=30)


@settings(max_examples=300, deadline=None)
@given(text=_WORD_EDGES)
@example(text="''")
@example(text="'crohn's' a''b don't '")
@example(text="\u0130stanbul \u212aelvin stra\u00dfe \ufb01le cafe\u0301s")
@example(text="a\x00b\x00'c")
def test_split_words_matches_the_word_pattern(text):
    # The byte-table split equals the pattern on the lowercased text.
    assert split_words(text) == _WORD_RE.findall(text.lower())


def test_tokenize_sentence_ranges_cover_tokens():
    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "run", "tests", "Dr."]
    enders = [". ", "! ", "? ", "\n"]
    for _ in range(200):
        parts = []
        for _ in range(int(rng.integers(1, 6))):
            words = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 7))]
            parts.append(" ".join(words) + enders[int(rng.integers(4))])
        tok = tokenize("".join(parts))
        spans = list(tok.sentences)
        covered = [i for a, b in spans for i in range(a, b)]
        assert covered == list(range(len(tok.tokens)))
        for a, b in spans:
            assert a < b
        for tokn in tok.tokens:
            assert " " not in tokn and tokn == tokn.lower()


# ------------------------------------------------------------- syllables


def test_count_syllables_fixtures():
    assert count_syllables("cat") == 1
    assert count_syllables("cancer") == 2
    assert count_syllables("colonoscopy") == 5


def test_count_syllables_positive_and_validates():
    rng = np.random.default_rng(11)
    letters = string.ascii_lowercase
    for _ in range(500):
        n = int(rng.integers(1, 12))
        word = "".join(letters[i] for i in rng.integers(0, 26, size=n))
        assert count_syllables(word) >= 1
    with pytest.raises(ValueError):
        count_syllables("")
    with pytest.raises(ValueError):
        count_syllables("a1b")


# ----------------------------------------------------------- readability


def test_readability_fixtures():
    assert readability("The cat sat on the mat.") == pytest.approx(-1.45, abs=0.01)
    run_on = " ".join(["run"] * 100)
    assert readability(run_on) == pytest.approx(35.21, abs=0.01)
    with pytest.raises(UndefinedReadabilityError):
        readability("")


def test_readability_case_and_whitespace_invariant():
    rng = np.random.default_rng(3)
    base = "Screening finds cancer early. Talk to your doctor today."
    for _ in range(50):
        mangled = []
        for ch in base:
            if ch == " " and rng.random() < 0.4:
                mangled.append("  \t"[: int(rng.integers(1, 4))])
            elif rng.random() < 0.3:
                mangled.append(ch.upper())
            else:
                mangled.append(ch)
        assert readability("".join(mangled)) == pytest.approx(
            readability(base)
        )


# -------------------------------------------------------- lexicon counts


def test_lexicon_count_fixtures():
    lex = Lexicon(name="t",
                  entries=frozenset({"first", "then", "finally",
                                     "in addition"}))
    assert lexicon_count(tokenize("first we then finally"), lex) == 3
    assert lexicon_count(tokenize("in addition we begin"), lex) == 1
    assert lexicon_count(tokenize(""), lex) == 0


def test_lexicon_count_longest_match_non_overlapping():
    lex = Lexicon(name="t", entries=frozenset({"in", "in addition", "addition"}))
    # "in addition" must win over its two single-word members.
    assert lexicon_count(tokenize("in addition"), lex) == 1


def test_lexicon_count_bounded_by_word_count():
    rng = np.random.default_rng(5)
    words = ["first", "then", "we", "begin", "in", "addition", "overall"]
    lex = Lexicon(name="t",
                  entries=frozenset({"first", "then", "in addition",
                                     "overall"}))
    for _ in range(300):
        n = int(rng.integers(0, 15))
        text = " ".join(words[i] for i in rng.integers(0, len(words), size=n))
        tok = tokenize(text)
        assert 0 <= lexicon_count(tok, lex) <= len(tok.tokens)


def test_active_verb_count_fixtures():
    verbs = Lexicon(name="verbs", entries=frozenset({"remove", "explain"}))
    assert active_verb_count(tokenize("the doctor removes polyps"), verbs) == 1
    assert active_verb_count(tokenize("polyps are removed"), verbs) == 0
    assert active_verb_count(tokenize(""), verbs) == 0


def test_active_verb_inflections():
    verbs = Lexicon(name="verbs",
                    entries=frozenset({"explain", "carry", "chew", "stop"}))
    assert active_verb_count(tokenize("she explained the test"), verbs) == 1
    assert active_verb_count(tokenize("he carries the chart"), verbs) == 1
    assert active_verb_count(tokenize("she carried the chart"), verbs) == 1
    assert active_verb_count(tokenize("stopping helps"), verbs) == 1
    assert active_verb_count(tokenize("explaining helps"), verbs) == 1
    assert active_verb_count(tokenize("chewing was banned"), verbs) == 1


# ---------------------------------------------------------- feature rows


def test_extract_text_features_composition(lexicons):
    transition, summary, verbs = lexicons
    feats = extract_text_features("The cat sat on the mat.",
                                  transition, summary, verbs)
    assert feats.word_count == 6
    assert feats.sentence_count == 1
    assert feats.unique_word_count == 5  # "the" repeats
    assert feats.readability == pytest.approx(-1.45, abs=0.01)

    constructed = extract_text_features(
        "First we rest. Then we sip water. Overall all went well.",
        transition, summary, verbs,
    )
    assert constructed.transition_word_count == 2
    assert constructed.summary_word_count == 1


def test_extract_text_features_empty(lexicons):
    transition, summary, verbs = lexicons
    feats = extract_text_features("", transition, summary, verbs)
    assert feats.word_count == 0
    assert feats.sentence_count == 0
    assert feats.readability == 0.0


def test_unique_word_count_bounded_random(lexicons):
    transition, summary, verbs = lexicons
    rng = np.random.default_rng(13)
    vocab = ["alpha", "beta", "gamma", "first", "overall", "rest", "the"]
    for _ in range(300):
        n = int(rng.integers(0, 30))
        text = " ".join(vocab[i] for i in rng.integers(0, len(vocab), size=n))
        feats = extract_text_features(text, transition, summary, verbs)
        assert feats.unique_word_count <= feats.word_count
        assert feats.transition_word_count <= feats.word_count
        assert feats.summary_word_count <= feats.word_count
        assert feats.active_verb_count <= feats.word_count


def test_load_lexicon_and_stopwords(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("First\n# a comment\nin addition  # trailing\n\nTHEN\n")
    lex = load_lexicon(path, "demo")
    assert lex.entries == frozenset({"first", "in addition", "then"})
    sw = tmp_path / "stop.txt"
    sw.write_text("the\nof\nin addition\n")
    stops = load_stopwords(sw)
    assert stops == frozenset({"the", "of"})


def test_verb_hits_are_kept_per_lexicon():
    memo = TokenMemo()
    tok = tokenize("remove removes removed explain")
    removing = Lexicon(name="verbs", entries=frozenset({"remove"}))
    explaining = Lexicon(name="verbs", entries=frozenset({"explain"}))
    assert active_verb_count(tok, removing, memo) == 3
    assert active_verb_count(tok, explaining, memo) == 1
    assert active_verb_count(tok, removing, memo) == 3
    assert lexicon_count(tok, removing) == 1
    assert lexicon_count(tok, explaining) == 1
    assert lexicon_count(tok, Lexicon("t", frozenset({"removes removed"}))) == 1


# ------------------------------------------------ oracle: pre-index code
#
# The functions below are the per-token implementations that the phrase
# index and the token memo replaced, kept verbatim as references.

_REF_ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "fr", "sr", "jr", "st",
    "vs", "etc", "fig", "al", "inc", "ltd", "dept", "est", "approx",
    "e.g", "i.e",
})
_REF_BE_FORMS = frozenset({"am", "is", "are", "was", "were", "be", "been", "being"})
_REF_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def _ref_is_sentence_break(text, i):
    ch = text[i]
    if ch == "\n":
        return True
    j = i
    while j + 1 < len(text) and text[j + 1] in ".!?":
        j += 1
    if j + 1 < len(text) and not text[j + 1].isspace():
        return False
    if ch in "!?":
        return True
    k = i - 1
    word_chars = []
    while k >= 0 and (text[k].isalnum() or text[k] in ".'"):
        word_chars.append(text[k])
        k -= 1
    word = "".join(reversed(word_chars)).lower().rstrip(".")
    if not word:
        return True
    if word in _REF_ABBREVIATIONS or (len(word) == 1 and word.isalpha()):
        return False
    return True


def _ref_tokenize(text):
    chunks = []
    start = 0
    for i, ch in enumerate(text):
        if ch in ".!?\n" and _ref_is_sentence_break(text, i):
            chunks.append(text[start:i + 1])
            start = i + 1
    chunks.append(text[start:])
    tokens, sentences = [], []
    for chunk in chunks:
        words = _REF_WORD_RE.findall(chunk.lower())
        if not words:
            continue
        sentences.append((len(tokens), len(tokens) + len(words)))
        tokens.extend(words)
    return TokenizedText(tokens=tuple(tokens), sentences=tuple(sentences))


def _ref_token_syllables(token):
    letters = "".join(c for c in token if c.isalpha())
    if not letters:
        return 1
    return count_syllables(letters)


def _ref_readability_from_tokens(tok):
    if tok.word_count == 0 or tok.sentence_count == 0:
        raise UndefinedReadabilityError("readability needs at least one word and sentence")
    syllables = sum(_ref_token_syllables(t) for t in tok.tokens)
    return (0.39 * tok.word_count / tok.sentence_count
            + 11.8 * syllables / tok.word_count
            - 15.59)


def _ref_lexicon_count(tok, lex):
    n = len(tok.tokens)
    max_len = max((len(p.split()) for p in lex.entries), default=0)
    if max_len == 0:
        return 0
    count = 0
    i = 0
    while i < n:
        matched = False
        for width in range(min(max_len, n - i), 0, -1):
            if " ".join(tok.tokens[i:i + width]) in lex.entries:
                count += 1
                i += width
                matched = True
                break
        if not matched:
            i += 1
    return count


def _ref_active_verb_count(tok, verb_lex):
    count = 0
    for i, token in enumerate(tok.tokens):
        if i > 0 and tok.tokens[i - 1] in _REF_BE_FORMS:
            continue
        if any(c in verb_lex.entries for c in _verb_base_candidates(token)):
            count += 1
    return count


def _ref_project_labels(dictionary, sentences):
    keys = set(dictionary.entries)
    max_len = max((len(k.split()) for k in keys), default=0)
    tagged = []
    for sent in sentences:
        tokens = [t.lower() for t in sent]
        labels = [O] * len(tokens)
        i = 0
        while i < len(tokens):
            matched = 0
            for width in range(min(max_len, len(tokens) - i), 0, -1):
                if " ".join(tokens[i:i + width]) in keys:
                    matched = width
                    break
            if matched:
                labels[i] = B_MED
                for j in range(i + 1, i + matched):
                    labels[j] = I_MED
                i += matched
            else:
                i += 1
        tagged.append(TaggedSentence(tokens=tuple(tokens), labels=tuple(labels)))
    return tagged


# Words shared by texts and lexicons, so phrases share first words and
# actually occur; "removes"/"removing" exercise the verb inflections.
_VOCAB = ["colon", "cancer", "screening", "in", "addition", "first", "then",
          "overall", "remove", "removes", "removing", "explained", "is",
          "are", "was", "polyp", "don't", "o'clock", "2", "10", "a", "i"]

_PIECES = st.one_of(
    st.sampled_from(_VOCAB),
    st.sampled_from(_VOCAB).map(str.upper),
    st.sampled_from([".", "!", "?", "...", "\n", "?!", ". ", "! ", "\n\n",
                     "Dr.", "dr.", "e.g.", "i.e.", "J.", "A.", "St.",
                     "3.5", "'", "it's", "-", ",", "\t", "  "]),
    # Long runs of one terminator or of several, '.' mixed with '!'.
    st.builds(str.__mul__, st.sampled_from([".", "!", "?", "!?", ".!", "!.",
                                            "a."]),
              st.integers(2, 60)),
    # Non-ASCII letters and digits, alone and as initials, and "'" inside
    # an abbreviation or an initial.
    st.sampled_from(["É", "É.", "²", "². ", "٣", "٣.", "İ.", "é.g.", "D'r.",
                     "Dr'.", "e'.g.", "'s.", "J'.", "St.'", "_.", "x_Dr.",
                     "approx.", "xApprox.", "e.g.approx."]),
    st.text(max_size=4),
)
_TEXTS = st.lists(_PIECES, max_size=40).flatmap(
    lambda parts: st.lists(st.sampled_from([" ", "", "\n", " . "]),
                           min_size=len(parts), max_size=len(parts))
    .map(lambda seps: "".join(p + s for p, s in zip(parts, seps))))
_PHRASES = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=7).map(" ".join)
_LEXICONS = st.frozensets(_PHRASES, max_size=12).map(
    lambda entries: Lexicon(name="random", entries=entries))


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(_TEXTS, min_size=1, max_size=4),
       lex=_LEXICONS, verbs=_LEXICONS, other_verbs=_LEXICONS)
def test_text_analytics_match_reference(texts, lex, verbs, other_verbs):
    memo = TokenMemo()  # one memo shared by every text, as in a stage
    for text in texts:
        tok = tokenize(text)
        ref = _ref_tokenize(text)
        assert tok == ref
        assert lexicon_count(tok, lex) == _ref_lexicon_count(ref, lex)
        for v in (verbs, other_verbs):
            assert (active_verb_count(tok, v, memo)
                    == _ref_active_verb_count(ref, v))
        if tok.word_count:
            assert (readability_from_tokens(tok, memo)
                    == _ref_readability_from_tokens(ref))
        else:
            with pytest.raises(UndefinedReadabilityError):
                readability_from_tokens(tok, memo)


# Tokens as a caller may pass them, mixed case included, and keys that
# split differently on " " than on any whitespace.
_TOKENS = st.one_of(st.sampled_from(_VOCAB),
                    st.sampled_from(["Colon", "CANCER", "In"]))
_ODD_KEYS = ["", " in", "colon cancer", "colon  cancer", "a\tb",
             "in addition ", "in \t addition"]


@settings(max_examples=150, deadline=None)
@given(keys=st.frozensets(_PHRASES, max_size=12),
       odd_keys=st.frozensets(st.sampled_from(_ODD_KEYS)),
       texts=st.lists(_TEXTS, max_size=3),
       raw=st.lists(st.lists(_TOKENS, max_size=10), max_size=3))
def test_project_labels_match_reference(keys, odd_keys, texts, raw):
    dictionary = TermDictionary(
        entries={k: frozenset({"dsyn"}) for k in keys | odd_keys})
    sentences = [s for t in texts for s in tokenize(t).sentence_tokens()]
    sentences += raw
    assert (project_labels(dictionary, sentences)
            == _ref_project_labels(dictionary, sentences))
