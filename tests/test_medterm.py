"""Term dictionary: cleaning, semantic-type filtering, BIO projection."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidtriage.medterm import (
    B_MED,
    I_MED,
    O,
    DictionaryFormatError,
    DictionaryWarning,
    TaggedSentence,
    clean_terms,
    load_dictionary,
    project_labels,
    read_conll,
    span_forms,
    span_offsets,
    unique_term_counts,
    write_conll,
)
from vidtriage.textfeat import tokenize

STOPWORDS = frozenset({"the", "of", "with", "from", "this", "that"})


# ---------------------------------------------------------- clean_terms


def test_clean_terms_basics():
    cleaned = clean_terms(
        ["Colon Cancer", "the colon", "X-ray of the Abdomen", "cyst"],
        STOPWORDS,
    )
    # "the"/"of" are stopwords, "x"/"ray" are too short, "cyst" is length 4.
    assert cleaned == {"colon", "cancer", "abdomen", "cyst"}


def test_clean_terms_strict_length():
    assert clean_terms(["gas", "ileum"], frozenset()) == {"ileum"}
    assert clean_terms(["abc"], frozenset()) == set()
    assert clean_terms(["abcd"], frozenset()) == {"abcd"}


def _random_terms(rng, n):
    letters = "abcdefghij"
    pieces = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        words = []
        for _ in range(k):
            ln = int(rng.integers(1, 9))
            words.append("".join(letters[i]
                                 for i in rng.integers(0, 10, size=ln)))
        joiner = [" ", "-", ", "][int(rng.integers(3))]
        piece = joiner.join(words)
        if rng.random() < 0.3:
            piece = piece.upper()
        pieces.append(piece)
    return pieces


def test_clean_terms_properties_random_loop():
    rng = np.random.default_rng(17)
    stopwords = frozenset({"abba", "baddcaff", "the", "geegee"})
    for _ in range(200):
        raw = _random_terms(rng, int(rng.integers(0, 12)))
        cleaned = clean_terms(raw, stopwords)
        # Idempotence: cleaning a cleaned set changes nothing.
        assert clean_terms(cleaned, stopwords) == cleaned
        for word in cleaned:
            assert len(word) > 3
            assert word not in stopwords
            assert word == word.lower()
            assert " " not in word


# ------------------------------------------------------------ dictionary


def test_load_dictionary_skips_unknown_codes(tmp_path):
    rows = [
        ("colonoscopy", "diap"),
        ("polyp", "neop"),
        ("colon cancer", "neop"),
        ("sedation", "topp"),
        ("colitis", "dsyn"),
        ("cramping", "sosy"),
        ("gastroenterologist", "prog"),
        ("mystery one", "zzzz"),
        ("mystery two", "abcd"),
        ("mystery three", "qqqq"),
    ]
    path = tmp_path / "dict.tsv"
    path.write_text("".join(f"{t}\t{c}\n" for t, c in rows))
    with pytest.warns(DictionaryWarning):
        d = load_dictionary(path, stopwords=STOPWORDS)
    # 7 valid rows survive out of 10.
    surviving_words = {
        "colonoscopy", "polyp", "colon", "cancer", "sedation",
        "colitis", "cramping", "gastroenterologist",
    }
    assert set(d.entries) == surviving_words | {"colon cancer"}


def test_load_dictionary_type_filter(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("colonoscopy\tdiap\npolyp\tneop\nsedation\ttopp\n")
    d = load_dictionary(path, allowed_types=["neop"], stopwords=STOPWORDS)
    assert set(d.entries) == {"polyp"}
    assert d.entries["polyp"] == frozenset({"neop"})
    # The allowed codes come from the same closed set as the rows.
    with pytest.raises(ValueError, match="unknown semantic-type codes"):
        load_dictionary(path, allowed_types=["neop", "nope"],
                        stopwords=STOPWORDS)


def test_load_dictionary_bad_row(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("just-one-column\n")
    with pytest.raises(DictionaryFormatError):
        load_dictionary(path, stopwords=STOPWORDS)


# ------------------------------------------------------------ projection


@pytest.fixture(scope="module")
def small_dict(tmp_path_factory):
    path = tmp_path_factory.mktemp("dict") / "dict.tsv"
    path.write_text(
        "colon cancer\tneop\ncolonoscopy\tdiap\npolyp\tneop\n"
        "bowel preparation\ttopp\n"
    )
    return load_dictionary(path, stopwords=STOPWORDS)


def test_project_labels_longest_match(small_dict):
    tagged = project_labels(
        small_dict,
        [["early", "colon", "cancer", "screening"],
         ["a", "polyp", "near", "the", "colon"]],
    )
    assert list(tagged[0].labels) == [O, B_MED, I_MED, O]
    assert list(tagged[1].labels) == [O, B_MED, O, O, B_MED]
    assert tagged[0].spans() == ["colon cancer"]


def test_apostrophe_term_projects_onto_its_own_tokens(tmp_path):
    # Dictionary terms split into words by the rule tokenize uses, so an
    # apostrophe stays inside the word on both sides.
    assert clean_terms(["Crohn's disease"], STOPWORDS) == {"crohn's",
                                                           "disease"}
    path = tmp_path / "dict.tsv"
    path.write_text("Crohn's disease\tdsyn\n")
    d = load_dictionary(path, stopwords=STOPWORDS)
    assert "crohn's disease" in d.entries
    sentence, = tokenize("Crohn's disease is common.").sentence_tokens()
    tagged, = project_labels(d, [sentence])
    assert list(tagged.labels) == [B_MED, I_MED, O, O]
    assert tagged.spans() == ["crohn's disease"]


def test_tagged_sentence_validates():
    with pytest.raises(ValueError):
        TaggedSentence(tokens=("a",), labels=(I_MED,))
    with pytest.raises(ValueError):
        TaggedSentence(tokens=("a", "b"), labels=(O, I_MED))
    with pytest.raises(ValueError):
        TaggedSentence(tokens=("a",), labels=("X",))
    with pytest.raises(ValueError):
        TaggedSentence(tokens=("a", "b"), labels=(O,))


def test_span_offsets_ignore_a_stray_inside_tag():
    # Tagger output may hold an I-MED with no open span; it starts none.
    assert span_offsets([I_MED, B_MED, I_MED, O, I_MED, B_MED]) \
        == [(1, 3), (5, 6)]
    sent = TaggedSentence(tokens=("Colon", "Cancer", "and", "Polyp"),
                          labels=(B_MED, I_MED, O, B_MED))
    assert sent.spans() == ["colon cancer", "polyp"]


def _span_offsets_oracle(labels):
    """Spans as runs of a pattern: code B-MED as B, O as O and any other
    label as I; each match of ``BI*`` is a span."""
    code = "".join({B_MED: "B", O: "O"}.get(lab, "I") for lab in labels)
    return [m.span() for m in re.finditer("BI*", code)]


def _label_sequences(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_span_offsets_match_the_pattern_oracle():
    # Every BIO sequence up to length 7, and every sequence up to length 5
    # that also holds a label outside BIO, as a tuple and as a list.
    cases = itertools.chain(_label_sequences((B_MED, I_MED, O), 7),
                            _label_sequences((B_MED, I_MED, O, "X"), 5))
    for labels in cases:
        expected = _span_offsets_oracle(labels)
        assert span_offsets(labels) == expected, labels
        assert span_offsets(list(labels)) == expected, labels


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(st.text(st.characters(blacklist_categories=("Z", "C")),
                               min_size=1, max_size=4), max_size=6),
       data=st.data())
def test_span_forms_lowercase_each_token(tokens, data):
    # Lowercasing the joined span equals joining the lowercased tokens,
    # also for letters whose lowercase depends on context (final sigma).
    labels = data.draw(st.lists(st.sampled_from([B_MED, I_MED, O]),
                                min_size=len(tokens), max_size=len(tokens)))
    tokens = [t.replace("a", "\u03a3") for t in tokens]
    assert span_forms(tokens, labels) == [
        " ".join(t.lower() for t in tokens[a:b])
        for a, b in _span_offsets_oracle(labels)]


def test_unique_term_counts_scale_fixture():
    # A constructed corpus with exactly 1917 distinct entities.
    terms = [f"term{i:04d}" for i in range(1917)]
    sentences = [(t, "filler") for t in terms] + [(terms[0], terms[1])]
    labels = [(B_MED, O)] * len(terms) + [(B_MED, B_MED)]
    counts = unique_term_counts(["v"] * len(sentences), sentences, labels)
    assert counts["v"] == 1917


def test_unique_term_counts_case_folded():
    counts = unique_term_counts(["v", "v"], [("Polyp",), ("polyp",)],
                                [(B_MED,), (B_MED,)])
    assert counts["v"] == 1


def test_unique_term_counts_per_video():
    sentences = [("colon", "cancer"), ("polyp",), ("colon", "cancer")]
    labels = [(B_MED, I_MED), (O,), (B_MED, B_MED)]
    assert unique_term_counts(["a", "b", "a"], sentences, labels) \
        == {"a": 3, "b": 0}
    with pytest.raises(ValueError):
        unique_term_counts(["a"], sentences, labels)


# ------------------------------------------------------------ CoNLL io


def test_conll_roundtrip(tmp_path, small_dict):
    tagged = project_labels(
        small_dict,
        [["colon", "cancer", "facts"], ["schedule", "your", "colonoscopy"]],
    )
    path = tmp_path / "corpus.conll"
    write_conll(path, [s.tokens for s in tagged], [s.labels for s in tagged],
                video_ids=["v1", "v2"])
    again, vids = read_conll(path)
    assert again == tagged
    assert vids == ["v1", "v2"]


def test_conll_roundtrip_without_ids(tmp_path, small_dict):
    tagged = project_labels(small_dict, [["polyp"]])
    path = tmp_path / "c.conll"
    write_conll(path, [s.tokens for s in tagged], [s.labels for s in tagged])
    again, vids = read_conll(path)
    assert again == tagged
    assert vids == [None]


@pytest.mark.parametrize("text, line, message", [
    ("a\tO\nb\tI-MED\nc\n\n", 2, "I-MED may not follow O"),
    ("a\tB-MED\nb\tX\nc\td\te\n", 2, "unknown label 'X'"),
    ("a\tO\nb\tO\nc\n\nd\tI-MED\n", 3, "expected 'token<TAB>tag'"),
    ("# video_id = v\na\tO\n# note\n\t\n \nb\tO\n# x\nc\tI-MED\n",
     8, "I-MED may not follow O"),
    ("a\tB-MED\n\nb\tI-MED\n", 3, "I-MED may not follow O or start"),
], ids=["label-before-bad-row", "unknown", "bad-row-first", "comments",
        "start"])
def test_read_conll_names_the_first_bad_line(tmp_path, text, line, message):
    # Rows are read in order: the first bad row names its own line, also
    # past comment and whitespace-only lines.
    path = tmp_path / "c.conll"
    path.write_text(text)
    with pytest.raises(DictionaryFormatError, match=f"c.conll:{line}: "
                       f"{re.escape(message)}"):
        read_conll(path)


@pytest.mark.parametrize("sentences, labels, ids", [
    ([["polyp"]], [], None),
    ([["polyp"]], [[B_MED, O]], None),
    ([["polyp"]], [[B_MED]], ["v1", "v2"]),
], ids=["labels", "tokens", "ids"])
def test_write_conll_refuses_unaligned_sequences(tmp_path, sentences, labels,
                                                 ids):
    path = tmp_path / "c.conll"
    path.write_text("old\tO\n")
    with pytest.raises(ValueError):
        write_conll(path, sentences, labels, video_ids=ids)
    assert path.read_text() == "old\tO\n"


def test_projection_random_loop_well_formed(small_dict):
    rng = np.random.default_rng(23)
    vocab = ["colon", "cancer", "polyp", "colonoscopy", "bowel",
             "preparation", "the", "advice", "water", "doctor"]
    for _ in range(300):
        n = int(rng.integers(1, 12))
        sent = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
        tagged = project_labels(small_dict, [sent])[0]
        # Construction enforces the BIO invariant; spot-check projection
        # marks every exact single-word dictionary hit.
        for tok, lab in zip(tagged.tokens, tagged.labels):
            if tok in ("colonoscopy", "polyp") and lab == O:
                raise AssertionError(f"missed dictionary word {tok}")
