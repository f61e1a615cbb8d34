"""Term dictionary: cleaning, semantic-type filtering, BIO projection."""

import numpy as np
import pytest

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
    span_offsets,
    unique_medical_terms,
    write_conll,
)

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
    assert d.word_keys == surviving_words
    assert d.phrase_keys == {"colon cancer"}


def test_load_dictionary_type_filter(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("colonoscopy\tdiap\npolyp\tneop\nsedation\ttopp\n")
    d = load_dictionary(path, allowed_types=["neop"], stopwords=STOPWORDS)
    assert d.word_keys == {"polyp"}
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


def test_project_labels_word_mode(small_dict):
    tagged = project_labels(small_dict, [["colon", "cancer"]], mode="word")
    # Word mode has no phrase keys, so each word matches alone.
    assert list(tagged[0].labels) == [B_MED, B_MED]


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


def test_unique_medical_terms_scale_fixture():
    # A constructed corpus with exactly 1917 distinct entities.
    terms = [f"term{i:04d}" for i in range(1917)]
    sentences = [
        TaggedSentence(tokens=(t, "filler"), labels=(B_MED, O))
        for t in terms
    ] + [
        TaggedSentence(tokens=(terms[0], terms[1]), labels=(B_MED, B_MED))
    ]
    assert unique_medical_terms(sentences) == 1917


def test_unique_medical_terms_case_folded():
    sents = [
        TaggedSentence(tokens=("Polyp",), labels=(B_MED,)),
        TaggedSentence(tokens=("polyp",), labels=(B_MED,)),
    ]
    assert unique_medical_terms(sents) == 1


# ------------------------------------------------------------ CoNLL io


def test_conll_roundtrip(tmp_path, small_dict):
    tagged = project_labels(
        small_dict,
        [["colon", "cancer", "facts"], ["schedule", "your", "colonoscopy"]],
    )
    path = tmp_path / "corpus.conll"
    write_conll(tagged, path, video_ids=["v1", "v2"])
    again, vids = read_conll(path)
    assert again == tagged
    assert vids == ["v1", "v2"]


def test_conll_roundtrip_without_ids(tmp_path, small_dict):
    tagged = project_labels(small_dict, [["polyp"]])
    path = tmp_path / "c.conll"
    write_conll(tagged, path)
    again, vids = read_conll(path)
    assert again == tagged
    assert vids == [None]


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
