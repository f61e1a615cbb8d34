"""Term dictionary: cleaning, semantic-type filtering, BIO projection."""

import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vidtriage.medterm import (
    B_MED,
    I_MED,
    LABELS,
    O,
    DictionaryFormatError,
    clean_terms,
    load_dictionary,
    project_labels,
    read_conll,
    write_conll,
)
from vidtriage.seqtag import span_forms, term_counts
from vidtriage.seqtag._trainutil import decode_in_batches
from vidtriage.seqtag.metrics import span_bounds
from vidtriage.textfeat import tokenize

from sentences import (TaggedSentence, label_ids, read_tagged,
                       ref_read_conll, ref_span_forms, repair_bio,
                       sentence_tokens, span_offsets, tag_by_sentence)

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


def test_load_dictionary_skips_unknown_codes(tmp_path, caplog):
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
    with caplog.at_level(logging.WARNING, logger="vidtriage"):
        d = load_dictionary(path, stopwords=STOPWORDS)
    assert "unknown semantic-type code" in caplog.text
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


def _project(dictionary, sentences):
    """``sentences`` projected in one call, as TaggedSentences (whose
    construction checks BIO)."""
    labels = iter(project_labels(dictionary, [t for s in sentences for t in s],
                                 [len(s) for s in sentences]))
    return [TaggedSentence(tuple(s), tuple(itertools.islice(labels, len(s))))
            for s in sentences]


def test_project_labels_longest_match(small_dict):
    tagged = _project(
        small_dict,
        [["early", "colon", "cancer", "screening"],
         ["a", "polyp", "near", "the", "colon"]],
    )
    assert list(tagged[0].labels) == [O, B_MED, I_MED, O]
    assert list(tagged[1].labels) == [O, B_MED, O, O, B_MED]
    assert ref_span_forms(tagged[0].tokens, tagged[0].labels) \
        == ["colon cancer"]


def test_apostrophe_term_projects_onto_its_own_tokens(tmp_path):
    # Dictionary terms split into words by the rule tokenize uses, so an
    # apostrophe stays inside the word on both sides.
    assert clean_terms(["Crohn's disease"], STOPWORDS) == {"crohn's",
                                                           "disease"}
    path = tmp_path / "dict.tsv"
    path.write_text("Crohn's disease\tdsyn\n")
    d = load_dictionary(path, stopwords=STOPWORDS)
    assert "crohn's disease" in d.entries
    sentence, = sentence_tokens(tokenize("Crohn's disease is common."))
    tagged, = _project(d, [sentence])
    assert list(tagged.labels) == [B_MED, I_MED, O, O]
    assert ref_span_forms(tagged.tokens, tagged.labels) == ["crohn's disease"]


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
    assert ref_span_forms(sent.tokens, sent.labels) \
        == ["colon cancer", "polyp"]


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
    # that also holds a label outside BIO, as a tuple and as a list; the
    # array rule reads one sentence's BIO label ids the same way.
    cases = itertools.chain(_label_sequences((B_MED, I_MED, O), 7),
                            _label_sequences((B_MED, I_MED, O, "X"), 5))
    for labels in cases:
        expected = _span_offsets_oracle(labels)
        assert span_offsets(labels) == expected, labels
        assert span_offsets(list(labels)) == expected, labels
        if "X" not in labels:
            begins, ends = span_bounds(np.array(label_ids(labels)))
            assert list(zip(begins.tolist(), ends.tolist())) == expected


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
    expected = [" ".join(t.lower() for t in tokens[a:b])
                for a, b in _span_offsets_oracle(labels)]
    assert ref_span_forms(tokens, labels) == expected
    assert [form for _, form in span_forms(
        tokens, [len(tokens)], np.array(label_ids(labels)))] == expected


def _unique_term_counts(video_ids, sentences, labels):
    """The per-sentence oracle of ``term_counts``: each video's number of
    distinct span forms, 0 for a video whose sentences hold none."""
    forms = {}
    for vid, tokens, labs in zip(video_ids, sentences, labels, strict=True):
        forms.setdefault(vid, set()).update(ref_span_forms(tokens, labs))
    return {vid: len(f) for vid, f in forms.items()}


def _term_counts(video_ids, sentences, labels):
    """``term_counts`` of sentences given one list per sentence."""
    return term_counts(
        [t for s in sentences for t in s], [len(s) for s in sentences],
        np.array([LABELS.index(lab) for labs in labels for lab in labs]),
        video_ids)


def test_unique_term_counts_scale_fixture():
    # A constructed corpus with exactly 1917 distinct entities.
    terms = [f"term{i:04d}" for i in range(1917)]
    sentences = [(t, "filler") for t in terms] + [(terms[0], terms[1])]
    labels = [(B_MED, O)] * len(terms) + [(B_MED, B_MED)]
    counts = _term_counts(["v"] * len(sentences), sentences, labels)
    assert counts["v"] == 1917


def test_unique_term_counts_case_folded():
    counts = _term_counts(["v", "v"], [("Polyp",), ("polyp",)],
                          [(B_MED,), (B_MED,)])
    assert counts["v"] == 1


def test_unique_term_counts_per_video():
    sentences = [("colon", "cancer"), ("polyp",), ("colon", "cancer")]
    labels = [(B_MED, I_MED), (O,), (B_MED, B_MED)]
    assert _term_counts(["a", "b", "a"], sentences, labels) \
        == {"a": 3, "b": 0}
    with pytest.raises(ValueError):
        _term_counts(["a"], sentences, labels)


# Several videos' sentences of 0-12 tokens with labels drawn at random,
# so an I-MED often starts a sentence or follows an O, and a span often
# touches a sentence end before a sentence that starts on I-MED. Tokens
# repeat across sentences and videos, one of them in two letter cases.
_VIDEOS = st.lists(st.lists(st.lists(
    st.tuples(st.sampled_from(["polyp", "Polyp", "colon", "cancer"]),
              st.sampled_from(LABELS)), max_size=12),
    max_size=4), min_size=1, max_size=4)
# Two videos whose first sentence ends inside a span and whose second
# starts on I-MED.
_ACROSS_ENDS = [[[("colon", B_MED), ("cancer", I_MED)],
                 [("cancer", I_MED), ("polyp", O)]],
                [[("polyp", O), ("colon", B_MED)], [("cancer", I_MED)]]]


def _flat(videos):
    """The sentences of ``videos`` end to end: each sentence's video id,
    tokens and label names, and all tokens and label ids."""
    sentences = [(f"v{k}", s) for k, video in enumerate(videos)
                 for s in video]
    rows = [row for _, s in sentences for row in s]
    return ([vid for vid, _ in sentences],
            [[t for t, _ in s] for _, s in sentences],
            [[lab for _, lab in s] for _, s in sentences],
            [t for t, _ in rows],
            np.array([LABELS.index(lab) for _, lab in rows], dtype=np.intp))


@settings(max_examples=300, deadline=None)
@given(videos=_VIDEOS, width=st.integers(1, 5))
@example(videos=_ACROSS_ENDS, width=1)
def test_flat_repair_and_term_counts_match_the_per_sentence_walk(videos,
                                                                 width):
    # decode_in_batches scatters each batch's ids back to token order and
    # repairs the whole call at once; it equals repair_bio on each
    # sentence, and term_counts on its output equals counting span forms
    # sentence by sentence.
    video_ids, sentences, names, tokens, raw = _flat(videos)
    lengths = [len(s) for s in sentences]
    labels = decode_in_batches(lengths, lambda at, real: raw[at], width)
    repaired = [repair_bio(labs) for labs in names]
    assert tag_by_sentence(lambda t, n: labels, sentences) == repaired
    assert term_counts(tokens, lengths, labels, video_ids) \
        == _unique_term_counts(video_ids, sentences, repaired)


# ------------------------------------------------------------ CoNLL io


def _write_tagged(path, tagged, video_ids=None):
    write_conll(path, [t for s in tagged for t in s.tokens],
                [lab for s in tagged for lab in s.labels],
                [len(s.tokens) for s in tagged], video_ids=video_ids)


def test_conll_roundtrip(tmp_path, small_dict):
    tagged = _project(
        small_dict,
        [["colon", "cancer", "facts"], ["schedule", "your", "colonoscopy"]],
    )
    path = tmp_path / "corpus.conll"
    _write_tagged(path, tagged, video_ids=["v1", "v2"])
    again, vids = read_tagged(path)
    assert again == tagged
    assert vids == ["v1", "v2"]


def test_conll_roundtrip_without_ids(tmp_path, small_dict):
    tagged = _project(small_dict, [["polyp"]])
    path = tmp_path / "c.conll"
    _write_tagged(path, tagged)
    again, vids = read_tagged(path)
    assert again == tagged
    assert vids == [None]


def _reference_conll(tokens, labels, lengths, video_ids):
    """CoNLL text written row by row: the writer's byte-for-byte oracle."""
    out, pos = [], 0
    for k, n in enumerate(lengths):
        if video_ids is not None:
            out.append(f"# video_id = {video_ids[k]}\n")
        for i in range(pos, pos + n):
            out.append(f"{tokens[i]}\t{labels[i]}\n")
        out.append("\n")
        pos += n
    return "".join(out)


@pytest.mark.parametrize("n_sentences", [511, 512, 513])
@pytest.mark.parametrize("with_ids", [False, True])
def test_chunked_write_conll_matches_the_row_by_row_writer(
        tmp_path, n_sentences, with_ids):
    # The writer joins 512 sentences per write(); around that chunk size
    # its bytes equal those of a writer that writes one row at a time,
    # and read_conll gives the sentences back.
    rng = np.random.default_rng(n_sentences)
    words = ["colon", "cancer", "polyp", "the", "doctor"]
    tagged = []
    for k in range(n_sentences):
        labels = repair_bio([LABELS[i] for i in
                             rng.integers(0, 3, size=1 + k % 7)])
        tagged.append(TaggedSentence(
            tuple(words[i] for i in rng.integers(0, 5, size=len(labels))),
            tuple(labels)))
    video_ids = [f"v{k // 3}" for k in range(n_sentences)] if with_ids \
        else None
    path = tmp_path / "c.conll"
    _write_tagged(path, tagged, video_ids)
    assert path.read_bytes().decode("utf-8") == _reference_conll(
        [t for s in tagged for t in s.tokens],
        [lab for s in tagged for lab in s.labels],
        [len(s.tokens) for s in tagged], video_ids)
    assert read_tagged(path) == (tagged, video_ids or [None] * n_sentences)
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


def _read_outcome(read, path):
    try:
        return read(path)
    except DictionaryFormatError as exc:
        return str(exc)


# CoNLL lines: rows with every label and an unknown one, comments with and
# without a video id, blank and whitespace-only lines, and bad rows.
_CONLL_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from(["polyp", "colon", "the"]),
              st.sampled_from([*LABELS, "X"])).map("\t".join),
    st.sampled_from(["", "", " ", "\t", "# video_id = v1",
                     "# video_id = v2", "# note", "c", "a\tb\tc"])),
    max_size=24)


@settings(max_examples=400, deadline=None)
@given(lines=_CONLL_LINES)
@example(lines=["a\tB-MED", "# note", "b\tI-MED", "", "c\tI-MED"])
def test_read_conll_matches_the_per_sentence_reader(tmp_path_factory, lines):
    # The flat reader checks each row as it comes; the per-sentence reader
    # checked each sentence when it ended. Both read the same sentences
    # and ids, or both name the same first bad line.
    path = tmp_path_factory.mktemp("conll") / "c.conll"
    path.write_text("\n".join(lines) + "\n")
    assert _read_outcome(read_tagged, path) \
        == _read_outcome(ref_read_conll, path)


@pytest.mark.parametrize("tokens, labels, ids", [
    (["polyp"], [], None),
    (["polyp"], [B_MED, O], None),
    (["polyp"], [B_MED], ["v1", "v2"]),
], ids=["labels", "tokens", "ids"])
def test_write_conll_refuses_unaligned_sequences(tmp_path, tokens, labels,
                                                 ids):
    path = tmp_path / "c.conll"
    path.write_text("old\tO\n")
    with pytest.raises(ValueError):
        write_conll(path, tokens, labels, [1], video_ids=ids)
    assert path.read_text() == "old\tO\n"


def test_project_labels_refuses_lengths_that_do_not_add_up(small_dict):
    for lengths in ([1], [2, 1], []):
        with pytest.raises(ValueError, match="lengths add up"):
            project_labels(small_dict, ["colon", "polyp"], lengths)


def test_projection_random_loop_well_formed(small_dict):
    rng = np.random.default_rng(23)
    vocab = ["colon", "cancer", "polyp", "colonoscopy", "bowel",
             "preparation", "the", "advice", "water", "doctor"]
    for _ in range(300):
        n = int(rng.integers(1, 12))
        sent = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
        tagged, = _project(small_dict, [sent])
        # Construction enforces the BIO invariant; spot-check projection
        # marks every exact single-word dictionary hit.
        for tok, lab in zip(tagged.tokens, tagged.labels):
            if tok in ("colonoscopy", "polyp") and lab == O:
                raise AssertionError(f"missed dictionary word {tok}")
