"""Artifact I/O: exact round trips, atomic replacement, one writer module."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import vidtriage.classify as clf
from vidtriage.artifacts import read_tsv, write_tsv
from vidtriage.medterm import (
    LABELS, TaggedSentence, load_dictionary, read_conll, write_conll,
)
from vidtriage.seqtag import (
    ARCH_BLSTM, ARCH_CRF, BlstmParams, CrfParams, TrainConfig, load_model,
    repair_bio, save_model,
)
from vidtriage.seqtag.blstm import N_LABELS, PARAM_NAMES
from vidtriage.seqtag.vocab import PAD_TOKEN, UNK_TOKEN, Vocab
from vidtriage.textfeat import load_lexicon

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Table cells: any text without the tab and line-break characters.
CELL = st.text(st.characters(blacklist_characters="\t\n\r",
                             blacklist_categories=("Cs",)), max_size=6)
# CoNLL tokens: visible characters, never a comment marker.
TOKEN = st.text(st.characters(whitelist_categories=("L", "N", "P", "S")),
                min_size=1, max_size=6).filter(lambda t: not t.startswith("#"))
JSON_META = st.dictionaries(
    st.text(max_size=4), st.none() | st.booleans() | st.integers() | FINITE
    | st.text(max_size=4), max_size=3)


def _same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_tsv_roundtrip(tmp_path_factory, data):
    width = data.draw(st.integers(1, 4))
    header = data.draw(st.lists(CELL.filter(str.strip), min_size=width,
                                max_size=width))
    rows = data.draw(st.lists(
        st.lists(CELL, min_size=width, max_size=width)
        .filter(lambda row: "".join(row).strip()), max_size=5))
    path = tmp_path_factory.mktemp("tsv") / "t.tsv"
    write_tsv(path, header, rows)
    assert read_tsv(path, header, lambda cells: cells) == rows


@settings(max_examples=50, deadline=None)
@given(sentences=st.lists(
    st.lists(st.tuples(TOKEN, st.sampled_from(LABELS)), min_size=1,
             max_size=4), min_size=1, max_size=4),
       with_ids=st.booleans(),
       id_text=st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True))
def test_conll_roundtrip(tmp_path_factory, sentences, with_ids, id_text):
    tagged = [TaggedSentence(tokens=tuple(t for t, _ in s),
                             labels=tuple(repair_bio([lab for _, lab in s])))
              for s in sentences]
    ids = ([f"{id_text}{i // 2}" for i in range(len(tagged))]
           if with_ids else None)
    path = tmp_path_factory.mktemp("conll") / "c.conll"
    write_conll(path, [s.tokens for s in tagged], [s.labels for s in tagged],
                video_ids=ids)
    again, again_ids = read_conll(path)
    assert again == tagged
    assert again_ids == (ids or [None] * len(tagged))


# Every text reader, on lines that hold a raw U+0085, U+2028 and "\r" and
# end in CRLF: only "\n" ends a line, and a "\r" just before it goes.
@pytest.mark.parametrize("text, read, expected", [
    ("x\ty\r\na\x85b\tc\u2028d\re\r\n",
     lambda path: read_tsv(path, ("x", "y"), list),
     [["a\x85b", "c\u2028d\re"]]),
    ("in\x85addition\r\nfirst\u2028of all\r\n",
     lambda path: load_lexicon(path).entries, {"in addition", "first of all"}),
    ("colon\x85cancer\tneop\r\nlung\u2028tumor\tneop\r\n",
     lambda path: set(load_dictionary(path).entries),
     {"colon", "cancer", "colon cancer", "lung", "tumor", "lung tumor"}),
    ("# video_id = v1\r\na\x85b\tB-MED\r\nc\u2028d\tI-MED\r\n\r\n",
     read_conll,
     ([TaggedSentence(("a\x85b", "c\u2028d"), ("B-MED", "I-MED"))], ["v1"])),
], ids=["tsv", "lexicon", "dictionary", "conll"])
def test_text_readers_end_lines_only_at_newline(tmp_path, text, read,
                                                expected):
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("utf-8"))
    assert read(path) == expected


# Feature-table values by column kind: integral floats up to 1e16 and any
# finite float, signed only for readability; a label may be missing.
_INTEGRAL = st.integers(0, 10**16).map(float)
_COUNT = _INTEGRAL | st.floats(min_value=0.0, allow_infinity=False)
_SIGNED = _INTEGRAL | _INTEGRAL.map(lambda v: -v) | FINITE


def _feature_values(name):
    if name in clf.TARGET_FIELDS.values():
        return st.sampled_from([0.0, 1.0, float("nan")])
    if name in clf.BINARY_FEATURES:
        return st.sampled_from([0.0, 1.0])
    if name.endswith("_confidence"):
        return st.floats(0.0, 1.0)
    return _SIGNED if name.startswith("readability") else _COUNT


@settings(max_examples=50, deadline=None)
@given(data=st.data(), header=st.sampled_from([
    clf.FEATURES_HEADER, ("video_id", *clf.DOC_FEATURE_NAMES)]))
def test_feature_table_roundtrip(tmp_path_factory, data, header):
    ids = data.draw(st.lists(CELL.filter(str.strip), max_size=5))
    rows = [[data.draw(_feature_values(name)) for name in header[1:]]
            for _ in ids]
    table = clf.FeatureTable(tuple(ids), header[1:],
                             np.reshape(rows, (len(ids), len(header) - 1)))
    first, second = (tmp_path_factory.mktemp("features") / "f.tsv"
                     for _ in range(2))
    clf.write_features_tsv(table, first)
    again = clf.read_features_tsv(first, header)
    clf.write_features_tsv(again, second)
    assert (again.ids, again.columns) == (table.ids, table.columns)
    np.testing.assert_array_equal(again.values, table.values)
    _same_bits(clf.read_features_tsv(second, header).values, again.values)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1), meta=JSON_META)
def test_crf_model_roundtrip(tmp_path_factory, data, seed, meta):
    features = data.draw(st.lists(st.text(max_size=6), unique=True,
                                  max_size=5))
    n = N_LABELS
    params = CrfParams(
        {f: i for i, f in enumerate(features)},
        data.draw(hnp.arrays(float, (len(features), n), elements=FINITE)),
        data.draw(hnp.arrays(float, (n, n), elements=FINITE)),
        data.draw(hnp.arrays(float, (n,), elements=FINITE)),
    )
    config = TrainConfig(seed=seed)
    path = tmp_path_factory.mktemp("crf") / "m.json"
    save_model(path, params, config, train_meta=meta)
    loaded = load_model(path)
    assert (loaded.arch, loaded.config, loaded.train_meta) \
        == (ARCH_CRF, config, meta)
    assert loaded.params.feature_index == params.feature_index
    for a, b in zip(loaded.params.arrays(), params.arrays()):
        _same_bits(a, b)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d_emb=st.integers(1, 3), d_hid=st.integers(1, 3),
       meta=JSON_META)
def test_blstm_model_roundtrip(tmp_path_factory, data, d_emb, d_hid, meta):
    words = data.draw(st.lists(st.text(max_size=6), unique=True, max_size=4)
                      .filter(lambda w: UNK_TOKEN not in w
                              and PAD_TOKEN not in w))
    vocab = Vocab(id_to_word=(UNK_TOKEN, PAD_TOKEN, *words))
    h = d_hid
    shapes = [(vocab.size, d_emb), (4 * h, d_emb + h), (4 * h,),
              (4 * h, d_emb + h), (4 * h,), (N_LABELS, 2 * h), (N_LABELS,)]
    params = BlstmParams(*(
        data.draw(hnp.arrays(float, shape, elements=FINITE))
        for shape in shapes
    ))
    config = TrainConfig(seed=1, d_emb=d_emb, d_hid=d_hid)
    path = tmp_path_factory.mktemp("blstm") / "m.json"
    save_model(path, params, config, vocab=vocab, train_meta=meta)
    loaded = load_model(path)
    assert (loaded.arch, loaded.config, loaded.vocab, loaded.train_meta) \
        == (ARCH_BLSTM, config, vocab, meta)
    for name in PARAM_NAMES:
        _same_bits(getattr(loaded.params, name), getattr(params, name))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), meta=JSON_META)
def test_classifier_model_roundtrip(tmp_path_factory, data, meta):
    target = data.draw(st.sampled_from(clf.TARGETS))
    features = tuple(data.draw(st.lists(
        st.sampled_from(clf.FEATURE_NAMES), unique=True, max_size=6)))
    k = len(features)

    def vector(size):
        return data.draw(hnp.arrays(float, (size,), elements=FINITE))

    model = clf.LrModel(
        spec=clf.FeatureSpec(target, features),
        scaler=clf.Scaler(features, tuple(vector(k).tolist()),
                          tuple(vector(k).tolist())),
        intercept=data.draw(FINITE), coefficients=vector(k),
        l2=data.draw(FINITE), train_meta=meta,
        standard_errors=vector(k + 1), p_values=vector(k + 1),
    )
    path = tmp_path_factory.mktemp("clf") / "m.json"
    clf.save_lr_model(path, model)
    again = clf.load_lr_model(path)
    assert (again.spec, again.scaler, again.train_meta) \
        == (model.spec, model.scaler, model.train_meta)
    assert np.float64(again.intercept).tobytes() \
        == np.float64(model.intercept).tobytes()
    assert np.float64(again.l2).tobytes() == np.float64(model.l2).tobytes()
    for name in ("coefficients", "standard_errors", "p_values"):
        _same_bits(getattr(again, name), getattr(model, name))


def test_interrupted_write_keeps_old_file(tmp_path):
    path = tmp_path / "table.tsv"
    write_tsv(path, ("a", "b"), [("1", "2")])
    before = path.read_bytes()

    def rows():
        yield ("3", "4")
        yield ("5", "6")
        raise RuntimeError("stage died mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        write_tsv(path, ("a", "b"), rows())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_creates_parent_and_leaves_no_temp(tmp_path):
    path = tmp_path / "deep" / "er" / "table.tsv"
    write_tsv(path, ("a",), [("1",)])
    write_tsv(path, ("a",), [("2",)])
    assert path.read_text() == "a\n2\n"
    assert list(path.parent.iterdir()) == [path]


# open(...) with a mode that writes, and the pathlib writers.
_WRITE_CALL = re.compile(
    r"""\bopen\([^)]*["'](?:[wxa]|r\+)[bt+]?["']|\.write_(?:text|bytes)\(""")


def test_only_artifacts_module_writes_files():
    src = Path(__file__).resolve().parent.parent / "src"
    writer = src / "vidtriage" / "artifacts.py"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _WRITE_CALL.finditer(text):
            if path != writer:
                line = text.count("\n", 0, match.start()) + 1
                offenders.append(f"{path.relative_to(src)}:{line}")
    assert offenders == []
    assert _WRITE_CALL.search(writer.read_text(encoding="utf-8"))


def _opens_a_file(node):
    """Whether ``node`` calls ``open`` or a ``read_text``, ``read_bytes``
    or ``open`` method."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "open"
        or isinstance(node.func, ast.Attribute)
        and node.func.attr in ("open", "read_text", "read_bytes"))


def test_only_artifacts_module_reads_files():
    # Every reader decodes through artifacts.read_text, so a bad byte is
    # reported as file:line, never as a bare codec error.
    src = Path(__file__).resolve().parent.parent / "src" / "vidtriage"
    calls = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [ast.unparse(n.func) for n in ast.walk(tree)
                 if _opens_a_file(n)]
        if found:
            calls[path.relative_to(src).as_posix()] = sorted(found)
    assert calls == {"artifacts.py": ["Path(path).read_bytes", "open"]}
