"""Tagger model files: save/load round trips and format validation."""

import io
import json

import numpy as np
import pytest

from vidtriage.artifacts import encode_array
from vidtriage.seqtag import (
    ARCH_BLSTM,
    ARCH_CRF,
    ModelFormatError,
    TrainConfig,
    load_model,
    save_model,
    tag_sentences,
    tag_with_blstm,
    tag_with_crf,
    train_blstm,
    train_crf,
)
from vidtriage.seqtag.blstm import PARAM_NAMES

from sentences import TaggedSentence, flat

B, I, O = "B-MED", "I-MED", "O"

CORPUS = [
    TaggedSentence(tokens=("polyp", "facts"), labels=(B, O)),
    TaggedSentence(tokens=("drink", "water", "first"), labels=(O, O, O)),
    TaggedSentence(tokens=("colitis", "hurts"), labels=(B, O)),
    TaggedSentence(tokens=("rest", "at", "home"), labels=(O, O, O)),
    TaggedSentence(tokens=("adenoma", "found"), labels=(B, O)),
    TaggedSentence(tokens=("call", "your", "doctor"), labels=(O, O, O)),
]


def test_crf_roundtrip(tmp_path):
    config = TrainConfig(seed=2, epochs=4, batch_size=4)
    params, _ = train_crf(*flat(CORPUS), config)
    path = tmp_path / "crf.json"
    save_model(path, params, config, train_meta={"seed": 2})
    loaded = load_model(path)
    assert loaded.arch == ARCH_CRF
    assert loaded.train_meta["seed"] == 2
    assert loaded.config.epochs == 4
    tokens, lengths = ["polyp", "water", "home", "colitis"], [2, 2]
    np.testing.assert_array_equal(tag_sentences(loaded, tokens, lengths),
                                  tag_with_crf(params, tokens, lengths))
    np.testing.assert_array_equal(loaded.params.w_emit, params.w_emit)


def test_blstm_roundtrip(tmp_path):
    config = TrainConfig(seed=2, epochs=4, batch_size=4, d_emb=8, d_hid=8)
    params, vocab, _ = train_blstm(*flat(CORPUS), config)
    path = tmp_path / "blstm.json"
    save_model(path, params, config, vocab=vocab,
               train_meta={"seed": 2})
    loaded = load_model(path)
    assert loaded.arch == ARCH_BLSTM
    tokens, lengths = ["polyp", "water", "unseen", "colitis"], [2, 2]
    np.testing.assert_array_equal(
        tag_sentences(loaded, tokens, lengths),
        tag_with_blstm(params, vocab, tokens, lengths))
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(getattr(loaded.params, name),
                                      getattr(params, name))


def test_save_is_deterministic(tmp_path):
    config = TrainConfig(seed=2, epochs=2, batch_size=4)
    params, _ = train_crf(*flat(CORPUS), config)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, params, config)
    save_model(b, params, config)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("arch", [ARCH_CRF, ARCH_BLSTM])
def test_saved_model_is_one_line_of_sorted_json(tmp_path, arch):
    # The file is the C encoder's text of the document, and json.dump,
    # which runs the pure-Python encoder, writes the same text.
    config = TrainConfig(seed=2, epochs=2, batch_size=4, d_emb=4, d_hid=3)
    if arch == ARCH_CRF:
        params, _ = train_crf(*flat(CORPUS), config)
        vocab = None
    else:
        params, vocab, _ = train_blstm(*flat(CORPUS), config)
    path = tmp_path / "model.json"
    save_model(path, params, config, vocab=vocab,
               train_meta={"note": "caf\u00e9 \u2028", "tiny": 5e-324})
    data = path.read_bytes()
    doc = json.loads(data)
    assert data == (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    buf = io.StringIO()
    json.dump(doc, buf, sort_keys=True)
    assert data.decode("utf-8") == buf.getvalue() + "\n"


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        load_model(path)

    path.write_text(json.dumps({"format": "something-else",
                                "format_version": 1}))
    with pytest.raises(ModelFormatError):
        load_model(path)

    config = TrainConfig(seed=2, epochs=2, batch_size=4)
    params, _ = train_crf(*flat(CORPUS), config)
    good = tmp_path / "good.json"
    save_model(good, params, config)
    doc = json.loads(good.read_text())

    doc_bad = dict(doc)
    doc_bad["format_version"] = 999
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ModelFormatError):
        load_model(path)

    doc_bad = dict(doc)
    doc_bad["arch"] = "transformer"
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ModelFormatError):
        load_model(path)

    doc_bad = json.loads(good.read_text())
    doc_bad["arrays"]["w_trans"] = encode_array(np.zeros((2, 2)))
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ModelFormatError,
                       match=r"w_trans: shape \[2, 2\], expected \[3, 3\]"):
        load_model(path)
