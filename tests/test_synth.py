"""Synthetic corpus generator: determinism, balance, loadability."""

import json
import warnings

from vidtriage import synth
from vidtriage.corpus import load_corpus
from vidtriage.data_files import data_path
from vidtriage.medterm import load_dictionary, project_labels
from vidtriage.synth import SynthConfig, write_synthetic_corpus
from vidtriage.textfeat import tokenize

CORPUS_FILES = ("videos.jsonl", "transcripts.jsonl", "ocr.jsonl", "labels.jsonl")


def _generate(tmp_path, seed=7, n_videos=12, sentences_per_video=4):
    out = tmp_path / f"synth{seed}"
    summary = write_synthetic_corpus(
        out, SynthConfig(seed=seed, n_videos=n_videos,
                         sentences_per_video=sentences_per_video)
    )
    return out, summary


def test_summary_counts(tmp_path):
    out, summary = _generate(tmp_path, n_videos=15, sentences_per_video=6)
    assert summary.n_videos == 15
    assert summary.n_sentences == 15 * 6
    assert summary.n_label_rows == 15 * 3
    assert summary.n_dictionary_terms > 0
    assert summary.one_line() == (
        "15 videos, 90 description sentences, 45 label rows, "
        f"{summary.n_dictionary_terms} dictionary terms"
    )
    for name in CORPUS_FILES + ("dictionary.tsv", "search_results.jsonl"):
        assert (out / name).is_file(), name


def test_same_seed_byte_identical(tmp_path):
    a, _ = _generate(tmp_path / "a", seed=19)
    b, _ = _generate(tmp_path / "b", seed=19)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_differs(tmp_path):
    a, _ = _generate(tmp_path / "a", seed=1)
    b, _ = _generate(tmp_path / "b", seed=2)
    assert (a / "videos.jsonl").read_bytes() != (b / "videos.jsonl").read_bytes()


def test_corpus_loads_and_labels_balanced(tmp_path):
    out, _ = _generate(tmp_path, seed=23, n_videos=20)
    store = load_corpus(*(out / name for name in CORPUS_FILES))
    assert len(store.videos) == 20
    # A few videos intentionally lack transcripts or OCR; the loader
    # must accept those gaps without integrity errors.
    assert 0 < len(store.transcripts) <= 20
    assert 0 < len(store.ocr) <= 20
    # Three annotators per video; load_corpus consolidates to one
    # consensus row each, and both classes must survive per target so
    # downstream classifier fits never see a single-class vector.
    assert store.summary.n_label_rows == 60
    assert len(store.labels) == 20
    for field in ("medical_info_high", "understandable", "recommended"):
        values = {getattr(lab, field) for lab in store.labels.values()}
        assert values == {0, 1}, field


def test_dictionary_loads_clean(tmp_path):
    out, summary = _generate(tmp_path, seed=31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dictionary = load_dictionary(out / "dictionary.tsv")
    lines = (out / "dictionary.tsv").read_text().splitlines()
    assert len(lines) == summary.n_dictionary_terms
    # Multi-word source terms add word keys on top of their phrase key.
    assert len(dictionary.entries) >= summary.n_dictionary_terms


def test_descriptions_yield_medical_spans(tmp_path):
    out, _ = _generate(tmp_path, seed=43, n_videos=10, sentences_per_video=5)
    store = load_corpus(*(out / name for name in CORPUS_FILES))
    dictionary = load_dictionary(out / "dictionary.tsv")
    n_b = 0
    n_sentences = 0
    for video in store.videos.values():
        tok = tokenize(video.description)
        labels = project_labels(dictionary, tok.tokens,
                                [b - a for a, b in tok.sentences])
        n_sentences += tok.sentence_count
        n_b += labels.count("B-MED")
    assert n_sentences == 50
    # Every video description should carry trainable signal.
    assert n_b >= n_sentences


def test_search_results_use_shipped_keywords(tmp_path):
    import json

    out, _ = _generate(tmp_path, seed=5)
    shipped = {
        line.strip().lower()
        for line in data_path("keywords.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }
    rows = [
        json.loads(line)
        for line in (out / "search_results.jsonl").read_text().splitlines()
    ]
    assert rows
    video_ids = set()
    for row in rows:
        assert row["keyword"].lower() in shipped
        assert isinstance(row["video_ids"], list)
        video_ids.update(row["video_ids"])
    store = load_corpus(*(out / name for name in CORPUS_FILES))
    assert video_ids
    assert video_ids <= set(store.videos)


def test_keyword_lines_end_only_at_newline(tmp_path, monkeypatch):
    keywords = tmp_path / "keywords.txt"
    keywords.write_bytes("# list\r\nfirst\x85kw\r\nsecond\u2028kw\r\n"
                         "third\r\n".encode("utf-8"))
    monkeypatch.setattr(synth, "data_path", lambda name: keywords)
    write_synthetic_corpus(tmp_path / "c", SynthConfig(seed=1, n_videos=7))
    rows = (tmp_path / "c" / "search_results.jsonl").read_text(
        encoding="utf-8").split("\n")
    assert [json.loads(row)["keyword"] for row in rows if row] == [
        "first\x85kw", "second\u2028kw", "third"]
