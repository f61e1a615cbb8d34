"""Command-line pipeline: exit codes, ingest, config handling."""

import ast
import base64
import itertools
import json
import logging
import math
import os
import re
import shutil
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import criterion8
import vidtriage
import vidtriage.classify as clf
from vidtriage import cli
from vidtriage.cli import main
from vidtriage.classify import DOC_FEATURE_NAMES
from vidtriage.data_files import data_path
from vidtriage.medterm import read_conll, unique_term_counts
from vidtriage.seqtag import blstm, crf, load_model, tag_sentences
from vidtriage.synth import SynthConfig, write_synthetic_corpus
from vidtriage.textfeat import tokenize

FIXDIR = "tests/fixtures/corpus"


def _ingest_args(corpus_paths, work):
    return [
        "ingest",
        "--videos", str(corpus_paths["videos"]),
        "--transcripts", str(corpus_paths["transcripts"]),
        "--ocr", str(corpus_paths["ocr"]),
        "--labels", str(corpus_paths["labels"]),
        "--work-dir", str(work),
    ]


def test_unknown_command_exits_64(capsys):
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


# A command and options that only duplicated what the defaults or
# another command do, the one option that wrote outside the work
# directory, and a projection mode that nothing ran.
@pytest.mark.parametrize("argv", [
    ["eval-clf"], ["classify", "--target", "all"],
    ["eval-tagger", "--arch", "crf"], ["eval", "--kind", "tagger"],
    ["report", "--table", "2", "--output", "x"],
    ["build-ner-corpus", "--mode", "word"],
], ids=["eval-clf", "classify-target", "eval-tagger-arch", "eval-kind-tagger",
        "report-output", "build-ner-corpus-mode"])
def test_removed_command_and_options_exit_64(capsys, argv):
    assert main(argv) == 64
    capsys.readouterr()


def test_no_command_exits_64(capsys):
    assert main([]) == 64
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("ingest", "featurize", "train-tagger", "report"):
        assert command in out


def test_ingest_fixture_prints_summary(tmp_path, corpus_paths, capsys):
    before = {k: p.read_bytes() for k, p in corpus_paths.items()}
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    out = capsys.readouterr().out
    assert "5 videos, 5 transcripts, 5 ocr, 15 labels" in out
    for name in ("videos", "transcripts", "ocr", "labels"):
        assert (work / "corpus" / f"{name}.jsonl").is_file()
    # Inputs must never be mutated.
    for k, p in corpus_paths.items():
        assert p.read_bytes() == before[k], k


def test_ingest_missing_file_exits_1(tmp_path, corpus_paths, caplog):
    args = _ingest_args(corpus_paths, tmp_path / "work")
    args[args.index("--videos") + 1] = str(tmp_path / "nope.jsonl")
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert "nope.jsonl" in caplog.text


def test_ingest_keywords_validation_ok(tmp_path, corpus_paths, fixture_dir,
                                       caplog, capsys):
    args = _ingest_args(corpus_paths, tmp_path / "work")
    args += ["--keywords", str(fixture_dir / "corpus" / "search_results.jsonl")]
    with caplog.at_level(logging.INFO):
        assert main(args) == 0
    capsys.readouterr()
    assert "validated 3 search-result rows" in caplog.text


def test_ingest_keywords_rejects_unknown(tmp_path, corpus_paths, caplog):
    bad = tmp_path / "search.jsonl"
    bad.write_text(json.dumps(
        {"keyword": "quantum computing", "video_ids": ["vid001"]}
    ) + "\n")
    args = _ingest_args(corpus_paths, tmp_path / "work")
    args += ["--keywords", str(bad)]
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert "not in the keyword list" in caplog.text


@pytest.mark.parametrize("ids, message", [
    (["vid001", "nope"], "unknown video id 'nope'"),
    ([7], "unknown video id 7"),
], ids=["absent", "not-a-string"])
def test_ingest_keywords_rejects_unknown_video_id(tmp_path, corpus_paths,
                                                  caplog, ids, message):
    bad = tmp_path / "search.jsonl"
    bad.write_text("".join(
        json.dumps({"keyword": "colonoscopy", "video_ids": v}) + "\n"
        for v in (["vid002"], ids)))
    args = _ingest_args(corpus_paths, tmp_path / "work")
    args += ["--keywords", str(bad)]
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert f"{bad}:2: {message}" in caplog.text


def test_ingest_rejects_video_id_with_whitespace(tmp_path, corpus_paths,
                                                 caplog):
    # A CoNLL comment or a TSV cell would cut "vid 2" down to "vid".
    videos = tmp_path / "videos.jsonl"
    lines = corpus_paths["videos"].read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "video_id": "vid 2"})
    videos.write_text("\n".join(lines) + "\n")
    args = _ingest_args({**corpus_paths, "videos": videos}, tmp_path / "work")
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert f"{videos}:2: video_id must hold no whitespace" in caplog.text
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("key, value", [
    ("title", 5), ("description", ["x"]), ("caption_available", "false"),
])
def test_null_text_reads_empty_and_wrong_type_exits_1(
        tmp_path, corpus_paths, caplog, capsys, key, value):
    videos = [json.loads(line) for line
              in corpus_paths["videos"].read_text().splitlines()]
    videos[1]["title"] = None
    paths = dict(corpus_paths, videos=tmp_path / "videos.jsonl")

    def ingest():
        paths["videos"].write_text(
            "".join(json.dumps(doc) + "\n" for doc in videos))
        return main(_ingest_args(paths, tmp_path / "work"))

    assert ingest() == 0
    assert main(["featurize", "--work-dir", str(tmp_path / "work")]) == 0
    capsys.readouterr()
    table = clf.read_features_tsv(
        tmp_path / "work" / "features" / "text_features.tsv",
        ("video_id", *DOC_FEATURE_NAMES))
    has_title = table.select(["has_title"])[:, 0]
    assert has_title.tolist() == [
        int(bool(doc.get("title"))) for doc in videos]
    assert has_title[1] == 0
    videos[1][key] = value
    with caplog.at_level(logging.ERROR):
        assert ingest() == 1
    assert f"videos.jsonl:2: {key} must be a " in caplog.text


def test_ingest_api_response(tmp_path, fixture_dir, capsys):
    def rows(path, records):
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )

    rows(tmp_path / "transcripts.jsonl", [
        {"video_id": v, "segments": [{"text": "The colon is examined.",
                                      "confidence": 0.9}]}
        for v in ("api001", "api002")
    ])
    rows(tmp_path / "ocr.jsonl", [
        {"video_id": v, "blocks": [], "shot_count": 2,
         "shot_change_confidence": 0.5}
        for v in ("api001", "api002")
    ])
    rows(tmp_path / "labels.jsonl", [
        {"video_id": v, "annotator_id": "a1", "medical_info_high": 1,
         "understandable": 0, "recommended": 1}
        for v in ("api001", "api002")
    ])
    work = tmp_path / "work"
    rc = main([
        "ingest",
        "--api-response", str(fixture_dir / "api_response.json"),
        "--transcripts", str(tmp_path / "transcripts.jsonl"),
        "--ocr", str(tmp_path / "ocr.jsonl"),
        "--labels", str(tmp_path / "labels.jsonl"),
        "--work-dir", str(work),
    ])
    assert rc == 0
    assert "2 videos" in capsys.readouterr().out
    lines = (work / "corpus" / "videos.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["video_id"] for d in docs] == ["api001", "api002"]
    assert docs[0]["duration_s"] == 208
    assert docs[0]["caption_available"] is True
    # Absent API statistics stay absent rather than serializing as null.
    assert docs[1].get("like_count") is None


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", [
    "no-transcripts", "foreign-transcripts", "no-items",
])
def test_failed_api_ingest_leaves_work_dir_untouched(
        tmp_path, corpus_paths, fixture_dir, caplog, capsys, case):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    capsys.readouterr()
    before = _tree(work)
    api = fixture_dir / "api_response.json"
    if case == "no-items":
        api = tmp_path / "api.json"
        api.write_text('{"kind": "videoListResponse"}\n')
    args = _ingest_args(corpus_paths, work)
    args[args.index("--videos"):args.index("--videos") + 2] = \
        ["--api-response", str(api)]
    if case == "no-transcripts":
        i = args.index("--transcripts")
        del args[i:i + 2]
        message = "ingest needs --transcripts"
    elif case == "foreign-transcripts":
        # The fixture transcripts name vid001..vid005, none in the API file.
        message = f"ids not present in {api}"
    else:
        message = f"{api}: API response has no 'items' list"
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert message in caplog.text
    assert _tree(work) == before


def test_ingest_refuses_videos_with_api_response(tmp_path, corpus_paths,
                                                fixture_dir, capsys):
    work = tmp_path / "work"
    args = [*_ingest_args(corpus_paths, work),
            "--api-response", str(fixture_dir / "api_response.json")]
    assert main(args) == 64
    assert ("argument --api-response: not allowed with argument --videos"
            in capsys.readouterr().err)
    assert not work.exists()


@pytest.mark.parametrize("flag", [
    "--videos", "--keywords", "--config", "--dictionary",
])
def test_directory_as_input_file_exits_1(tmp_path, corpus_paths, caplog,
                                         capsys, flag):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    capsys.readouterr()
    folder = tmp_path / "folder"
    folder.mkdir()
    if flag in ("--videos", "--keywords"):
        args = _ingest_args(corpus_paths, work)
    else:
        args = ["build-ner-corpus", "--work-dir", str(work)]
    if flag in args:
        args[args.index(flag) + 1] = str(folder)
    else:
        args += [flag, str(folder)]
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert str(folder) in caplog.text
    assert "internal error" not in caplog.text


def test_train_tagger_requires_seed(caplog):
    with caplog.at_level(logging.ERROR):
        assert main(["train-tagger", "--arch", "crf"]) == 1
    assert "require a seed" in caplog.text


def test_featurize_writes_tsv(tmp_path, corpus_paths, capsys):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    assert main(["featurize", "--work-dir", str(work)]) == 0
    capsys.readouterr()
    lines = (work / "features" / "text_features.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "video_id"
    assert tuple(header[1:]) == DOC_FEATURE_NAMES
    assert len(lines) == 1 + 5


def _ingested_synthetic(root, seed):
    corpus = root / "corpus"
    write_synthetic_corpus(
        corpus, SynthConfig(seed=seed, n_videos=20, sentences_per_video=4))
    paths = {name: corpus / f"{name}.jsonl"
             for name in ("videos", "transcripts", "ocr", "labels")}
    work = root / "work"
    assert main(_ingest_args(paths, work)) == 0
    return work


def test_featurize_keeps_no_state_between_calls(tmp_path, capsys):
    work_a = _ingested_synthetic(tmp_path / "a", seed=3)
    work_b = _ingested_synthetic(tmp_path / "b", seed=4)
    written = []
    for work in (work_a, work_b, work_a):
        assert main(["featurize", "--work-dir", str(work)]) == 0
        written.append((work / "features" / "text_features.tsv").read_bytes())
    capsys.readouterr()
    # A fresh interpreter has built no index or memo table yet.
    src = Path(vidtriage.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-m", "vidtriage.cli",
         "featurize", "--work-dir", str(work_a)],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        capture_output=True, timeout=120)
    fresh = (work_a / "features" / "text_features.tsv").read_bytes()
    assert written[0] == fresh
    assert written[2] == fresh
    assert written[1] != fresh


def test_build_ner_corpus(tmp_path, corpus_paths, capsys):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text(
        "colonoscopy\tdiap\ncolon cancer\tneop\npolyp\tpatf\n"
        "bowel preparation\ttopp\n"
    )
    rc = main(["build-ner-corpus", "--work-dir", str(work),
               "--dictionary", str(dictionary)])
    assert rc == 0
    capsys.readouterr()
    conll = (work / "ner" / "corpus.conll").read_text()
    assert "B-MED" in conll
    assert "colonoscopy\tB-MED" in conll


@pytest.mark.parametrize("arch", ["crf", "blstm"])
def test_tag_writes_zero_for_video_without_sentences(tmp_path, capsys, arch):
    corpus = tmp_path / "corpus"
    write_synthetic_corpus(
        corpus, SynthConfig(seed=5, n_videos=20, sentences_per_video=5))
    videos = [json.loads(line)
              for line in (corpus / "videos.jsonl").read_text().splitlines()]
    empty = videos[4]["video_id"]
    videos[4]["description"] = ""
    (corpus / "videos.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in videos))
    work = tmp_path / "work"
    paths = {name: corpus / f"{name}.jsonl"
             for name in ("videos", "transcripts", "ocr", "labels")}
    assert main(_ingest_args(paths, work)) == 0
    assert main(["build-ner-corpus", "--work-dir", str(work),
                 "--dictionary", str(corpus / "dictionary.tsv")]) == 0
    assert main(["train-tagger", "--arch", arch, "--seed", "3", "--epochs",
                 "15", "--lr", "1.0", "--work-dir", str(work)]) == 0
    assert main(["tag", "--arch", arch, "--work-dir", str(work)]) == 0
    capsys.readouterr()

    counts = dict(
        line.split("\t")
        for line in (work / "ner" / "term_counts.tsv").read_text()
        .splitlines()[1:]
    )
    assert counts[empty] == "0"
    assert sorted(counts) == sorted(doc["video_id"] for doc in videos)
    conll = (work / "ner" / f"tagged_{arch}.conll").read_text()
    assert f"# video_id = {empty}\n" not in conll
    # Tagging each video on its own gives the same counts.
    model = load_model(work / "models" / f"tagger_{arch}.json")
    for doc in videos:
        sentences = tokenize(doc["description"]).sentence_tokens()
        labels = tag_sentences(model, sentences)
        vid = doc["video_id"]
        assert counts[vid] == str(unique_term_counts(
            [vid] * len(sentences), sentences, labels).get(vid, 0))
    assert sum(map(int, counts.values())) > 0


def test_config_stopwords_reach_build_ner_corpus(tmp_path, corpus_paths,
                                                capsys):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("colonoscopy\npolyp\n")
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"lexicons": {"stopwords": str(stopwords)}}))
    conll = work / "ner" / "corpus.conll"
    assert main(["build-ner-corpus", "--work-dir", str(work)]) == 0
    default = conll.read_text()
    assert main(["build-ner-corpus", "--work-dir", str(work),
                 "--config", str(cfg)]) == 0
    capsys.readouterr()
    for word in ("colonoscopy", "polyp"):
        assert f"{word}\tB-MED" in default
        assert f"{word}\tB-MED" not in conll.read_text()


def test_config_file_paths(tmp_path, corpus_paths, capsys):
    work = tmp_path / "from-config"
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({
        "seed": 11,
        "work_dir": str(work),
        "corpus": {k: str(p) for k, p in corpus_paths.items()},
    }))
    assert main(["ingest", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (work / "corpus" / "videos.jsonl").is_file()


def test_config_file_unknown_key(tmp_path, caplog):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"seed": 1, "bogus": 2}))
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(cfg)]) == 1
    assert "unknown config keys" in caplog.text


def test_config_seed_reaches_train(tmp_path, corpus_paths, caplog):
    # With a config seed the train command gets past the seed check and
    # fails on the genuinely missing NER corpus instead.
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"seed": 5, "work_dir": str(tmp_path / "w")}))
    with caplog.at_level(logging.ERROR):
        assert main(["train-tagger", "--arch", "crf",
                     "--config", str(cfg)]) == 1
    assert "require a seed" not in caplog.text
    assert "missing input file" in caplog.text


def test_report_without_eval_exits_1(tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        rc = main(["report", "--table", "2",
                   "--work-dir", str(tmp_path / "w")])
    assert rc == 1
    assert "missing input file" in caplog.text


def _edit_table(path, line, edit):
    """Apply ``edit`` to the cells of one line, or of every line if None."""
    lines = path.read_text().splitlines()
    for i, text in enumerate(lines, start=1):
        if line is None or i == line:
            lines[i - 1] = "\t".join(edit(text.split("\t")))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("table, line, edit, command, bad_line", [
    ("ner/term_counts.tsv", 3, lambda c: c[:1], ["assemble"], 3),
    ("eval/tagger_metrics.tsv", None, lambda c: c[:2] + c[3:],
     ["report", "--table", "2"], 1),
    ("features/features.tsv", 2, lambda c: [c[0], "abc", *c[2:]],
     ["train-clf", "--target", "understandability", "--seed", "1"], 2),
    ("features/text_features.tsv", 3, lambda c: c[:-1], ["assemble"], 3),
    ("ner/term_counts.tsv", 4, lambda c: [c[0], "-3"], ["assemble"], 4),
], ids=["term-count-one-cell", "metrics-without-recall",
        "feature-not-a-number", "text-feature-ragged",
        "term-count-negative"])
def test_malformed_table_exits_1_naming_file_and_line(
        tmp_path, corpus_paths, caplog, capsys,
        table, line, edit, command, bad_line):
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    assert main(["featurize", "--work-dir", str(work)]) == 0
    (work / "ner").mkdir()
    (work / "ner" / "term_counts.tsv").write_text(
        "video_id\tn_unique_medical_terms\n"
        + "".join(f"vid00{i}\t{i}\n" for i in range(1, 6))
    )
    assert main(["assemble", "--work-dir", str(work)]) == 0
    (work / "eval").mkdir()
    (work / "eval" / "tagger_metrics.tsv").write_text(
        "model\tprecision\trecall\tf_measure\tn_test_sentences\n"
        "crf\t0.9\t0.8\t0.85\t4\nblstm\t0.7\t0.6\t0.65\t4\n"
    )
    capsys.readouterr()
    _edit_table(work / table, line, edit)
    with caplog.at_level(logging.ERROR):
        assert main([*command, "--work-dir", str(work)]) == 1
    assert f"{work / table}:{bad_line}:" in caplog.text
    assert "Traceback" not in caplog.text


def test_assemble_refuses_a_labeled_video_without_a_term_count(
        tmp_path, corpus_paths, caplog, capsys):
    work = _assembled_work(tmp_path, corpus_paths)
    features = (work / "features" / "features.tsv").read_bytes()
    counts = work / "ner" / "term_counts.tsv"
    counts.write_text("".join(line for line in counts.read_text()
                              .splitlines(keepends=True)
                              if not line.startswith("vid003\t")))
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main(["assemble", "--work-dir", str(work)]) == 1
    assert f"{counts}: no row for labeled video 'vid003'" in caplog.text
    assert "Traceback" not in caplog.text
    assert (work / "features" / "features.tsv").read_bytes() == features


def _assembled_work(tmp_path, corpus_paths):
    """Work dir holding features.tsv for the fixture corpus."""
    work = tmp_path / "work"
    assert main(_ingest_args(corpus_paths, work)) == 0
    assert main(["featurize", "--work-dir", str(work)]) == 0
    (work / "ner").mkdir()
    (work / "ner" / "term_counts.tsv").write_text(
        "video_id\tn_unique_medical_terms\n"
        + "".join(f"vid00{i}\t{i}\n" for i in range(1, 6))
    )
    assert main(["assemble", "--work-dir", str(work)]) == 0
    return work


@pytest.mark.parametrize("config, flags, message", [
    ({"classifier": {"l2": "0.1"}}, [],
     "classifier key 'l2' must be a number, got '0.1'"),
    ({}, ["--l2", "-5"], "l2 must be a finite non-negative number"),
    ({}, ["--l2", "nan"], "l2 must be a finite non-negative number"),
], ids=["config-string", "flag-negative", "flag-nan"])
def test_train_clf_rejects_bad_l2(tmp_path, corpus_paths, caplog, capsys,
                                  config, flags, message):
    work = _assembled_work(tmp_path, corpus_paths)
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main(["train-clf", "--target", "medical_info", "--seed", "1",
                     "--config", str(cfg), "--work-dir", str(work),
                     *flags]) == 1
    assert message in caplog.text
    assert "Traceback" not in caplog.text
    assert not (work / "models" / "clf_medical_info.json").exists()


def test_assemble_joins_counts_and_labels(tmp_path, corpus_paths, store,
                                          capsys):
    work = _assembled_work(tmp_path, corpus_paths)
    capsys.readouterr()
    doc = clf.read_features_tsv(
        work / "features" / "text_features.tsv",
        ("video_id", *DOC_FEATURE_NAMES))
    table = clf.read_features_tsv(work / "features" / "features.tsv")
    assert list(table.ids) == store.labeled_ids()
    doc_values = doc.select(DOC_FEATURE_NAMES)
    labels_of = table.select(list(clf.TARGET_FIELDS.values()), "label")
    for i, vid in enumerate(table.ids):
        assert vid == doc.ids[i]
        for j, name in enumerate(DOC_FEATURE_NAMES):
            assert table.select([name])[i, 0] == doc_values[i, j]
        # _assembled_work gives video vid00<i> the term count i.
        assert table.select(["n_unique_medical_terms"])[i, 0] == \
            int(vid[-1])
        labels = store.labels[vid]
        assert tuple(labels_of[i]) == (labels.medical_info_high,
                                       labels.understandable,
                                       labels.recommended)


_TRAIN_TAGGER = ["train-tagger", "--arch", "crf"]
_TRAIN_CLF = ["train-clf", "--target", "medical_info"]


# "{cfg}" in a message stands for the config file's path.
@pytest.mark.parametrize("config, argv, message", [
    ({"work_dir": 5}, ["ingest"],
     "{cfg}: config key 'work_dir' must be a string, got 5"),
    ({"corpus": {"videos": 7}}, ["ingest"],
     "{cfg}: corpus key 'videos' must be a string, got 7"),
    ({"corpus": ["videos"]}, ["ingest"],
     "{cfg}: config key 'corpus' must be an object, got ['videos']"),
    ({"dictionary": 3}, ["build-ner-corpus"],
     "{cfg}: config key 'dictionary' must be a string, got 3"),
    ({"lexicons": {"summary": 5}}, ["featurize"],
     "{cfg}: lexicons key 'summary' must be a string, got 5"),
    ({"seed": "abc"}, _TRAIN_TAGGER,
     "{cfg}: config key 'seed' must be an integer, got 'abc'"),
    ({"seed": 1.5}, _TRAIN_TAGGER,
     "{cfg}: config key 'seed' must be an integer, got 1.5"),
    ({"seed": "abc"}, _TRAIN_CLF,
     "{cfg}: config key 'seed' must be an integer, got 'abc'"),
    ({"seed": 1.5}, _TRAIN_CLF,
     "{cfg}: config key 'seed' must be an integer, got 1.5"),
    ({"seed": True}, _TRAIN_CLF,
     "{cfg}: config key 'seed' must be an integer, got True"),
    ({"seed": 1, "tagger": {"epochs": "5"}}, _TRAIN_TAGGER,
     "{cfg}: tagger key 'epochs' must be an integer, got '5'"),
    ({"seed": 1, "tagger": {"lr": False}}, _TRAIN_TAGGER,
     "{cfg}: tagger key 'lr' must be a number, got False"),
    ({"split_fraction": "0.5"}, ["ingest"],
     "{cfg}: config key 'split_fraction' must be a number, got '0.5'"),
    ({"seed": 1, "tagger": {"seed": 2}}, _TRAIN_TAGGER,
     "{cfg}: unknown tagger keys ['seed']"),
    ({"seed": 1, "tagger": {"l2": math.inf}}, _TRAIN_TAGGER,
     "TrainConfig.l2 must be finite"),
    ({"seed": 1}, [*_TRAIN_TAGGER, "--lr", "nan"],
     "TrainConfig.lr must be finite"),
], ids=["work-dir", "corpus-path", "corpus-not-object", "dictionary",
        "lexicon", "seed-string-tagger", "seed-float-tagger",
        "seed-string-clf", "seed-float-clf", "seed-bool", "tagger-epochs",
        "tagger-lr-bool", "split-fraction", "tagger-seed", "tagger-l2-inf",
        "flag-lr-nan"])
def test_bad_config_value_exits_1(tmp_path, caplog, capsys, config, argv,
                                  message):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    with caplog.at_level(logging.ERROR):
        assert main([*argv, "--config", str(cfg),
                     "--work-dir", str(tmp_path / "work")]) == 1
    capsys.readouterr()
    assert message.format(cfg=cfg) in caplog.text
    assert "Traceback" not in caplog.text


def test_config_unknown_classifier_key(tmp_path, caplog):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"classifier": {"l2": 0.1, "max_iter": 100}}))
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(cfg)]) == 1
    assert "unknown classifier keys ['max_iter']" in caplog.text


def _save_clf_model(work, target, intercept, coefficients):
    """Identity-scaled model of ``target``; unnamed coefficients are 0."""
    spec = clf.FEATURE_SPECS[target]
    k = len(spec.features)
    (work / "models").mkdir(parents=True, exist_ok=True)
    clf.save_lr_model(work / "models" / f"clf_{target}.json", clf.LrModel(
        spec=spec, scaler=clf.Scaler(spec.features, (0.0,) * k, (1.0,) * k),
        intercept=intercept,
        coefficients=np.array([coefficients.get(n, 0.0)
                               for n in spec.features]),
        l2=0.1, train_meta={}, standard_errors=np.ones(k + 1),
        p_values=np.full(k + 1, 0.5),
    ))


def test_table6_prints_no_negative_zero(tmp_path, capsys):
    work = tmp_path / "work"
    for target in clf.TARGETS:
        _save_clf_model(work, target, -1e-12, {
            name: (-1e-12 if name == "n_words_v" else 0.5)
            for name in clf.FEATURE_SPECS[target].features
        })
    assert main(["report", "--table", "6", "--work-dir", str(work)]) == 0
    capsys.readouterr()
    text = (work / "reports" / "table6.tsv").read_text()
    rows = {line.split("\t")[0]: line.split("\t")
            for line in text.splitlines()}
    assert rows["(intercept)"][1::2] == ["0.00"] * 3
    assert rows["n_words_v"][1::2] == ["0.00"] * 3
    assert "-0.00" not in text


@pytest.mark.parametrize("name, edit", [
    ("videos", lambda doc: {**doc, "published_at": 20190612}),
    ("transcripts", lambda doc: {**doc, "segments": 7}),
    ("ocr", lambda doc: {**doc, "blocks": 3.5}),
    ("search_results", lambda doc: [1]),
], ids=["published-at-number", "segments-number", "blocks-number",
        "keyword-row-list"])
def test_wrong_json_type_exits_1_naming_line(tmp_path, fixture_dir, caplog,
                                             name, edit):
    corpus = tmp_path / "corpus"
    shutil.copytree(fixture_dir / "corpus", corpus)
    path = corpus / f"{name}.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])))
    path.write_text("\n".join(lines) + "\n")
    paths = {k: corpus / f"{k}.jsonl"
             for k in ("videos", "transcripts", "ocr", "labels")}
    args = _ingest_args(paths, tmp_path / "work")
    args += ["--keywords", str(corpus / "search_results.jsonl")]
    with caplog.at_level(logging.ERROR):
        assert main(args) == 1
    assert f"{path}:2:" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("label, message", [
    ("X-MED", "unknown label 'X-MED'"),
    ("I-MED", "I-MED may not follow O or start a sentence"),
    ("O\tO", "expected 'token<TAB>tag'"),
])
def test_bad_conll_label_exits_1_naming_line(tmp_path, caplog, label,
                                             message):
    conll = tmp_path / "ner" / "corpus.conll"
    conll.parent.mkdir()
    conll.write_text("# video_id = v1\ncolon\tB-MED\ncancer\tI-MED\n\n"
                     f"# video_id = v2\nthe\tO\npolyp\t{label}\n\n")
    with caplog.at_level(logging.ERROR):
        assert main(["train-tagger", "--arch", "crf", "--seed", "1",
                     "--work-dir", str(tmp_path)]) == 1
    assert f"{conll}:7: {message}" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.fixture(scope="module")
def model_work(tmp_path_factory, corpus_paths):
    """Work dir with a feature table, three classifiers and both taggers."""
    work = _assembled_work(tmp_path_factory.mktemp("models"), corpus_paths)
    for target in clf.TARGETS:
        _save_clf_model(work, target, 0.5, {})
    assert main(["build-ner-corpus", "--work-dir", str(work)]) == 0
    for arch in ("crf", "blstm"):
        assert main(["train-tagger", "--arch", arch, "--epochs", "1",
                     "--seed", "1", "--work-dir", str(work)]) == 0
    return work


def _set_nan(*keys):
    """Edit that sets ``doc[keys[0]]...[keys[-1]]`` to NaN."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = float("nan")
    return edit


def _f64le(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _values(block):
    return np.frombuffer(base64.b64decode(block["f64le"]), "<f8")


def _set_weights(name, text_of):
    """Edit that replaces the base64 text of weight block ``name`` with
    ``text_of(values)``, given the block's float64 values."""
    def edit(doc):
        block = doc["arrays"][name]
        block["f64le"] = text_of(_values(block))
    return edit


def _as_format_1(doc):
    """Edit that writes the tagger as format 1 did: float lists."""
    doc["format_version"] = 1
    for block in doc["arrays"].values():
        block["data"] = _values(block).tolist()
        del block["f64le"]


def _set_symbols(key, *names):
    """Edit that overwrites the symbol list ``doc[key]`` from index 2 on
    with ``names``, past the ids a vocab reserves."""
    def edit(doc):
        doc[key][2:2 + len(names)] = names
    return edit


@pytest.mark.parametrize("model, edit, command, key", [
    ("clf_medical_info.json", lambda doc: doc.pop("target"),
     ["classify"], "'target'"),
    ("clf_medical_info.json", _set_nan("coefficients", 0),
     ["classify"], "coefficients"),
    ("clf_recommendation.json", _set_nan("p_values", 1),
     ["report", "--table", "6"], "p_values"),
    ("tagger_crf.json",
     _set_weights("w_trans", lambda v: _f64le([math.nan, *v[1:]])),
     ["tag", "--arch", "crf"], "w_trans: non-finite value"),
    ("tagger_blstm.json", _set_weights("w_fwd", lambda v: "*" + _f64le(v)),
     ["tag", "--arch", "blstm"], "w_fwd: f64le is not base64 text"),
    ("tagger_crf.json", _set_weights("w_emit", lambda v: _f64le(v[:1])),
     ["tag", "--arch", "crf"], "w_emit: 8 bytes do not fit shape"),
    ("tagger_blstm.json", _set_weights("embed", lambda v: v.tolist()),
     ["tag", "--arch", "blstm"], "embed: f64le is not base64 text"),
    ("tagger_crf.json", _as_format_1,
     ["tag", "--arch", "crf"], "unsupported format version 1"),
    ("tagger_blstm.json", None, ["tag", "--arch", "blstm"], None),
    ("tagger_crf.json", _set_symbols("feature_index", "w=dup", "w=dup"),
     ["tag", "--arch", "crf"], "'w=dup' repeats"),
    ("tagger_blstm.json", _set_symbols("vocab", "dupword", "dupword"),
     ["tag", "--arch", "blstm"], "'dupword' repeats"),
    ("tagger_blstm.json", _set_symbols("vocab", 7),
     ["tag", "--arch", "blstm"], "entry 7 is not a string"),
], ids=["classify-no-target", "classify-nan-coefficient",
        "report6-nan-p-value", "tag-nan-crf-weight",
        "tag-bad-base64-blstm-weight", "tag-wrong-byte-count-crf-weight",
        "tag-non-string-blstm-weight", "tag-format-1-crf",
        "tag-truncated-blstm",
        "tag-repeated-crf-feature", "tag-repeated-blstm-word",
        "tag-non-string-blstm-word"])
def test_corrupt_model_exits_1_naming_file(tmp_path, model_work, caplog,
                                           capsys, model, edit, command,
                                           key):
    work = tmp_path / "work"
    shutil.copytree(model_work, work)
    path = work / "models" / model
    text = path.read_text()
    if edit is None:
        path.write_text(text[:len(text) // 2])
    else:
        doc = json.loads(text)
        edit(doc)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main([*command, "--work-dir", str(work)]) == 1
    assert str(path) in caplog.text
    assert key is None or key in caplog.text
    assert "Traceback" not in caplog.text


_INGEST = ["ingest", "--videos", "{work}/corpus/videos.jsonl",
           "--transcripts", "{work}/corpus/transcripts.jsonl",
           "--ocr", "{work}/corpus/ocr.jsonl",
           "--labels", "{work}/corpus/labels.jsonl"]


# Each kind of input file the stages read, and a command that reads it.
@pytest.mark.parametrize("name, argv", [
    ("corpus/labels.jsonl", ["assemble"]),
    ("search_results.jsonl",
     [*_INGEST, "--keywords", "{work}/search_results.jsonl"]),
    ("api_response.json",
     ["ingest", "--api-response", "{work}/api_response.json",
      *_INGEST[3:]]),
    ("pipeline.json", ["featurize", "--config", "{work}/pipeline.json"]),
    ("transition.txt", ["featurize", "--config", "{work}/lexicons.json"]),
    ("dictionary.tsv",
     ["build-ner-corpus", "--dictionary", "{work}/dictionary.tsv"]),
    ("ner/corpus.conll", ["train-tagger", "--arch", "crf", "--seed", "1"]),
    ("ner/term_counts.tsv", ["assemble"]),
    ("models/clf_medical_info.json", ["classify"]),
], ids=["corpus", "search-results", "api-response", "config", "lexicon",
        "dictionary", "conll", "table", "model"])
def test_non_utf8_byte_exits_1_naming_line(tmp_path, model_work, fixture_dir,
                                           caplog, capsys, name, argv):
    work = tmp_path / "work"
    shutil.copytree(model_work, work)
    for extra, source in [
        ("search_results.jsonl",
         fixture_dir / "corpus" / "search_results.jsonl"),
        ("api_response.json", fixture_dir / "api_response.json"),
        ("transition.txt", data_path("transition_words.txt")),
        ("dictionary.tsv", data_path("medical_terms.tsv")),
    ]:
        shutil.copy(source, work / extra)
    (work / "pipeline.json").write_text('{"seed": 1,\n "work_dir": "w"}\n')
    (work / "lexicons.json").write_text(json.dumps(
        {"lexicons": {"transition": str(work / "transition.txt")}}))
    path = work / name
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main([*(a.format(work=work) for a in argv),
                     "--work-dir", str(work)]) == 1
    assert f"{path}:2: not UTF-8 text" in caplog.text
    assert "Traceback" not in caplog.text


# ------------------------------------------------------ the file table


@pytest.fixture(scope="module")
def pipeline_work(tmp_path_factory):
    """Work dir after every stage, both taggers and all four reports."""
    root = tmp_path_factory.mktemp("pipeline")
    work = _ingested_synthetic(root, seed=9)
    steps = [
        ["featurize"],
        ["build-ner-corpus", "--dictionary",
         str(root / "corpus" / "dictionary.tsv")],
        *(["train-tagger", "--arch", arch, "--epochs", "15", "--lr", "1.0",
           "--seed", "9"] for arch in cli.ARCHS),
        *(["tag", "--arch", arch, "--source", source]
          for arch in cli.ARCHS for source in ("description", "transcript")),
        ["assemble"],
        *(["train-clf", "--target", target, "--seed", "9"]
          for target in clf.TARGETS),
        ["classify"], ["eval"],
        *(["report", "--table", table] for table in ("2", "5", "6", "7")),
    ]
    for argv in steps:
        assert main([*argv, "--work-dir", str(work)]) == 0, argv
    return work


def test_diverging_crf_training_prints_only_the_error_line(
        criterion_8_taggers, tmp_path):
    # A step this large puts the CRF's score gaps past what its scaled
    # forward-backward holds; training stops with exit 1 and one error
    # line that names the learning rate and says to lower it, and numpy
    # prints no warning on the way.
    work = tmp_path / "work"
    shutil.copytree(criterion_8_taggers, work)
    src = Path(vidtriage.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "vidtriage.cli", "train-tagger", "--arch",
         "crf", "--seed", "88", "--lr", "1e6", "--work-dir", str(work)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 1
    assert ("ERROR crf training diverged at epoch 1 with learning rate "
            "1e+06; lower --lr") in done.stderr
    assert "Warning" not in done.stderr


@pytest.mark.parametrize("arch", cli.ARCHS)
def test_tagging_a_sentence_ignores_the_others(criterion_8_taggers, arch):
    # Tagging a random subset, a permutation, or every sentence twice
    # gives each sentence the labels it gets in the whole corpus, though
    # the length-sorted batches it is decoded in change.
    work = criterion_8_taggers
    model = load_model(work / cli._FILES["tagger"].format(arch=arch))
    tagged, _ = read_conll(work / cli._FILES["ner_corpus"])
    sentences = [s.tokens for s in tagged]
    whole = tag_sentences(model, sentences)
    rng = np.random.default_rng(8)
    n = len(sentences)
    for picks in (rng.choice(n, size=n // 3, replace=False),
                  rng.permutation(n), rng.permutation(np.tile(range(n), 2))):
        assert tag_sentences(model, [sentences[i] for i in picks]) \
            == [whole[i] for i in picks]


def test_crf_decode_width_changes_no_label_or_emission_bit(
        criterion_8_taggers, monkeypatch):
    # Each sentence's emission rows and labels are the same bits whether
    # it is decoded alone, 64 to a batch, or at the tagger's own width.
    work = criterion_8_taggers
    params = load_model(work / cli._FILES["tagger"].format(arch="crf")).params
    tagged, _ = read_conll(work / cli._FILES["ner_corpus"])
    sentences = sorted((s.tokens for s in tagged), key=len)
    w_pad = np.vstack([params.w_emit, np.zeros((1, crf.N_LABELS))])
    rows, labels = {}, {}
    for width in (1, 64, crf._DECODE_BATCH):
        encoder = crf.FeatureEncoder(params.feature_index)
        rows[width] = []
        for lo in range(0, len(sentences), width):
            batch = sentences[lo:lo + width]
            lengths = np.array([len(s) for s in batch])
            emit = crf._emissions(w_pad, encoder.encode(batch), lengths)
            rows[width] += [row[:n] for row, n in zip(emit, lengths)]
        monkeypatch.setattr(crf, "_DECODE_BATCH", width)
        labels[width] = crf.tag_with_crf(params, sentences)
    assert len(sentences) > 2 * 64
    for width in (64, crf._DECODE_BATCH):
        assert labels[width] == labels[1]
        for row, alone in zip(rows[width], rows[1]):
            assert row.tobytes() == alone.tobytes()


def test_blstm_decode_width_moves_log_probabilities_by_rounding_only(
        criterion_8_taggers, monkeypatch):
    # The recurrent matmul on a few live rows takes another BLAS path, so
    # the bits of a sentence's log-probabilities depend on its batch; the
    # values stay within 1e-12 and the labels do not change.
    model = load_model(criterion_8_taggers
                       / cli._FILES["tagger"].format(arch="blstm"))
    tagged, _ = read_conll(criterion_8_taggers / cli._FILES["ner_corpus"])
    sentences = sorted((s.tokens for s in tagged), key=len)
    encoded = [model.vocab.encode(s) for s in sentences]
    _, row_of, passes = blstm._fold(model.params, encoded)
    logp, labels = {}, {}
    for width in (1, 2, 7, 64):
        logp[width] = []
        for lo in range(0, len(encoded), width):
            batch = encoded[lo:lo + width]
            with np.errstate(over="ignore"):
                out = blstm._forward_batch(model.params, row_of, passes,
                                           blstm._lean_direction, batch)[-1]
            logp[width] += [row[:len(ids)] for row, ids in zip(out, batch)]
        monkeypatch.setattr(blstm, "EVAL_BATCH", width)
        labels[width] = tag_sentences(model, sentences)
    assert len(sentences) > 2 * 64
    for width in (2, 7, 64):
        assert labels[width] == labels[1]
        for row, alone in zip(logp[width], logp[1]):
            np.testing.assert_allclose(row, alone, rtol=0, atol=1e-12)


def test_a_write_removes_only_dead_writers_temp_files(criterion_8_taggers,
                                                       tmp_path):
    # A writer killed before its replace leaves .<name>.<pid>.tmp behind.
    # The next write of that file removes it once the pid is gone, keeps
    # a live writer's (this test's process), and leaves other files' be.
    work = tmp_path / "work"
    shutil.copytree(criterion_8_taggers, work)
    gone = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True).stdout
    counts = work / cli._FILES["term_counts"]
    corpus = work / cli._FILES["ner_corpus"]
    dead, live, other = (
        path.with_name(f".{path.name}.{int(pid)}.tmp")
        for path, pid in ((counts, gone), (counts, os.getpid()),
                          (corpus, gone)))
    for planted in (dead, live, other):
        planted.write_text("half-written\n")
    src = Path(vidtriage.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-m", "vidtriage.cli", "tag", "--arch", "crf",
         "--work-dir", str(work)],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        capture_output=True, timeout=120)
    assert not dead.exists()
    assert live.exists() and other.exists()


@pytest.mark.parametrize("arch", cli.ARCHS)
def test_tagging_a_third_of_the_videos_keeps_their_term_counts(
        criterion_8_taggers, tmp_path, arch):
    whole, third = tmp_path / "whole", tmp_path / "third"
    for work in (whole, third):
        shutil.copytree(criterion_8_taggers, work)
    videos = third / cli._FILES["videos"]
    lines = videos.read_text().splitlines(keepends=True)
    keep = np.random.default_rng(3).choice(len(lines), size=len(lines) // 3,
                                           replace=False)
    videos.write_text("".join(lines[i] for i in sorted(keep)))
    for work in (whole, third):
        assert main(["tag", "--arch", arch, "--work-dir", str(work)]) == 0

    def rows(work):
        return (work / cli._FILES["term_counts"]).read_text().splitlines()

    kept = {json.loads(lines[i])["video_id"] for i in keep}
    assert rows(third)[1:] == [row for row in rows(whole)[1:]
                               if row.split("\t")[0] in kept]
    assert len(rows(third)) == 1 + len(kept)


def test_criterion_8_tree_matches_recorded_digests(criterion_8_taggers,
                                                   criterion_8_classified):
    # The pipeline's outputs for one seed are pinned across commits, not
    # only from run to run. A change meant to move them re-records with
    # tests/record_criterion8_digests.py and says why each file moved.
    recorded = json.loads(criterion8.DIGESTS.read_text())
    files = criterion8.tree_files(criterion_8_taggers.parent / "corpus",
                                  criterion_8_classified)
    moved = criterion8.moves(recorded, files)
    assert not moved, "\n".join([
        "criterion-8 tree differs from tests/fixtures/criterion8_digests.json:",
        *moved, f"recorded with {recorded['versions']}",
        f"running with {criterion8.versions()}"])


def test_zero_variance_feature_logs_one_line(criterion_8_classified,
                                             tmp_path):
    # A constant term count passes through unscaled, and train-clf says so
    # in one log line, with no Python warning or source line on stderr.
    work = tmp_path / "work"
    shutil.copytree(criterion_8_classified, work)
    features = work / cli._FILES["features"]
    header, *rows = features.read_text().splitlines(keepends=True)
    col = header.split("\t").index("n_unique_medical_terms")
    cells = [row.split("\t") for row in rows]
    for row in cells:
        row[col] = "0"
    features.write_text(header + "".join("\t".join(row) for row in cells))
    src = Path(vidtriage.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "vidtriage.cli", "train-clf", "--target",
         "medical_info", "--seed", "88", "--work-dir", str(work)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert ("WARNING feature 'n_unique_medical_terms' has zero variance; "
            "passed through unscaled") in lines
    assert not [line for line in lines
                if "Warning:" in line or line.startswith(" ")]


def _random_rows(path, seed):
    """The header of a table or JSON-Lines file at ``path`` and a random
    subset of its other lines, in file order."""
    lines = path.read_text().splitlines(keepends=True)
    first = 1 if path.suffix == ".tsv" else 0
    keep = np.random.default_rng(seed).choice(
        range(first, len(lines)), size=(len(lines) - first) // 2,
        replace=False)
    return lines[:first], [lines[i] for i in sorted(keep)]


def _rows_of(path, ids):
    """The rows of table ``path`` whose first cell is in ``ids``."""
    return [line for line in path.read_text().splitlines()[1:]
            if line.split("\t")[0] in ids]


def test_featurizing_some_videos_keeps_their_text_features(
        criterion_8_classified, tmp_path, capsys):
    whole = criterion_8_classified
    _, kept = _random_rows(whole / cli._FILES["videos"], seed=5)
    ids = {json.loads(line)["video_id"] for line in kept}
    for name in ("videos", "transcripts", "ocr", "labels"):
        out = tmp_path / cli._FILES[name]
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("".join(
            line for line in (whole / cli._FILES[name]).read_text()
            .splitlines(keepends=True)
            if json.loads(line)["video_id"] in ids))
    assert main(["featurize", "--work-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    part = tmp_path / cli._FILES["text_features"]
    assert _rows_of(part, ids) == _rows_of(whole / cli._FILES["text_features"],
                                           ids)
    assert len(part.read_text().splitlines()) == 1 + len(ids) == 16


def test_classifying_some_videos_keeps_their_predictions(
        criterion_8_classified, tmp_path, capsys):
    whole = criterion_8_classified
    shutil.copytree(whole / "models", tmp_path / "models")
    header, kept = _random_rows(whole / cli._FILES["features"], seed=6)
    out = tmp_path / cli._FILES["features"]
    out.parent.mkdir()
    out.write_text("".join(header + kept))
    assert main(["classify", "--work-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    ids = {line.split("\t")[0] for line in kept}
    for target in clf.TARGETS:
        name = cli._FILES["predictions"].format(target=target)
        part = _rows_of(tmp_path / name, ids)
        assert part == _rows_of(whole / name, ids)
        assert len(part) == len(ids) == 15


def _expand(template, args=None):
    """Every path ``template`` names across archs, targets and tables; a
    field that parsed command line ``args`` sets takes its value alone."""
    values = {"arch": cli.ARCHS, "target": clf.TARGETS,
              "table": ("2", "5", "6", "7")}
    names = [f for _, f, _, _ in string.Formatter().parse(template) if f]
    picked = [values[n] if getattr(args, n, None) is None
              else [getattr(args, n)] for n in names]
    return {template.format(**dict(zip(names, combo)))
            for combo in itertools.product(*picked)}


def test_file_table_names_every_file_the_stages_write(pipeline_work, capsys):
    capsys.readouterr()
    written = {p.relative_to(pipeline_work).as_posix()
               for p in pipeline_work.rglob("*") if p.is_file()}
    expanded = {name: _expand(t) for name, t in cli._FILES.items()}
    for rel in written:
        owners = [name for name, paths in expanded.items() if rel in paths]
        assert len(owners) == 1, (rel, owners)
    for name, paths in expanded.items():
        assert paths <= written, (name, sorted(paths - written))


def test_assemble_reads_description_counts(pipeline_work, capsys):
    # Transcript tagging ran after description tagging and before
    # assemble, and writes files of its own.
    capsys.readouterr()

    def counts(name):
        lines = (pipeline_work / "ner" / name).read_text().splitlines()
        return dict(line.split("\t") for line in lines[1:])

    description = counts("term_counts.tsv")
    assert description != counts("transcript_term_counts_blstm.tsv")
    table = clf.read_features_tsv(pipeline_work / "features" /
                                  "features.tsv")
    counts = table.select(["n_unique_medical_terms"])[:, 0]
    for vid, count in zip(table.ids, counts):
        assert count == int(description[vid])


# A command line for each stage of the table, run on pipeline_work; the
# tagger trains for one epoch.
_STAGE_ARGV = {
    "ingest": ["ingest", *(arg for name in cli._CORPUS_FILES for arg in (
        f"--{name}", f"{{root}}/corpus/{name}.jsonl"))],
    "featurize": ["featurize"],
    "build-ner-corpus": ["build-ner-corpus", "--dictionary",
                         "{root}/corpus/dictionary.tsv"],
    "train-tagger": ["train-tagger", "--arch", "blstm", "--epochs", "1",
                     "--seed", "9"],
    "tag:description": ["tag", "--arch", "crf"],
    "tag:transcript": ["tag", "--source", "transcript"],
    "assemble": ["assemble"],
    "train-clf": ["train-clf", "--target", "recommendation", "--seed", "9"],
    "classify": ["classify"],
    "eval:clf": ["eval", "--kind", "clf"],
    "eval:all": ["eval"],
    "eval-tagger": ["eval-tagger"],
    **{f"report:{table}": ["report", "--table", table]
       for table in ("2", "5", "6", "7")},
}


def test_stage_table_has_a_writer_for_every_file_and_read():
    written = {name for stage in cli.STAGES.values() for name in stage.writes}
    read = {name for stage in cli.STAGES.values() for name in stage.reads}
    assert written == cli._FILES.keys()
    assert read <= written | set(cli._CORPUS_FILES)
    assert _STAGE_ARGV.keys() == cli.STAGES.keys()


@pytest.mark.parametrize("stage", cli.STAGES)
def test_stage_reads_and_writes_only_its_declared_files(
        tmp_path, pipeline_work, caplog, capsys, stage):
    # The stage runs on the whole work dir and on one that holds only the
    # files it declares it reads. The second run must write exactly the
    # files it declares it writes, each byte-identical to the first run's.
    argv = [a.format(root=pipeline_work.parent) for a in _STAGE_ARGV[stage]]
    args = cli.build_parser().parse_args(argv)
    assert args.func is cli.STAGES[stage].func
    assert stage.partition(":")[2] in {"", *map(str, vars(args).values())}
    reads, writes = ({Path(rel) for name in names
                      for rel in _expand(cli._FILES[name], args)}
                     for names in (cli.STAGES[stage].reads,
                                   cli.STAGES[stage].writes))
    whole, part = tmp_path / "whole", tmp_path / "part"
    shutil.copytree(pipeline_work, whole)
    part.mkdir()
    for rel in reads:
        (part / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(pipeline_work / rel, part / rel)
    for work in (whole, part):
        assert main([*argv, "--work-dir", str(work)]) == 0
    capsys.readouterr()
    assert _tree(part) == {
        **{rel: (pipeline_work / rel).read_bytes() for rel in reads},
        **{rel: (whole / rel).read_bytes() for rel in writes}}
    if "videos" not in cli.STAGES[stage].reads:
        return
    # The corpus files a stage reads are still checked: a repeated video
    # id ends it with exit 1, naming the file.
    videos = part / cli._FILES["videos"]
    first = videos.read_text().splitlines(keepends=True)[0]
    videos.write_text(videos.read_text() + first)
    with caplog.at_level(logging.ERROR):
        assert main([*argv, "--work-dir", str(part)]) == 1
    assert f"duplicate video ids in {videos}" in caplog.text
    assert "Traceback" not in caplog.text


def _readme_rows():
    """Each row of the README's work-directory table: the paths its file
    names, with each ``{a,b}`` group and each ``{arch}``, ``{target}`` and
    ``{table}`` expanded, and the stages its "Written by" and "Read by"
    cells name."""
    readme = (Path(__file__).resolve().parent.parent / "README.md")
    section = readme.read_text(encoding="utf-8").split(
        "## Work directory")[1].split("\n## ")[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        file, written, read = line.split("|")[1:4]
        template = file.strip().strip("`")
        # A {a,b} group lists its values; a named field takes _expand's.
        groups = re.findall(r"\{([^}]*)\}", template)
        options = [g.split(",") if "," in g else [None] for g in groups]
        paths = set()
        for combo in itertools.product(*options):
            parts = iter(combo)
            filled = re.sub(r"\{[^}]*\}", lambda m: next(parts) or m[0],
                            template)
            paths |= _expand(filled)
        rows.append((frozenset(paths), set(re.findall(r"`([^`]*)`", written)),
                     set(re.findall(r"`([^`]*)`", read))))
    return rows


def test_readme_file_table_matches_file_table():
    name_of = {frozenset(_expand(t)): name for name, t in cli._FILES.items()}
    rows = {}
    for paths, written, read in _readme_rows():
        assert paths in name_of, sorted(paths)
        assert name_of[paths] not in rows, sorted(paths)
        rows[name_of[paths]] = written, read
    assert rows == {name: (
        {key for key, stage in cli.STAGES.items() if name in stage.writes},
        {key for key, stage in cli.STAGES.items() if name in stage.reads},
    ) for name in cli._FILES}


def test_classify_with_a_missing_model_keeps_old_predictions(
        tmp_path, pipeline_work, caplog, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline_work, work)
    before = {p.name: p.read_bytes()
              for p in (work / "predictions").iterdir()}
    assert sorted(before) == sorted(f"{t}.tsv" for t in clf.TARGETS)
    model = work / "models" / "clf_medical_info.json"
    doc = json.loads(model.read_text())
    doc["intercept"] += 1.0
    model.write_text(json.dumps(doc))
    (work / "models" / "clf_recommendation.json").unlink()
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main(["classify", "--work-dir", str(work)]) == 1
    assert "clf_recommendation.json" in caplog.text
    after = {p.name: p.read_bytes() for p in (work / "predictions").iterdir()}
    assert after == before
    # A missing feature is found before any file is written, too: the
    # recommendation classifier reads the understandable label, after the
    # changed medical_info model has made new predictions.
    shutil.copy(pipeline_work / "models" / "clf_recommendation.json",
                work / "models")
    features = work / "features" / "features.tsv"
    header = features.read_text().splitlines()[0].split("\t")
    _edit_table(features, 3, lambda cells: [
        "" if name == "understandable" else cell
        for name, cell in zip(header, cells)])
    with caplog.at_level(logging.ERROR):
        assert main(["classify", "--work-dir", str(work)]) == 1
    assert "missing feature 'understandable'" in caplog.text
    after = {p.name: p.read_bytes() for p in (work / "predictions").iterdir()}
    assert after == before


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["n_words_v", "readability_v"])
@pytest.mark.parametrize("table, command", [
    ("features.tsv", ["train-clf", "--target", "understandability",
                      "--seed", "9"]),
    ("features.tsv", ["classify"]),
    ("features.tsv", ["eval", "--kind", "clf"]),
    ("text_features.tsv", ["assemble"]),
], ids=["train-clf", "classify", "eval", "assemble"])
def test_non_finite_feature_cell_exits_1_naming_file_and_line(
        tmp_path, pipeline_work, caplog, capsys, table, command, column,
        value):
    work = tmp_path / "work"
    shutil.copytree(pipeline_work, work)
    path = work / "features" / table
    header = path.read_text().splitlines()[0].split("\t")
    _edit_table(path, 3, lambda cells: [
        value if name == column else cell
        for name, cell in zip(header, cells)])
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main([*command, "--work-dir", str(work)]) == 1
    assert f"{path}:3: {column} must be a finite number" in caplog.text
    assert "Traceback" not in caplog.text


def _is_work_dir_join(node):
    """``<anything>.work_dir / ...`` or ``work_dir / ...``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    left = node.left
    return (isinstance(left, ast.Attribute) and left.attr == "work_dir"
            or isinstance(left, ast.Name) and left.id == "work_dir")


def test_work_dir_is_joined_only_in_output():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    in_functions = [func.name for func in ast.walk(tree)
                    if isinstance(func, ast.FunctionDef)
                    for node in ast.walk(func) if _is_work_dir_join(node)]
    assert in_functions == ["_output"]
    assert sum(map(_is_work_dir_join, ast.walk(tree))) == 1


def test_file_templates_are_spelled_once_in_src():
    src = Path(vidtriage.__file__).parent
    text = "".join(p.read_text(encoding="utf-8") for p in src.rglob("*.py"))
    for name, template in cli._FILES.items():
        assert text.count(f'"{template}"') == 1, name
