"""Command-line pipeline: exit codes, ingest, config handling."""

import json
import logging

import numpy as np
import pytest

import vidtriage.classify as clf
from vidtriage.cli import main
from vidtriage.classify import DOC_FEATURE_NAMES
from vidtriage.medterm import TaggedSentence, unique_medical_terms
from vidtriage.seqtag import load_model, tag_sentences
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
        tagged = [TaggedSentence(tokens=tuple(s), labels=tuple(p))
                  for s, p in zip(sentences,
                                  tag_sentences(model, sentences))]
        assert counts[doc["video_id"]] == str(unique_medical_terms(tagged))
    assert sum(map(int, counts.values())) > 0


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
], ids=["term-count-one-cell", "metrics-without-recall",
        "feature-not-a-number", "text-feature-ragged"])
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


@pytest.mark.parametrize("config, flags", [
    ({"classifier": {"l2": "0.1"}}, []),
    ({}, ["--l2", "-5"]),
    ({}, ["--l2", "nan"]),
], ids=["config-string", "flag-negative", "flag-nan"])
def test_train_clf_rejects_bad_l2(tmp_path, corpus_paths, caplog, capsys,
                                  config, flags):
    work = _assembled_work(tmp_path, corpus_paths)
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    with caplog.at_level(logging.ERROR):
        assert main(["train-clf", "--target", "medical_info", "--seed", "1",
                     "--config", str(cfg), "--work-dir", str(work),
                     *flags]) == 1
    assert "l2 must be a finite non-negative number" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (work / "models" / "clf_medical_info.json").exists()


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
