"""Pipeline command line.

Ten file-based stages wire the library into the end-to-end flow: ingest
normalizes the corpus into a work directory, featurize and
build-ner-corpus derive per-video features and a BIO corpus, train-tagger
and tag produce medical-term counts, assemble joins everything into one
feature table, train-clf / classify / eval fit and score the three
classifiers, and report renders the canned TSV tables. Every stage is
deterministic given its inputs and seed, writes only into the work
directory, and prints a one-line summary; logs go to standard error.

Exit codes: 0 success, 1 validation or missing-input error, 2 internal
error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import classify as clf
from . import corpus as corpuslib
from . import medterm, textfeat
from .data_files import data_path
from .artifacts import read_text, read_tsv, write_tsv
from .seqtag import (
    ARCH_BLSTM,
    ARCH_CRF,
    TagMetrics,
    TrainConfig,
    TrainingDivergedError,
    evaluate_tagger,
    evaluate_tagger_spans,
    load_model,
    save_model,
    tag_sentences,
    train_blstm,
    train_crf,
)

log = logging.getLogger("vidtriage")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64

ARCHS = (ARCH_CRF, ARCH_BLSTM)

# Table headers, each shared by the table's writer and its reader.
_TEXT_FEATURES_HEADER = ("video_id", *clf.DOC_FEATURE_NAMES)
_TERM_COUNTS_HEADER = ("video_id", "n_unique_medical_terms")
_PREDICTIONS_HEADER = ("video_id", "probability", "label")
_TAGGER_METRICS_HEADER = ("model", "precision", "recall", "f_measure",
                          "n_test_sentences")
_CLF_METRICS_HEADER = ("target", "precision_pos", "recall_pos",
                       "f_measure_pos", "precision_neg", "recall_neg",
                       "f_measure_neg", "accuracy", "n_test_videos")

# Every file the stages write under the work directory, by name, as a
# template relative to it. Commands reach work-dir files only through
# _output and _input.
_FILES = {
    "videos": "corpus/videos.jsonl",
    "transcripts": "corpus/transcripts.jsonl",
    "ocr": "corpus/ocr.jsonl",
    "labels": "corpus/labels.jsonl",
    "text_features": "features/text_features.tsv",
    "ner_corpus": "ner/corpus.conll",
    "tagger": "models/tagger_{arch}.json",
    "tagged": "ner/tagged_{arch}.conll",
    "term_counts": "ner/term_counts.tsv",
    "transcript_tagged": "ner/transcript_tagged_{arch}.conll",
    "transcript_term_counts": "ner/transcript_term_counts_{arch}.tsv",
    "features": "features/features.tsv",
    "clf": "models/clf_{target}.json",
    "predictions": "predictions/{target}.tsv",
    "tagger_metrics": "eval/tagger_metrics.tsv",
    "tagger_span_metrics": "eval/tagger_span_metrics.tsv",
    "clf_metrics": "eval/clf_metrics.tsv",
    "report": "reports/table{table}.tsv",
}
# The corpus files, each named as its CorpusStore attribute and its
# config key.
_CORPUS_FILES = ("videos", "transcripts", "ocr", "labels")

_LEXICON_FILES = {
    "transition": "transition_words.txt",
    "summary": "summary_words.txt",
    "verbs": "active_verbs.txt",
    "stopwords": "stopwords.txt",
    "keywords": "keywords.txt",
}


# Every config file key and the type of its value; a section maps its own
# keys. Tagger keys take the types of TrainConfig's defaults.
_CONFIG_TYPES = {
    "seed": int, "work_dir": str, "split_fraction": float, "dictionary": str,
    "corpus": dict.fromkeys(_CORPUS_FILES, str),
    "lexicons": dict.fromkeys(_LEXICON_FILES, str),
    "tagger": {f.name: type(f.default) for f in fields(TrainConfig)
               if f.name != "seed"},
    "classifier": {"l2": float},
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object"}


@dataclass
class PipelineConfig:
    """Resolved settings: defaults, then config file, then CLI flags."""

    seed: Optional[int] = None
    work_dir: Path = Path("work")
    split_fraction: float = 0.8
    corpus: dict = field(default_factory=dict)
    dictionary: Optional[str] = None
    lexicons: dict = field(default_factory=dict)
    tagger: dict = field(default_factory=dict)
    classifier: dict = field(default_factory=dict)

    def __post_init__(self):
        self.work_dir = Path(self.work_dir)
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError(
                "training commands require a seed (--seed or config file)"
            )
        return self.seed

    def lexicon_path(self, name: str) -> Path:
        if name in self.lexicons:
            return Path(self.lexicons[name])
        return data_path(_LEXICON_FILES[name])

    def dictionary_path(self) -> Path:
        if self.dictionary is not None:
            return Path(self.dictionary)
        return data_path("medical_terms.tsv")


def _load_config_file(path: Path) -> dict:
    try:
        doc = json.loads(read_text(path))
    except FileNotFoundError:
        raise FileNotFoundError(f"missing config file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    _check_config(path, doc, _CONFIG_TYPES, "config")
    return doc


def _check_config(path: Path, doc: dict, types: dict, section: str) -> None:
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ValueError(f"{path}: unknown {section} keys {unknown}")
    for key, value in doc.items():
        kind = dict if isinstance(types[key], dict) else types[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"{path}: {section} key {key!r} must be "
                             f"{_TYPE_NAMES[kind]}, got {value!r}")
        if kind is dict:
            _check_config(path, value, types[key], key)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    doc = _load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.work_dir is not None:
        doc["work_dir"] = args.work_dir
    return PipelineConfig(**doc)


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing input file: {path}")
    return path


def _output(cfg: PipelineConfig, name: str, **fields) -> Path:
    """The work-dir path of file ``name``, its template filled by
    ``fields``."""
    return cfg.work_dir / _FILES[name].format(**fields)


def _input(cfg: PipelineConfig, name: str, **fields) -> Path:
    """Like _output, for a file the stage reads: it must exist."""
    return _require(_output(cfg, name, **fields))


def _load_work_corpus(cfg: PipelineConfig) -> corpuslib.CorpusStore:
    return corpuslib.load_corpus(
        *[_input(cfg, name) for name in _CORPUS_FILES]
    )


def _load_lexicons(cfg) -> tuple[textfeat.Lexicon, ...]:
    return (
        textfeat.load_lexicon(cfg.lexicon_path("transition"), "transition"),
        textfeat.load_lexicon(cfg.lexicon_path("summary"), "summary"),
        textfeat.load_lexicon(cfg.lexicon_path("verbs"), "active_verbs"),
    )


# ---------------------------------------------------------------- ingest


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    videos_path = args.api_response or args.videos \
        or cfg.corpus.get("videos")
    if videos_path is None:
        raise ValueError("ingest needs --videos or --api-response")

    paths = {}
    for name in _CORPUS_FILES[1:]:
        paths[name] = getattr(args, name) or cfg.corpus.get(name)
        if paths[name] is None:
            raise ValueError(f"ingest needs --{name} (or a config entry)")

    records = None
    if args.api_response is not None:
        try:
            records = corpuslib.flatten_api_response(
                read_text(_require(videos_path))
            )
        except corpuslib.CorpusError as exc:
            exc.args = (f"{videos_path}: {exc}",)
            raise
        log.info("flattened %d API records from %s", len(records), videos_path)
    store = corpuslib.load_corpus(
        videos_path, paths["transcripts"], paths["ocr"], paths["labels"],
        records,
    )

    if args.keywords is not None:
        n_rows = _validate_search_results(
            args.keywords, cfg.lexicon_path("keywords"), store
        )
        log.info("validated %d search-result rows against the keyword list",
                 n_rows)

    for name in _CORPUS_FILES:
        by_id = getattr(store, name)
        corpuslib.write_jsonl(_output(cfg, name),
                              [by_id[k] for k in sorted(by_id)])

    print(store.summary.one_line())
    return EXIT_OK


def _validate_search_results(fixture: Path, keywords_path: Path,
                             store: corpuslib.CorpusStore) -> int:
    keywords = textfeat.load_lexicon(_require(keywords_path)).entries

    def check(row: dict) -> None:
        if str(row.get("keyword", "")).lower() not in keywords:
            raise corpuslib.SchemaError(
                f"keyword {row.get('keyword')!r} is not in the keyword list"
            )
        ids = row.get("video_ids")
        if not isinstance(ids, list):
            raise corpuslib.SchemaError("video_ids must be a list")
        for vid in ids:
            if not isinstance(vid, str) or vid not in store.videos:
                raise corpuslib.SchemaError(f"unknown video id {vid!r}")

    return len(corpuslib.read_jsonl(_require(fixture), check))


# -------------------------------------------------------------- featurize


def cmd_featurize(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    transition, summary, verbs = _load_lexicons(cfg)
    blocks = clf.compute_text_features(store, transition, summary, verbs)
    table = clf.doc_feature_records(store, blocks)
    out = _output(cfg, "text_features")
    clf.write_features_tsv(table, out)
    print(f"wrote text features for {len(table.ids)} videos -> {out}")
    return EXIT_OK


# ------------------------------------------------------- build-ner-corpus


def _video_sentences(store: corpuslib.CorpusStore,
                     source: str) -> tuple[list, list]:
    """Every video's ``source`` text (description or transcript) split
    into token sentences, in video-id order, with each sentence's video
    id."""
    sentences, video_ids = [], []
    for vid in sorted(store.videos):
        if source == "description":
            text = store.videos[vid].description
        else:
            tdoc = store.transcripts.get(vid)
            text = tdoc.text if tdoc is not None else ""
        sents = textfeat.tokenize(text).sentence_tokens()
        sentences.extend(sents)
        video_ids.extend([vid] * len(sents))
    return sentences, video_ids


def cmd_build_ner_corpus(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    dict_path = args.dictionary or cfg.dictionary_path()
    dictionary = medterm.load_dictionary(
        _require(dict_path),
        stopwords=textfeat.load_stopwords(cfg.lexicon_path("stopwords")),
    )
    sentences, video_ids = _video_sentences(store, "description")
    # One call projects every video's sentences, so the dictionary's
    # matcher is built once; labels come back in the same order.
    tagged = medterm.project_labels(dictionary, sentences)
    if not tagged:
        raise ValueError("no sentences to project; are descriptions empty?")
    out = _output(cfg, "ner_corpus")
    medterm.write_conll(out, [s.tokens for s in tagged],
                        [s.labels for s in tagged], video_ids=video_ids)
    print(f"projected {len(tagged)} sentences from {len(set(video_ids))} "
          f"videos -> {out}")
    return EXIT_OK


# ----------------------------------------------------------- train-tagger


def _tagger_train_config(cfg: PipelineConfig, args, seed: int) -> TrainConfig:
    overrides = dict(cfg.tagger)
    if getattr(args, "epochs", None) is not None:
        overrides["epochs"] = args.epochs
    if getattr(args, "lr", None) is not None:
        overrides["lr"] = args.lr
    return TrainConfig(seed=seed, **overrides)


def _split_conll(cfg, seed):
    """Read the BIO corpus and split it at the video level."""
    conll = _input(cfg, "ner_corpus")
    sentences, video_ids = medterm.read_conll(conll)
    ids = sorted({v for v in video_ids if v is not None})
    if not ids:
        raise ValueError(f"{conll}: no video ids; rebuild the corpus")
    train_videos, test_videos = clf.split_ids(ids, seed, cfg.split_fraction)
    train_set = set(train_videos)
    train = [s for s, v in zip(sentences, video_ids) if v in train_set]
    test = [(s, v) for s, v in zip(sentences, video_ids)
            if v not in train_set]
    if not train:
        raise ValueError("empty training split")
    return train, test, train_videos, test_videos


def cmd_train_tagger(cfg: PipelineConfig, args) -> int:
    seed = cfg.require_seed()
    config = _tagger_train_config(cfg, args, seed)
    train, test, train_videos, test_videos = _split_conll(cfg, seed)
    if args.arch == ARCH_CRF:
        params, history = train_crf(train, config)
        vocab = None
    else:
        params, vocab, history = train_blstm(train, config)
    meta = {
        "seed": seed,
        "split_fraction": cfg.split_fraction,
        "train_videos": train_videos,
        "test_videos": test_videos,
        "n_train_sentences": len(train),
        "n_test_sentences": len(test),
        "epochs_run": len(history),
    }
    out = _output(cfg, "tagger", arch=args.arch)
    save_model(out, params, config, vocab=vocab, train_meta=meta)
    print(
        f"trained {args.arch} tagger on {len(train)} sentences "
        f"({len(train_videos)} videos, {len(history)} epochs) -> {out}"
    )
    return EXIT_OK


# -------------------------------------------------------------------- tag


def cmd_tag(cfg: PipelineConfig, args) -> int:
    model = load_model(_input(cfg, "tagger", arch=args.arch))
    store = _load_work_corpus(cfg)
    sentences, video_ids = _video_sentences(store, args.source)
    # One call tags every video's sentences, so the taggers batch across
    # videos; the labels come back in the same order.
    labels = tag_sentences(model, sentences)
    # Description tagging keeps the names that assemble reads.
    prefix = "" if args.source == "description" else f"{args.source}_"
    medterm.write_conll(_output(cfg, f"{prefix}tagged", arch=args.arch),
                        sentences, labels, video_ids=video_ids)
    counts = medterm.unique_term_counts(video_ids, sentences, labels)
    out = _output(cfg, f"{prefix}term_counts", arch=args.arch)
    # Every video gets a count, 0 if it has no sentences.
    write_tsv(out, _TERM_COUNTS_HEADER,
              [[vid, str(counts.get(vid, 0))] for vid in sorted(store.videos)])
    print(f"tagged {len(sentences)} sentences across {len(store.videos)} "
          f"videos with {args.arch} -> {out}")
    return EXIT_OK


# --------------------------------------------------------------- assemble


def _parse_term_count(cells: list[str]) -> tuple[str, int]:
    if int(cells[1]) < 0:
        raise ValueError(f"n_unique_medical_terms must be >= 0, "
                         f"got {cells[1]!r}")
    return cells[0], int(cells[1])


def cmd_assemble(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    doc = clf.read_features_tsv(_input(cfg, "text_features"),
                                _TEXT_FEATURES_HEADER)
    counts = dict(read_tsv(_input(cfg, "term_counts"), _TERM_COUNTS_HEADER,
                           _parse_term_count))
    # One row per labeled video, sorted by id: its document features
    # joined with its tagger term count and its labels.
    row_of = {vid: i for i, vid in enumerate(doc.ids)}
    ids = store.labeled_ids()
    for vid in ids:
        if vid not in row_of:
            raise ValueError(f"labeled video {vid!r} has no text features")
    joined = [[counts.get(vid, 0), store.labels[vid].medical_info_high,
               store.labels[vid].understandable, store.labels[vid].recommended]
              for vid in ids]
    table = clf.FeatureTable(tuple(ids), clf.FEATURES_HEADER[1:], np.hstack([
        doc.values[[row_of[vid] for vid in ids]],
        np.reshape(joined, (len(ids), 4)),
    ]))
    out = _output(cfg, "features")
    clf.write_features_tsv(table, out)
    print(f"assembled features for {len(ids)} labeled videos -> {out}")
    return EXIT_OK


# -------------------------------------------------------------- train-clf


def cmd_train_clf(cfg: PipelineConfig, args) -> int:
    seed = cfg.require_seed()
    table = clf.read_features_tsv(_input(cfg, "features"))
    train_videos, test_videos = clf.split_ids(list(table.ids), seed,
                                              cfg.split_fraction)
    train = table.rows(train_videos)
    spec = clf.FEATURE_SPECS[args.target]
    X = train.select(spec.features)
    y = train.select([clf.TARGET_FIELDS[args.target]], "label")[:, 0]
    l2 = args.l2 if args.l2 is not None else cfg.classifier.get("l2")
    model = clf.train_logreg(
        X, y, l2, spec=spec,
        train_meta={
            "seed": seed,
            "split_fraction": cfg.split_fraction,
            "train_videos": train_videos,
            "test_videos": test_videos,
        },
    )
    out = _output(cfg, "clf", target=args.target)
    clf.save_lr_model(out, model)
    print(
        f"trained {args.target} classifier on {len(train.ids)} videos "
        f"({model.train_meta['iterations']} iterations) -> {out}"
    )
    return EXIT_OK


# --------------------------------------------------------------- classify


def _load_classifiers(cfg: PipelineConfig) -> dict[str, clf.LrModel]:
    return {target: clf.load_lr_model(_input(cfg, "clf", target=target))
            for target in clf.TARGETS}


def cmd_classify(cfg: PipelineConfig, args) -> int:
    table = clf.read_features_tsv(_input(cfg, "features"))
    # Every model loads before any prediction is written, so a bad model
    # leaves the previous predictions whole.
    for target, model in _load_classifiers(cfg).items():
        p, labels = clf.predict_batch(model, table)
        out = _output(cfg, "predictions", target=target)
        write_tsv(
            out,
            _PREDICTIONS_HEADER,
            [[vid, f"{prob:.6f}", str(int(lab))]
             for vid, prob, lab in zip(table.ids, p, labels)],
        )
    print(
        f"classified {len(table.ids)} videos for {len(clf.TARGETS)} "
        f"targets -> {out.parent}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- eval


def _prf_cells(m: TagMetrics) -> list[str]:
    return [f"{v:.6f}" for v in (m.precision, m.recall, m.f_measure)]


def cmd_eval_tagger(cfg: PipelineConfig, args) -> int:
    sentences, video_ids = medterm.read_conll(_input(cfg, "ner_corpus"))
    token_rows, span_rows = [], []
    for arch in ARCHS:
        model = load_model(_input(cfg, "tagger", arch=arch))
        test_videos = set(model.train_meta.get("test_videos", []))
        if not test_videos:
            raise ValueError(
                f"tagger model for {arch!r} records no test videos"
            )
        gold = [s for s, v in zip(sentences, video_ids) if v in test_videos]
        if not gold:
            raise ValueError(f"no test sentences for arch {arch!r}")
        predicted = tag_sentences(model, [list(s.tokens) for s in gold])
        gold_labels = [list(s.labels) for s in gold]
        token = evaluate_tagger(predicted, gold_labels)
        spans = evaluate_tagger_spans(predicted, gold_labels)
        token_rows.append([arch, *_prf_cells(token), str(len(gold))])
        span_rows.append([arch, *_prf_cells(spans), str(len(gold))])
        log.info("%s token F=%.3f on %d test sentences",
                 arch, token.f_measure, len(gold))
    out = _output(cfg, "tagger_metrics")
    write_tsv(out, _TAGGER_METRICS_HEADER, token_rows)
    write_tsv(_output(cfg, "tagger_span_metrics"), _TAGGER_METRICS_HEADER,
              span_rows)
    print(f"evaluated {len(ARCHS)} taggers -> {out}")
    return EXIT_OK


def _eval_classifiers(cfg: PipelineConfig) -> None:
    table = clf.read_features_tsv(_input(cfg, "features"))
    out_rows = []
    for target, model in _load_classifiers(cfg).items():
        test = table.rows(model.train_meta.get("test_videos", []))
        if not test.ids:
            raise ValueError(f"no test rows for target {target!r}")
        metrics = clf.evaluate(model, test)
        out_rows.append([
            target, *_prf_cells(metrics.positive),
            *_prf_cells(metrics.negative), f"{metrics.accuracy:.6f}",
            str(len(test.ids)),
        ])
        log.info("%s accuracy=%.3f on %d test videos",
                 target, metrics.accuracy, len(test.ids))
    out = _output(cfg, "clf_metrics")
    write_tsv(out, _CLF_METRICS_HEADER, out_rows)
    print(f"evaluated {len(clf.TARGETS)} classifiers -> {out}")


def cmd_eval(cfg: PipelineConfig, args) -> int:
    if args.kind == "all":
        cmd_eval_tagger(cfg, args)
    _eval_classifiers(cfg)
    return EXIT_OK


# ----------------------------------------------------------------- report


# Tables 2, 5 and 7 copy metrics out of an evaluation table keyed by its
# first column: table -> (evaluation file name, its header, report header,
# rows). A row is (first cell, evaluation row key, metric columns), padded
# with empty cells to the report header's width.
_METRIC_REPORTS = {
    "2": ("tagger_metrics", _TAGGER_METRICS_HEADER,
          ("model", "precision", "recall", "f_measure"),
          [(arch, arch, ("precision", "recall", "f_measure"))
           for arch in ARCHS]),
    "5": ("clf_metrics", _CLF_METRICS_HEADER,
          ("classifier", "precision", "recall", "f_measure",
           "overall_accuracy"),
          [(t, t, ("precision_pos", "recall_pos", "f_measure_pos",
                   "accuracy"))
           for t in ("medical_info", "understandability")]),
    "7": ("clf_metrics", _CLF_METRICS_HEADER,
          ("class", "precision", "recall", "f_measure"),
          [("recommended", "recommendation",
            ("precision_pos", "recall_pos", "f_measure_pos")),
           ("not_recommended", "recommendation",
            ("precision_neg", "recall_neg", "f_measure_neg")),
           ("overall_accuracy", "recommendation", ("accuracy",))]),
}


def cmd_report(cfg: PipelineConfig, args) -> int:
    out = _output(cfg, "report", table=args.table)
    if args.table == "6":
        write_tsv(out, ("coefficient",
                        "recommendation_estimate", "recommendation_p",
                        "medical_info_estimate", "medical_info_p",
                        "understandability_estimate", "understandability_p"),
                  _table6_rows(cfg))
    else:
        source, source_header, header, spec = _METRIC_REPORTS[args.table]
        path = _input(cfg, source)
        metrics = dict(read_tsv(path, source_header, lambda cells: (
            cells[0], dict(zip(source_header[1:], map(float, cells[1:])))
        )))
        rows = []
        for first, key, columns in spec:
            if key not in metrics:
                raise ValueError(f"{path}: no row for {key!r}")
            cells = [first] + [f"{metrics[key][c]:.3f}" for c in columns]
            rows.append(cells + [""] * (len(header) - len(cells)))
        write_tsv(out, header, rows)
    print(f"wrote {out}")
    return EXIT_OK


def _table6_rows(cfg) -> list[list[str]]:
    """Coefficient table across the three models, sorted by the
    recommendation estimate descending; absent features print '-'."""
    per_target: dict[str, dict[str, tuple[float, float]]] = {}
    for target, model in _load_classifiers(cfg).items():
        entries = {"(intercept)": (model.intercept, model.p_values[0])}
        for j, name in enumerate(model.spec.features):
            entries[name] = (model.coefficients[j], model.p_values[j + 1])
        per_target[target] = entries
    rec = per_target["recommendation"]
    features = sorted(
        (n for n in rec if n != "(intercept)"),
        key=lambda n: (-rec[n][0], n),
    )
    rows = []
    for name in ["(intercept)", *features]:
        row = [name]
        for target in ("recommendation", "medical_info", "understandability"):
            entry = per_target[target].get(name)
            if entry is None:
                row += ["-", "-"]
            else:
                # An estimate that rounds to zero prints as 0.00, never -0.00.
                estimate = f"{entry[0]:.2f}".replace("-0.00", "0.00")
                row += [estimate, clf.format_pvalue(entry[1])]
        rows.append(row)
    return rows


# ------------------------------------------------------------ entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, metavar="PATH",
                        help="JSON config file with defaults for all flags")
    common.add_argument("--seed", type=int,
                        help="seed for every random draw in this command")
    common.add_argument("--work-dir", type=Path, metavar="PATH",
                        help="pipeline state directory (default: work)")

    parser = argparse.ArgumentParser(
        prog="vidtriage",
        description="Patient-education video triage pipeline.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("ingest", parents=[common],
                       help="load and normalize the corpus files")
    p.add_argument("--videos", type=Path)
    p.add_argument("--transcripts", type=Path)
    p.add_argument("--ocr", type=Path)
    p.add_argument("--labels", type=Path)
    p.add_argument("--api-response", type=Path, metavar="PATH",
                   help="flatten a raw metadata-list API response instead "
                        "of reading --videos")
    p.add_argument("--keywords", type=Path, metavar="FIXTURE",
                   help="validate a search-result fixture (JSON lines of "
                        "keyword + video_ids) against the keyword list")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("featurize", parents=[common],
                       help="compute per-video text features")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("build-ner-corpus", parents=[common],
                       help="project dictionary terms onto description "
                            "sentences as BIO labels")
    p.add_argument("--dictionary", type=Path, metavar="PATH",
                   help="term dictionary TSV (default: the bundled one)")
    p.set_defaults(func=cmd_build_ner_corpus)

    p = sub.add_parser("train-tagger", parents=[common],
                       help="train a sequence tagger on the BIO corpus")
    p.add_argument("--arch", choices=ARCHS, required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train_tagger)

    p = sub.add_parser("tag", parents=[common],
                       help="tag video text and count unique medical terms")
    p.add_argument("--arch", choices=ARCHS, default=ARCH_BLSTM)
    p.add_argument("--source", choices=("description", "transcript"),
                   default="description")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("assemble", parents=[common],
                       help="join text features, term counts, and labels")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("train-clf", parents=[common],
                       help="train one logistic-regression classifier")
    p.add_argument("--target", choices=clf.TARGETS, required=True)
    p.add_argument("--l2", type=float)
    p.set_defaults(func=cmd_train_clf)

    p = sub.add_parser("classify", parents=[common],
                       help="predict all three labels for every video in "
                            "the feature table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate taggers and classifiers on their "
                            "test splits")
    p.add_argument("--kind", choices=("clf", "all"), default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-tagger", parents=[common],
                       help="evaluate both taggers on their test split")
    p.set_defaults(func=cmd_eval_tagger)

    p = sub.add_parser("report", parents=[common],
                       help="render an evaluation table as TSV")
    p.add_argument("--table", choices=("2", "5", "6", "7"), required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except (corpuslib.CorpusError, OSError, ValueError,
            TrainingDivergedError, clf.ConvergenceError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
