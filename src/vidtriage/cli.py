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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from . import classify as clf
from . import corpus as corpuslib
from . import medterm, textfeat
from .data_files import data_path
from .artifacts import read_tsv, write_tsv
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
    "corpus": dict.fromkeys(("videos", "transcripts", "ocr", "labels"), str),
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
    corpus_paths: dict = field(default_factory=dict)
    dictionary: Optional[Path] = None
    lexicons: dict = field(default_factory=dict)
    tagger: dict = field(default_factory=dict)
    classifier: dict = field(default_factory=dict)

    def __post_init__(self):
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
        doc = json.loads(path.read_text(encoding="utf-8"))
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
    cfg = PipelineConfig(
        seed=doc.get("seed"),
        work_dir=Path(doc.get("work_dir", "work")),
        split_fraction=float(doc.get("split_fraction", 0.8)),
        corpus_paths={k: Path(v) for k, v in doc.get("corpus", {}).items()},
        dictionary=Path(doc["dictionary"]) if "dictionary" in doc else None,
        lexicons=doc.get("lexicons", {}),
        tagger=dict(doc.get("tagger", {})),
        classifier=dict(doc.get("classifier", {})),
    )
    if args.seed is not None:
        cfg.seed = args.seed
    if args.work_dir is not None:
        cfg.work_dir = args.work_dir
    return cfg


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing input file: {path}")
    return path


def _corpus_dir(cfg) -> Path:
    return cfg.work_dir / "corpus"


def _load_work_corpus(cfg: PipelineConfig) -> corpuslib.CorpusStore:
    cdir = _corpus_dir(cfg)
    return corpuslib.load_corpus(
        _require(cdir / "videos.jsonl"),
        _require(cdir / "transcripts.jsonl"),
        _require(cdir / "ocr.jsonl"),
        _require(cdir / "labels.jsonl"),
    )


def _load_lexicons(cfg) -> tuple[textfeat.Lexicon, ...]:
    return (
        textfeat.load_lexicon(cfg.lexicon_path("transition"), "transition"),
        textfeat.load_lexicon(cfg.lexicon_path("summary"), "summary"),
        textfeat.load_lexicon(cfg.lexicon_path("verbs"), "active_verbs"),
    )


# ---------------------------------------------------------------- ingest


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    cdir = _corpus_dir(cfg)

    videos_path = args.api_response or args.videos \
        or cfg.corpus_paths.get("videos")
    if videos_path is None:
        raise ValueError("ingest needs --videos or --api-response")

    paths = {}
    for name, flag in (("transcripts", args.transcripts),
                       ("ocr", args.ocr), ("labels", args.labels)):
        paths[name] = flag or cfg.corpus_paths.get(name)
        if paths[name] is None:
            raise ValueError(f"ingest needs --{name} (or a config entry)")

    records = None
    if args.api_response is not None:
        try:
            records = corpuslib.flatten_api_response(
                _require(videos_path).read_text(encoding="utf-8")
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

    def by_id(mapping):
        return [mapping[k] for k in sorted(mapping)]

    corpuslib.write_jsonl(cdir / "videos.jsonl", by_id(store.videos))
    corpuslib.write_jsonl(cdir / "transcripts.jsonl", by_id(store.transcripts))
    corpuslib.write_jsonl(cdir / "ocr.jsonl", by_id(store.ocr))
    corpuslib.write_jsonl(cdir / "labels.jsonl", by_id(store.labels))

    print(store.summary.one_line())
    return EXIT_OK


def _validate_search_results(fixture: Path, keywords_path: Path,
                             store: corpuslib.CorpusStore) -> int:
    keywords = textfeat.load_lexicon(_require(keywords_path)).entries
    n_rows = 0
    for lineno, line in enumerate(
        _require(fixture).read_text("utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            row = corpuslib._loads_object(line)
        except corpuslib.CorpusError as exc:
            raise ValueError(f"{fixture}:{lineno}: {exc}") from None
        keyword = str(row.get("keyword", "")).lower()
        if keyword not in keywords:
            raise ValueError(
                f"{fixture}:{lineno}: keyword {row.get('keyword')!r} "
                "is not in the keyword list"
            )
        ids = row.get("video_ids")
        if not isinstance(ids, list):
            raise ValueError(f"{fixture}:{lineno}: video_ids must be a list")
        for vid in ids:
            if not isinstance(vid, str) or vid not in store.videos:
                raise ValueError(
                    f"{fixture}:{lineno}: unknown video id {vid!r}"
                )
        n_rows += 1
    return n_rows


# -------------------------------------------------------------- featurize


def cmd_featurize(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    transition, summary, verbs = _load_lexicons(cfg)
    blocks = clf.compute_text_features(store, transition, summary, verbs)
    rows = clf.doc_feature_records(store, blocks)
    out = cfg.work_dir / "features" / "text_features.tsv"
    clf.write_features_tsv(rows, out, _TEXT_FEATURES_HEADER)
    print(f"wrote text features for {len(rows)} videos -> {out}")
    return EXIT_OK


# ------------------------------------------------------- build-ner-corpus


def cmd_build_ner_corpus(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    dict_path = args.dictionary or cfg.dictionary_path()
    dictionary = medterm.load_dictionary(
        _require(dict_path),
        stopwords=textfeat.load_stopwords(cfg.lexicon_path("stopwords")),
    )
    sentences, video_ids = [], []
    n_videos = 0
    for vid in sorted(store.videos):
        sents = textfeat.tokenize(
            store.videos[vid].description
        ).sentence_tokens()
        if sents:
            n_videos += 1
        sentences.extend(sents)
        video_ids.extend([vid] * len(sents))
    # One call projects every video's sentences, so the dictionary's
    # matcher is built once; labels come back in the same order.
    tagged = medterm.project_labels(dictionary, sentences, mode=args.mode)
    if not tagged:
        raise ValueError("no sentences to project; are descriptions empty?")
    out = cfg.work_dir / "ner" / "corpus.conll"
    medterm.write_conll(tagged, out, video_ids=video_ids)
    print(f"projected {len(tagged)} sentences from {n_videos} videos -> {out}")
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
    conll = _require(cfg.work_dir / "ner" / "corpus.conll")
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
    out = cfg.work_dir / "models" / f"tagger_{args.arch}.json"
    save_model(out, params, config, vocab=vocab, train_meta=meta)
    print(
        f"trained {args.arch} tagger on {len(train)} sentences "
        f"({len(train_videos)} videos, {len(history)} epochs) -> {out}"
    )
    return EXIT_OK


# -------------------------------------------------------------------- tag


def cmd_tag(cfg: PipelineConfig, args) -> int:
    model_path = _require(
        cfg.work_dir / "models" / f"tagger_{args.arch}.json"
    )
    model = load_model(model_path)
    store = _load_work_corpus(cfg)
    per_video = {}
    for vid in sorted(store.videos):
        if args.source == "description":
            text = store.videos[vid].description
        else:
            tdoc = store.transcripts.get(vid)
            text = tdoc.text if tdoc is not None else ""
        per_video[vid] = textfeat.tokenize(text).sentence_tokens()
    # One call tags every video's sentences, so the taggers batch across
    # videos; the labels come back in the same order.
    predicted = iter(tag_sentences(
        model, [s for sentences in per_video.values() for s in sentences]
    ))
    tagged, video_ids = [], []
    counts = {}
    for vid, sentences in per_video.items():
        sents = [
            medterm.TaggedSentence(tokens=tuple(s), labels=tuple(p))
            for s, p in zip(sentences, predicted)
        ]
        counts[vid] = medterm.unique_medical_terms(sents)
        tagged.extend(sents)
        video_ids.extend([vid] * len(sents))
    ner_dir = cfg.work_dir / "ner"
    medterm.write_conll(tagged, ner_dir / f"tagged_{args.arch}.conll",
                        video_ids=video_ids)
    write_tsv(
        ner_dir / "term_counts.tsv",
        _TERM_COUNTS_HEADER,
        [[vid, str(counts[vid])] for vid in sorted(counts)],
    )
    print(
        f"tagged {len(tagged)} sentences across {len(counts)} videos "
        f"with {args.arch} -> {ner_dir / 'term_counts.tsv'}"
    )
    return EXIT_OK


# --------------------------------------------------------------- assemble


def cmd_assemble(cfg: PipelineConfig, args) -> int:
    store = _load_work_corpus(cfg)
    doc_rows = {row.video_id: row for row in clf.read_features_tsv(
        _require(cfg.work_dir / "features" / "text_features.tsv"),
        _TEXT_FEATURES_HEADER,
    )}
    counts = dict(read_tsv(
        _require(cfg.work_dir / "ner" / "term_counts.tsv"),
        _TERM_COUNTS_HEADER,
        lambda cells: (cells[0], int(cells[1])),
    ))
    # One row per labeled video, sorted by id: its document features
    # joined with its tagger term count and its labels.
    rows = []
    for vid in store.labeled_ids():
        if vid not in doc_rows:
            raise ValueError(f"labeled video {vid!r} has no text features")
        labels = store.labels[vid]
        rows.append(replace(
            doc_rows[vid],
            n_unique_medical_terms=float(counts.get(vid, 0)),
            medical_info_high=labels.medical_info_high,
            understandable=labels.understandable,
            recommended=labels.recommended,
        ))
    out = cfg.work_dir / "features" / "features.tsv"
    clf.write_features_tsv(rows, out)
    print(f"assembled features for {len(rows)} labeled videos -> {out}")
    return EXIT_OK


# -------------------------------------------------------------- train-clf


def cmd_train_clf(cfg: PipelineConfig, args) -> int:
    seed = cfg.require_seed()
    rows = clf.read_features_tsv(
        _require(cfg.work_dir / "features" / "features.tsv")
    )
    ids = [row.video_id for row in rows]
    train_videos, test_videos = clf.split_ids(ids, seed, cfg.split_fraction)
    train_set = set(train_videos)
    train_rows = [row for row in rows if row.video_id in train_set]
    spec = clf.FEATURE_SPECS[args.target]
    X = clf.rows_to_matrix(train_rows, spec)
    y = clf.target_vector(train_rows, args.target)
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
    out = cfg.work_dir / "models" / f"clf_{args.target}.json"
    clf.save_lr_model(out, model)
    print(
        f"trained {args.target} classifier on {len(train_rows)} videos "
        f"({model.train_meta['iterations']} iterations) -> {out}"
    )
    return EXIT_OK


# --------------------------------------------------------------- classify


def _clf_model_path(cfg, target: str) -> Path:
    return cfg.work_dir / "models" / f"clf_{target}.json"


def cmd_classify(cfg: PipelineConfig, args) -> int:
    rows = clf.read_features_tsv(
        _require(cfg.work_dir / "features" / "features.tsv")
    )
    out_dir = cfg.work_dir / "predictions"
    for target in clf.TARGETS:
        model = clf.load_lr_model(_require(_clf_model_path(cfg, target)))
        p, labels = clf.predict_batch(model, rows)
        write_tsv(
            out_dir / f"{target}.tsv",
            _PREDICTIONS_HEADER,
            [[row.video_id, f"{prob:.6f}", str(int(lab))]
             for row, prob, lab in zip(rows, p, labels)],
        )
    print(
        f"classified {len(rows)} videos for {len(clf.TARGETS)} "
        f"targets -> {out_dir}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- eval


def _prf_cells(m: TagMetrics) -> list[str]:
    return [f"{v:.6f}" for v in (m.precision, m.recall, m.f_measure)]


def cmd_eval_tagger(cfg: PipelineConfig, args) -> int:
    conll = _require(cfg.work_dir / "ner" / "corpus.conll")
    sentences, video_ids = medterm.read_conll(conll)
    token_rows, span_rows = [], []
    for arch in ARCHS:
        model = load_model(
            _require(cfg.work_dir / "models" / f"tagger_{arch}.json")
        )
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
    eval_dir = cfg.work_dir / "eval"
    write_tsv(eval_dir / "tagger_metrics.tsv", _TAGGER_METRICS_HEADER,
              token_rows)
    write_tsv(eval_dir / "tagger_span_metrics.tsv", _TAGGER_METRICS_HEADER,
              span_rows)
    print(
        f"evaluated {len(ARCHS)} taggers -> "
        f"{eval_dir / 'tagger_metrics.tsv'}"
    )
    return EXIT_OK


def _eval_classifiers(cfg: PipelineConfig) -> None:
    rows = clf.read_features_tsv(
        _require(cfg.work_dir / "features" / "features.tsv")
    )
    by_id = {row.video_id: row for row in rows}
    out_rows = []
    for target in clf.TARGETS:
        model = clf.load_lr_model(_require(_clf_model_path(cfg, target)))
        test_videos = model.train_meta.get("test_videos", [])
        test_rows = [by_id[v] for v in test_videos if v in by_id]
        if not test_rows:
            raise ValueError(f"no test rows for target {target!r}")
        metrics = clf.evaluate(model, test_rows)
        out_rows.append([
            target, *_prf_cells(metrics.positive),
            *_prf_cells(metrics.negative), f"{metrics.accuracy:.6f}",
            str(len(test_rows)),
        ])
        log.info("%s accuracy=%.3f on %d test videos",
                 target, metrics.accuracy, len(test_rows))
    eval_dir = cfg.work_dir / "eval"
    write_tsv(eval_dir / "clf_metrics.tsv", _CLF_METRICS_HEADER, out_rows)
    print(
        f"evaluated {len(clf.TARGETS)} classifiers -> "
        f"{eval_dir / 'clf_metrics.tsv'}"
    )


def cmd_eval(cfg: PipelineConfig, args) -> int:
    if args.kind in ("tagger", "all"):
        cmd_eval_tagger(cfg, args)
    if args.kind in ("clf", "all"):
        _eval_classifiers(cfg)
    return EXIT_OK


# ----------------------------------------------------------------- report


# Tables 2, 5 and 7 copy metrics out of an evaluation table keyed by its
# first column: table -> (evaluation file, its header, report header,
# rows). A row is (first cell, evaluation row key, metric columns), padded
# with empty cells to the report header's width.
_METRIC_REPORTS = {
    "2": ("tagger_metrics.tsv", _TAGGER_METRICS_HEADER,
          ("model", "precision", "recall", "f_measure"),
          [(arch, arch, ("precision", "recall", "f_measure"))
           for arch in ARCHS]),
    "5": ("clf_metrics.tsv", _CLF_METRICS_HEADER,
          ("classifier", "precision", "recall", "f_measure",
           "overall_accuracy"),
          [(t, t, ("precision_pos", "recall_pos", "f_measure_pos",
                   "accuracy"))
           for t in ("medical_info", "understandability")]),
    "7": ("clf_metrics.tsv", _CLF_METRICS_HEADER,
          ("class", "precision", "recall", "f_measure"),
          [("recommended", "recommendation",
            ("precision_pos", "recall_pos", "f_measure_pos")),
           ("not_recommended", "recommendation",
            ("precision_neg", "recall_neg", "f_measure_neg")),
           ("overall_accuracy", "recommendation", ("accuracy",))]),
}


def cmd_report(cfg: PipelineConfig, args) -> int:
    out = args.output or cfg.work_dir / "reports" / f"table{args.table}.tsv"
    if args.table == "6":
        write_tsv(out, ("coefficient",
                        "recommendation_estimate", "recommendation_p",
                        "medical_info_estimate", "medical_info_p",
                        "understandability_estimate", "understandability_p"),
                  _table6_rows(cfg))
    else:
        source, source_header, header, spec = _METRIC_REPORTS[args.table]
        path = _require(cfg.work_dir / "eval" / source)
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
    for target in clf.TARGETS:
        model = clf.load_lr_model(_require(_clf_model_path(cfg, target)))
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
    p.add_argument("--mode", choices=("phrase", "word"), default="phrase")
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
    p.add_argument("--kind", choices=("tagger", "clf", "all"), default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-tagger", parents=[common],
                       help="evaluate both taggers on their test split")
    p.set_defaults(func=cmd_eval_tagger)

    p = sub.add_parser("report", parents=[common],
                       help="render an evaluation table as TSV")
    p.add_argument("--table", choices=("2", "5", "6", "7"), required=True)
    p.add_argument("--output", type=Path)
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
