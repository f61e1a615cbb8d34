"""Which module attributes the traced run wraps, and the per-layer metrics.

Each wrapped attribute is the one its caller looks up: ``cli.py`` binds
the tagger entry points into its own namespace, ``model_io.tag_sentences``
looks up ``tag_with_crf`` in ``model_io``, ``classify`` imported
``extract_text_features`` by name, and so on. Per-token helpers such as
``crf_sequence_score`` are left alone.

A layer's ``_s`` metric is the self time of its spans (span time minus
the time covered by child spans) unless it says "inclusive". Work counts
come from the files the stages wrote, or from span counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from checks import conll_sentences, conll_tokens
from spans import SpanTotals, Wrap


def _text_bytes(text, *_, **__) -> int:
    return len(text.encode("utf-8"))


WRAPS: tuple[Wrap, ...] = (
    Wrap("vidtriage.corpus", "load_corpus", "corpus.load"),
    Wrap("vidtriage.corpus", "write_jsonl", "corpus.write"),
    Wrap("vidtriage.textfeat", "tokenize", "textfeat.tokenize", _text_bytes),
    Wrap("vidtriage.classify", "extract_text_features", "textfeat.extract"),
    Wrap("vidtriage.classify", "compute_text_features", "classify.text_features"),
    Wrap("vidtriage.classify", "doc_feature_records", "classify.text_features"),
    Wrap("vidtriage.medterm", "project_labels", "medterm.project"),
    Wrap("vidtriage.medterm", "read_conll", "medterm.conll_io"),
    Wrap("vidtriage.medterm", "write_conll", "medterm.conll_io"),
    Wrap("vidtriage.cli", "train_crf", "crf.train"),
    Wrap("vidtriage.cli", "train_blstm", "blstm.train"),
    Wrap("vidtriage.seqtag.model_io", "tag_with_crf", "crf.tag"),
    Wrap("vidtriage.seqtag.model_io", "tag_with_blstm", "blstm.tag"),
    Wrap("vidtriage.cli", "save_model", "model_io.save"),
    Wrap("vidtriage.cli", "load_model", "model_io.load"),
    Wrap("vidtriage.cli", "evaluate_tagger", "seqtag_metrics.eval"),
    Wrap("vidtriage.cli", "evaluate_tagger_spans", "seqtag_metrics.eval"),
    Wrap("vidtriage.classify", "fit_logreg", "classify.fit"),
    Wrap("vidtriage.classify", "logreg_objective_grad", "classify.objective"),
    Wrap("vidtriage.classify", "wald_pvalues", "classify.wald"),
    Wrap("vidtriage.classify", "predict_batch", "classify.predict"),
    Wrap("vidtriage.classify", "read_features_tsv", "classify.tsv"),
    Wrap("vidtriage.classify", "write_features_tsv", "classify.tsv"),
)


class Group:
    """The spans and work directory of one pass or one set-up repetition."""

    def __init__(self, totals: dict[tuple[str, str], SpanTotals], work: Path):
        self.totals = totals
        self.work = work

    def _match(self, name: str, stage: Optional[str]):
        for (n, st), t in self.totals.items():
            if n == name and (stage is None or st == stage
                              or st.startswith(stage + ":")):
                yield t

    def has(self, name: str, stage: Optional[str] = None) -> bool:
        return any(True for _ in self._match(name, stage))

    def self_s(self, name: str, stage: Optional[str] = None) -> float:
        return sum(t.self_s for t in self._match(name, stage))

    def total_s(self, name: str, stage: Optional[str] = None) -> float:
        return sum(t.total_s for t in self._match(name, stage))

    def calls(self, name: str) -> int:
        return sum(t.calls for t in self._match(name, None))

    def work_count(self, name: str) -> int:
        return sum(t.work for t in self._match(name, None))

    # ----------------------------------------------------- artifact counts

    def corpus_records(self) -> int:
        return sum(
            sum(1 for line in p.read_text("utf-8").splitlines() if line)
            for p in sorted((self.work / "corpus").glob("*.jsonl"))
        )

    def tagger_meta(self, arch: str) -> dict:
        path = self.work / "models" / f"tagger_{arch}.json"
        return json.loads(path.read_text("utf-8"))["train_meta"]

    def train_token_epochs(self, arch: str) -> int:
        meta = self.tagger_meta(arch)
        tokens = conll_tokens(self.work / "ner" / "corpus.conll",
                              set(meta["train_videos"]))
        return tokens * meta["epochs_run"]

    def tagged_tokens(self, arch: str) -> int:
        return conll_tokens(self.work / "ner" / f"tagged_{arch}.conll")

    def clf_iterations(self) -> int:
        return sum(
            json.loads(p.read_text("utf-8"))["train_meta"]["iterations"]
            for p in sorted((self.work / "models").glob("clf_*.json"))
        )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    needs: tuple[str, Optional[str]]   # (span name, stage) selecting groups
    value: Callable[[Group], float]


def _tagger_metrics(arch: str) -> list[Metric]:
    train = (f"{arch}.train", None)
    tag = (f"{arch}.tag", f"tag:{arch}")
    return [
        Metric(f"{arch}.train_s", "s", "lower", train,
               lambda g: g.total_s(f"{arch}.train")),
        Metric(f"{arch}.epochs", "count", "lower", train,
               lambda g: g.tagger_meta(arch)["epochs_run"]),
        Metric(f"{arch}.train_us_per_token_epoch", "us", "lower", train,
               lambda g: 1e6 * g.total_s(f"{arch}.train")
               / g.train_token_epochs(arch)),
        Metric(f"{arch}.tag_s", "s", "lower", tag,
               lambda g: g.total_s(*tag)),
        Metric(f"{arch}.tag_us_per_token", "us", "lower", tag,
               lambda g: 1e6 * g.total_s(*tag) / g.tagged_tokens(arch)),
    ]


METRICS: list[Metric] = [
    Metric("corpus.load_s", "s", "lower", ("corpus.load", None),
           lambda g: g.self_s("corpus.load")),
    Metric("corpus.write_s", "s", "lower", ("corpus.write", None),
           lambda g: g.self_s("corpus.write")),
    Metric("corpus.records", "count", "higher", ("corpus.write", None),
           Group.corpus_records),
    Metric("textfeat.tokenize_s", "s", "lower", ("textfeat.tokenize", None),
           lambda g: g.self_s("textfeat.tokenize")),
    Metric("textfeat.tokenize_calls", "count", "lower",
           ("textfeat.tokenize", None),
           lambda g: g.calls("textfeat.tokenize")),
    Metric("textfeat.extract_s", "s", "lower", ("textfeat.extract", None),
           lambda g: g.self_s("textfeat.extract")),
    Metric("textfeat.text_mb", "MB", "higher", ("textfeat.tokenize", None),
           lambda g: g.work_count("textfeat.tokenize") / 1e6),
    Metric("textfeat.mb_per_s", "MB/s", "higher", ("textfeat.tokenize", None),
           lambda g: g.work_count("textfeat.tokenize") / 1e6
           / g.self_s("textfeat.tokenize")),
    Metric("medterm.project_s", "s", "lower", ("medterm.project", None),
           lambda g: g.self_s("medterm.project")),
    Metric("medterm.sentences", "count", "higher", ("medterm.project", None),
           lambda g: len(conll_sentences(g.work / "ner" / "corpus.conll"))),
    Metric("medterm.conll_io_s", "s", "lower", ("medterm.conll_io", None),
           lambda g: g.self_s("medterm.conll_io")),
    Metric("medterm.conll_tokens", "count", "higher",
           ("medterm.conll_io", None),
           lambda g: sum(conll_tokens(p) for p in
                         sorted((g.work / "ner").glob("*.conll")))),
    *_tagger_metrics("crf"),
    *_tagger_metrics("blstm"),
    Metric("model_io.save_s", "s", "lower", ("model_io.save", None),
           lambda g: g.self_s("model_io.save")),
    Metric("model_io.load_s", "s", "lower", ("model_io.load", None),
           lambda g: g.self_s("model_io.load")),
    Metric("model_io.model_bytes", "bytes", "lower", ("model_io.load", None),
           lambda g: sum(p.stat().st_size for p in
                         sorted((g.work / "models").glob("tagger_*.json")))),
    Metric("seqtag_metrics.eval_s", "s", "lower",
           ("seqtag_metrics.eval", None),
           lambda g: g.self_s("seqtag_metrics.eval")),
    # fit_s is inclusive: it covers the objective evaluations it makes.
    Metric("classify.fit_s", "s", "lower", ("classify.fit", None),
           lambda g: g.total_s("classify.fit")),
    Metric("classify.fit_iterations", "count", "lower", ("classify.fit", None),
           Group.clf_iterations),
    Metric("classify.objective_evals", "count", "lower",
           ("classify.fit", None),
           lambda g: g.calls("classify.objective")),
    Metric("classify.wald_s", "s", "lower", ("classify.wald", None),
           lambda g: g.self_s("classify.wald")),
    Metric("classify.predict_s", "s", "lower", ("classify.predict", None),
           lambda g: g.self_s("classify.predict")),
    Metric("classify.text_features_s", "s", "lower",
           ("classify.text_features", None),
           lambda g: g.self_s("classify.text_features")),
    Metric("classify.tsv_s", "s", "lower", ("classify.tsv", None),
           lambda g: g.self_s("classify.tsv")),
    Metric("cli.self_s", "s", "lower", ("cli", None),
           lambda g: g.self_s("cli")),
]

def layer_values(totals: dict[tuple[str, str], SpanTotals],
                 work: Path) -> dict[str, float]:
    """Every metric whose layer ran in one pass or set-up repetition.

    Read right after the group ran, while its work directory exists.
    """
    group = Group(totals, work)
    return {m.name: m.value(group) for m in METRICS if group.has(*m.needs)}
