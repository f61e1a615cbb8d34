"""Output checks, artifact counts and the determinism digest.

Every check returns a list of problems; an empty list means the output
is correct. Counts come from the files a stage wrote, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path
from typing import Iterable, Optional

TARGETS = ("medical_info", "understandability", "recommendation")
BIO_LABELS = ("B-MED", "I-MED", "O")
_CELL = re.compile(r"^\d\.\d{3}$")


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    if not lines:
        return [], []
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def conll_sentences(path: Path) -> list[tuple[Optional[str], list[list[str]]]]:
    """(video id, rows) per sentence; each row is the line split on tabs."""
    out, rows, vid = [], [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            m = re.match(r"#\s*video_id\s*=\s*(\S+)", line)
            vid = m.group(1) if m else vid
        elif line.strip():
            rows.append(line.split("\t"))
        elif rows:
            out.append((vid, rows))
            rows = []
    if rows:
        out.append((vid, rows))
    return out


def conll_tokens(path: Path, videos: Optional[set] = None) -> int:
    return sum(len(rows) for vid, rows in conll_sentences(path)
               if videos is None or vid in videos)


def video_ids(corpus_dir: Path) -> list[str]:
    with open(corpus_dir / "videos.jsonl", encoding="utf-8") as fh:
        return sorted(json.loads(line)["video_id"] for line in fh if line.strip())


# ------------------------------------------------------------- checks


def tagger_f(work: Path) -> dict[str, float]:
    _, rows = read_tsv(work / "eval" / "tagger_metrics.tsv")
    return {row[0]: float(row[3]) for row in rows}


def clf_accuracy_mean(work: Path) -> float:
    header, rows = read_tsv(work / "eval" / "clf_metrics.tsv")
    col = header.index("accuracy")
    return sum(float(r[col]) for r in rows) / len(rows)


def check_clf_metrics(work: Path) -> list[str]:
    """One row per classifier, with an accuracy in [0, 1]."""
    header, rows = read_tsv(work / "eval" / "clf_metrics.tsv")
    if "accuracy" not in header or len(rows) != len(TARGETS) \
            or not all(0.0 <= float(r[header.index("accuracy")]) <= 1.0
                       for r in rows):
        return ["clf_metrics.tsv: not one accuracy per classifier"]
    return []


def check_tagger_f(work: Path, floor: float) -> list[str]:
    scores = tagger_f(work)
    return [f"{arch} token F {scores.get(arch, 0.0):.3f} < {floor}"
            for arch in ("crf", "blstm") if scores.get(arch, 0.0) < floor]


def check_report(work: Path, table: str) -> list[str]:
    path = work / "reports" / f"table{table}.tsv"
    header, rows = read_tsv(path)
    expected = {
        "2": (["model", "precision", "recall", "f_measure"], 2),
        "5": (["classifier", "precision", "recall", "f_measure",
               "overall_accuracy"], 2),
        "7": (["class", "precision", "recall", "f_measure"], 3),
    }
    if table == "6":
        ok = header[:1] == ["coefficient"] and len(header) == 7 and rows \
            and all(len(r) == 7 for r in rows)
        return [] if ok else [f"{path.name}: malformed"]
    want_header, n_rows = expected[table]
    problems = []
    if header != want_header or len(rows) != n_rows:
        problems.append(f"{path.name}: header or row count wrong")
    if table == "2":
        for row, arch in zip(rows, ("crf", "blstm")):
            if row[0] != arch or len(row) != 4 \
                    or not all(_CELL.match(c) for c in row[1:]):
                problems.append(f"{path.name}: bad row {row}")
    return problems


def check_tagged(work: Path, arch: str, ids: list[str]) -> list[str]:
    """Well-formed BIO, one label per token, and one count per video."""
    problems = []
    for vid, rows in conll_sentences(work / "ner" / f"tagged_{arch}.conll"):
        prev = "O"
        for row in rows:
            if len(row) != 2 or row[1] not in BIO_LABELS \
                    or (row[1] == "I-MED" and prev == "O"):
                problems.append(f"tagged_{arch}.conll: bad row {row} ({vid})")
                break
            prev = row[1]
    header, rows = read_tsv(work / "ner" / "term_counts.tsv")
    if header != ["video_id", "n_unique_medical_terms"] \
            or [r[0] for r in rows] != ids \
            or not all(len(r) == 2 and r[1].isdigit() for r in rows):
        problems.append("term_counts.tsv: not one count per video")
    return problems[:5]


def check_predictions(work: Path, ids: list[str]) -> list[str]:
    problems = []
    for target in TARGETS:
        header, rows = read_tsv(work / "predictions" / f"{target}.tsv")
        if header != ["video_id", "probability", "label"] \
                or [r[0] for r in rows] != ids:
            problems.append(f"{target}.tsv: not one row per video")
            continue
        for row in rows:
            if not 0.0 <= float(row[1]) <= 1.0 or row[2] not in ("0", "1"):
                problems.append(f"{target}.tsv: bad row {row}")
                break
    return problems


def check_pvalues(work: Path) -> list[str]:
    problems = []
    for target in TARGETS:
        doc = json.loads((work / "models" / f"clf_{target}.json").read_text())
        if not all(math.isfinite(p) and 0.0 <= p <= 1.0
                   for p in doc["p_values"]):
            problems.append(f"clf_{target}.json: p-value not finite")
    return problems


# ------------------------------------------------------------ digests


def tree_digest(root: Path, exclude: Iterable[str] = ()) -> str:
    """sha256 over every file's relative path and bytes, sorted by path."""
    skip = set(exclude)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and not skip.intersection(rel.parts):
            h.update(str(rel).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class DigestLedger:
    """Digests of earlier runs in this checkout, keyed by code and seed.

    The key includes a digest of the program and benchmark sources, so
    editing either starts a fresh entry instead of reporting a mismatch.
    """

    def __init__(self, path: Path):
        self.path = path

    def check(self, key: str, digest: str) -> Optional[str]:
        known = {}
        if self.path.exists():
            known = json.loads(self.path.read_text(encoding="utf-8"))
        if known.setdefault(key, digest) != digest:
            return f"digest {digest[:12]} differs from {known[key][:12]} " \
                   f"of an earlier run with the same seed ({key})"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        return None
