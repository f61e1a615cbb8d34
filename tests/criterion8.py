"""The criterion-8 tree and its recorded digests.

The tree is what the pipeline writes for synth seed 88 (30 videos of 6
sentences): both taggers trained, both of them tagging descriptions and
transcripts (blstm last, so ``assemble`` reads its counts), the three
classifiers, ``classify``, ``eval`` and reports 2, 5, 6 and 7. Every stage
runs in this process through ``cli.main``.

``tests/fixtures/criterion8_digests.json`` holds each file's sha256 and
byte count, the numpy and BLAS versions it was recorded with, and up to
``SAMPLE`` evenly spaced numbers of each JSON and TSV file, from which a
mismatch reports its largest numeric difference.
``tests/record_criterion8_digests.py`` re-records it; nothing else does.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from vidtriage import cli
from vidtriage.classify import TARGETS
from vidtriage.cli import main
from vidtriage.synth import SynthConfig, write_synthetic_corpus

DIGESTS = Path(__file__).parent / "fixtures" / "criterion8_digests.json"
SEED = 88
SAMPLE = 2048
CORPUS_FILES = ("videos", "transcripts", "ocr", "labels")


def _run(work: Path, steps) -> None:
    for argv in steps:
        if main([*argv, "--work-dir", str(work)]) != 0:
            raise RuntimeError(f"stage failed: {argv}")


def build_taggers(root: Path) -> Path:
    """Write the synthetic corpus under ``root/corpus``, ingest it into
    ``root/work``, build the NER corpus and train both taggers; returns
    the work directory."""
    corpus = root / "corpus"
    write_synthetic_corpus(
        corpus, SynthConfig(seed=SEED, n_videos=30, sentences_per_video=6))
    work = root / "work"
    ingest = ["ingest", *(arg for name in CORPUS_FILES for arg in (
        f"--{name}", str(corpus / f"{name}.jsonl")))]
    _run(work, [
        ingest,
        ["build-ner-corpus", "--dictionary", str(corpus / "dictionary.tsv")],
        *(["train-tagger", "--arch", arch, "--seed", str(SEED)]
          for arch in cli.ARCHS),
    ])
    return work


def build_rest(work: Path) -> None:
    """Run every later stage of the tree in ``work``."""
    archs = sorted(cli.ARCHS, key=lambda arch: arch == "blstm")
    _run(work, [
        ["featurize"],
        *(["tag", "--arch", arch, "--source", source]
          for arch in archs for source in ("transcript", "description")),
        ["assemble"],
        *(["train-clf", "--target", target, "--seed", str(SEED)]
          for target in TARGETS),
        ["classify"], ["eval"],
        *(["report", "--table", table] for table in ("2", "5", "6", "7")),
    ])


def tree_files(corpus: Path, work: Path) -> dict[str, Path]:
    """Each file of the tree by its name in the digests: the synthetic
    corpus under ``corpus/``, the work directory under ``work/``."""
    return {f"{prefix}/{p.relative_to(top).as_posix()}": p
            for prefix, top in (("corpus", corpus), ("work", work))
            for p in sorted(top.rglob("*")) if p.is_file()}


def _json_numbers(node, out: list) -> None:
    if isinstance(node, dict):
        if "f64le" in node:
            out.extend(np.frombuffer(base64.b64decode(node["f64le"]), "<f8"))
            return
        for value in node.values():
            _json_numbers(value, out)
    elif isinstance(node, list):
        for value in node:
            _json_numbers(value, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.append(float(node))


def _tsv_numbers(text: str, out: list) -> None:
    for cell in (c for line in text.splitlines()[1:]
                 for c in line.split("\t")):
        try:
            out.append(float(cell))
        except ValueError:
            pass


def numbers(path: Path) -> np.ndarray | None:
    """Every number of a JSON or TSV file in file order (model weights
    decoded from their base64 blocks), or None for other files."""
    out: list = []
    if path.suffix == ".json":
        _json_numbers(json.loads(path.read_text()), out)
    elif path.suffix == ".tsv":
        _tsv_numbers(path.read_text(), out)
    else:
        return None
    return np.array(out, dtype=np.float64)


def _sample_at(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, SAMPLE)).astype(np.intp))


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def record(files: dict[str, Path]) -> dict:
    """The digests of ``files``: sha256, bytes and sampled numbers."""
    entries = {}
    for name, path in files.items():
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest(),
                 "bytes": len(data)}
        values = numbers(path)
        if values is not None:
            entry["n_numbers"] = len(values)
            entry["sample_f64le"] = base64.b64encode(
                values[_sample_at(len(values))].astype("<f8").tobytes()
            ).decode()
        entries[name] = entry
    return {"versions": versions(), "files": entries}


def moves(recorded: dict, files: dict[str, Path]) -> list[str]:
    """One line per file that is missing, new or changed, with the largest
    difference over the recorded numbers of a changed JSON or TSV file."""
    lines = []
    old = recorded["files"]
    for name in sorted(old.keys() - files.keys()):
        lines.append(f"{name}: missing")
    for name in sorted(files.keys() - old.keys()):
        lines.append(f"{name}: not recorded")
    for name in sorted(old.keys() & files.keys()):
        entry = old[name]
        data = files[name].read_bytes()
        if hashlib.sha256(data).hexdigest() == entry["sha256"]:
            continue
        line = f"{name}: {entry['bytes']} -> {len(data)} bytes"
        values = numbers(files[name])
        if values is not None and "sample_f64le" in entry:
            if len(values) != entry["n_numbers"]:
                line += (f", {entry['n_numbers']} -> {len(values)} "
                         f"numbers")
            else:
                was = np.frombuffer(
                    base64.b64decode(entry["sample_f64le"]), "<f8")
                now = values[_sample_at(len(values))]
                diff = np.abs(now - was)
                diff[now == was] = 0.0
                worst = float(np.max(diff, initial=0.0))
                line += (f", largest numeric difference {worst:.3g} over "
                         f"{len(was)} of {len(values)} numbers")
        lines.append(line)
    return lines
