"""
End-to-end pipeline through the command-line interface
======================================================

Generates a synthetic corpus, then drives every pipeline stage exactly
as a shell user would: ingest, featurize, build the NER corpus, train
and evaluate both taggers and all three classifiers, and render the
report tables. Rerunning with the same seed reproduces every artifact
byte for byte.
"""

import tempfile
from pathlib import Path

from vidtriage.cli import main
from vidtriage.synth import SynthConfig, write_synthetic_corpus

SEED = 2024


def run(*args):
    argv = [str(a) for a in args]
    print("$ vidtriage " + " ".join(argv))
    rc = main(argv)
    assert rc == 0, f"exit code {rc}"


with tempfile.TemporaryDirectory(prefix="vidtriage-demo-") as tmp:
    corpus = Path(tmp) / "corpus"
    work = Path(tmp) / "work"

    # A 30-video corpus with descriptions, transcripts, OCR, labels, and a
    # term dictionary.
    summary = write_synthetic_corpus(
        corpus, SynthConfig(seed=SEED, n_videos=30, sentences_per_video=6)
    )
    print("generated:", summary.one_line())

    # Stage 1: validate and normalize the corpus into the work directory.
    run("ingest",
        "--videos", corpus / "videos.jsonl",
        "--transcripts", corpus / "transcripts.jsonl",
        "--ocr", corpus / "ocr.jsonl",
        "--labels", corpus / "labels.jsonl",
        "--keywords", corpus / "search_results.jsonl",
        "--work-dir", work)

    # Stage 2: per-video text statistics.
    run("featurize", "--work-dir", work)

    # Stage 3: project dictionary terms onto description sentences.
    run("build-ner-corpus", "--dictionary", corpus / "dictionary.tsv",
        "--work-dir", work)

    # Stage 4: train both tagger architectures on the same split.
    for arch in ("crf", "blstm"):
        run("train-tagger", "--arch", arch, "--work-dir", work, "--seed", SEED)

    # Stage 5: tag descriptions and count unique medical terms per video.
    run("tag", "--work-dir", work)

    # Stage 6: join text features, term counts, and labels into one table.
    run("assemble", "--work-dir", work)

    # Stage 7: fit the three logistic-regression classifiers.
    for target in ("medical_info", "understandability", "recommendation"):
        run("train-clf", "--target", target, "--work-dir", work,
            "--seed", SEED)

    # Stage 8: predictions and evaluations for everything.
    run("classify", "--work-dir", work)
    run("eval", "--work-dir", work)

    # Stage 9: the four report tables.
    for table in ("2", "5", "6", "7"):
        run("report", "--table", table, "--work-dir", work)

    print()
    for table in ("2", "5", "7"):
        path = work / "reports" / f"table{table}.tsv"
        print(f"--- {path.name} ---")
        print(path.read_text())
