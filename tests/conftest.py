"""Shared fixtures: paths to the bundled five-video corpus, and the
criterion-8 tree, built once per session."""

import shutil
from pathlib import Path

import pytest

import criterion8
from vidtriage.corpus import load_corpus

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_paths() -> dict:
    return {
        "videos": CORPUS / "videos.jsonl",
        "transcripts": CORPUS / "transcripts.jsonl",
        "ocr": CORPUS / "ocr.jsonl",
        "labels": CORPUS / "labels.jsonl",
    }


@pytest.fixture(scope="session")
def store(corpus_paths):
    return load_corpus(
        corpus_paths["videos"],
        corpus_paths["transcripts"],
        corpus_paths["ocr"],
        corpus_paths["labels"],
    )


@pytest.fixture(scope="session")
def criterion_8_taggers(tmp_path_factory):
    """Work dir of the criterion-8 corpus (synth seed 88, 30 videos of 6
    sentences) with its NER corpus and both taggers trained on it."""
    return criterion8.build_taggers(tmp_path_factory.mktemp("criterion8"))


@pytest.fixture(scope="session")
def criterion_8_classified(criterion_8_taggers, tmp_path_factory):
    """The whole criterion-8 tree: the tagger work dir after featurize,
    tag with both archs and sources (blstm last), assemble, the three
    classifiers, classify, eval and reports 2/5/6/7."""
    work = tmp_path_factory.mktemp("criterion8_clf") / "work"
    shutil.copytree(criterion_8_taggers, work)
    criterion8.build_rest(work)
    return work
