"""Deterministic synthetic corpus generator.

Produces a complete pipeline input set (metadata, transcripts, OCR,
annotator labels, term dictionary, search-result fixture) whose
descriptions embed known medical terms, so dictionary projection yields a
learnable BIO corpus. Everything derives from one seed: identical seeds
write byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, read_lines
from .corpus import (
    SORTED_JSON,
    AnnotationLabels,
    OcrBlock,
    OcrDoc,
    TranscriptDoc,
    TranscriptSegment,
    VideoRecord,
    write_jsonl,
)
from .data_files import data_path

# term -> semantic-type code; multi-word rows exercise phrase projection.
SYNTH_TERMS: tuple[tuple[str, str], ...] = (
    ("colonoscopy", "diap"),
    ("sigmoidoscopy", "diap"),
    ("endoscopy", "diap"),
    ("biopsy", "diap"),
    ("polyp", "neop"),
    ("adenoma", "neop"),
    ("tumor", "neop"),
    ("carcinoma", "neop"),
    ("colon cancer", "neop"),
    ("colorectal cancer", "neop"),
    ("colitis", "dsyn"),
    ("diverticulosis", "dsyn"),
    ("hemorrhoids", "dsyn"),
    ("anemia", "dsyn"),
    ("constipation", "sosy"),
    ("diarrhea", "sosy"),
    ("cramping", "sosy"),
    ("nausea", "sosy"),
    ("bloating", "sosy"),
    ("rectum", "bpoc"),
    ("colon", "bpoc"),
    ("intestine", "bpoc"),
    ("abdomen", "blor"),
    ("sedation", "topp"),
    ("anesthesia", "topp"),
    ("laxative", "pshu"),
    ("bowel preparation", "topp"),
    ("screening colonoscopy", "topp"),
    ("gastroenterologist", "prog"),
    ("colonoscope", "medd"),
)

# Non-medical words; none appear in SYNTH_TERMS, so projection never
# marks them. Some are transition, summary, or active-verb lexicon
# entries so those text features vary across videos. Abbreviation-guard
# words are deliberately absent.
_FILLER = (
    "the", "your", "this", "about", "after", "before", "during", "every",
    "doctor", "nurse", "clinic", "visit", "today", "video", "watch",
    "learn", "simple", "steps", "guide", "helps", "people", "often",
    "early", "safely", "gentle", "quick", "results", "questions",
    "family", "friends", "water", "clear", "liquid", "morning", "night",
    "rest", "home", "drive", "ready", "easy", "common", "advice",
    "first", "then", "next", "later", "finally", "however", "also",
    "overall", "recap", "ultimately",
)

_OCR_SNIPPETS = (
    "subscribe for more",
    "prep checklist",
    "talk to your doctor",
    "screening saves lives",
    "schedule your visit",
    "step by step guide",
)

_TITLE_TEMPLATES = (
    "What to expect during your {term}",
    "A patient guide to {term}",
    "Preparing for a {term} the easy way",
    "Understanding {term} results",
)


@dataclass(frozen=True)
class SynthConfig:
    """Shape of the generated corpus; the seed drives every draw."""

    seed: int
    n_videos: int = 50
    sentences_per_video: int = 10

    def __post_init__(self):
        if self.n_videos < 2:
            raise ValueError("n_videos must be at least 2")
        if self.sentences_per_video < 1:
            raise ValueError("sentences_per_video must be at least 1")


@dataclass(frozen=True)
class SynthSummary:
    n_videos: int
    n_sentences: int
    n_label_rows: int
    n_dictionary_terms: int

    def one_line(self) -> str:
        return (
            f"{self.n_videos} videos, {self.n_sentences} description "
            f"sentences, {self.n_label_rows} label rows, "
            f"{self.n_dictionary_terms} dictionary terms"
        )


def _sentence(rng: np.random.Generator, min_len: int, max_len: int,
              term_prob: float, terms_used: set) -> str:
    length = int(rng.integers(min_len, max_len + 1))
    words: list[str] = []
    while len(words) < length:
        if rng.random() < term_prob:
            term = SYNTH_TERMS[int(rng.integers(len(SYNTH_TERMS)))][0]
            terms_used.add(term)
            words.extend(term.split())
        else:
            words.append(_FILLER[int(rng.integers(len(_FILLER)))])
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def write_synthetic_corpus(out_dir, config: SynthConfig) -> SynthSummary:
    """Write the six corpus files into ``out_dir`` and return a summary."""
    out_dir = Path(out_dir)
    rng = np.random.Generator(np.random.PCG64(config.seed))

    videos, transcripts, ocr_docs = [], [], []
    latent_scores = []
    n_sentences = 0
    base_date = datetime(2019, 3, 1, 10, 0, 0, tzinfo=timezone.utc)
    for v in range(config.n_videos):
        vid = f"synth{v:04d}"
        terms_used: set[str] = set()
        sentences = [
            _sentence(rng, 6, 12, 0.3, terms_used)
            for _ in range(config.sentences_per_video)
        ]
        n_sentences += len(sentences)
        description = " ".join(sentences)

        title_term = SYNTH_TERMS[int(rng.integers(len(SYNTH_TERMS)))][0]
        template = _TITLE_TEMPLATES[int(rng.integers(len(_TITLE_TEMPLATES)))]
        title = "" if rng.random() < 0.08 else template.format(term=title_term)
        tags = ("colonoscopy", "health") if rng.random() < 0.3 else ()
        videos.append(VideoRecord(
            video_id=vid,
            channel_id=f"chan{int(rng.integers(8)):02d}",
            published_at=base_date + timedelta(days=int(rng.integers(0, 700))),
            title=title,
            description=description,
            tags=tags,
            duration_s=int(rng.integers(60, 1200)),
            definition="hd" if rng.random() < 0.6 else "sd",
            caption_available=bool(rng.random() < 0.5),
            view_count=int(rng.integers(100, 200000)),
            like_count=int(rng.integers(0, 4000)),
        ))

        has_transcript = rng.random() >= 0.06
        t_conf = 0.0
        if has_transcript:
            segments = []
            confs = []
            for _ in range(int(rng.integers(2, 6))):
                seg_text = _sentence(rng, 8, 18, 0.2, terms_used)
                conf = round(float(rng.uniform(0.4, 0.95)), 3)
                confs.append(conf)
                segments.append(TranscriptSegment(text=seg_text, confidence=conf))
            transcripts.append(TranscriptDoc(video_id=vid,
                                             segments=tuple(segments)))
            t_conf = float(np.mean(confs))

        has_ocr = rng.random() >= 0.06
        o_conf = 0.0
        if has_ocr:
            blocks = []
            o_confs = []
            for b in range(int(rng.integers(1, 5))):
                conf = round(float(rng.uniform(0.5, 0.99)), 3)
                o_confs.append(conf)
                blocks.append(OcrBlock(
                    text=_OCR_SNIPPETS[int(rng.integers(len(_OCR_SNIPPETS)))],
                    confidence=conf,
                    frame_time_s=round(2.0 + 5.0 * b + float(rng.uniform(0, 2)), 2),
                ))
            ocr_docs.append(OcrDoc(
                video_id=vid,
                blocks=tuple(blocks),
                shot_count=int(rng.integers(0, 15)),
                shot_change_confidence=round(float(rng.uniform(0.2, 0.8)), 3),
            ))
            o_conf = float(np.mean(o_confs))

        latent_scores.append({
            "terms": len(terms_used),
            "t_conf": t_conf,
            "o_conf": o_conf,
        })

    label_rows = _draw_labels(rng, [v.video_id for v in videos], latent_scores)

    write_jsonl(out_dir / "videos.jsonl", videos)
    write_jsonl(out_dir / "transcripts.jsonl", transcripts)
    write_jsonl(out_dir / "ocr.jsonl", ocr_docs)
    write_jsonl(out_dir / "labels.jsonl", label_rows)

    with atomic_open(out_dir / "dictionary.tsv") as fh:
        for term, code in SYNTH_TERMS:
            fh.write(f"{term}\t{code}\n")

    keywords = [
        line.strip()
        for line in read_lines(data_path("keywords.txt"))
        if line.strip() and not line.startswith("#")
    ]
    with atomic_open(out_dir / "search_results.jsonl") as fh:
        for k, keyword in enumerate(keywords[:3]):
            ids = [v.video_id for v in videos[k::7][:5]]
            fh.write(SORTED_JSON.encode({"keyword": keyword, "video_ids": ids})
                     + "\n")

    return SynthSummary(
        n_videos=len(videos),
        n_sentences=n_sentences,
        n_label_rows=len(label_rows),
        n_dictionary_terms=len(SYNTH_TERMS),
    )


def _draw_labels(rng, video_ids, latent_scores) -> list[AnnotationLabels]:
    """Three annotators per video, flipping a latent truth with noise.

    The latent cutoffs sit at the across-video medians, so both classes
    stay near 50/50 for any corpus size; each target is additionally
    forced to have both majority classes so downstream classifier
    training always has two classes to fit.
    """
    terms = np.array([s["terms"] for s in latent_scores], dtype=float)
    o_conf = np.array([s["o_conf"] for s in latent_scores], dtype=float)
    t_scale = max(float(terms.std()), 1e-6)
    o_scale = max(float(o_conf.std()), 1e-6)
    t_center = float(np.median(terms))
    o_center = float(np.median(o_conf))
    truths = []
    for i in range(len(latent_scores)):
        z_med = 1.2 * (terms[i] - t_center) / t_scale + rng.normal(0.0, 0.6)
        z_und = 1.2 * (o_conf[i] - o_center) / o_scale + rng.normal(0.0, 0.6)
        med = int(z_med > 0)
        und = int(z_und > 0)
        z_rec = 1.4 * med + 1.6 * und - 1.5 + rng.normal(0.0, 0.8)
        truths.append((med, und, int(z_rec > 0)))

    flips = rng.random(size=(len(video_ids), 3, 3)) < 0.1
    votes = {}
    for i, vid in enumerate(video_ids):
        votes[vid] = [
            [int(truths[i][j]) ^ int(flips[i, a, j]) for j in range(3)]
            for a in range(3)
        ]

    for j in range(3):
        majorities = {
            vid: int(sum(v[j] for v in votes[vid]) >= 2) for vid in video_ids
        }
        classes = set(majorities.values())
        if classes == {0}:
            for a in range(3):
                votes[video_ids[0]][a][j] = 1
        elif classes == {1}:
            for a in range(3):
                votes[video_ids[0]][a][j] = 0

    rows = []
    for vid in video_ids:
        for a in range(3):
            med, und, rec = votes[vid][a]
            rows.append(AnnotationLabels(
                video_id=vid,
                medical_info_high=med,
                understandable=und,
                recommended=rec,
                annotator_id=f"annotator{a + 1}",
            ))
    return rows
