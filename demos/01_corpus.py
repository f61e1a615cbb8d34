"""
Loading a video corpus from JSON-Lines files
============================================

Builds a three-video corpus on disk, loads it, and shows what the
loader normalizes: ISO-8601 durations, word-count-weighted transcript
confidence, and majority-vote label consolidation.
"""

import json
import tempfile
from pathlib import Path

from vidtriage.corpus import flatten_api_response, load_corpus


def write_rows(root, name, rows):
    path = root / name
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return path


with tempfile.TemporaryDirectory(prefix="vidtriage-demo-") as tmp:
    root = Path(tmp)
    # Three videos; durations arrive in ISO-8601 form as YouTube sends them.
    videos = write_rows(root, "videos.jsonl", [
        {"video_id": "demo1", "title": "Colonoscopy explained",
         "description": "The doctor examines the colon.",
         "duration_s": "PT3M28S"},
        {"video_id": "demo2", "title": "Prep day",
         "description": "Drink clear fluids before the test.",
         "duration_s": 95},
        {"video_id": "demo3", "title": "", "description": "",
         "duration_s": "PT1M"},
    ])

    # Transcript confidence is averaged weighted by segment word count.
    transcripts = write_rows(root, "transcripts.jsonl", [
        {"video_id": v, "segments": [
            {"text": "Welcome to the clinic and thank you for watching today.",
             "confidence": 0.9},
            {"text": "Questions welcome.", "confidence": 0.5},
        ]}
        for v in ("demo1", "demo2", "demo3")
    ])

    ocr = write_rows(root, "ocr.jsonl", [
        {"video_id": v, "blocks": [
            {"text": "PREP CHECKLIST", "confidence": 0.8, "frame_time_s": 3.0},
        ], "shot_count": 4, "shot_change_confidence": 0.6}
        for v in ("demo1", "demo2", "demo3")
    ])

    # Three annotators per video; the loader consolidates by majority vote.
    labels = write_rows(root, "labels.jsonl", [
        {"video_id": v, "annotator_id": a,
         "medical_info_high": int(a != "a3"), "understandable": 1,
         "recommended": int(v != "demo3")}
        for v in ("demo1", "demo2", "demo3") for a in ("a1", "a2", "a3")
    ])

    store = load_corpus(videos, transcripts, ocr, labels)
print("summary:", store.summary.one_line())

# PT3M28S became plain seconds.
print("demo1 duration_s:", store.videos["demo1"].duration_s)

# (10 words * 0.9 + 2 words * 0.5) / 12 words.
doc = store.transcripts["demo1"]
print("demo1 transcript confidence:", round(doc.confidence, 3))

# Labels are one consensus row per video after the 2-of-3 vote.
lab = store.labels["demo3"]
print("demo3 consensus:", lab.medical_info_high, lab.understandable,
      lab.recommended, "by", lab.annotator_id)

# Raw API payloads flatten to the same record shape.
payload = json.dumps({"items": [{
    "id": "api1",
    "snippet": {"title": "From the API", "description": "short"},
    "contentDetails": {"duration": "PT2M", "caption": "true"},
    "statistics": {"viewCount": "123"},
}]})
record = flatten_api_response(payload)[0]
print("flattened:", record.video_id, record.duration_s, record.view_count)
