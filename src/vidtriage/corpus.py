"""Video corpus ingestion: metadata, transcripts, OCR documents, and annotations.

All corpus files are JSON Lines (one UTF-8 object per line). The loader
enforces referential integrity: every transcript, OCR document, and label
must point at a known video. Stores are frozen after construction and have
no mutation API, so they are safe for concurrent reads.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .artifacts import atomic_open, read_lines


class CorpusError(Exception):
    """Base class for corpus ingestion failures."""


class ParseError(CorpusError):
    """Malformed JSON. Carries the byte offset of the first bad character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SchemaError(CorpusError):
    """Structurally valid JSON that violates the record schema."""


class IntegrityError(CorpusError):
    """Cross-file referential integrity violation."""


# ISO-8601 durations as emitted by the video metadata API, e.g. "PT3M28S".
_ISO_DURATION_RE = re.compile(
    r"^P(?:(?P<days>\d+)D)?"
    r"(?:T(?:(?P<hours>\d+)H)?(?:(?P<minutes>\d+)M)?(?:(?P<seconds>\d+)S)?)?$"
)


def parse_iso_duration(text: str) -> int:
    """Convert an ISO-8601 duration string to whole seconds."""
    m = _ISO_DURATION_RE.match(text)
    if m is None or text in ("P", "PT"):
        raise SchemaError(f"unparseable ISO-8601 duration: {text!r}")
    days = int(m.group("days") or 0)
    hours = int(m.group("hours") or 0)
    minutes = int(m.group("minutes") or 0)
    seconds = int(m.group("seconds") or 0)
    return ((days * 24 + hours) * 60 + minutes) * 60 + seconds


def _parse_timestamp(text) -> datetime:
    if not isinstance(text, str):
        raise SchemaError(f"published_at must be a string, got {text!r}")
    # The upstream API uses a trailing "Z"; fromisoformat on 3.10 does not.
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        return ts.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"bad timestamp {text!r}: {exc}") from None


@dataclass(frozen=True)
class VideoRecord:
    """Metadata for one video, as retrieved from the public data API."""

    video_id: str
    channel_id: str = ""
    published_at: Optional[datetime] = None
    title: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()
    duration_s: int = 0
    definition: str = "sd"
    caption_available: bool = False
    view_count: Optional[int] = None
    like_count: Optional[int] = None
    dislike_count: Optional[int] = None
    comment_count: Optional[int] = None


@dataclass(frozen=True)
class TranscriptSegment:
    text: str
    confidence: float

    @property
    def word_count(self) -> int:
        return len(self.text.split())


@dataclass(frozen=True)
class TranscriptDoc:
    """Speech-to-text output for one video, with per-segment confidences."""

    video_id: str
    segments: tuple[TranscriptSegment, ...] = ()

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.segments)

    @property
    def confidence(self) -> float:
        """Overall confidence: per-segment values weighted by word count."""
        weights = [s.word_count for s in self.segments]
        total = sum(weights)
        if total == 0:
            return 0.0
        return sum(s.confidence * w for s, w in zip(self.segments, weights)) / total


@dataclass(frozen=True)
class OcrBlock:
    text: str
    confidence: float
    frame_time_s: float


@dataclass(frozen=True)
class OcrDoc:
    """On-screen text detections plus shot statistics for one video."""

    video_id: str
    blocks: tuple[OcrBlock, ...] = ()
    shot_count: int = 0
    shot_change_confidence: float = 0.0

    @property
    def confidence(self) -> float:
        """Mean block confidence; 0.0 for a video with no detected text."""
        if not self.blocks:
            return 0.0
        return sum(b.confidence for b in self.blocks) / len(self.blocks)


@dataclass(frozen=True)
class AnnotationLabels:
    """One rater's judgment of a video on the three binary criteria."""

    video_id: str
    medical_info_high: int
    understandable: int
    recommended: int
    annotator_id: str = ""


@dataclass(frozen=True)
class LoadSummary:
    n_videos: int = 0
    n_transcripts: int = 0
    n_ocr: int = 0
    n_label_rows: int = 0

    def one_line(self) -> str:
        return (
            f"{self.n_videos} videos, {self.n_transcripts} transcripts, "
            f"{self.n_ocr} ocr, {self.n_label_rows} labels"
        )


@dataclass(frozen=True)
class CorpusStore:
    """Immutable bundle of all corpus maps, keyed by video id.

    ``labels`` holds one consolidated (majority-vote) record per video.
    """

    videos: Mapping[str, VideoRecord]
    transcripts: Mapping[str, TranscriptDoc]
    ocr: Mapping[str, OcrDoc]
    labels: Mapping[str, AnnotationLabels]
    summary: LoadSummary = field(default_factory=LoadSummary)

    def labeled_ids(self) -> list[str]:
        return sorted(self.labels)


def _require_nonneg_int(obj: dict, key: str):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise SchemaError(f"{key} must be >= 0, got {value}")
    return value


def _check_confidence(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    # Compared before float(), which overflows on a huge JSON integer.
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"{what} must lie in [0, 1], got {value}")
    return float(value)


def _check_binary(obj: dict, key: str) -> int:
    value = obj.get(key)
    if value not in (0, 1):
        raise SchemaError(f"{key} must be 0 or 1, got {value!r}")
    return int(value)


def _loads_object(json_text: str) -> dict:
    try:
        obj = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.pos) from None
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _typed_field(obj: dict, key: str, kind: type):
    """``obj[key]`` if it is a ``kind``; an absent or null key gives ``kind()``."""
    value = obj.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise SchemaError(f"{key} must be a {kind.__name__}, got {value!r}")
    return value


def _video_id_of(obj: dict) -> str:
    vid = obj.get("video_id")
    if not isinstance(vid, str) or not vid:
        raise SchemaError("missing or empty video_id")
    # Ids name CoNLL comments and TSV cells, which end at whitespace.
    if vid.split() != [vid]:
        raise SchemaError(f"video_id must hold no whitespace, got {vid!r}")
    return vid


def parse_video_metadata(obj: dict) -> VideoRecord:
    """Check one decoded metadata object and build its :class:`VideoRecord`.

    ``duration_s`` is accepted either as whole seconds or as an ISO-8601
    duration string. Engagement counts that are absent stay absent (``None``)
    rather than defaulting to zero, because a real zero is meaningful.
    """
    vid = _video_id_of(obj)

    duration = obj.get("duration_s", 0)
    if isinstance(duration, str):
        duration = parse_iso_duration(duration)
    elif isinstance(duration, bool) or not isinstance(duration, int):
        raise SchemaError(f"duration_s must be an int or ISO-8601 string, got {duration!r}")
    if duration < 0:
        raise SchemaError(f"duration_s must be >= 0, got {duration}")

    definition = obj.get("definition", "sd")
    if definition not in ("sd", "hd"):
        raise SchemaError(f"definition must be 'sd' or 'hd', got {definition!r}")

    tags = obj.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise SchemaError(f"tags must be a list of strings, got {tags!r}")

    published = obj.get("published_at")
    return VideoRecord(
        video_id=vid,
        channel_id=_typed_field(obj, "channel_id", str),
        published_at=_parse_timestamp(published) if published is not None else None,
        title=_typed_field(obj, "title", str),
        description=_typed_field(obj, "description", str),
        tags=tuple(tags),
        duration_s=duration,
        definition=definition,
        caption_available=_typed_field(obj, "caption_available", bool),
        view_count=_require_nonneg_int(obj, "view_count"),
        like_count=_require_nonneg_int(obj, "like_count"),
        dislike_count=_require_nonneg_int(obj, "dislike_count"),
        comment_count=_require_nonneg_int(obj, "comment_count"),
    )


def parse_transcript(obj: dict) -> TranscriptDoc:
    vid = _video_id_of(obj)
    segments = []
    for i, seg in enumerate(_typed_field(obj, "segments", list)):
        if not isinstance(seg, dict):
            raise SchemaError(f"segment {i} must be an object")
        conf = _check_confidence(seg.get("confidence"), f"segment {i} confidence")
        segments.append(TranscriptSegment(text=_typed_field(seg, "text", str),
                                          confidence=conf))
    return TranscriptDoc(video_id=vid, segments=tuple(segments))


def parse_ocr(obj: dict) -> OcrDoc:
    vid = _video_id_of(obj)
    blocks = []
    for i, blk in enumerate(_typed_field(obj, "blocks", list)):
        if not isinstance(blk, dict):
            raise SchemaError(f"block {i} must be an object")
        conf = _check_confidence(blk.get("confidence"), f"block {i} confidence")
        frame_t = blk.get("frame_time_s", 0.0)
        # Compared before float(), which overflows on a huge JSON integer;
        # NaN fails the comparison and infinity exceeds the float range.
        if (not isinstance(frame_t, (int, float)) or isinstance(frame_t, bool)
                or not 0.0 <= frame_t <= sys.float_info.max):
            raise SchemaError(
                f"block {i} frame_time_s must be a finite non-negative number"
            )
        blocks.append(OcrBlock(text=_typed_field(blk, "text", str),
                               confidence=conf, frame_time_s=float(frame_t)))
    shot_count = _require_nonneg_int(obj, "shot_count") or 0
    shot_conf = _check_confidence(obj.get("shot_change_confidence", 0.0),
                                  "shot_change_confidence")
    return OcrDoc(video_id=vid, blocks=tuple(blocks), shot_count=shot_count,
                  shot_change_confidence=shot_conf)


def parse_labels(obj: dict) -> AnnotationLabels:
    vid = _video_id_of(obj)
    return AnnotationLabels(
        video_id=vid,
        medical_info_high=_check_binary(obj, "medical_info_high"),
        understandable=_check_binary(obj, "understandable"),
        recommended=_check_binary(obj, "recommended"),
        annotator_id=_typed_field(obj, "annotator_id", str),
    )


def consolidate_labels(per_annotator: Sequence[AnnotationLabels]) -> AnnotationLabels:
    """Majority-vote each binary field across annotators of one video.

    An even split resolves to 0: on disagreement we deliberately do not
    credit a video with high information, understandability, or a
    recommendation.
    """
    if not per_annotator:
        raise SchemaError("consolidate_labels requires at least one annotation")
    ids = {a.video_id for a in per_annotator}
    if len(ids) != 1:
        raise SchemaError(f"annotations mix video ids: {sorted(ids)}")
    n = len(per_annotator)

    def vote(field_name: str) -> int:
        ones = sum(getattr(a, field_name) for a in per_annotator)
        return 1 if ones * 2 > n else 0

    return AnnotationLabels(
        video_id=per_annotator[0].video_id,
        medical_info_high=vote("medical_info_high"),
        understandable=vote("understandable"),
        recommended=vote("recommended"),
        annotator_id="consensus",
    )


def read_jsonl(path, parse_one) -> list:
    """``parse_one`` of each non-blank line's object. Lines end at ``\n``
    alone (see ``read_lines``): a raw U+2028 may sit inside a JSON string."""
    records = []
    lines = read_lines(path)
    first = next((line.lstrip() for line in lines if line.strip()), "")
    if first.startswith("["):
        raise SchemaError(f"{path}: expected JSON Lines, found a JSON array")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_one(_loads_object(line)))
        except CorpusError as exc:
            # Keep the exception class (and any offset) but prefix the location.
            exc.args = (f"{path}:{lineno}: {exc}",)
            raise
    return records


def load_corpus(
    metadata_path, transcript_path, ocr_path, labels_path,
    video_rows: Optional[Sequence[VideoRecord]] = None,
) -> CorpusStore:
    """Load and cross-check the four corpus files into one store.

    Duplicate video ids in the metadata file and dangling ids in any other
    file are hard errors; the error message lists every offender. Label rows
    are consolidated to one majority-vote record per video. Given
    ``video_rows`` (say, a flattened API response), they stand in for the
    metadata file's records, and ``metadata_path`` names their source. A
    transcript, OCR or labels path of None is not read, and its part of
    the store is empty.
    """
    paths = [None if p is None else Path(p) for p in
             (metadata_path, transcript_path, ocr_path, labels_path)]
    for p in paths:
        if p is not None and not p.exists():
            raise FileNotFoundError(f"corpus file not found: {p}")
    metadata_path, transcript_path, ocr_path, labels_path = paths

    if video_rows is None:
        video_rows = read_jsonl(metadata_path, parse_video_metadata)
    videos: dict[str, VideoRecord] = {}
    dupes = []
    for rec in video_rows:
        if rec.video_id in videos:
            dupes.append(rec.video_id)
        videos[rec.video_id] = rec
    if dupes:
        raise IntegrityError(f"duplicate video ids in {metadata_path}: {sorted(set(dupes))}")

    def rows(path, parse):
        return [] if path is None else read_jsonl(path, parse)

    transcript_rows = rows(transcript_path, parse_transcript)
    ocr_rows = rows(ocr_path, parse_ocr)
    label_rows = rows(labels_path, parse_labels)

    dangling = sorted(
        {r.video_id for r in transcript_rows + ocr_rows + label_rows} - set(videos)
    )
    if dangling:
        raise IntegrityError(f"ids not present in {metadata_path}: {dangling}")

    transcripts: dict[str, TranscriptDoc] = {}
    for doc in transcript_rows:
        if doc.video_id in transcripts:
            raise IntegrityError(f"duplicate transcript for video {doc.video_id}")
        transcripts[doc.video_id] = doc
    ocr: dict[str, OcrDoc] = {}
    for doc in ocr_rows:
        if doc.video_id in ocr:
            raise IntegrityError(f"duplicate ocr document for video {doc.video_id}")
        ocr[doc.video_id] = doc

    by_video: dict[str, list[AnnotationLabels]] = {}
    for row in label_rows:
        by_video.setdefault(row.video_id, []).append(row)
    labels = {vid: consolidate_labels(rows) for vid, rows in by_video.items()}

    summary = LoadSummary(
        n_videos=len(videos),
        n_transcripts=len(transcripts),
        n_ocr=len(ocr),
        n_label_rows=len(label_rows),
    )
    return CorpusStore(videos=videos, transcripts=transcripts, ocr=ocr,
                       labels=labels, summary=summary)


def to_json_dict(record) -> dict:
    """A corpus record as a JSON object: one key per field that is not
    None, a datetime as ``%Y-%m-%dT%H:%M:%SZ`` and a tuple of records
    (segments, blocks) as a list of objects."""
    out = {}
    # getattr, not vars(): vars() gives every record a dict of its own for
    # as long as the record lives, and fields() rebuilds a tuple per call.
    for name in record.__dataclass_fields__:
        value = getattr(record, name)
        if value is None:
            continue
        if isinstance(value, datetime):
            value = value.strftime("%Y-%m-%dT%H:%M:%SZ")
        elif isinstance(value, tuple) and value and is_dataclass(value[0]):
            value = [to_json_dict(v) for v in value]
        out[name] = value
    return out


def write_jsonl(path, records: Iterable) -> None:
    """Write corpus records as one JSON object per line, keys sorted."""
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(to_json_dict(rec), sort_keys=True))
            fh.write("\n")


def flatten_api_response(json_text: str) -> list[VideoRecord]:
    """Flatten the raw metadata-list response of the public video-data API.

    The response shape is ``{"items": [{"id": ..., "snippet": {...},
    "contentDetails": {...}, "statistics": {...}}, ...]}``. Network access is
    out of scope here; callers fetch the JSON themselves and hand it over.
    """
    obj = _loads_object(json_text)
    items = obj.get("items")
    if not isinstance(items, list):
        raise SchemaError("API response has no 'items' list")
    records = []
    for number, item in enumerate(items, start=1):
        try:
            records.append(parse_video_metadata(_flatten_item(item)))
        except CorpusError as exc:
            exc.args = (f"item {number}: {exc}",)
            raise
    return records


def _flatten_item(item) -> dict:
    """One API item as the flat dict ``parse_video_metadata`` reads."""
    if not isinstance(item, dict):
        raise SchemaError("API response item is not an object")
    vid = item.get("id")
    if isinstance(vid, dict):  # search responses nest the id
        vid = vid.get("videoId")
    snippet = _typed_field(item, "snippet", dict)
    content = _typed_field(item, "contentDetails", dict)
    stats = _typed_field(item, "statistics", dict)
    flat = {
        "video_id": vid,
        "channel_id": snippet.get("channelId", ""),
        "published_at": snippet.get("publishedAt"),
        "title": snippet.get("title", ""),
        "description": snippet.get("description", ""),
        "tags": snippet.get("tags", []),
        "duration_s": content.get("duration", 0),
        "definition": content.get("definition", "sd"),
        "caption_available": str(content.get("caption", "false")).lower() == "true",
    }
    for api_key, our_key in (
        ("viewCount", "view_count"),
        ("likeCount", "like_count"),
        ("dislikeCount", "dislike_count"),
        ("commentCount", "comment_count"),
    ):
        # The API sends counts as decimal strings; any other value
        # goes on unchanged for parse_video_metadata to check.
        value = stats.get(api_key)
        if isinstance(value, str) and value.isdecimal():
            value = int(value)
        flat[our_key] = value
    return flat
