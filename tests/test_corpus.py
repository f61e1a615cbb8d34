"""Corpus loading: parsing, validation, consolidation, round-trips."""

import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidtriage.corpus import (
    AnnotationLabels,
    CorpusError,
    IntegrityError,
    LoadSummary,
    SchemaError,
    consolidate_labels,
    flatten_api_response,
    load_corpus,
    parse_iso_duration,
    parse_labels,
    parse_ocr,
    parse_transcript,
    parse_video_metadata,
    read_jsonl,
    to_json_dict,
    write_jsonl,
)


# ------------------------------------------------------------- durations


def test_iso_duration_fixture():
    assert parse_iso_duration("PT3M28S") == 208


def test_iso_duration_forms():
    assert parse_iso_duration("PT45S") == 45
    assert parse_iso_duration("PT10M") == 600
    assert parse_iso_duration("PT1H2M3S") == 3723
    assert parse_iso_duration("PT1H") == 3600


def test_iso_duration_rejects_garbage():
    for bad in ("", "3m28s", "P3M28S", "PT", "PTXS"):
        with pytest.raises((SchemaError, ValueError)):
            parse_iso_duration(bad)


# -------------------------------------------------------------- metadata


def test_parse_video_metadata_roundtrip():
    obj = {
        "video_id": "v1",
        "channel_id": "c9",
        "published_at": "2019-06-12T14:30:00Z",
        "title": "T",
        "description": "D",
        "tags": ["a", "b"],
        "duration_s": "PT3M28S",
        "definition": "hd",
        "caption_available": True,
        "view_count": 5,
    }
    rec = parse_video_metadata(obj)
    assert rec.duration_s == 208
    assert rec.published_at == datetime(2019, 6, 12, 14, 30,
                                        tzinfo=timezone.utc)
    assert rec.tags == ("a", "b")
    assert rec.like_count is None
    again = parse_video_metadata(json.loads(json.dumps(to_json_dict(rec))))
    assert again == rec


def test_parse_video_metadata_validation(tmp_path):
    with pytest.raises(SchemaError):
        parse_video_metadata({"title": "no id"})
    with pytest.raises(SchemaError):
        parse_video_metadata({"video_id": "v", "duration_s": -4})
    with pytest.raises(SchemaError):
        parse_video_metadata({"video_id": "v", "definition": "4k"})
    with pytest.raises(SchemaError):
        parse_video_metadata({"video_id": "v", "view_count": -1})
    # A line that decodes to something other than an object.
    videos = tmp_path / "videos.jsonl"
    videos.write_text('{"video_id": "v"}\n[1, 2]\n')
    with pytest.raises(SchemaError, match="videos.jsonl:2: expected a JSON object"):
        read_jsonl(videos, parse_video_metadata)


@pytest.mark.parametrize("parse", [
    parse_video_metadata, parse_transcript, parse_ocr, parse_labels,
])
@pytest.mark.parametrize("vid", ["vid 0", "v\t1", "v\n2", "v\u20283"])
def test_parsers_reject_video_id_with_whitespace(parse, vid):
    # A CoNLL comment and a TSV cell would cut such an id short.
    with pytest.raises(SchemaError, match="video_id must hold no whitespace"):
        parse({"video_id": vid, "medical_info_high": 0,
               "understandable": 0, "recommended": 0})


def test_parse_transcript_and_confidence():
    doc = parse_transcript({
        "video_id": "v1",
        "segments": [
            {"text": "one two three", "confidence": 0.9},
            {"text": "four", "confidence": 0.5},
        ],
    })
    assert doc.text == "one two three four"
    # Word-count weighting: (3*0.9 + 1*0.5) / 4.
    assert doc.confidence == pytest.approx(0.8)
    with pytest.raises(SchemaError):
        parse_transcript({
            "video_id": "v", "segments": [{"text": "x", "confidence": 1.2}],
        })
    # An integer too large for a float is out of range, not an overflow.
    with pytest.raises(SchemaError):
        parse_transcript({
            "video_id": "v", "segments": [{"confidence": 10**400}],
        })


def test_parse_ocr_and_confidence():
    doc = parse_ocr({
        "video_id": "v1",
        "blocks": [
            {"text": "a", "confidence": 0.8, "frame_time_s": 1.0},
            {"text": "b", "confidence": 0.6, "frame_time_s": 2.0},
        ],
        "shot_count": 4,
        "shot_change_confidence": 0.5,
    })
    assert doc.confidence == pytest.approx(0.7)
    assert doc.shot_count == 4
    empty = parse_ocr({"video_id": "v2"})
    assert empty.confidence == 0.0 and empty.blocks == ()
    # A null count reads as absent, so featurize never sees a None.
    assert parse_ocr({"video_id": "v2", "shot_count": None}) == empty
    with pytest.raises(SchemaError):
        parse_ocr({"video_id": "v", "shot_count": -1})
    # A frame time must be finite; a huge integer is out of range, not
    # an overflow.
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(SchemaError, match="frame_time_s"):
            parse_ocr({"video_id": "v", "blocks": [
                {"confidence": 0.5, "frame_time_s": bad}]})


_GOOD_BLOCK = st.fixed_dictionaries({
    "text": st.text(max_size=6), "confidence": st.floats(0, 1),
    "frame_time_s": st.floats(0, 1e6) | st.integers(0, 10**6),
})
_BAD_FRAME_TIME = (
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
    | st.floats(max_value=-5e-324, allow_nan=False)
    | st.integers(max_value=-1)
    | st.none() | st.booleans() | st.text(max_size=4)
    | st.lists(st.integers(), max_size=2)
)


@settings(max_examples=200, deadline=None)
@given(blocks=st.lists(_GOOD_BLOCK, min_size=1, max_size=4), data=st.data())
def test_parse_ocr_rejects_one_bad_frame_time(blocks, data):
    # Every other field is well typed, so the frame-time check is the only
    # one that can fire.
    i = data.draw(st.integers(0, len(blocks) - 1))
    blocks[i] = {**blocks[i], "frame_time_s": data.draw(_BAD_FRAME_TIME)}
    with pytest.raises(SchemaError, match=f"block {i} frame_time_s"):
        parse_ocr({"video_id": "v", "blocks": blocks})


# ---------------------------------------------------------------- labels


def test_parse_labels_binary_only():
    with pytest.raises(SchemaError):
        parse_labels({
            "video_id": "v", "medical_info_high": 2,
            "understandable": 0, "recommended": 0,
        })


def test_consolidate_majority_and_tie():
    def lab(mid, u, r, a):
        return AnnotationLabels("v", mid, u, r, a)

    merged = consolidate_labels(
        [lab(1, 1, 1, "a1"), lab(1, 0, 0, "a2"), lab(0, 1, 0, "a3")]
    )
    assert (merged.medical_info_high, merged.understandable,
            merged.recommended) == (1, 1, 0)
    # Even split resolves to 0.
    tie = consolidate_labels([lab(1, 1, 1, "a1"), lab(0, 0, 0, "a2")])
    assert (tie.medical_info_high, tie.understandable, tie.recommended) \
        == (0, 0, 0)
    with pytest.raises(SchemaError):
        consolidate_labels([])
    with pytest.raises(SchemaError):
        consolidate_labels([lab(1, 1, 1, "a"),
                            AnnotationLabels("w", 1, 1, 1, "b")])


def test_consolidate_majority_random_loop():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        votes = rng.integers(0, 2, size=(n, 3))
        rows = [AnnotationLabels("v", int(v[0]), int(v[1]), int(v[2]), f"a{i}")
                for i, v in enumerate(votes)]
        merged = consolidate_labels(rows)
        for j, name in enumerate(
            ("medical_info_high", "understandable", "recommended")
        ):
            expected = 1 if votes[:, j].sum() * 2 > n else 0
            assert getattr(merged, name) == expected


# ------------------------------------------------------------ full loads


def test_load_corpus_fixture(store):
    assert store.summary.one_line() \
        == "5 videos, 5 transcripts, 5 ocr, 15 labels"
    assert store.labeled_ids() == ["vid001", "vid002", "vid003", "vid004",
                                   "vid005"]
    assert store.videos["vid001"].duration_s == 208
    assert store.labels["vid002"].recommended == 0
    assert store.labels["vid002"].annotator_id == "consensus"


def test_load_corpus_missing_file(corpus_paths, tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        load_corpus(corpus_paths["videos"], corpus_paths["transcripts"],
                    corpus_paths["ocr"], tmp_path / "absent.jsonl")
    assert "absent.jsonl" in str(err.value)


def test_load_corpus_dangling_and_duplicate(tmp_path, corpus_paths):
    videos = tmp_path / "videos.jsonl"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    videos.write_text(
        json.dumps({"video_id": "v1"}) + "\n" + json.dumps({"video_id": "v1"})
    )
    with pytest.raises(IntegrityError):
        load_corpus(videos, empty, empty, empty)

    videos.write_text(json.dumps({"video_id": "v1"}))
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({
        "video_id": "ghost", "medical_info_high": 1,
        "understandable": 1, "recommended": 1,
    }))
    with pytest.raises(IntegrityError) as err:
        load_corpus(videos, empty, empty, labels)
    assert "ghost" in str(err.value)

    transcripts = tmp_path / "transcripts.jsonl"
    transcripts.write_text(
        json.dumps({"video_id": "v1", "segments": []}) + "\n"
        + json.dumps({"video_id": "v1", "segments": []})
    )
    with pytest.raises(IntegrityError, match="duplicate transcript"):
        load_corpus(videos, transcripts, empty, empty)

    ocr = tmp_path / "ocr.jsonl"
    ocr.write_text(
        json.dumps({"video_id": "v1", "blocks": []}) + "\n"
        + json.dumps({"video_id": "v1", "blocks": []})
    )
    with pytest.raises(IntegrityError, match="duplicate ocr document"):
        load_corpus(videos, empty, ocr, empty)


def test_load_corpus_error_names_line(tmp_path):
    videos = tmp_path / "videos.jsonl"
    videos.write_text(json.dumps({"video_id": "v1"}) + "\n{not json")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(CorpusError) as err:
        load_corpus(videos, empty, empty, empty)
    assert "videos.jsonl:2" in str(err.value)

    videos.write_text(json.dumps([{"video_id": "v1"}]))
    with pytest.raises(SchemaError) as err:
        load_corpus(videos, empty, empty, empty)
    assert f"{videos}: expected JSON Lines" in str(err.value)


def test_corpus_line_ends_only_at_newline(tmp_path):
    # U+2028, U+2029 and U+0085 may sit raw inside a JSON string; they
    # do not end a JSON Lines line.
    videos = tmp_path / "videos.jsonl"
    description = "first\u2028second\u2029third\x85fourth"
    videos.write_text(json.dumps({"video_id": "v1",
                                  "description": description},
                                 ensure_ascii=False) + "\n",
                      encoding="utf-8")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    store = load_corpus(videos, empty, empty, empty)
    assert store.videos["v1"].description == description


def test_corpus_loads_crlf_lines(tmp_path):
    paths = {}
    for name, obj in [("videos", {"video_id": "v1"}),
                      ("transcripts", {"video_id": "v1", "segments": []}),
                      ("ocr", {"video_id": "v1"}),
                      ("labels", {"video_id": "v1", "medical_info_high": 1,
                                  "understandable": 0, "recommended": 1})]:
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_bytes(b"\r\n" + json.dumps(obj).encode() + b"\r\n")
    store = load_corpus(*paths.values())
    assert store.summary == LoadSummary(1, 1, 1, 1)
    paths["videos"].write_bytes(b'{"video_id": "v1"}\r\n{"video_id": 7}\r\n')
    with pytest.raises(SchemaError, match="videos.jsonl:2: missing"):
        load_corpus(*paths.values())


def test_write_jsonl_roundtrip_and_sorted_keys(tmp_path, store):
    out = tmp_path / "videos.jsonl"
    write_jsonl(out, [store.videos[v] for v in sorted(store.videos)])
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        obj = json.loads(line)
        assert list(obj) == sorted(obj)
    again = [parse_video_metadata(json.loads(line)) for line in lines]
    assert again == [store.videos[v] for v in sorted(store.videos)]


# ------------------------------------------------------------ api adapter


def test_flatten_api_response(fixture_dir):
    text = (fixture_dir / "api_response.json").read_text()
    records = flatten_api_response(text)
    assert [r.video_id for r in records] == ["api001", "api002"]
    assert records[0].duration_s == 208
    assert records[0].caption_available is True
    assert records[0].view_count == 1200
    assert records[1].like_count is None
    with pytest.raises(SchemaError):
        flatten_api_response(json.dumps({"kind": "x"}))


@pytest.mark.parametrize("item, message", [
    ({"id": "b 2"}, "item 2: video_id must hold no whitespace, got 'b 2'"),
    ({"id": "b2", "statistics": {"viewCount": -4}},
     "item 2: view_count must be >= 0, got -4"),
    ({"id": "b2", "snippet": []}, "item 2: snippet must be a dict"),
    ("b2", "item 2: API response item is not an object"),
], ids=["id", "count", "snippet", "not-object"])
def test_flatten_api_response_errors_name_the_item(item, message):
    items = [{"id": "a1"}, item, {"id": "c3"}]
    with pytest.raises(SchemaError) as info:
        flatten_api_response(json.dumps({"items": items}))
    assert str(info.value).startswith(message)


# Text fields read as strings and flags as booleans; null reads as the
# field's empty value and any other type is refused.
@pytest.mark.parametrize("parse, key, wrap, empty", [
    (parse_video_metadata, "channel_id", None, ""),
    (parse_video_metadata, "title", None, ""),
    (parse_video_metadata, "description", None, ""),
    (parse_video_metadata, "caption_available", None, False),
    (parse_labels, "annotator_id", None, ""),
    (parse_transcript, "text", "segments", ""),
    (parse_ocr, "text", "blocks", ""),
])
def test_text_and_flag_fields_take_one_type(parse, key, wrap, empty):
    def parsed(value):
        obj = {"video_id": "v1", "medical_info_high": 0,
               "understandable": 0, "recommended": 0}
        if wrap is None:
            obj[key] = value
            return getattr(parse(obj), key)
        obj[wrap] = [{key: value, "confidence": 0.5}]
        return getattr(parse(obj), wrap)[0].text

    assert parsed(None) == empty
    wrong = "false" if empty is False else 5
    with pytest.raises(SchemaError, match=f"{key} must be a "
                                          f"{type(empty).__name__}"):
        parsed(wrong)


# ------------------------------------------------------- fuzzed objects

# Any JSON value: the wrong type for most fields.
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_ANY = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _obj(required=(), **fields):
    """Objects holding the ``required`` fields and any subset of the
    others. Each value comes from its field's strategy (well typed) about
    half the time, otherwise from a JSON scalar or any JSON value."""
    values = {k: st.one_of(v, v, _SCALAR, _ANY) for k, v in fields.items()}
    return st.fixed_dictionaries(
        {k: values.pop(k) for k in required}, optional=values)


_COUNT = st.integers(-2, 10**6)
_CONF = st.floats(-0.5, 1.5)
_ID = st.text(min_size=1, max_size=6)
_VIDEO = _obj(
    ("video_id",), video_id=_ID, channel_id=st.text(max_size=6),
    published_at=st.datetimes().map(lambda t: t.isoformat()) | st.text(),
    title=st.text(), description=st.text(),
    tags=st.lists(st.text(max_size=6), max_size=3),
    duration_s=_COUNT | st.from_regex(r"P(\d+D)?(T(\d+H)?(\d+M)?(\d+S)?)?",
                                      fullmatch=True),
    definition=st.sampled_from(["sd", "hd", "4k"]),
    caption_available=st.booleans(), view_count=_COUNT,
    like_count=_COUNT, dislike_count=_COUNT, comment_count=_COUNT,
)
_TRANSCRIPT = _obj(
    ("video_id",), video_id=_ID,
    segments=st.lists(_obj(text=st.text(), confidence=_CONF), max_size=3),
)
_OCR = _obj(
    ("video_id",), video_id=_ID,
    # Non-finite times, and an integer too large for a float.
    blocks=st.lists(_obj(text=st.text(), confidence=_CONF,
                         frame_time_s=st.floats(-1, 100) | st.sampled_from(
                             [math.nan, math.inf, 10**400])), max_size=3),
    shot_count=_COUNT, shot_change_confidence=_CONF,
)
_BINARY = st.sampled_from([0, 1, 2])
_LABELS = _obj(
    ("video_id",), video_id=_ID, annotator_id=st.text(max_size=6),
    medical_info_high=_BINARY, understandable=_BINARY, recommended=_BINARY,
)
_API_COUNT = st.integers(0, 10**6).map(str) | _COUNT
_API = _obj(("items",), items=st.lists(_obj(
    ("id",), id=_ID | _obj(("videoId",), videoId=_ID),
    snippet=_obj(channelId=st.text(max_size=6),
                 publishedAt=st.datetimes().map(lambda t: t.isoformat()),
                 title=st.text(), description=st.text(),
                 tags=st.lists(st.text(max_size=6), max_size=3)),
    contentDetails=_obj(duration=st.from_regex(r"PT(\d+M)?(\d+S)?",
                                               fullmatch=True),
                        definition=st.sampled_from(["sd", "hd"]),
                        caption=st.sampled_from(["true", "false"])),
    statistics=_obj(viewCount=_API_COUNT, likeCount=_API_COUNT,
                    dislikeCount=_API_COUNT, commentCount=_API_COUNT),
), max_size=3))


@pytest.mark.parametrize("parse, objects", [
    (parse_video_metadata, _VIDEO),
    (parse_transcript, _TRANSCRIPT),
    (parse_ocr, _OCR),
    (parse_labels, _LABELS),
    (lambda obj: flatten_api_response(json.dumps(obj)), _API),
], ids=["videos", "transcripts", "ocr", "labels", "api"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_corpus_errors(parse, objects, data):
    try:
        parsed = parse(data.draw(objects))
    except CorpusError:
        return
    # Whatever a parser accepts, write_jsonl writes as standard JSON.
    for record in parsed if isinstance(parsed, list) else [parsed]:
        json.dumps(to_json_dict(record), allow_nan=False)
