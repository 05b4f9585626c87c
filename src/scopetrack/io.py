"""JSON Lines readers and writers for streams, ground truth and tracks.

Line 1 of every stream file is the header object; every later line is one
frame. Floats go through json's repr serialization, which round-trips
exactly. The stream and ground-truth readers also check the model's
invariants (validate_stream, validate_ground_truth); a file that breaks
them raises StreamFormatError naming the path and the first three
violations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .errors import DataError, StreamFormatError
from .metrics import TrackedDet, TrackedSequence
from .model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    GroundTruthStream,
    QuerySlot,
    RleMask,
    StreamHeader,
    VideoStream,
    validate_ground_truth,
    validate_stream,
)
from .tracker import FrameAssignments, TrackingOutput, TrackSummary

_HEADER_KEYS = ("n_queries", "embed_dim", "frame_height", "frame_width", "classes")


def _load_lines(path: str | Path) -> list[tuple[int, Any]]:
    """The (line number, decoded object) pairs of the non-blank lines."""
    p = Path(path)
    if not p.exists():
        raise StreamFormatError(f"file not found: {p}")
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"{p}: not UTF-8 text: {exc}") from exc
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            out.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"{p}:{lineno}: invalid JSON: {exc}") from exc
    if not out:
        raise StreamFormatError(f"{p}: empty stream file")
    return out


def _parse_records(path: str | Path, lines: list[tuple[int, Any]], what: str,
                   parse: Callable[[Any], Any]) -> list:
    """parse() each decoded line; every failure names path:line.

    Model invariant violations keep their DataError subclass.
    """
    out = []
    try:
        for lineno, obj in lines:
            out.append(parse(obj))
    except DataError as exc:
        raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"{path}:{lineno}: malformed {what}: {exc!r}") from exc
    return out


def _header_from(obj: Any) -> StreamHeader:
    extra = {k: v for k, v in obj.items()
             if k not in _HEADER_KEYS and k not in ("version", "video_id")}
    return StreamHeader(
        n_queries=int(obj["n_queries"]),
        embed_dim=int(obj["embed_dim"]),
        frame_height=int(obj["frame_height"]),
        frame_width=int(obj["frame_width"]),
        classes=tuple(str(c) for c in obj["classes"]),
        version=int(obj.get("version", 1)),
        video_id=str(obj.get("video_id", "")),
        extra=extra,
    )


def _require_valid(path: str | Path, violations: list[str]) -> None:
    if violations:
        raise StreamFormatError(f"{path}: invalid stream: " + "; ".join(violations[:3]))


def _parse_header(lines: list[tuple[int, Any]], path: str | Path) -> StreamHeader:
    lineno, obj = lines[0]
    if not isinstance(obj, dict) or any(k not in obj for k in _HEADER_KEYS):
        raise StreamFormatError(f"{path}:{lineno}: first line is not a stream header")
    return _parse_records(path, lines[:1], "stream header", _header_from)[0]


def _header_obj(header: StreamHeader) -> dict:
    obj = {
        "version": header.version,
        "n_queries": header.n_queries,
        "embed_dim": header.embed_dim,
        "frame_height": header.frame_height,
        "frame_width": header.frame_width,
        "classes": list(header.classes),
    }
    if header.video_id:
        obj["video_id"] = header.video_id
    obj.update(header.extra)
    return obj


def _parse_mask(obj: Any) -> RleMask | None:
    if obj is None:
        return None
    return RleMask(height=int(obj["h"]), width=int(obj["w"]), runs=obj["runs"])


def _mask_obj(mask: RleMask | None) -> dict | None:
    if mask is None:
        return None
    return {"h": mask.height, "w": mask.width, "runs": list(mask.runs)}


def _parse_box(obj: Any) -> BBox:
    x1, y1, x2, y2 = (float(v) for v in obj)
    return BBox(x1, y1, x2, y2)


def _parse_frame(obj: Any) -> FramePrediction:
    slots = tuple(
        QuerySlot(
            embedding=s["embedding"],
            box=_parse_box(s["box"]),
            classes=ClassDistribution(s["probs"]),
            mask=_parse_mask(s.get("mask")),
        )
        for s in obj["slots"]
    )
    return FramePrediction(frame_index=int(obj["frame_index"]), slots=slots)


def read_stream(path: str | Path) -> VideoStream:
    lines = _load_lines(path)
    header = _parse_header(lines, path)
    frames = _parse_records(path, lines[1:], "frame record", _parse_frame)
    stream = VideoStream(header=header, frames=tuple(frames))
    _require_valid(path, validate_stream(stream))
    return stream


def write_stream(stream: VideoStream, path: str | Path) -> None:
    lines = [json.dumps(_header_obj(stream.header))]
    for frame in stream.frames:
        lines.append(json.dumps({
            "frame_index": frame.frame_index,
            "slots": [
                {
                    "embedding": list(s.embedding),
                    "box": list(s.box.as_tuple()),
                    "probs": list(s.classes.probs),
                    "mask": _mask_obj(s.mask),
                }
                for s in frame.slots
            ],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_gt_frame(obj: Any) -> GroundTruthFrame:
    objects = tuple(
        GroundTruthObject(
            gt_track_id=int(o["gt_track_id"]),
            box=_parse_box(o["box"]),
            class_label=str(o["class"]),
            mask=_parse_mask(o.get("mask")),
        )
        for o in obj["objects"]
    )
    return GroundTruthFrame(frame_index=int(obj["frame_index"]), objects=objects)


def read_ground_truth(path: str | Path) -> GroundTruthStream:
    lines = _load_lines(path)
    header = _parse_header(lines, path)
    frames = _parse_records(path, lines[1:], "ground-truth record", _parse_gt_frame)
    gts = GroundTruthStream(header=header, frames=tuple(frames))
    _require_valid(path, validate_ground_truth(gts))
    return gts


def write_ground_truth(stream: GroundTruthStream, path: str | Path) -> None:
    lines = [json.dumps(_header_obj(stream.header))]
    for frame in stream.frames:
        lines.append(json.dumps({
            "frame_index": frame.frame_index,
            "objects": [
                {
                    "gt_track_id": o.gt_track_id,
                    "box": list(o.box.as_tuple()),
                    "mask": _mask_obj(o.mask),
                    "class": o.class_label,
                }
                for o in frame.objects
            ],
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def write_tracking(output: TrackingOutput, stream: VideoStream, path: str | Path) -> None:
    """One line per frame plus a trailing track-table line.

    Assignments embed the slot geometry so that downstream evaluation does
    not need the original stream next to the tracks file. A tracked frame
    missing from the stream raises FrameAlignmentError before anything is
    written.
    """
    sequence = TrackedSequence.from_tracking(output, stream)
    lines = []
    for fa, dets in zip(output.frames, sequence.frames):
        lines.append(json.dumps({
            "frame_index": fa.frame_index,
            "assignments": [
                {
                    "slot": slot,
                    "track_id": det.track_id,
                    "box": list(det.box.as_tuple()),
                    "mask": _mask_obj(det.mask),
                }
                for (slot, _), det in zip(fa.assignments, dets)
            ],
        }))
    lines.append(json.dumps({
        "track_table": [
            {
                "track_id": t.track_id,
                "observations": [list(o) for o in t.observations],
                "mean_probs": list(t.mean_probs),
                "first_frame": t.first_frame,
                "last_frame": t.last_frame,
                "frame_count": t.frame_count,
            }
            for t in output.tracks
        ],
        "config": output.config_dict(),
    }))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_tracked_frame(obj: Any) -> tuple[FrameAssignments, tuple[TrackedDet, ...]]:
    records = obj["assignments"]
    assignments = tuple((int(rec["slot"]), int(rec["track_id"])) for rec in records)
    dets = tuple(
        TrackedDet(track_id, _parse_box(rec["box"]), _parse_mask(rec.get("mask")))
        for (_, track_id), rec in zip(assignments, records)
    )
    return FrameAssignments(frame_index=int(obj["frame_index"]),
                            assignments=assignments), dets


def _parse_track_table(tail: Any) -> tuple[tuple[TrackSummary, ...], tuple]:
    tracks = tuple(
        TrackSummary(
            track_id=int(t["track_id"]),
            observations=tuple((int(f), int(s)) for f, s in t["observations"]),
            mean_probs=tuple(float(p) for p in t["mean_probs"]),
        )
        for t in tail["track_table"]
    )
    return tracks, tuple(sorted(tail.get("config", {}).items()))


def read_tracking(path: str | Path) -> tuple[TrackingOutput, TrackedSequence]:
    """Read a tracks file; also return its assigned detections for evaluation.

    The sequence equals TrackedSequence.from_tracking(output, stream) for
    the stream the file was written from.
    """
    lines = _load_lines(path)
    tail = lines[-1][1]
    if not (isinstance(tail, dict) and "track_table" in tail):
        raise StreamFormatError(f"{path}: missing trailing track-table line")
    parsed = _parse_records(path, lines[:-1], "tracks record", _parse_tracked_frame)
    tracks, config = _parse_records(path, lines[-1:], "track table", _parse_track_table)[0]
    frames = tuple(fa for fa, _ in parsed)
    output = TrackingOutput(frames=frames, tracks=tracks, config=config)
    sequence = TrackedSequence(
        frame_indices=tuple(fa.frame_index for fa in frames),
        frames=tuple(dets for _, dets in parsed),
    )
    return output, sequence
