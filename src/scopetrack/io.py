"""JSON Lines readers and writers for streams, ground truth and tracks.

Line 1 of every stream file is the header object; every later line is one
frame. Floats go through json's repr serialization, which round-trips
exactly. Each model type checks its fields as it is built, so readers only
decode and call constructors. Readers decode one line at a time and build
each record as its line arrives, so memory follows the objects kept, not
the file text, and of the lines that fail to decode or build, the first in
file order is the one reported. The checks that span lines run after the
last line: the stream and ground-truth readers check the model's
invariants (validate_stream, validate_ground_truth), and a file that breaks
them raises StreamFormatError naming the path and the first three
violations. Writers encode one line at a time into a temporary file that
replaces the target once it is complete.
"""

from __future__ import annotations

import json
import os
import shutil
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
    frame_order,
    require_floats,
    require_int,
    validate_ground_truth,
    validate_stream,
)
from .report import class_means
from .tracker import FrameAssignments, TrackingOutput, TrackSummary, assigned_slots

_HEADER_KEYS = ("n_queries", "embed_dim", "frame_height", "frame_width", "classes")


def _exists(path: str | Path) -> Path:
    p = Path(path)
    if not p.exists():
        raise StreamFormatError(f"file not found: {p}")
    return p


def _decode(p: Path, lineno: int, raw: str) -> Any:
    """json.loads(raw); a failure names p:lineno."""
    try:
        return json.loads(raw)
    except RecursionError as exc:
        raise StreamFormatError(f"{p}:{lineno}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # malformed, or an integer literal too long to convert
        raise StreamFormatError(f"{p}:{lineno}: invalid JSON: {exc}") from exc


def _load(path: str | Path) -> Iterator[tuple[int, Any]]:
    """The (line number, decoded object) pairs of the non-blank lines, read
    and decoded one line at a time: the decoder of every line-based input file.

    The lines are those of str.splitlines() over the whole UTF-8 text. A
    physical line ends at b"\n", which no other UTF-8 character contains, so
    splitting each one with splitlines() numbers every line as the whole text
    would, whatever other line boundaries it holds.
    """
    p = _exists(path)
    lineno = 0
    empty = True
    with p.open("rb") as f:
        for physical in f:
            try:
                text = physical.decode()
            except UnicodeDecodeError as exc:
                # the boundaries before the bad byte, as splitlines() counts them
                bad = lineno + len((physical[:exc.start].decode() + "x").splitlines())
                raise StreamFormatError(f"{p}:{bad}: not UTF-8 text: {exc}") from exc
            for raw in text.splitlines():
                lineno += 1
                if raw.strip():
                    empty = False
                    yield lineno, _decode(p, lineno, raw)
    if empty:
        raise StreamFormatError(f"{p}: empty file")


def load_json_object(path: str | Path) -> dict:
    """The JSON object a whole file holds, as --config and --weights files do."""
    p = _exists(path)
    try:
        text = p.read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"{p}: not UTF-8 text: {exc}") from exc
    if not text.strip():
        raise StreamFormatError(f"{p}: empty file")
    obj = _decode(p, 1, text)
    if not isinstance(obj, dict):
        raise StreamFormatError(f"{path}: not a JSON object")
    return obj


def _write_lines(path: str | Path, objs: Iterable[Any]) -> None:
    """One JSON object per line, encoded and written one line at a time.

    A regular file, or a new one, is written as a new file beside it
    (through any symlink), created as Path.write_text creates a file (with
    an existing target's mode), which replaces it once the last line is
    written. So no whole-file text is held, and a failure leaves path as it
    was and no temporary file. Anything else path names (a device, a FIFO,
    a terminal), and a file whose directory takes no new files, is written
    into in place, never replaced. An OSError from creating or replacing
    the file names path, as writing it in place would; errors from objs and
    from the writes themselves pass as they are.
    """
    path = Path(path)
    lines = (f"{json.dumps(obj)}\n" for obj in objs)
    tmp = None
    if not path.exists() or path.is_file():
        target = Path(os.path.realpath(path))
        tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            f = tmp.open("x")
        except PermissionError:
            tmp = None
        except OSError as exc:
            raise _naming(exc, path) from None
    if tmp is None:
        with path.open("w") as f:
            f.writelines(lines)
        return
    try:
        with f:
            f.writelines(lines)
        try:
            if target.exists():
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except OSError as exc:
            raise _naming(exc, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _naming(exc: OSError, path: Path) -> OSError:
    """exc as the OSError of the same errno raised on path itself."""
    return OSError(exc.errno, exc.strerror, str(path)) if exc.errno is not None else exc


def _parse_record(path: str | Path, lineno: int, obj: Any, what: str,
                  parse: Callable[[Any], Any]) -> Any:
    """parse(obj); a failure names path:lineno.

    Model invariant violations keep their DataError subclass.
    """
    try:
        return parse(obj)
    except DataError as exc:
        raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"{path}:{lineno}: malformed {what}: {exc!r}") from exc


def _int(obj: Any, key: str) -> int:
    return require_int(obj[key], key)


def _header_from(obj: Any) -> StreamHeader:
    if not isinstance(obj, dict) or any(k not in obj for k in _HEADER_KEYS):
        raise StreamFormatError("first line is not a stream header")
    extra = {k: v for k, v in obj.items()
             if k not in _HEADER_KEYS and k not in ("version", "video_id")}
    return StreamHeader(**{k: obj[k] for k in _HEADER_KEYS}, version=obj.get("version", 1),
                        video_id=obj.get("video_id", ""), extra=extra)


def _header_obj(header: StreamHeader) -> dict:
    obj = {"version": header.version, **{k: getattr(header, k) for k in _HEADER_KEYS}}
    if header.video_id:
        obj["video_id"] = header.video_id
    obj.update(header.extra)
    return obj


def _read_frames(path: str | Path, what: str, parse_frame: Callable[[Any], Any],
                 container: type, validate: Callable[[Any], list[str]]):
    """A header line, then one parse_frame record per line, checked by validate.

    Each record is built as its line is decoded, and the decoder's own errors
    pass through as they are, so the first error in file order is the one
    raised.
    """
    lines = _load(path)
    header = _parse_record(path, *next(lines), "stream header", _header_from)
    frames = [_parse_record(path, lineno, obj, what, parse_frame) for lineno, obj in lines]
    stream = container(header=header, frames=tuple(frames))
    violations = validate(stream)
    if violations:
        raise StreamFormatError(f"{path}: invalid stream: " + "; ".join(violations[:3]))
    return stream


def _parse_mask(obj: Any) -> RleMask | None:
    if obj is None:
        return None
    return RleMask(height=obj["h"], width=obj["w"], runs=obj["runs"])


def _mask_obj(mask: RleMask | None) -> dict | None:
    if mask is None:
        return None
    return {"h": mask.height, "w": mask.width, "runs": mask.runs}


def _parse_frame(obj: Any) -> FramePrediction:
    slots = tuple(
        QuerySlot(
            embedding=s["embedding"],
            box=BBox(*s["box"]),
            classes=ClassDistribution(s["probs"]),
            mask=_parse_mask(s.get("mask")),
        )
        for s in obj["slots"]
    )
    return FramePrediction(frame_index=obj["frame_index"], slots=slots)


def read_stream(path: str | Path) -> VideoStream:
    return _read_frames(path, "frame record", _parse_frame, VideoStream, validate_stream)


def write_stream(stream: VideoStream, path: str | Path) -> None:
    frames = ({
        "frame_index": frame.frame_index,
        "slots": [
            {
                "embedding": s.embedding.astuple(),
                "box": s.box.as_tuple(),
                "probs": s.classes.probs,
                "mask": _mask_obj(s.mask),
            }
            for s in frame.slots
        ],
    } for frame in stream.frames)
    _write_lines(path, chain([_header_obj(stream.header)], frames))


def _parse_gt_frame(obj: Any) -> GroundTruthFrame:
    objects = tuple(
        GroundTruthObject(
            gt_track_id=o["gt_track_id"],
            box=BBox(*o["box"]),
            class_label=o["class"],
            mask=_parse_mask(o.get("mask")),
        )
        for o in obj["objects"]
    )
    return GroundTruthFrame(frame_index=obj["frame_index"], objects=objects)


def read_ground_truth(path: str | Path) -> GroundTruthStream:
    return _read_frames(path, "ground-truth record", _parse_gt_frame, GroundTruthStream,
                        validate_ground_truth)


def write_ground_truth(stream: GroundTruthStream, path: str | Path) -> None:
    frames = ({
        "frame_index": frame.frame_index,
        "objects": [
            {
                "gt_track_id": o.gt_track_id,
                "box": o.box.as_tuple(),
                "mask": _mask_obj(o.mask),
                "class": o.class_label,
            }
            for o in frame.objects
        ],
    } for frame in stream.frames)
    _write_lines(path, chain([_header_obj(stream.header)], frames))


def _track_row(t: TrackSummary, mean_probs: tuple[float, ...]) -> dict:
    # lists, not tuples: _parse_track_table compares this dict with the decoded row
    return {
        "track_id": t.track_id,
        "observations": [list(o) for o in t.observations],
        "mean_probs": list(mean_probs),
        "first_frame": t.first_frame,
        "last_frame": t.last_frame,
        "frame_count": t.frame_count,
    }


def write_tracking(output: TrackingOutput, stream: VideoStream, path: str | Path) -> None:
    """One line per frame plus a trailing track-table line.

    Assignments embed the slot geometry so that downstream evaluation does
    not need the original stream next to the tracks file; the table copies
    report.class_means, which no reader uses. A tracked frame missing from
    the stream raises FrameAlignmentError before anything is written.
    """
    means = class_means(stream, output.frames)
    frames = ({
        "frame_index": fa.frame_index,
        "assignments": [
            {
                "slot": slot,
                "track_id": track_id,
                "box": query.box.as_tuple(),
                "mask": _mask_obj(query.mask),
            }
            for (slot, track_id), query in zip(fa.assignments, queries)
        ],
    } for fa, queries in assigned_slots(stream, output.frames))
    table = {"track_table": [_track_row(t, means[t.track_id]) for t in output.tracks],
             "config": output.config}
    _write_lines(path, chain(frames, [table]))


def _parse_tracked_frame(obj: Any) -> tuple[FrameAssignments, tuple[TrackedDet, ...]]:
    frame_index = _int(obj, "frame_index")
    records = obj["assignments"]
    assignments = tuple((_int(rec, "slot"), _int(rec, "track_id")) for rec in records)
    for name, values in zip(("slot", "track_id"), zip(*assignments)):
        if len(set(values)) < len(values):
            raise StreamFormatError(f"frame {frame_index} repeats a {name}: {list(values)}")
    dets = tuple(
        TrackedDet(track_id, BBox(*rec["box"]), _parse_mask(rec.get("mask")))
        for (_, track_id), rec in zip(assignments, records)
    )
    return FrameAssignments(frame_index=frame_index, assignments=assignments), dets


def _parse_track_table(tail: Any, frames: tuple[FrameAssignments, ...]) -> TrackingOutput:
    """The tracking; each row must be the one write_tracking writes for the
    assignment lines and its mean_probs. Rows are checked before the config."""
    rows = tail["track_table"]
    for row in rows:
        _int(row, "track_id")
        for value in chain.from_iterable(row["observations"]):
            require_int(value, "observations")
    output = TrackingOutput(frames=frames, config={})
    means = [require_floats(row["mean_probs"], "mean_probs")
             for _, row in zip(output.tracks, rows)]
    if len(rows) != len(output.tracks) or any(
            _track_row(t, m) != row for t, m, row in zip(output.tracks, means, rows)):
        raise StreamFormatError("track table disagrees with the assignment lines")
    output.config.update(sorted(tail.get("config", {}).items()))
    return output


def read_tracking(path: str | Path) -> tuple[TrackingOutput, TrackedSequence]:
    """Read a tracks file; also return its assigned detections for evaluation.

    No frame may repeat a slot or a track id, frames must be in order, and
    the track table must match the assignment lines. The sequence equals
    TrackedSequence.from_tracking(output, stream) for the stream the file
    was written from.
    """
    lines = _load(path)
    lineno, tail = next(lines)
    linenos, parsed = [], []
    for pair in lines:  # one line of lookahead: only the last line is the track table
        parsed.append(_parse_record(path, lineno, tail, "tracks record", _parse_tracked_frame))
        linenos.append(lineno)
        lineno, tail = pair
    if not (isinstance(tail, dict) and "track_table" in tail):
        raise StreamFormatError(f"{path}: missing trailing track-table line")
    frames = tuple(fa for fa, _ in parsed)
    for pos, reason in frame_order([fa.frame_index for fa in frames]):
        raise StreamFormatError(f"{path}:{linenos[pos]}: {reason}")
    output = _parse_record(path, lineno, tail, "track table",
                           lambda obj: _parse_track_table(obj, frames))
    sequence = TrackedSequence(
        frame_indices=tuple(fa.frame_index for fa in frames),
        frames=tuple(dets for _, dets in parsed),
    )
    return output, sequence
