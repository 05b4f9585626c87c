"""Per-video exam report: one row per tracked polyp.

The polyp type is the argmax of the track's averaged class distribution
(full evidence rather than a majority vote of per-frame argmaxes); the
confidence is that average's maximum.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .model import VideoStream
from .tracker import FrameAssignments, TrackingOutput, assigned_slots

_COLUMNS = ("ID", "Type", "Conf", "Fr.Ct.", "1st.Fr.", "Last Fr.")


@dataclass(frozen=True, slots=True)
class PolypReportEntry:
    polyp_id: int
    polyp_type: str
    confidence: float
    frame_count: int
    first_frame: int
    last_frame: int


@dataclass(frozen=True, slots=True)
class ExamReport:
    video_id: str
    entries: tuple[PolypReportEntry, ...]
    config: dict  # keys in sorted order, as rendered


def class_means(stream: VideoStream, frames: tuple[FrameAssignments, ...]
                ) -> dict[int, tuple[float, ...]]:
    """Each track's mean class distribution over the stream slots it took
    (joined by tracker.assigned_slots, with its errors), by track id."""
    probs: dict[int, list[tuple[float, ...]]] = {}
    for fa, slots in assigned_slots(stream, frames):
        for (_, track_id), query in zip(fa.assignments, slots):
            probs.setdefault(track_id, []).append(query.classes.probs)
    return {track_id: tuple(np.asarray(rows, dtype=np.float64).mean(axis=0).tolist())
            for track_id, rows in probs.items()}


def generate_report(tracking: TrackingOutput, stream: VideoStream,
                    min_frames: int = 1) -> ExamReport:
    """Summarize every track with at least min_frames observations.

    Each row's span comes from the tracking's track table, and its type and
    confidence from class_means; a tracks file's copy of the means is unread.
    """
    if min_frames < 1:
        raise DataError(f"min_frames must be >= 1, got {min_frames}")
    classes = stream.header.classes
    means = class_means(stream, tracking.frames)
    entries = []
    for track in tracking.tracks:
        if track.frame_count < min_frames:
            continue
        mean = means[track.track_id]
        best = int(np.argmax(mean))
        entries.append(PolypReportEntry(
            polyp_id=track.track_id,
            polyp_type=classes[best],
            confidence=mean[best],
            frame_count=track.frame_count,
            first_frame=track.first_frame,
            last_frame=track.last_frame,
        ))
    entries.sort(key=lambda e: (e.first_frame, e.polyp_id))
    return ExamReport(
        video_id=stream.header.video_id,
        entries=tuple(entries),
        config=dict(sorted({**tracking.config, "min_frames": min_frames}.items())),
    )


def render_report(report: ExamReport, format: str = "text") -> bytes:
    """Serialize a report as a fixed-width text table or as JSON."""
    if format == "json":
        return (json.dumps(asdict(report)) + "\n").encode()
    if format == "text":
        rows = [
            (
                str(e.polyp_id), e.polyp_type, f"{e.confidence:.2f}",
                str(e.frame_count), str(e.first_frame), str(e.last_frame),
            )
            for e in report.entries
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
            for i, col in enumerate(_COLUMNS)
        ]
        lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(_COLUMNS)).rstrip()]
        for row in rows:
            lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())
        return ("\n".join(lines) + "\n").encode()
    raise DataError(f"unknown report format {format!r}; use 'text' or 'json'")
