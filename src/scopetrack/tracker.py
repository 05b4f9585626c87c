"""Unsupervised per-frame query association with carry-forward and the
IoU-overlap baseline tracker.

Live tracks keep the key of the slot they last took as a matching
candidate while they ride out empty matches, which realizes carry-forward
without growing the cost matrix; a track dies once its empty streak
exceeds the patience. The query tracker's key is the slot's unit
embedding row, normalized once with the rest of its frame and carried to
the next steps as is; the baseline's key is the slot. State holds the
live tracks only: the per-frame assignments are the one record of which
track held which slot, and the output reads its track table off them.
Class means are the report's (report.class_means).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import assignment
from .errors import DataError, FrameAlignmentError
from .model import (FramePrediction, QuerySlot, VideoStream, require_int, require_range,
                    similarity, validate_stream)

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class TrackerConfig:
    """Knobs of the association stage.

    A slot counts as empty when its best foreground probability is below
    empty_threshold. With carry_forward disabled a track dies on its first
    empty match instead of surviving death_patience of them.
    """

    empty_threshold: float = 0.5
    death_patience: int = 5
    carry_forward: bool = True
    similarity_floor: float | None = None

    def __post_init__(self) -> None:
        require_range(self.empty_threshold, "empty_threshold", 0.0, 1.0,
                      open_low=True, open_high=True)
        object.__setattr__(self, "death_patience",
                           require_int(self.death_patience, "death_patience"))
        if self.death_patience < 1:
            raise DataError(f"death_patience must be >= 1, got {self.death_patience}")
        if not isinstance(self.carry_forward, bool):
            raise DataError(f"carry_forward must be true or false, got {self.carry_forward!r}")
        if self.similarity_floor is not None:
            require_range(self.similarity_floor, "similarity_floor", -math.inf, math.inf)


@dataclass(frozen=True)
class TrackRecord:
    track_id: int
    # the key of the slot the track last took: the bytes of its float64 unit
    # embedding row (query tracker) or the QuerySlot itself (IoU baseline)
    key: bytes | QuerySlot
    empty_streak: int = 0


@dataclass(frozen=True)
class TrackState:
    live: tuple[TrackRecord, ...] = ()
    next_id: int = 0


@dataclass(frozen=True)
class FrameAssignments:
    frame_index: int
    assignments: tuple[tuple[int, int], ...]  # (slot, track_id), sorted by slot


@dataclass(frozen=True)
class TrackSummary:
    track_id: int
    observations: tuple[tuple[int, int], ...]  # (frame index, slot), in frame order

    @property
    def first_frame(self) -> int:
        return self.observations[0][0]

    @property
    def last_frame(self) -> int:
        return self.observations[-1][0]

    @property
    def frame_count(self) -> int:
        return len(self.observations)


def track_table(frames: Sequence[FrameAssignments]) -> tuple[TrackSummary, ...]:
    """Each track's (frame index, slot) observations in frame order, by track id."""
    observations: dict[int, list[tuple[int, int]]] = {}
    for fa in frames:
        for slot, track_id in fa.assignments:
            observations.setdefault(track_id, []).append((fa.frame_index, slot))
    return tuple(TrackSummary(track_id, tuple(observations[track_id]))
                 for track_id in sorted(observations))


@dataclass(frozen=True)
class TrackingOutput:
    frames: tuple[FrameAssignments, ...]
    tracks: tuple[TrackSummary, ...] = field(init=False)  # read off frames once, when built
    config: dict  # keys in sorted order, as written

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", track_table(self.frames))


def _unit_keys(slots: Sequence[QuerySlot]) -> list[bytes]:
    """Each slot's unit embedding row, as the bytes of its float64 values.

    numpy reduces each row of the matrix on its own, so a row's bits do not
    depend on the frame it sits in. A row with norm below _ZERO_NORM is all
    zeros. Cosine does not depend on scale, so a row whose squared norm
    overflows is divided by its largest |value| first; no other row changes.
    Each key is a copy: a track that keeps one pins no frame's matrix.
    Slots whose embeddings differ in length raise DataError.
    """
    try:
        mat = np.asarray([s.embedding for s in slots], dtype=np.float64)
    except ValueError:  # numpy's inhomogeneous-shape error
        lengths = sorted({len(s.embedding) for s in slots})
        raise DataError(f"slot embeddings differ in length: {lengths}") from None
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.inf in norms:
        huge = norms[:, 0] == np.inf
        mat[huge] /= np.abs(mat[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(mat[huge], axis=1, keepdims=True)
    unit = np.divide(mat, norms, out=np.zeros_like(mat), where=norms >= _ZERO_NORM)
    return [row.tobytes() for row in unit]


def _query_scores(live: Sequence[bytes], frame: Sequence[bytes], nonempty):
    """Cosine against every slot, empty ones included."""
    prev, curr = (np.frombuffer(b"".join(keys)).reshape(len(keys), -1)
                  for keys in (live, frame))
    if prev.shape[1] != curr.shape[1]:
        raise DataError(f"embedding dims differ: {prev.shape[1]} vs {curr.shape[1]}")
    sims = prev @ curr.T
    np.clip(sims, -1.0, 1.0, out=sims)
    return list(range(len(frame))), sims


def _iou_scores(live: Sequence[QuerySlot], slots: Sequence[QuerySlot], nonempty):
    """Box (or mask) overlap against the non-empty slots."""
    return nonempty, np.array(
        [[similarity(last, slots[j]) for j in nonempty] for last in live],
        dtype=np.float64,
    )


# A scorer is (keys, scores): keys(slots) gives what a track that takes each
# slot keeps (the baseline keeps the slot itself), and scores(live keys,
# frame keys, nonempty) the candidate slot columns and a live x columns
# score matrix, higher being better.
_QUERY = (_unit_keys, _query_scores)
_IOU = (tuple, _iou_scores)


def _advance(state: TrackState, frame: FramePrediction, cfg: TrackerConfig,
             scorer: tuple[Callable, Callable], floor: float | None
             ) -> tuple[TrackState, FrameAssignments]:
    """Match, age, retire and birth: the scaffold shared by both trackers.

    A live track takes its matched slot, and that slot's key, when the slot
    is non-empty and the score reaches the floor (no floor: any score);
    otherwise its empty streak grows. Unclaimed non-empty slots start new
    tracks in slot order. The frame's keys are computed only when a live
    track or a birth needs them.
    """
    keys_of, scores_of = scorer
    slots = frame.slots
    nonempty = [j for j, s in enumerate(slots) if not s.is_empty(cfg.empty_threshold)]
    scoring = bool(state.live and slots)
    keys = keys_of(slots) if scoring or nonempty else ()
    matched: dict[int, int] = {}
    if scoring:
        cols, scores = scores_of([t.key for t in state.live], keys, nonempty)
        if cols:
            cost = assignment.CostMatrix((-scores).tolist())
            matched = dict(assignment.solve(cost).pairs)

    patience = cfg.death_patience if cfg.carry_forward else 0
    taken: dict[int, int] = {}  # slot -> track_id
    survivors: list[TrackRecord] = []
    for i, track in enumerate(state.live):
        col = matched.get(i)
        j = cols[col] if col is not None else None
        if j in nonempty and (floor is None or scores[i, col] >= floor):
            survivors.append(TrackRecord(track.track_id, keys[j]))
            taken[j] = track.track_id
        elif track.empty_streak < patience:
            survivors.append(replace(track, empty_streak=track.empty_streak + 1))

    next_id = state.next_id
    for j in nonempty:
        if j not in taken:
            survivors.append(TrackRecord(next_id, keys[j]))
            taken[j] = next_id
            next_id += 1

    frame_out = FrameAssignments(
        frame_index=frame.frame_index,
        assignments=tuple(sorted(taken.items())),
    )
    return TrackState(live=tuple(survivors), next_id=next_id), frame_out


def step(state: TrackState, frame: FramePrediction,
         cfg: TrackerConfig = TrackerConfig()) -> tuple[TrackState, FrameAssignments]:
    """Advance query-space tracking by one frame; state is never mutated."""
    return _advance(state, frame, cfg, _QUERY, cfg.similarity_floor)


def assigned_slots(stream: VideoStream, frames: Sequence[FrameAssignments]
                   ) -> Iterator[tuple[FrameAssignments, tuple[QuerySlot, ...]]]:
    """Each tracked frame with the stream slots its assignments name, in order.

    Frames are looked up by frame index. A tracked frame missing from the
    stream raises FrameAlignmentError; a slot outside its frame, negative
    ones included, raises DataError.
    """
    by_frame = {f.frame_index: f.slots for f in stream.frames}
    for fa in frames:
        slots = by_frame.get(fa.frame_index)
        if slots is None:
            raise FrameAlignmentError(f"tracked frame {fa.frame_index} missing from stream")
        for slot, track_id in fa.assignments:
            if not 0 <= slot < len(slots):
                raise DataError(
                    f"tracked frame {fa.frame_index} assigns slot {slot} to track "
                    f"{track_id}, outside the frame's {len(slots)} slots"
                )
        yield fa, tuple(slots[slot] for slot, _ in fa.assignments)


def _run(stream: VideoStream, cfg: TrackerConfig, scorer: tuple[Callable, Callable],
         floor: float | None, config: dict) -> TrackingOutput:
    violations = validate_stream(stream)
    if violations:
        raise DataError("invalid stream: " + "; ".join(violations[:3]))
    state = TrackState()
    frames = []
    for frame in stream.frames:
        state, out = _advance(state, frame, cfg, scorer, floor)
        frames.append(out)
    return TrackingOutput(
        frames=tuple(frames),
        config=dict(sorted({**asdict(cfg), **config}.items())),
    )


def track_video(stream: VideoStream, cfg: TrackerConfig = TrackerConfig()) -> TrackingOutput:
    """Fold step() over the whole stream."""
    return _run(stream, cfg, _QUERY, cfg.similarity_floor,
                {"algorithm": "query"})


def iou_baseline_track(stream: VideoStream, iou_floor: float = 0.1,
                       cfg: TrackerConfig = TrackerConfig()) -> TrackingOutput:
    """Heuristic baseline: associate detections by box (or mask) overlap."""
    return _run(stream, cfg, _IOU, iou_floor,
                {"algorithm": "iou_baseline", "iou_floor": iou_floor})
