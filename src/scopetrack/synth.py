"""Deterministic synthetic detection streams with paired ground truth.

Objects move on circular (sinusoidal) paths and carry a unit embedding that
rotates inside a per-object random 2-plane by a Gaussian angle walk, so the
expected frame-to-frame cosine similarity is controllable in closed form.
Streams are reproducible from (config, seed) alone; the generator algorithm
(numpy Philox, one spawned stream per object plus one noise stream) is
recorded in the stream header.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CapacityError, DataError
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
    rle_encode,
)

GENERATOR_NAME = "numpy-philox"
SCENARIO_NAMES = ("static", "occlusion", "large_motion", "swap", "drift")

_FG_PROB = 0.9
_OTHER_PROB = 0.02


@dataclass(frozen=True, slots=True)
class SynthConfig:
    n_objects: int = 3
    n_frames: int = 60
    n_queries: int = 8
    embed_dim: int = 32
    frame_height: int = 256
    frame_width: int = 256
    classes: tuple[str, ...] = ("AD", "HP")
    embedding_drift: float = 0.0
    occlusions: tuple[tuple[int, int, int], ...] = ()  # (object, start, length)
    motion_amplitude: float = 0.0  # orbit radius, fraction of min frame side
    motion_freq: float = 0.05  # orbit cycles per frame
    box_size: float = 0.078  # box side, fraction of min frame side
    object_classes: tuple[str, ...] | None = None
    swap_at: int | None = None  # frame at which objects 0 and 1 trade places
    with_masks: bool = False
    seed: int = 0
    video_id: str = ""

    def as_dict(self) -> dict:
        """The fields a stream header records: all but video_id."""
        return {k: v for k, v in asdict(self).items() if k != "video_id"}


def _validate(cfg: SynthConfig) -> None:
    if cfg.n_objects > cfg.n_queries:
        raise CapacityError(
            f"{cfg.n_objects} objects do not fit into {cfg.n_queries} query slots"
        )
    if cfg.n_objects < 0 or cfg.n_frames <= 0:
        raise DataError("need a non-negative object count and at least one frame")
    if not cfg.classes:
        raise DataError("class set is empty")
    for obj, start, length in cfg.occlusions:
        if not 0 <= obj < cfg.n_objects:
            raise DataError(f"occlusion window names unknown object {obj}")
        if length < 1 or start < 0 or start + length > cfg.n_frames:
            raise DataError(
                f"occlusion window ({obj},{start},{length}) outside [0,{cfg.n_frames})"
            )
    if cfg.object_classes is not None and len(cfg.object_classes) != cfg.n_objects:
        raise DataError("object_classes must list one class per object")
    if cfg.embedding_drift < 0:
        raise DataError("embedding_drift must be >= 0")
    if cfg.seed < 0:
        raise DataError(f"seed must be >= 0, got {cfg.seed}")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _object_plane(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    v1 = rng.normal(size=dim)
    v2 = rng.normal(size=dim)
    e1 = _unit(v1)
    v2 = v2 - np.dot(v2, e1) * e1
    return e1, _unit(v2)


def _rect_mask(box: BBox, height: int, width: int) -> RleMask:
    """The pixels whose row and column lie between the box's rounded corners."""
    grid = np.zeros((height, width), dtype=np.uint8)
    # both corners clamped to the frame, so no slice index wraps
    x1, x2 = (min(max(0, int(round(x))), width) for x in (box.x1, box.x2))
    y1, y2 = (min(max(0, int(round(y))), height) for y in (box.y1, box.y2))
    grid[y1:y2, x1:x2] = 1
    return rle_encode(grid)


def generate(cfg: SynthConfig) -> tuple[GroundTruthStream, VideoStream]:
    """Build the (ground truth, predictions) stream pair for one video."""
    _validate(cfg)
    h, w = cfg.frame_height, cfg.frame_width
    side = min(h, w)
    radius = cfg.motion_amplitude * side
    half_box = 0.5 * cfg.box_size * side

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_objects + 1)
    noise_rng = np.random.Generator(np.random.Philox(children[-1]))

    planes = []
    phases = []
    angles = []
    for i in range(cfg.n_objects):
        rng = np.random.Generator(np.random.Philox(children[i]))
        planes.append(_object_plane(rng, cfg.embed_dim))
        phases.append(rng.uniform(0.0, 2.0 * math.pi))
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        steps = rng.normal(0.0, cfg.embedding_drift, size=cfg.n_frames)
        steps[0] = 0.0  # frame 0 starts at theta0, drift applies afterwards
        angles.append(theta0 + np.cumsum(steps))

    labels = list(cfg.object_classes) if cfg.object_classes else [
        cfg.classes[i % len(cfg.classes)] for i in range(cfg.n_objects)
    ]

    def slot_of(obj: int, t: int) -> int:
        # objects 0 and 1 trade slots (and paths) from swap_at onward
        if cfg.swap_at is not None and t >= cfg.swap_at and obj in (0, 1):
            return 1 - obj
        return obj

    def center(obj: int, t: int) -> tuple[float, float]:
        path = slot_of(obj, t)
        band = h * (path + 1) / (cfg.n_objects + 1)
        angle = 2.0 * math.pi * cfg.motion_freq * t + phases[path]
        return (w / 2 + radius * math.cos(angle), band + radius * math.sin(angle))

    hidden = {
        (obj, t)
        for obj, start, length in cfg.occlusions
        for t in range(start, start + length)
    }

    empty_probs = ClassDistribution(tuple(0.0 for _ in cfg.classes))
    degenerate = BBox(0.0, 0.0, 0.0, 0.0)

    gt_frames = []
    pred_frames = []
    for t in range(cfg.n_frames):
        slots: list[QuerySlot | None] = [None] * cfg.n_queries
        objects = []
        for i in range(cfg.n_objects):
            e1, e2 = planes[i]
            theta = float(angles[i][t])
            embedding = (math.cos(theta) * e1 + math.sin(theta) * e2).tolist()
            if (i, t) in hidden:
                slots[slot_of(i, t)] = QuerySlot(
                    embedding=embedding, box=degenerate, classes=empty_probs, mask=None,
                )
                continue
            cx, cy = center(i, t)
            box = BBox(
                max(0.0, cx - half_box), max(0.0, cy - half_box),
                min(float(w), cx + half_box), min(float(h), cy + half_box),
            )
            probs = tuple(
                _FG_PROB if c == labels[i] else _OTHER_PROB for c in cfg.classes
            )
            mask = _rect_mask(box, h, w) if cfg.with_masks else None
            slots[slot_of(i, t)] = QuerySlot(
                embedding=embedding, box=box,
                classes=ClassDistribution(probs), mask=mask,
            )
            objects.append(GroundTruthObject(
                gt_track_id=i, box=box, class_label=labels[i], mask=mask,
            ))
        for j in range(cfg.n_queries):
            if slots[j] is None:
                noise = _unit(noise_rng.normal(size=cfg.embed_dim))
                slots[j] = QuerySlot(
                    embedding=noise.tolist(),
                    box=degenerate, classes=empty_probs, mask=None,
                )
        gt_frames.append(GroundTruthFrame(frame_index=t, objects=tuple(objects)))
        pred_frames.append(FramePrediction(frame_index=t, slots=tuple(slots)))

    header = StreamHeader(
        n_queries=cfg.n_queries,
        embed_dim=cfg.embed_dim,
        frame_height=h,
        frame_width=w,
        classes=cfg.classes,
        video_id=cfg.video_id or f"synth-seed{cfg.seed}",
        extra={"generator": GENERATOR_NAME, "synth": cfg.as_dict()},
    )
    return (
        GroundTruthStream(header=header, frames=tuple(gt_frames)),
        VideoStream(header=header, frames=tuple(pred_frames)),
    )


def scenario_config(name: str, seed: int) -> SynthConfig:
    """Fixed per-scenario configs behind the five named stress cases."""
    base = SynthConfig(seed=seed, video_id=f"synth-{name}-seed{seed}")
    if name == "static":
        return replace(base, n_objects=3)
    if name == "occlusion":
        return replace(
            base, n_objects=3, motion_amplitude=0.0625, motion_freq=0.1,
            occlusions=((0, 12, 4), (0, 34, 5), (1, 22, 5), (2, 44, 4)),
        )
    if name == "large_motion":
        # one-half cycle per frame: the box teleports across the orbit
        return replace(base, n_objects=2, motion_amplitude=0.25, motion_freq=0.5)
    if name == "swap":
        return replace(
            base, n_objects=2, motion_amplitude=0.0625, motion_freq=0.05,
            swap_at=base.n_frames // 2,
        )
    if name == "drift":
        return replace(
            base, n_objects=3, motion_amplitude=0.0625, motion_freq=0.05,
            embedding_drift=0.12,
        )
    raise DataError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
