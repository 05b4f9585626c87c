"""Benchmark workloads: synth.generate paths plus the benchmark's detector noise.

synth.generate copies ground-truth boxes into the predictions, so every
tracking metric would score 100 and HOTA's threshold grid, carry-forward
rescues and the solver's tie paths would never run as real data runs them.
The noise pass below is layered over synth's output (synth itself stays
untouched) and adds:

- box jitter on every visible detection;
- missed-while-visible bursts, some shorter and some longer than the
  tracker's death patience of 5 frames;
- false positives on empty query slots;
- confidence flicker around the empty threshold tau = 0.5;
- class confusion.

Everything is derived from the seed: the same seed gives the same files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scopetrack import synth
from scopetrack.model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    GroundTruthStream,
    QuerySlot,
    RleMask,
    VideoStream,
)

TAU = 0.5
PATIENCE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_frames: int
    n_queries: int
    embed_dim: int
    n_objects: int
    with_masks: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exam_long", n_frames=1200, n_queries=8, embed_dim=32, n_objects=4,
            with_masks=False,
        ),
        Workload(
            "embed_wide", n_frames=40, n_queries=32, embed_dim=256, n_objects=12,
            with_masks=False,
        ),
        Workload(
            "seg_masks", n_frames=200, n_queries=8, embed_dim=32, n_objects=3,
            with_masks=True,
        ),
    )
}

# Noise rates, per visible object and frame unless noted.
JITTER = 0.08  # box corner sigma, fraction of the box side
MISS_START = 1 / 150  # a missed-while-visible burst begins
MISS_SHORT = (1, PATIENCE)  # burst lengths the tracker can carry across
MISS_LONG = (PATIENCE + 1, 2 * PATIENCE + 2)  # bursts that retire the track
FALSE_POSITIVE = 0.004  # per empty slot and frame
FLICKER = 0.05  # best class probability drawn around tau
CONFUSION = 0.03  # probability mass moves to the wrong class
OCCLUSION_EVERY = 400  # frames per hidden window, per object (synth occlusions)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))


def synth_config(w: Workload, seed: int, n_frames: int) -> synth.SynthConfig:
    """synth.generate paths with orbiting motion, embedding drift and occlusions."""
    rng = _rng(seed, 1)
    occlusions = []
    for obj in range(w.n_objects):
        for start in range(10, n_frames - 12, OCCLUSION_EVERY):
            offset = int(rng.integers(0, min(OCCLUSION_EVERY, n_frames - 12 - start)))
            occlusions.append((obj, start + offset, int(rng.integers(2, 9))))
    return synth.SynthConfig(
        n_objects=w.n_objects,
        n_frames=n_frames,
        n_queries=w.n_queries,
        embed_dim=w.embed_dim,
        motion_amplitude=0.04,
        motion_freq=0.01,
        embedding_drift=0.03,
        occlusions=tuple(occlusions),
        with_masks=w.with_masks,
        seed=seed,
        video_id=f"bench-{w.name}-seed{seed}",
    )


def _rect_mask(box: BBox, height: int, width: int) -> RleMask:
    """Row-major runs of the pixel rectangle a box covers, without a grid."""
    x1 = max(0, int(round(box.x1)))
    y1 = max(0, int(round(box.y1)))
    x2 = min(width, int(round(box.x2)))
    y2 = min(height, int(round(box.y2)))
    if x2 <= x1 or y2 <= y1:
        return RleMask(height, width, (height * width,))
    runs = [y1 * width + x1, x2 - x1]
    for _ in range(y1 + 1, y2):
        runs += [width - (x2 - x1), x2 - x1]
    runs.append(height * width - (y2 - 1) * width - x2)
    if runs[-1] == 0:
        runs.pop()
    return RleMask(height, width, tuple(runs))


def _jitter(box: BBox, noise: np.ndarray, height: int, width: int) -> BBox:
    side = max(box.width, box.height)
    x1, y1, x2, y2 = (c + float(e) * side for c, e in zip(box.as_tuple(), noise))
    x1, x2 = sorted((min(max(x1, 0.0), float(width)), min(max(x2, 0.0), float(width))))
    y1, y2 = sorted((min(max(y1, 0.0), float(height)), min(max(y2, 0.0), float(height))))
    return BBox(x1, y1, x2, y2)


def _miss_mask(rng: np.random.Generator, n_frames: int, n_objects: int) -> np.ndarray:
    """(T, objects) flags of missed-while-visible bursts, short and long."""
    missed = np.zeros((n_frames, n_objects), dtype=bool)
    starts = rng.random((n_frames, n_objects)) < MISS_START
    long_burst = rng.random((n_frames, n_objects)) < 0.5
    short_len = rng.integers(MISS_SHORT[0], MISS_SHORT[1] + 1, size=(n_frames, n_objects))
    long_len = rng.integers(MISS_LONG[0], MISS_LONG[1] + 1, size=(n_frames, n_objects))
    for t, obj in zip(*np.nonzero(starts)):
        length = long_len[t, obj] if long_burst[t, obj] else short_len[t, obj]
        missed[t:t + length, obj] = True
    return missed


def add_detector_noise(gt: GroundTruthStream, pred: VideoStream,
                       seed: int) -> VideoStream:
    """Return predictions with detector noise; ground truth is unchanged.

    Object i of synth.generate always sits in query slot i (no swaps are
    configured), so slot i's ground truth is object i when it is visible.
    """
    header = pred.header
    h, w = header.frame_height, header.frame_width
    n_frames, n_slots = len(pred.frames), header.n_queries
    n_classes = len(header.classes)
    with_masks = bool(header.extra["synth"]["with_masks"])
    rng = _rng(seed, 2)
    jitter = rng.normal(0.0, JITTER, size=(n_frames, n_slots, 4))
    missed = _miss_mask(rng, n_frames, n_slots)
    miss_prob = rng.uniform(0.05, TAU - 0.05, size=(n_frames, n_slots))
    flicker = rng.random((n_frames, n_slots)) < FLICKER
    flicker_prob = rng.uniform(TAU - 0.1, TAU + 0.1, size=(n_frames, n_slots))
    confused = rng.random((n_frames, n_slots)) < CONFUSION
    confused_to = rng.integers(1, max(2, n_classes), size=(n_frames, n_slots))
    fp = rng.random((n_frames, n_slots)) < FALSE_POSITIVE
    fp_xy = rng.uniform(0.0, 1.0, size=(n_frames, n_slots, 2))
    fp_size = rng.uniform(0.05, 0.12, size=(n_frames, n_slots))
    fp_class = rng.integers(0, n_classes, size=(n_frames, n_slots))
    fp_prob = rng.uniform(TAU + 0.05, 0.95, size=(n_frames, n_slots))
    background = RleMask(h, w, (h * w,)) if with_masks else None

    frames = []
    for t, (frame, gt_frame) in enumerate(zip(pred.frames, gt.frames)):
        visible = {o.gt_track_id: o for o in gt_frame.objects}
        slots = []
        for j, slot in enumerate(frame.slots):
            obj = visible.get(j)
            if obj is not None:
                box = _jitter(obj.box, jitter[t, j], h, w)
                label = header.classes.index(obj.class_label)
                if confused[t, j]:
                    label = (label + int(confused_to[t, j])) % n_classes
                best = float(slot.classes.max_prob)
                if missed[t, j]:
                    best = float(miss_prob[t, j])
                elif flicker[t, j]:
                    best = float(flicker_prob[t, j])
                probs = _probs(label, best, n_classes)
                mask = _rect_mask(box, h, w) if with_masks else None
            elif fp[t, j] and j >= gt.header.extra["synth"]["n_objects"]:
                side = float(fp_size[t, j]) * min(h, w)
                x1 = float(fp_xy[t, j, 0]) * (w - side)
                y1 = float(fp_xy[t, j, 1]) * (h - side)
                box = BBox(x1, y1, x1 + side, y1 + side)
                probs = _probs(int(fp_class[t, j]), float(fp_prob[t, j]), n_classes)
                mask = _rect_mask(box, h, w) if with_masks else None
            else:
                box, probs, mask = slot.box, slot.classes.probs, background
            slots.append(QuerySlot(
                embedding=slot.embedding, box=box,
                classes=ClassDistribution(probs), mask=mask,
            ))
        frames.append(FramePrediction(frame_index=frame.frame_index, slots=tuple(slots)))
    return VideoStream(header=header, frames=tuple(frames))


def _probs(label: int, best: float, n_classes: int) -> tuple[float, ...]:
    rest = min(0.02, (1.0 - best) / max(1, n_classes))
    return tuple(best if c == label else rest for c in range(n_classes))


def generate(w: Workload, seed: int, n_frames: int) -> tuple[GroundTruthStream, VideoStream]:
    """Ground truth and noisy predictions for one workload and seed."""
    gt, pred = synth.generate(synth_config(w, seed, n_frames))
    return gt, add_detector_noise(gt, pred, seed)
