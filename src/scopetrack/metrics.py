"""Detection, segmentation, classification and tracking metrics.

Tracking metrics follow the published reference procedures: HOTA with the
two-pass global-alignment matching averaged over a 19-point localization
threshold grid, CLEAR-style MOTA with match persistence, and IDF1 from a
global trajectory-level assignment. Each takes the frame pairing of
pair_frames(gt, pred), so one pairing serves all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import assignment
from .errors import (DimensionError, FrameAlignmentError, UndefinedMetricError,
                     UnknownClassError)
from .model import (
    BBox,
    GroundTruthStream,
    RleMask,
    VideoStream,
    box_iou,
    box_overlaps,
    intervals_overlap,
    mask_size_error,
    similarity,
)
from .tracker import TrackingOutput, assigned_slots

HOTA_ALPHAS = tuple(i / 100 for i in range(5, 100, 5))
# mirrors the reference implementation's epsilon guard on the threshold test
ALPHA_MARGIN = 1e-12
MATCH_IOU = 0.5  # box IoU a detection needs to match an object in eval-det


@dataclass(frozen=True, slots=True)
class DetEvalResult:
    dice: float
    iou: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True, slots=True)
class TrackEvalResult:
    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float


@dataclass(frozen=True, slots=True)
class TrackedDet:
    track_id: int
    box: BBox
    mask: RleMask | None = None


@dataclass(frozen=True, slots=True)
class TrackedSequence:
    """Per-frame tracked detections, aligned by explicit frame indices."""

    frame_indices: tuple[int, ...]
    frames: tuple[tuple[TrackedDet, ...], ...]

    @classmethod
    def from_ground_truth(cls, gt: GroundTruthStream) -> "TrackedSequence":
        return cls(
            frame_indices=tuple(f.frame_index for f in gt.frames),
            frames=tuple(
                tuple(TrackedDet(o.gt_track_id, o.box, o.mask) for o in f.objects)
                for f in gt.frames
            ),
        )

    @classmethod
    def from_tracking(cls, tracking: TrackingOutput,
                      stream: VideoStream) -> "TrackedSequence":
        return cls(
            frame_indices=tuple(f.frame_index for f in tracking.frames),
            frames=tuple(
                tuple(TrackedDet(tid, s.box, s.mask)
                      for (_, tid), s in zip(fa.assignments, slots))
                for fa, slots in assigned_slots(stream, tracking.frames)
            ),
        )


def check_frame_alignment(a_name: str, a: Sequence[int],
                          b_name: str, b: Sequence[int]) -> None:
    """Raise FrameAlignmentError unless two frame-index sequences are equal.

    The message names the first differing position and the frame index each
    side has there, or the two lengths when one sequence extends the other.
    """
    if tuple(a) == tuple(b):
        return
    for pos, (x, y) in enumerate(zip(a, b)):
        if x != y:
            raise FrameAlignmentError(
                f"{a_name} frames do not align with {b_name}: at position {pos}, "
                f"{a_name} has frame {x} and {b_name} has frame {y}"
            )
    raise FrameAlignmentError(
        f"{a_name} frames do not align with {b_name}: {a_name} has {len(a)} "
        f"frames, {b_name} has {len(b)}, the first {min(len(a), len(b))} agree"
    )


def _id_tables(seq: TrackedSequence) -> tuple[dict[int, int], list[int]]:
    """Map raw track ids to dense indices and count detections per id."""
    index: dict[int, int] = {}
    counts: list[int] = []
    for frame in seq.frames:
        for det in frame:
            if det.track_id not in index:
                index[det.track_id] = len(counts)
                counts.append(0)
            counts[index[det.track_id]] += 1
    return index, counts


def _sim_matrix(gt_frame, pred_frame) -> np.ndarray:
    """similarity(g, p) for every pair of one frame, shape (len(gt), len(pred)),
    each entry bitwise: box IoU from model.box_overlaps, then similarity()
    for the pairs where both detections carry masks."""
    if not gt_frame or not pred_frame:
        return np.zeros((len(gt_frame), len(pred_frame)))
    sims = box_overlaps([d.box for d in gt_frame], [d.box for d in pred_frame])[0]
    for i, gd in enumerate(gt_frame):
        if gd.mask is None:
            continue
        for j, pd in enumerate(pred_frame):
            if pd.mask is not None:
                sims[i, j] = similarity(gd, pd)
    return sims


def pair_frames(gt: TrackedSequence, pred: TrackedSequence):
    """The frame pairing every tracking metric takes, as the plain tuple
    (gt_counts, pred_counts, frames): the detections per dense track id of
    each side, and per frame the (dense gt ids, dense pred ids) lists, their
    np.ix_ index grid and the similarity matrix between those detections.
    The matrices are read-only, as every metric reads the same ones. Frames
    that do not align raise FrameAlignmentError.
    """
    check_frame_alignment("ground-truth", gt.frame_indices,
                          "predicted", pred.frame_indices)
    gt_index, gt_counts = _id_tables(gt)
    pr_index, pr_counts = _id_tables(pred)
    frames = []
    for gf, pf in zip(gt.frames, pred.frames):
        sims = _sim_matrix(gf, pf)
        sims.flags.writeable = False
        g, p = [gt_index[d.track_id] for d in gf], [pr_index[d.track_id] for d in pf]
        frames.append(((g, p), np.ix_(g, p), sims))
    return gt_counts, pr_counts, frames


def _max_match(feasible: np.ndarray, weights: np.ndarray) -> list[tuple[int, int]]:
    """Match maximizing feasible-pair count first, then total weight.

    Infeasible pairs cost nothing, so the solver never prefers them over a
    feasible pair; ties fall back to the solver's lexicographic rule. When
    no row and no column has two feasible pairs, every feasible cost is
    strictly negative and the pairs are disjoint, so the optimum holds all
    of them and is returned without a solve, in the solver's row order.
    """
    n_rows, n_cols = feasible.shape
    rows, cols = (idx.tolist() for idx in np.nonzero(feasible))
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
        return list(zip(rows, cols))
    big = 4.0 * (min(n_rows, n_cols) + 1)
    cost = np.where(feasible, -(big + weights), 0.0)
    result = assignment.solve(assignment.CostMatrix(cost.tolist()))
    return [(r, c) for r, c in result.pairs if feasible[r, c]]


def hota_components(pairing):
    """Per-alpha (deta, assa, hota) triples over the threshold grid."""
    gt_counts, pr_counts, paired = pairing
    n_g, n_p = len(gt_counts), len(pr_counts)

    # (gt/pred id index grid, sims) of each frame with detections on both sides
    frames = []
    potential = np.zeros((n_g, n_p), dtype=np.float64)
    for _, ids, sims in paired:
        if not sims.size:
            continue
        denom = sims.sum(axis=1, keepdims=True) + sims.sum(axis=0, keepdims=True) - sims
        jac = np.divide(sims, denom, out=np.zeros_like(sims), where=denom > ALPHA_MARGIN)
        # unbuffered and in row-major pair order, like an explicit double loop
        np.add.at(potential, ids, jac)
        frames.append((ids, sims))

    gc = np.asarray(gt_counts, dtype=np.float64)
    pc = np.asarray(pr_counts, dtype=np.float64)
    ga = potential / (gc[:, None] + pc[None, :] - potential)

    # A frame's sims and weights do not depend on alpha; alpha only moves the
    # feasibility mask, so each distinct mask of a frame is matched once.
    thresholds = np.asarray([alpha - ALPHA_MARGIN for alpha in HOTA_ALPHAS])
    matched: list[list[int]] = [[] for _ in HOTA_ALPHAS]  # gi * n_p + pj per match
    for ids, sims in frames:
        weights = ga[ids] * sims
        flat_ids = (ids[0] * n_p + ids[1]).tolist()
        solved: dict[bytes, list[int]] = {}
        for at_alpha, feasible in zip(matched, sims >= thresholds[:, None, None]):
            key = feasible.tobytes()
            if key not in solved:
                solved[key] = [flat_ids[r][c] for r, c in _max_match(feasible, weights)]
            at_alpha.extend(solved[key])

    n_dets = sum(gt_counts) + sum(pr_counts)
    out = []
    for at_alpha in matched:
        tp = len(at_alpha)
        # fn + fp = n_dets - 2 tp, so tp + fn + fp = n_dets - tp
        deta = tp / max(1, n_dets - tp)
        counts = np.bincount(np.asarray(at_alpha, dtype=np.intp), minlength=n_g * n_p)
        # sequential row-major accumulation keeps the result order-defined
        num = 0.0
        for flat in np.flatnonzero(counts).tolist():
            gi, pj = divmod(flat, n_p)
            m = int(counts[flat])
            num += m * (m / (gt_counts[gi] + pr_counts[pj] - m))
        assa = num / max(1, tp)
        out.append((deta, assa, math.sqrt(deta * assa)))
    return out


def eval_hota(pairing) -> tuple[float, float, float]:
    """(hota, deta, assa) averaged over the localization threshold grid."""
    comps = hota_components(pairing)
    n = len(comps)
    deta = sum(c[0] for c in comps) / n
    assa = sum(c[1] for c in comps) / n
    hota = sum(c[2] for c in comps) / n
    return hota, deta, assa


def eval_mota(pairing, alpha: float = 0.5) -> float:
    """CLEAR accuracy with previous-frame match persistence."""
    gt_counts, _, frames = pairing
    total_gt = sum(gt_counts)
    if total_gt == 0:
        raise UndefinedMetricError("MOTA undefined: ground truth has no detections")
    fn = fp = idsw = 0
    prev_match: dict[int, int] = {}  # gt id -> pred id in previous frame
    last_match: dict[int, int] = {}  # gt id -> last matched pred id ever
    for (gt_ids, pr_ids), _, sims in frames:
        matched_g: set[int] = set()
        matched_p: set[int] = set()
        pairs: list[tuple[int, int]] = []
        # keep surviving matches from the previous frame first
        for i, g in enumerate(gt_ids):
            want = prev_match.get(g)
            if want is None or want not in pr_ids:
                continue
            j = pr_ids.index(want)
            if j not in matched_p and sims[i, j] >= alpha - ALPHA_MARGIN:
                pairs.append((i, j))
                matched_g.add(i)
                matched_p.add(j)
        rest_g = [i for i in range(len(gt_ids)) if i not in matched_g]
        rest_p = [j for j in range(len(pr_ids)) if j not in matched_p]
        if rest_g and rest_p:
            sub = sims[np.ix_(rest_g, rest_p)]
            feasible = sub >= alpha - ALPHA_MARGIN
            for r, c in _max_match(feasible, sub):
                pairs.append((rest_g[r], rest_p[c]))
        prev_match = {}
        for i, j in pairs:
            g, p = gt_ids[i], pr_ids[j]
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
            prev_match[g] = p
        fn += len(gt_ids) - len(pairs)
        fp += len(pr_ids) - len(pairs)
    return 1.0 - (fn + fp + idsw) / total_gt


def eval_idf1(pairing, alpha: float = 0.5) -> float:
    """F1 over identity-consistent matches under a global trajectory pairing."""
    gt_counts, pr_counts, frames = pairing
    total_gt = sum(gt_counts)
    total_pred = sum(pr_counts)
    if total_gt + total_pred == 0:
        return 1.0
    overlap = np.zeros((len(gt_counts), len(pr_counts)), dtype=np.int64)
    for _, ids, sims in frames:
        np.add.at(overlap, ids, sims >= alpha - ALPHA_MARGIN)
    result = assignment.solve(assignment.CostMatrix((-overlap).tolist()))
    idtp = sum(int(overlap[r, c]) for r, c in result.pairs)
    return 2.0 * idtp / (total_gt + total_pred)


def evaluate_tracking(gt: TrackedSequence, pred: TrackedSequence,
                      alpha: float = 0.5) -> TrackEvalResult:
    """eval_hota, eval_mota and eval_idf1, in that order, on one pairing."""
    pairing = pair_frames(gt, pred)
    hota, deta, assa = eval_hota(pairing)
    return TrackEvalResult(
        hota=hota,
        deta=deta,
        assa=assa,
        mota=eval_mota(pairing, alpha),
        idf1=eval_idf1(pairing, alpha),
    )


def check_streams_aligned(preds: VideoStream, gts: GroundTruthStream) -> None:
    """Raise FrameAlignmentError unless the headers and frame indices agree."""
    ph, gh = preds.header, gts.header
    if (ph.frame_height, ph.frame_width, ph.classes) != (
            gh.frame_height, gh.frame_width, gh.classes):
        raise FrameAlignmentError(
            "prediction and ground-truth headers disagree on frame size or classes"
        )
    check_frame_alignment(
        "prediction", [f.frame_index for f in preds.frames],
        "ground-truth", [f.frame_index for f in gts.frames],
    )


def _detections(preds: VideoStream, tau: float):
    """Per frame: non-empty slots sorted by confidence (desc, slot order ties)."""
    out = []
    for frame in preds.frames:
        dets = [
            (slot.classes.max_prob, j, slot)
            for j, slot in enumerate(frame.slots)
            if not slot.is_empty(tau)
        ]
        dets.sort(key=lambda t: (-t[0], t[1]))
        out.append(dets)
    return out


def _box_matches(dets_per_frame, gts: GroundTruthStream,
                 classes: Sequence[str] | None = None) -> tuple[int, int, int]:
    """(tp, fp, fn) of greedy box matching, frame by frame.

    Each detection, in confidence order, takes the unmatched object of
    highest box IoU (the first on ties) if that IoU reaches MATCH_IOU. With
    classes given, a detection only takes objects of its argmax class.
    """
    tp = fp = fn = 0
    for dets, gt_frame in zip(dets_per_frame, gts.frames):
        unmatched = list(range(len(gt_frame.objects)))
        for _, _, slot in dets:
            label = None if classes is None else classes[slot.classes.argmax()]
            best = None
            best_iou = -1.0
            for gi in unmatched:
                obj = gt_frame.objects[gi]
                if label is not None and obj.class_label != label:
                    continue
                iou = box_iou(slot.box, obj.box)
                if iou >= MATCH_IOU and iou > best_iou:
                    best, best_iou = gi, iou
            if best is None:
                fp += 1
            else:
                tp += 1
                unmatched.remove(best)
        fn += len(unmatched)
    return tp, fp, fn


def _foreground(masks, shape: tuple[int, int]) -> list[list[int]]:
    """The union of the masks given (None skipped) as sorted disjoint intervals.

    Each mask must be shape (height, width), the frame's size.
    """
    masks = [m for m in masks if m is not None]
    for m in masks:
        problem = mask_size_error(m, *shape)
        if problem:
            raise DimensionError(problem)
    merged: list[list[int]] = []
    for start, end in sorted(chain.from_iterable(m.foreground_intervals() for m in masks)):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def eval_segmentation(preds: VideoStream, gts: GroundTruthStream,
                      tau: float = 0.5) -> DetEvalResult:
    """Image-wise dice/IoU on mask unions plus box-level precision/recall.

    The unions are merged foreground intervals, so the cost follows the
    runs, not the frame size.
    """
    check_streams_aligned(preds, gts)
    shape = (gts.header.frame_height, gts.header.frame_width)
    dets_per_frame = _detections(preds, tau)
    dice_vals = []
    iou_vals = []
    for dets, gt_frame in zip(dets_per_frame, gts.frames):
        pred_union = _foreground((slot.mask for _, _, slot in dets), shape)
        gt_union = _foreground((obj.mask for obj in gt_frame.objects), shape)
        inter = intervals_overlap(pred_union, gt_union)
        p_area = sum(end - start for start, end in pred_union)
        g_area = sum(end - start for start, end in gt_union)
        dice_vals.append(2.0 * inter / (p_area + g_area) if p_area + g_area else 1.0)
        union = p_area + g_area - inter
        iou_vals.append(inter / union if union else 1.0)
    tp, fp, fn = _box_matches(dets_per_frame, gts)
    n_frames = max(1, len(dice_vals))
    return DetEvalResult(
        dice=sum(dice_vals) / n_frames,
        iou=sum(iou_vals) / n_frames,
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
        tp=tp, fp=fp, fn=fn,
    )


def eval_classification_f1(preds: VideoStream, gts: GroundTruthStream,
                           tau: float = 0.5) -> float:
    """F1 where a true positive needs box IoU >= 0.5 and the right class."""
    check_streams_aligned(preds, gts)
    classes = gts.header.classes
    for gt_frame in gts.frames:
        for obj in gt_frame.objects:
            if obj.class_label not in classes:
                raise UnknownClassError(
                    f"ground-truth class {obj.class_label!r} not in {classes}"
                )
    tp, fp, fn = _box_matches(_detections(preds, tau), gts, classes)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
