"""Set-prediction training losses as verified forward-only functions.

Ground-truth objects are matched to query slots with the assignment solver,
then per-pair box/class terms and the conditional mask terms are summed
into the multi-task total. Mask supervision contributes exactly zero for
objects that carry no segmentation annotation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import assignment
from .errors import (
    CapacityError,
    DimensionError,
    MissingPredictionMaskError,
    UnknownClassError,
)
from .model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    GroundTruthFrame,
    RleMask,
    StreamHeader,
    box_iou,
    require_range,
    rle_decode,
)

DICE_EPS = 1.0
PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Loss and matching-cost coefficients (DETR-family defaults)."""

    w_cls: float = 2.0
    w_l1: float = 5.0
    w_giou: float = 2.0
    w_mask: float = 5.0
    w_dice: float = 5.0
    match_w_cls: float = 2.0
    match_w_l1: float = 5.0
    match_w_giou: float = 2.0

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            require_range(value, name, 0.0, math.inf, open_high=True)


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    bbox_l1: float
    bbox_giou: float
    cond_mask_dice: float
    cond_mask_ce: float
    total: float


def _pred_array(pred_probs: np.ndarray, gt: RleMask) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred_probs, dtype=np.float64)
    if pred.shape != (gt.height, gt.width):
        raise DimensionError(
            f"prediction is {pred.shape}, ground-truth mask is "
            f"{gt.height}x{gt.width}"
        )
    return pred, rle_decode(gt).astype(np.float64)


def dice_loss(pred_probs: np.ndarray, gt: RleMask) -> float:
    """1 - soft dice with additive smoothing DICE_EPS."""
    pred, target = _pred_array(pred_probs, gt)
    inter = float((pred * target).sum())
    denom = float(pred.sum()) + float(target.sum())
    return 1.0 - (2.0 * inter + DICE_EPS) / (denom + DICE_EPS)


def mask_ce_loss(pred_probs: np.ndarray, gt: RleMask) -> float:
    """Mean per-pixel binary cross entropy, probabilities clamped."""
    pred, target = _pred_array(pred_probs, gt)
    p = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ce = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    return float(ce.mean())


def _to_cxcywh(box: BBox) -> tuple[float, float, float, float]:
    cx, cy = box.center
    return cx, cy, box.width, box.height


def l1_box_loss(pred: BBox, gt: BBox, frame_height: int, frame_width: int) -> float:
    """Mean absolute difference of frame-normalized (cx, cy, w, h)."""
    if frame_height <= 0 or frame_width <= 0:
        raise DimensionError(
            f"frame dimensions must be positive, got {frame_height}x{frame_width}"
        )
    pcx, pcy, pw, ph = _to_cxcywh(pred)
    gcx, gcy, gw, gh = _to_cxcywh(gt)
    terms = (
        abs(pcx - gcx) / frame_width,
        abs(pcy - gcy) / frame_height,
        abs(pw - gw) / frame_width,
        abs(ph - gh) / frame_height,
    )
    return sum(terms) / 4.0


def giou_loss(pred: BBox, gt: BBox) -> float:
    """1 - generalized IoU; both-degenerate pairs score 1 by decision."""
    hull_w = max(pred.x2, gt.x2) - min(pred.x1, gt.x1)
    hull_h = max(pred.y2, gt.y2) - min(pred.y1, gt.y1)
    hull = hull_w * hull_h
    if hull <= 0.0:
        return 1.0
    iw = max(0.0, min(pred.x2, gt.x2) - max(pred.x1, gt.x1))
    ih = max(0.0, min(pred.y2, gt.y2) - max(pred.y1, gt.y1))
    inter = iw * ih
    union = pred.area + gt.area - inter
    giou = box_iou(pred, gt) - (hull - union) / hull
    return 1.0 - giou


def _label_prob(dist: ClassDistribution, label: str | None,
                classes: tuple[str, ...]) -> float:
    if label is None:
        return dist.no_object_mass
    if label not in classes:
        raise UnknownClassError(f"label {label!r} not in classes {classes}")
    return dist.probs[classes.index(label)]


def cls_ce_loss(dist: ClassDistribution, gt_label: str | None,
                classes: tuple[str, ...]) -> float:
    """-ln p(label); gt_label None means the residual no-object mass."""
    p = min(1.0, max(PROB_CLAMP, _label_prob(dist, gt_label, classes)))
    return -math.log(p)


def detr_match(frame: FramePrediction, gt: GroundTruthFrame, w: LossWeights,
               header: StreamHeader) -> assignment.Assignment:
    """Hungarian match of ground-truth objects onto query slots: (gt, query) pairs."""
    n = len(frame.slots)
    k = len(gt.objects)
    if k > n:
        raise CapacityError(f"{k} ground-truth objects but only {n} query slots")
    if k == 0:
        return assignment.Assignment(pairs=(), total_cost=0.0)
    rows = []
    for obj in gt.objects:
        row = []
        for slot in frame.slots:
            cost = (
                w.match_w_cls * -_label_prob(slot.classes, obj.class_label, header.classes)
                + w.match_w_l1 * l1_box_loss(slot.box, obj.box,
                                             header.frame_height, header.frame_width)
                + w.match_w_giou * giou_loss(slot.box, obj.box)
            )
            row.append(cost)
        rows.append(tuple(row))
    return assignment.solve(assignment.CostMatrix(tuple(rows)))


def conditional_mask_loss(frame: FramePrediction, gt: GroundTruthFrame,
                          match: assignment.Assignment, w: LossWeights) -> tuple[float, float]:
    """Weighted (dice, ce) sums over matched objects that carry a mask."""
    dice_term = 0.0
    ce_term = 0.0
    for gt_index, query_index in match.pairs:
        obj = gt.objects[gt_index]
        if obj.mask is None:
            continue
        slot = frame.slots[query_index]
        if slot.mask is None:
            raise MissingPredictionMaskError(
                f"gt object {obj.gt_track_id} has a mask but matched query "
                f"{query_index} does not"
            )
        pred = rle_decode(slot.mask).astype(np.float64)
        dice_term += w.w_dice * dice_loss(pred, obj.mask)
        ce_term += w.w_mask * mask_ce_loss(pred, obj.mask)
    return dice_term, ce_term


def total_loss(frame: FramePrediction, gt: GroundTruthFrame, w: LossWeights,
               header: StreamHeader) -> LossBreakdown:
    """Class + box + conditional-mask multi-task loss for one frame."""
    match = detr_match(frame, gt, w, header)
    label_of_query = {q: gt.objects[g].class_label for g, q in match.pairs}
    n = len(frame.slots)
    cls = sum(
        cls_ce_loss(slot.classes, label_of_query.get(j), header.classes)
        for j, slot in enumerate(frame.slots)
    ) / n
    k = len(gt.objects)
    if k:
        bbox_l1 = sum(
            l1_box_loss(frame.slots[q].box, gt.objects[g].box,
                        header.frame_height, header.frame_width)
            for g, q in match.pairs
        ) / k
        bbox_giou = sum(
            giou_loss(frame.slots[q].box, gt.objects[g].box)
            for g, q in match.pairs
        ) / k
    else:
        bbox_l1 = 0.0
        bbox_giou = 0.0
    cond_dice, cond_ce = conditional_mask_loss(frame, gt, match, w)
    total = (w.w_cls * cls + w.w_l1 * bbox_l1 + w.w_giou * bbox_giou
             + cond_dice + cond_ce)
    return LossBreakdown(
        cls=cls,
        bbox_l1=bbox_l1,
        bbox_giou=bbox_giou,
        cond_mask_dice=cond_dice,
        cond_mask_ce=cond_ce,
        total=total,
    )
