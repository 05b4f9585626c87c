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
    box_overlaps,
    mask_size_error,
    require_range,
    rle_decode,
    rle_encode,
)

DICE_EPS = 1.0
PROB_CLAMP = 1e-7


@dataclass(frozen=True, slots=True)
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


# mask_ce_loss's per-pixel term for (target, pred) in {0,1}, at index 2*target + pred
_CE_TABLE = np.array([mask_ce_loss(np.array([[float(pred)]]), rle_encode([[target]]))
                      for target in (0, 1) for pred in (0, 1)])


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


def _class_index(label: str, classes: tuple[str, ...]) -> int:
    if label not in classes:
        raise UnknownClassError(f"label {label!r} not in classes {classes}")
    return classes.index(label)


def _label_prob(dist: ClassDistribution, label: str | None,
                classes: tuple[str, ...]) -> float:
    if label is None:
        return dist.no_object_mass
    return dist.probs[_class_index(label, classes)]


def cls_ce_loss(dist: ClassDistribution, gt_label: str | None,
                classes: tuple[str, ...]) -> float:
    """-ln p(label); gt_label None means the residual no-object mass."""
    p = min(1.0, max(PROB_CLAMP, _label_prob(dist, gt_label, classes)))
    return -math.log(p)


def _match_costs(frame: FramePrediction, gt: GroundTruthFrame, w: LossWeights,
                 header: StreamHeader) -> np.ndarray:
    """The K x N matching costs, each bitwise equal to the scalar sum
    match_w_cls * -p + match_w_l1 * l1_box_loss + match_w_giou * giou_loss.

    IoU and union come from model.box_overlaps. Each other elementwise step
    is the scalar formulas' operation, in their order, over the x and y axes
    at once, with where for the branches; the hull takes np.maximum/np.minimum
    for Python's max/min, which box_overlaps shows is safe.
    """
    cols = [_class_index(obj.class_label, header.classes) for obj in gt.objects]
    probs = [slot.classes.probs for slot in frame.slots]
    prob = np.array([[p[col] for p in probs] for col in cols])
    side = np.array([float(header.frame_width), float(header.frame_height)])
    with np.errstate(all="ignore"):  # overflow and inf - inf give inf and NaN, as in Python
        iou, union, g_box, p_box = box_overlaps([obj.box for obj in gt.objects],
                                                [slot.box for slot in frame.slots])
        p_lo, p_hi, g_lo, g_hi = p_box[..., :2], p_box[..., 2:], g_box[..., :2], g_box[..., 2:]
        center = abs(0.5 * (p_lo + p_hi) - 0.5 * (g_lo + g_hi)) / side
        size = abs((p_hi - p_lo) - (g_hi - g_lo)) / side
        l1 = (((center[..., 0] + center[..., 1]) + size[..., 0]) + size[..., 1]) / 4.0
        hull_wh = np.maximum(p_hi, g_hi) - np.minimum(p_lo, g_lo)
        hull = hull_wh[..., 0] * hull_wh[..., 1]
        giou = np.where(hull <= 0.0, 1.0, 1.0 - (iou - (hull - union) / hull))
        return (w.match_w_cls * -prob + w.match_w_l1 * l1) + w.match_w_giou * giou


def detr_match(frame: FramePrediction, gt: GroundTruthFrame, w: LossWeights,
               header: StreamHeader) -> assignment.Assignment:
    """Hungarian match of ground-truth objects onto query slots: (gt, query) pairs."""
    n = len(frame.slots)
    k = len(gt.objects)
    if k > n:
        raise CapacityError(f"{k} ground-truth objects but only {n} query slots")
    if k == 0:
        return assignment.Assignment(pairs=(), total_cost=0.0)
    return assignment.solve(assignment.CostMatrix(_match_costs(frame, gt, w, header).tolist()))


def _mask_terms(pred: RleMask, gt: RleMask) -> tuple[float, float]:
    """dice_loss and mask_ce_loss of a 0/1 prediction mask, bitwise, from the runs.

    The two masks' run ends cut the frame into stretches of one (target, pred)
    kind. Dice comes from exact pixel counts. For CE each stretch repeats its
    _CE_TABLE entry, so numpy's pairwise mean sums the dense per-pixel values
    in their order; it needs H*W floats.
    """
    problem = mask_size_error(pred, gt.height, gt.width)
    if problem:
        raise DimensionError(f"prediction {problem}")
    pixels = gt.height * gt.width
    if pixels > np.iinfo(np.intp).max // _CE_TABLE.itemsize:  # numpy could not size the array
        raise MemoryError(f"mask cross-entropy needs {pixels} float64 values")
    pred_ends, gt_ends = np.cumsum(pred.runs), np.cumsum(gt.runs)
    ends = np.union1d(pred_ends, gt_ends)
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    kind = (2 * (np.searchsorted(gt_ends, starts, side="right") & 1)
            + (np.searchsorted(pred_ends, starts, side="right") & 1))
    inter = int(lengths[kind == 3].sum())
    dice = 1.0 - (2.0 * float(inter) + DICE_EPS) / (
        float(pred.area) + float(gt.area) + DICE_EPS)
    ce = float(np.repeat(_CE_TABLE[kind], lengths).mean())
    return dice, ce


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
        dice, ce = _mask_terms(slot.mask, obj.mask)
        dice_term += w.w_dice * dice
        ce_term += w.w_mask * ce
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
    k = max(1, len(gt.objects))  # no objects: the empty sums give +0.0
    bbox_l1 = sum(
        l1_box_loss(frame.slots[q].box, gt.objects[g].box,
                    header.frame_height, header.frame_width)
        for g, q in match.pairs
    ) / k
    bbox_giou = sum(
        giou_loss(frame.slots[q].box, gt.objects[g].box)
        for g, q in match.pairs
    ) / k
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
