from __future__ import annotations

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scopetrack import assignment, losses, synth
from scopetrack.errors import (
    DataError,
    CapacityError,
    DimensionError,
    MissingPredictionMaskError,
    UnknownClassError,
)
from scopetrack.losses import (
    LossWeights,
    _label_prob,
    _mask_terms,
    _match_costs,
    cls_ce_loss,
    conditional_mask_loss,
    detr_match,
    dice_loss,
    giou_loss,
    l1_box_loss,
    mask_ce_loss,
    total_loss,
)
from scopetrack.model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    QuerySlot,
    RleMask,
    StreamHeader,
    rle_decode,
    rle_encode,
)

CLASSES = ("AD", "HP")


def gt_frame(objects) -> GroundTruthFrame:
    return GroundTruthFrame(frame_index=0, objects=tuple(objects))


def make_header(n, h=64, w=64) -> StreamHeader:
    return StreamHeader(n_queries=n, embed_dim=2, frame_height=h, frame_width=w,
                        classes=CLASSES)


def make_slot(box, probs, mask=None) -> QuerySlot:
    return QuerySlot(embedding=(1.0, 0.0), box=BBox(*box),
                     classes=ClassDistribution(probs), mask=mask)


class TestDice:
    def test_identity_binary(self):
        grid = np.zeros((20, 10), dtype=np.uint8)
        grid[:10] = 1
        assert dice_loss(grid.astype(float), rle_encode(grid)) == 0.0

    def test_disjoint_hundred_pixels(self):
        gt = np.zeros((20, 10), dtype=np.uint8)
        gt[:10] = 1
        pred = np.zeros((20, 10))
        pred[10:] = 1.0
        # 1 - (0 + 1)/(100 + 100 + 1)
        assert dice_loss(pred, rle_encode(gt)) == pytest.approx(1 - 1 / 201, abs=1e-9)

    def test_half_overlap(self):
        gt = np.array([[1, 1, 0], [0, 0, 0]], dtype=np.uint8)
        pred = np.array([[0, 1, 1], [0, 0, 0]], dtype=float)
        # with the smoothing term: 1 - (2*1 + 1)/(2 + 2 + 1)
        assert dice_loss(pred, rle_encode(gt)) == pytest.approx(0.4, abs=1e-9)

    def test_bounded(self):
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(50):
            pred = rng.random((6, 6))
            gt = rle_encode((rng.random((6, 6)) < 0.5).astype(np.uint8))
            assert 0.0 <= dice_loss(pred, gt) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice_loss(np.zeros((2, 3)), rle_encode(np.ones((3, 2))))


class TestMaskCe:
    def test_saturated_correct(self):
        gt = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        pred = np.where(gt == 1, 1 - 1e-7, 1e-7)
        assert mask_ce_loss(pred, rle_encode(gt)) < 1e-5

    def test_uniform_half(self):
        gt = rle_encode(np.eye(4, dtype=np.uint8))
        assert mask_ce_loss(np.full((4, 4), 0.5), gt) == pytest.approx(math.log(2), abs=1e-9)

    def test_single_pixel(self):
        gt = rle_encode(np.array([[1]]))
        assert mask_ce_loss(np.array([[0.25]]), gt) == pytest.approx(-math.log(0.25), abs=1e-9)


class TestL1Box:
    def test_identical(self):
        box = BBox(3, 4, 10, 12)
        assert l1_box_loss(box, box, 100, 100) == 0.0

    def test_center_shift(self):
        # cx differs by 10 px on a 100 px frame, averaged over 4 coords
        got = l1_box_loss(BBox(0, 0, 10, 10), BBox(10, 0, 20, 10), 100, 100)
        assert got == pytest.approx(0.025, abs=1e-9)

    def test_width_and_center(self):
        # dcx = 10, dw = 20 -> (0.1 + 0.2)/4
        got = l1_box_loss(BBox(0, 0, 10, 10), BBox(0, 0, 30, 10), 100, 100)
        assert got == pytest.approx(0.075, abs=1e-9)

    def test_zero_frame_rejected(self):
        with pytest.raises(DimensionError):
            l1_box_loss(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1), 0, 100)


class TestGiou:
    def test_identical(self):
        assert giou_loss(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1)) == 0.0

    def test_far_apart(self):
        # IoU 0, hull 10, union 2 -> 1 - (0 - 8/10)
        assert giou_loss(BBox(0, 0, 1, 1), BBox(9, 0, 10, 1)) == pytest.approx(1.8, abs=1e-9)

    def test_touching_squares(self):
        assert giou_loss(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_both_degenerate(self):
        assert giou_loss(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 1.0

    def test_range(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(200):
            a = sorted(rng.uniform(0, 50, size=2))
            b = sorted(rng.uniform(0, 50, size=2))
            c = sorted(rng.uniform(0, 50, size=2))
            d = sorted(rng.uniform(0, 50, size=2))
            loss = giou_loss(BBox(a[0], b[0], a[1], b[1]), BBox(c[0], d[0], c[1], d[1]))
            assert 0.0 <= loss <= 2.0


class TestClsCe:
    def test_confident_match(self):
        dist = ClassDistribution((1 - 1e-7, 0.0))
        assert cls_ce_loss(dist, "AD", CLASSES) < 1e-5

    def test_half(self):
        assert cls_ce_loss(ClassDistribution((0.5, 0.2)), "AD", CLASSES) == pytest.approx(
            math.log(2), abs=1e-9)

    def test_unmatched_residual(self):
        dist = ClassDistribution((0.5, 0.25))  # residual no-object mass 0.25
        assert cls_ce_loss(dist, None, CLASSES) == pytest.approx(-math.log(0.25), abs=1e-9)


def brute_force_match(frame, gt, w, header):
    """Independent oracle: enumerate all injections of objects onto slots."""
    k, n = len(gt.objects), len(frame.slots)
    table = [
        [
            w.match_w_cls * -frame.slots[q].classes.probs[CLASSES.index(gt.objects[g].class_label)]
            + w.match_w_l1 * l1_box_loss(frame.slots[q].box, gt.objects[g].box,
                                         header.frame_height, header.frame_width)
            + w.match_w_giou * giou_loss(frame.slots[q].box, gt.objects[g].box)
            for q in range(n)
        ]
        for g in range(k)
    ]
    best_key = None
    best = None
    for queries in itertools.permutations(range(n), k):
        pairs = tuple(zip(range(k), queries))
        key = (sum(table[g][q] for g, q in pairs), pairs)
        if best_key is None or key < best_key:
            best_key, best = key, pairs
    return best


def random_instance(rng, k, n, h=64, w=64):
    def rand_box():
        x1, y1 = rng.uniform(0, 0.7 * w), rng.uniform(0, 0.7 * h)
        return (x1, y1, x1 + rng.uniform(1, 0.3 * w), y1 + rng.uniform(1, 0.3 * h))

    slots = []
    for _ in range(n):
        p = rng.uniform(0, 1)
        q = rng.uniform(0, 1 - p)
        slots.append(make_slot(rand_box(), (p, q)))
    objects = [
        GroundTruthObject(gt_track_id=i, box=BBox(*rand_box()),
                          class_label=CLASSES[int(rng.integers(0, 2))])
        for i in range(k)
    ]
    return FramePrediction(0, tuple(slots)), gt_frame(objects)


class TestDetrMatch:
    def test_no_objects(self):
        frame, _ = random_instance(np.random.default_rng(0), 0, 3)
        match = detr_match(frame, gt_frame([]), LossWeights(), make_header(3))
        assert match.pairs == ()

    def test_prefers_overlapping_correct_class(self):
        header = make_header(2)
        frame = FramePrediction(0, (
            make_slot((0, 0, 10, 10), (0.9, 0.05)),
            make_slot((40, 40, 50, 50), (0.05, 0.9)),
        ))
        gt = gt_frame([GroundTruthObject(0, BBox(0, 0, 11, 10), "AD")])
        match = detr_match(frame, gt, LossWeights(), header)
        assert match.pairs == ((0, 0),)

    def test_capacity_error(self):
        header = make_header(1)
        frame, gt = random_instance(np.random.default_rng(1), 2, 1)
        with pytest.raises(CapacityError):
            detr_match(frame, gt, LossWeights(), header)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        w = LossWeights()
        for _ in range(300):
            k = int(rng.integers(0, 6))
            n = int(rng.integers(max(1, k), 9))
            frame, gt = random_instance(rng, k, n)
            match = detr_match(frame, gt, w, make_header(n))
            assert match.pairs == brute_force_match(frame, gt, w, make_header(n))


class TestConditionalMaskLoss:
    def test_all_masks_absent_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        w = LossWeights()
        for _ in range(50):
            k = int(rng.integers(0, 4))
            n = int(rng.integers(max(1, k), 7))
            frame, gt = random_instance(rng, k, n)
            match = detr_match(frame, gt, w, make_header(n))
            assert conditional_mask_loss(frame, gt, match, w) == (0.0, 0.0)

    def test_indicator_mixes_per_object(self):
        header = make_header(2, h=4, w=4)
        mask = rle_encode(np.ones((4, 4), dtype=np.uint8))
        frame = FramePrediction(0, (
            make_slot((0, 0, 2, 2), (0.9, 0.0), mask=mask),
            make_slot((2, 2, 4, 4), (0.9, 0.0)),
        ))
        gt = gt_frame([
            GroundTruthObject(0, BBox(0, 0, 2, 2), "AD", mask=mask),
            GroundTruthObject(1, BBox(2, 2, 4, 4), "AD", mask=None),
        ])
        w = LossWeights()
        match = detr_match(frame, gt, w, header)
        dice_term, ce_term = conditional_mask_loss(frame, gt, match, w)
        assert dice_term == 0.0  # identical masks
        assert ce_term < 1e-5 * w.w_mask

    def test_half_overlap_dice_term(self):
        header = make_header(1, h=2, w=3)
        gt_mask = rle_encode(np.array([[1, 1, 0], [0, 0, 0]]))
        pred_mask = rle_encode(np.array([[0, 1, 1], [0, 0, 0]]))
        frame = FramePrediction(0, (make_slot((0, 0, 2, 1), (0.9, 0.0), mask=pred_mask),))
        gt = gt_frame([GroundTruthObject(0, BBox(0, 0, 2, 1), "AD", mask=gt_mask)])
        w = LossWeights()
        match = detr_match(frame, gt, w, header)
        dice_term, _ = conditional_mask_loss(frame, gt, match, w)
        assert dice_term == pytest.approx(w.w_dice * 0.4, abs=1e-9)

    def test_mask_sizes_differ(self):
        header = make_header(1, h=2, w=3)
        gt_mask = rle_encode(np.ones((2, 3), dtype=np.uint8))
        pred_mask = rle_encode(np.ones((3, 2), dtype=np.uint8))
        frame = FramePrediction(0, (make_slot((0, 0, 2, 1), (0.9, 0.0), mask=pred_mask),))
        gt = gt_frame([GroundTruthObject(0, BBox(0, 0, 2, 1), "AD", mask=gt_mask)])
        w = LossWeights()
        with pytest.raises(DimensionError, match="mask is 3x2, frame is 2x3"):
            conditional_mask_loss(frame, gt, detr_match(frame, gt, w, header), w)

    def test_missing_prediction_mask(self):
        header = make_header(1, h=2, w=2)
        mask = rle_encode(np.ones((2, 2), dtype=np.uint8))
        frame = FramePrediction(0, (make_slot((0, 0, 2, 2), (0.9, 0.0)),))
        gt = gt_frame([GroundTruthObject(0, BBox(0, 0, 2, 2), "AD", mask=mask)])
        w = LossWeights()
        match = detr_match(frame, gt, w, header)
        with pytest.raises(MissingPredictionMaskError):
            conditional_mask_loss(frame, gt, match, w)


class TestTotalLoss:
    def test_perfect_predictions(self):
        header = make_header(3, h=32, w=32)
        mask = rle_encode(np.ones((32, 32), dtype=np.uint8))
        box = BBox(4, 4, 20, 20)
        frame = FramePrediction(0, (
            QuerySlot((1.0, 0.0), box, ClassDistribution((1 - 1e-7, 0.0)), mask),
            QuerySlot((0.0, 1.0), BBox(0, 0, 1, 1), ClassDistribution((0.0, 0.0))),
            QuerySlot((0.5, 0.5), BBox(2, 2, 3, 3), ClassDistribution((0.0, 0.0))),
        ))
        gt = gt_frame([GroundTruthObject(5, box, "AD", mask)])
        breakdown = total_loss(frame, gt, LossWeights(), header)
        assert breakdown.total < 1e-3

    def test_box_only_ground_truth(self):
        rng = np.random.default_rng(11)
        w = LossWeights()
        frame, gt = random_instance(rng, 2, 4)
        breakdown = total_loss(frame, gt, w, make_header(4))
        assert breakdown.cond_mask_dice == 0.0
        assert breakdown.cond_mask_ce == 0.0
        want = w.w_cls * breakdown.cls + w.w_l1 * breakdown.bbox_l1 + w.w_giou * breakdown.bbox_giou
        assert breakdown.total == pytest.approx(want, rel=1e-12)

    def test_breakdown_recomposes(self):
        rng = np.random.default_rng(12)
        w = LossWeights(w_cls=1.5, w_l1=3.0, w_giou=0.7, w_mask=2.0, w_dice=4.0)
        for _ in range(100):
            k = int(rng.integers(0, 4))
            n = int(rng.integers(max(1, k), 7))
            frame, gt = random_instance(rng, k, n)
            breakdown = total_loss(frame, gt, w, make_header(n))
            want = (w.w_cls * breakdown.cls + w.w_l1 * breakdown.bbox_l1
                    + w.w_giou * breakdown.bbox_giou
                    + breakdown.cond_mask_dice + breakdown.cond_mask_ce)
            assert breakdown.total == pytest.approx(want, rel=1e-12)
            assert min(breakdown.cls, breakdown.bbox_l1, breakdown.bbox_giou,
                       breakdown.cond_mask_dice, breakdown.cond_mask_ce) >= 0.0

    def test_adding_masks_keeps_cls_and_bbox_terms(self):
        # matching ignores masks, so cls/bbox must be byte-identical
        header = make_header(3, h=8, w=8)
        rng = np.random.default_rng(13)
        w = LossWeights()
        for _ in range(40):
            frame, gt = random_instance(rng, 2, 3, h=8, w=8)
            mask = rle_encode((rng.random((8, 8)) < 0.5).astype(np.uint8))
            masked_slots = tuple(
                QuerySlot(s.embedding, s.box, s.classes, mask) for s in frame.slots
            )
            masked_frame = FramePrediction(0, masked_slots)
            masked_gt = GroundTruthFrame(0, tuple(
                GroundTruthObject(o.gt_track_id, o.box, o.class_label, mask)
                for o in gt.objects
            ))
            plain = total_loss(frame, gt, w, header)
            masked = total_loss(masked_frame, masked_gt, w, header)
            assert plain.cls == masked.cls
            assert plain.bbox_l1 == masked.bbox_l1
            assert plain.bbox_giou == masked.bbox_giou


def same_bits(a: float, b: float) -> bool:
    """a and b are one float64 bit pattern, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def runs_mask(h: int, w: int, cuts, leading_foreground: bool) -> RleMask:
    """The mask whose runs end at the sorted cut points, background first
    unless leading_foreground puts a zero-length run in front."""
    bounds = [0, *cuts, h * w]
    runs = [end - start for start, end in zip(bounds, bounds[1:])]
    return RleMask(h, w, [0, *runs] if leading_foreground else runs)


@st.composite
def mask_pairs(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cuts = st.sets(st.integers(1, h * w - 1), max_size=12) if h * w > 1 else st.just(set())
    return tuple(runs_mask(h, w, sorted(draw(cuts)), draw(st.booleans())) for _ in range(2))


class TestMaskTermsBitwise:
    """The run-based mask terms against the dense reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(mask_pairs())
    @example((runs_mask(4, 5, [], False), runs_mask(4, 5, [], True)))  # empty vs full
    @example((runs_mask(4, 5, [], True), runs_mask(4, 5, [], True)))  # full vs full
    @example((runs_mask(4, 5, [], False), runs_mask(4, 5, [], False)))  # empty vs empty
    @example((runs_mask(3, 3, [4], True), runs_mask(3, 3, [2, 7], True)))  # leading zero runs
    @example((runs_mask(1, 1, [], True), runs_mask(1, 1, [], False)))  # 1x1
    @example((runs_mask(1, 9, [2, 5], False), runs_mask(1, 9, [1, 8], True)))  # 1xW
    def test_equals_dense_reference(self, pair):
        pred, gt = pair
        dense = rle_decode(pred).astype(np.float64)
        dice, ce = _mask_terms(pred, gt)
        assert same_bits(dice, dice_loss(dense, gt))
        assert same_bits(ce, mask_ce_loss(dense, gt))

    def test_synth_sized_masks(self):
        # 256x256 grids: numpy's pairwise sum recurses many levels deep
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(20):
            cuts = [sorted(set(rng.integers(1, 256 * 256, size=int(rng.integers(0, 200))).tolist()))
                    for _ in range(2)]
            pred, gt = (runs_mask(256, 256, c, bool(rng.integers(0, 2))) for c in cuts)
            dense = rle_decode(pred).astype(np.float64)
            dice, ce = _mask_terms(pred, gt)
            assert same_bits(dice, dice_loss(dense, gt))
            assert same_bits(ce, mask_ce_loss(dense, gt))


# Coordinates that make the scalar formulas branch or round: signed zeros,
# shared edges, points outside a 64x48 frame, 1e300, whose products overflow, and
# 1.7e308, whose widths overflow too, so hulls and unions meet inf - inf.
_COORDS = st.sampled_from([0.0, -0.0, 1.0, 8.0, 16.0, -5.0, 70.0, 1e300, -1e300,
                           1.7e308, -1.7e308]) | st.floats(
    -100.0, 100.0, allow_nan=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(_COORDS), draw(_COORDS)))
    y1, y2 = sorted((draw(_COORDS), draw(_COORDS)))
    return BBox(x1, y1, x2, y2)


@st.composite
def match_instances(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    slots = []
    for _ in range(n):
        p = draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0))
        slots.append(make_slot(draw(boxes()).as_tuple(), (p, draw(st.floats(0.0, 1.0 - p)))))
    objects = [GroundTruthObject(i, draw(boxes()), draw(st.sampled_from(CLASSES)))
               for i in range(k)]
    weight = st.sampled_from([0, 1, 2.0, 5.0]) | st.floats(0.0, 10.0)
    w = LossWeights(match_w_cls=draw(weight), match_w_l1=draw(weight), match_w_giou=draw(weight))
    header = make_header(n, h=draw(st.sampled_from([1, 48, 64])), w=draw(st.sampled_from([1, 64])))
    return FramePrediction(0, tuple(slots)), gt_frame(objects), w, header


def scalar_costs(frame, gt, w, header) -> list[list[float]]:
    """The K x N matching costs, one scalar formula per cell."""
    return [[w.match_w_cls * -_label_prob(slot.classes, obj.class_label, header.classes)
             + w.match_w_l1 * l1_box_loss(slot.box, obj.box, header.frame_height,
                                          header.frame_width)
             + w.match_w_giou * giou_loss(slot.box, obj.box)
             for slot in frame.slots] for obj in gt.objects]


class TestMatchCostsBitwise:
    """The K x N cost array against the scalar terms, cell by cell."""

    @settings(max_examples=400, deadline=None)
    @given(match_instances())
    def test_equals_scalar_costs(self, instance):
        frame, gt, w, header = instance
        costs = _match_costs(frame, gt, w, header)
        assert costs.shape == (len(gt.objects), len(frame.slots))
        for got_row, want_row in zip(costs.tolist(), scalar_costs(frame, gt, w, header)):
            for got, want in zip(got_row, want_row):
                assert same_bits(got, want), (frame, gt, got, want)

    def test_unknown_class(self):
        frame, gt = random_instance(np.random.default_rng(3), 1, 2)
        gt = gt_frame([dataclasses.replace(gt.objects[0], class_label="carcinoid")])
        with pytest.raises(UnknownClassError, match="carcinoid"):
            detr_match(frame, gt, LossWeights(), make_header(2))


def dense_detr_match(frame, gt, w, header):
    """detr_match with the scalar cost terms."""
    if not gt.objects:
        return assignment.Assignment(pairs=(), total_cost=0.0)
    return assignment.solve(assignment.CostMatrix(scalar_costs(frame, gt, w, header)))


def dense_conditional_mask_loss(frame, gt, match, w):
    """conditional_mask_loss with each prediction decoded to a float64 grid."""
    dice_term = ce_term = 0.0
    for g, q in match.pairs:
        if gt.objects[g].mask is not None:
            pred = rle_decode(frame.slots[q].mask).astype(np.float64)
            dice_term += w.w_dice * dice_loss(pred, gt.objects[g].mask)
            ce_term += w.w_mask * mask_ce_loss(pred, gt.objects[g].mask)
    return dice_term, ce_term


def _moved(mask: RleMask, t: int) -> RleMask:
    """The mask rolled by a frame-dependent offset, or with its lower rows cut away."""
    grid = rle_decode(mask)
    if t % 3 == 2:
        grid[mask.height // 2 - 8 * (t % 4):] = 0
        return rle_encode(grid)
    return rle_encode(np.roll(grid, (t % 7 - 3, 2 * (t % 5) - 4), axis=(0, 1)))


class TestPartialOverlapReference:
    """total_loss against the dense reference where prediction masks miss the
    ground truth in part, which the synth streams alone never do."""

    @pytest.mark.parametrize("scenario", ["drift", "large_motion"])
    def test_total_loss_equals_dense(self, scenario, monkeypatch):
        cfg = dataclasses.replace(synth.scenario_config(scenario, 3), n_frames=24,
                                  with_masks=True)
        gts, preds = synth.generate(cfg)
        w = LossWeights(w_mask=3.0, w_dice=4.0)
        frames = [
            FramePrediction(f.frame_index, tuple(
                dataclasses.replace(s, mask=None if s.mask is None else _moved(s.mask, f.frame_index))
                for s in f.slots))
            for f in preds.frames
        ]
        got = [total_loss(f, g, w, preds.header) for f, g in zip(frames, gts.frames)]
        monkeypatch.setattr(losses, "detr_match", dense_detr_match)
        monkeypatch.setattr(losses, "conditional_mask_loss", dense_conditional_mask_loss)
        want = [total_loss(f, g, w, preds.header) for f, g in zip(frames, gts.frames)]
        assert sum(0.0 < b.cond_mask_dice for b in got) >= len(got) // 2
        for a, b in zip(got, want):
            for field in dataclasses.fields(a):
                assert same_bits(getattr(a, field.name), getattr(b, field.name)), field.name


class TestLossWeights:
    @pytest.mark.parametrize("value", [float("nan"), "2", True, -1.0, math.inf],
                             ids=["nan", "string", "boolean", "negative", "infinite"])
    def test_bad_weight_is_data_error(self, value):
        with pytest.raises(DataError, match="w_cls"):
            LossWeights(w_cls=value)

    def test_weights_held_as_given(self):
        assert type(LossWeights(w_cls=1).w_cls) is int
