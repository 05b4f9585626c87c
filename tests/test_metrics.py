from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_slot, make_stream, unit_vec
from scopetrack import assignment
from scopetrack.assignment import CostMatrix, solve
from scopetrack.errors import (
    DataError,
    DimensionError,
    FrameAlignmentError,
    UndefinedMetricError,
    UnknownClassError,
)
from scopetrack.metrics import (
    ALPHA_MARGIN,
    HOTA_ALPHAS,
    TrackedDet,
    TrackedSequence,
    eval_classification_f1,
    eval_hota,
    eval_idf1,
    eval_mota,
    eval_segmentation,
    hota_components,
    similarity,
)
from scopetrack.metrics import _sim_matrix
from scopetrack.model import (
    BBox,
    ClassDistribution,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    GroundTruthStream,
    QuerySlot,
    StreamHeader,
    VideoStream,
    box_iou,
    rle_encode,
)
from scopetrack.tracker import FrameAssignments, track_video

BOX = (0.0, 0.0, 10.0, 10.0)


def seq(frames) -> TrackedSequence:
    """frames: list over time of [(track_id, box-tuple), ...]"""
    return TrackedSequence(
        frame_indices=tuple(range(len(frames))),
        frames=tuple(
            tuple(TrackedDet(tid, BBox(*box)) for tid, box in frame)
            for frame in frames
        ),
    )


# ---------------------------------------------------------------- HOTA oracle

def _frame_matchings(n_g: int, n_p: int, feasible: set[tuple[int, int]]):
    """Every injective subset of the feasible pairs."""
    for size in range(min(n_g, n_p) + 1):
        for rows in itertools.combinations(range(n_g), size):
            for cols in itertools.permutations(range(n_p), size):
                pairs = tuple(zip(rows, cols))
                if all(p in feasible for p in pairs):
                    yield pairs


def hota_oracle(gt: TrackedSequence, pred: TrackedSequence):
    """Exhaustive reference: explicit-loop alignment scores plus per-frame
    enumeration of every feasible matching; asserts the optimum is unique."""
    gt_ids: dict[int, int] = {}
    pr_ids: dict[int, int] = {}
    gt_counts: list[int] = []
    pr_counts: list[int] = []
    for frame in gt.frames:
        for det in frame:
            if det.track_id not in gt_ids:
                gt_ids[det.track_id] = len(gt_counts)
                gt_counts.append(0)
            gt_counts[gt_ids[det.track_id]] += 1
    for frame in pred.frames:
        for det in frame:
            if det.track_id not in pr_ids:
                pr_ids[det.track_id] = len(pr_counts)
                pr_counts.append(0)
            pr_counts[pr_ids[det.track_id]] += 1

    sims_per_frame = [
        [[box_iou(g.box, p.box) for p in pf] for g in gf]
        for gf, pf in zip(gt.frames, pred.frames)
    ]

    potential: dict[tuple[int, int], float] = {}
    for gf, pf, sims in zip(gt.frames, pred.frames, sims_per_frame):
        if not gf or not pf:
            continue
        row_sums = [sum(row) for row in sims]
        col_sums = [sum(sims[i][j] for i in range(len(gf))) for j in range(len(pf))]
        for i, g in enumerate(gf):
            for j, p in enumerate(pf):
                denom = row_sums[i] + col_sums[j] - sims[i][j]
                if denom > 1e-12:
                    key = (gt_ids[g.track_id], pr_ids[p.track_id])
                    potential[key] = potential.get(key, 0.0) + sims[i][j] / denom

    def ga(gi: int, pj: int) -> float:
        pot = potential.get((gi, pj), 0.0)
        return pot / (gt_counts[gi] + pr_counts[pj] - pot)

    per_alpha = []
    for alpha in HOTA_ALPHAS:
        matches: dict[tuple[int, int], int] = {}
        tp = fn = fp = 0
        for gf, pf, sims in zip(gt.frames, pred.frames, sims_per_frame):
            feasible = {
                (i, j)
                for i in range(len(gf)) for j in range(len(pf))
                if sims[i][j] >= alpha - 1e-12
            }
            best = None
            best_key = None
            tie = False
            for pairs in _frame_matchings(len(gf), len(pf), feasible):
                score = sum(
                    ga(gt_ids[gf[i].track_id], pr_ids[pf[j].track_id]) * sims[i][j]
                    for i, j in pairs
                )
                key = (len(pairs), score)
                if best_key is None or key > best_key:
                    best_key, best, tie = key, pairs, False
                elif key == best_key and set(pairs) != set(best):
                    tie = True
            assert not tie, "oracle instance has a tied optimum; use another seed"
            for i, j in best:
                key = (gt_ids[gf[i].track_id], pr_ids[pf[j].track_id])
                matches[key] = matches.get(key, 0) + 1
            tp += len(best)
            fn += len(gf) - len(best)
            fp += len(pf) - len(best)
        deta = tp / max(1, tp + fn + fp)
        num = 0.0
        for gi in range(len(gt_counts)):
            for pj in range(len(pr_counts)):
                m = matches.get((gi, pj), 0)
                if m:
                    num += m * (m / (gt_counts[gi] + pr_counts[pj] - m))
        assa = num / max(1, tp)
        per_alpha.append((deta, assa, math.sqrt(deta * assa)))
    n = len(per_alpha)
    return (
        sum(v[2] for v in per_alpha) / n,
        sum(v[0] for v in per_alpha) / n,
        sum(v[1] for v in per_alpha) / n,
    )


def random_tracked_pair(rng, n_frames=6, max_tracks=2):
    """Tiny random instance: <= 2 GT tracks, <= 2 pred tracks."""
    def rand_box():
        x1, y1 = rng.uniform(0, 20, size=2)
        return (float(x1), float(y1), float(x1 + rng.uniform(2, 12)),
                float(y1 + rng.uniform(2, 12)))

    def rand_frames(n_tracks, id_base):
        frames = []
        walk = {t: rand_box() for t in range(n_tracks)}
        for _ in range(n_frames):
            frame = []
            for t in range(n_tracks):
                if rng.random() < 0.75:
                    x1, y1, x2, y2 = walk[t]
                    dx, dy = rng.uniform(-3, 3, size=2)
                    walk[t] = (x1 + dx, y1 + dy, x2 + dx, y2 + dy)
                    frame.append((id_base + t, walk[t]))
            frames.append(frame)
        return frames

    n_gt = int(rng.integers(1, max_tracks + 1))
    n_pr = int(rng.integers(1, max_tracks + 1))
    return seq(rand_frames(n_gt, 0)), seq(rand_frames(n_pr, 100))


class TestHota:
    def test_perfect_tracking_is_exactly_one(self):
        gt = seq([[(0, BOX), (1, (20.0, 0.0, 30.0, 10.0))] for _ in range(5)])
        assert eval_hota(gt, gt) == (1.0, 1.0, 1.0)

    def test_split_track(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        pred = seq([[(7, BOX)] for _ in range(5)] + [[(8, BOX)] for _ in range(5)])
        hota, deta, assa = eval_hota(gt, pred)
        assert deta == 1.0
        assert assa == 0.5
        assert hota == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_empty_predictions(self):
        gt = seq([[(0, BOX)] for _ in range(4)])
        pred = seq([[] for _ in range(4)])
        hota, deta, assa = eval_hota(gt, pred)
        assert (hota, deta, assa) == (0.0, 0.0, 0.0)

    def test_empty_ground_truth(self):
        gt = seq([[] for _ in range(4)])
        pred = seq([[(0, BOX)] for _ in range(4)])
        assert eval_hota(gt, pred) == (0.0, 0.0, 0.0)

    def test_two_empty_videos(self):
        empty = seq([[] for _ in range(4)])
        assert eval_hota(empty, empty) == (0.0, 0.0, 0.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(60):
            gt, pred = random_tracked_pair(rng)
            got = eval_hota(gt, pred)
            want = hota_oracle(gt, pred)
            assert got == want
            checked += 1
        assert checked == 60

    def test_per_alpha_geometric_mean_identity(self):
        rng = np.random.default_rng(77)
        gt, pred = random_tracked_pair(rng)
        for deta, assa, hota in hota_components(gt, pred):
            assert abs(hota - math.sqrt(deta * assa)) <= 1e-12
            lo, hi = min(deta, assa), max(deta, assa)
            assert lo - 1e-12 <= hota <= hi + 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(123)
        gt, pred = random_tracked_pair(rng)
        relabeled = TrackedSequence(
            frame_indices=pred.frame_indices,
            frames=tuple(
                tuple(TrackedDet(det.track_id * 31 + 7, det.box, det.mask) for det in f)
                for f in pred.frames
            ),
        )
        assert eval_hota(gt, pred) == eval_hota(gt, relabeled)

    def test_misalignment_rejected(self):
        gt = seq([[(0, BOX)]])
        pred = TrackedSequence(frame_indices=(5,), frames=(((TrackedDet(0, BBox(*BOX))),),))
        with pytest.raises(FrameAlignmentError):
            eval_hota(gt, pred)


class TestMota:
    def test_perfect(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        assert eval_mota(gt, gt) == 1.0

    def test_one_false_positive(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        frames = [[(0, BOX)] for _ in range(10)]
        frames[4].append((9, (50.0, 50.0, 60.0, 60.0)))  # spurious detection
        assert eval_mota(gt, seq(frames)) == pytest.approx(0.9, abs=1e-9)

    def test_one_identity_switch(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        pred = seq([[(7, BOX)] for _ in range(5)] + [[(8, BOX)] for _ in range(5)])
        assert eval_mota(gt, pred) == pytest.approx(0.9, abs=1e-9)

    def test_empty_ground_truth_is_undefined(self):
        gt = seq([[] for _ in range(3)])
        pred = seq([[(0, BOX)] for _ in range(3)])
        with pytest.raises(UndefinedMetricError):
            eval_mota(gt, pred)

    def test_match_persistence_prefers_previous_partner(self):
        # two overlapping preds; the persistent partner keeps the match even
        # when the other one has slightly higher IoU in later frames
        gt_frames = [[(0, BOX)] for _ in range(4)]
        pred_frames = [
            [(1, BOX), (2, (0.0, 0.0, 10.0, 9.0))] if t else [(1, BOX)]
            for t in range(4)
        ]
        gt, pred = seq(gt_frames), seq(pred_frames)
        assert eval_mota(gt, pred) == pytest.approx(1.0 - 3 / 4, abs=1e-9)  # 3 FPs, no switch


class TestIdf1:
    def test_perfect(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        assert eval_idf1(gt, gt) == 1.0

    def test_split_track_halves(self):
        gt = seq([[(0, BOX)] for _ in range(10)])
        pred = seq([[(7, BOX)] for _ in range(5)] + [[(8, BOX)] for _ in range(5)])
        assert eval_idf1(gt, pred) == pytest.approx(0.5, abs=1e-9)

    def test_empty_predictions(self):
        gt = seq([[(0, BOX)] for _ in range(4)])
        pred = seq([[] for _ in range(4)])
        assert eval_idf1(gt, pred) == 0.0

    def test_empty_ground_truth(self):
        gt = seq([[] for _ in range(4)])
        pred = seq([[(0, BOX)] for _ in range(4)])
        assert eval_idf1(gt, pred) == 0.0

    def test_two_empty_videos(self):
        empty = seq([[] for _ in range(4)])
        assert eval_idf1(empty, empty) == 1.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        gt, pred = random_tracked_pair(rng)
        relabeled = TrackedSequence(
            frame_indices=pred.frame_indices,
            frames=tuple(
                tuple(TrackedDet(det.track_id + 1000, det.box, det.mask) for det in f)
                for f in pred.frames
            ),
        )
        assert eval_idf1(gt, pred) == eval_idf1(gt, relabeled)


class TestFpMonotonicity:
    def test_extra_fp_never_helps(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gt, pred = random_tracked_pair(rng)
            frames = [list(f) for f in pred.frames]
            t = int(rng.integers(0, len(frames)))
            frames[t].append(TrackedDet(999, BBox(80.0, 80.0, 90.0, 90.0)))
            worse = TrackedSequence(
                frame_indices=pred.frame_indices,
                frames=tuple(tuple(f) for f in frames),
            )
            _, deta_base, _ = eval_hota(gt, pred)
            _, deta_worse, _ = eval_hota(gt, worse)
            assert deta_worse <= deta_base + 1e-12
            assert eval_mota(gt, worse) <= eval_mota(gt, pred) + 1e-12


# -------------------------------------------------------- detection metrics

HEADER = StreamHeader(n_queries=2, embed_dim=2, frame_height=8, frame_width=8,
                      classes=("AD", "HP"))


def det_streams(frames_spec):
    """frames_spec: list of (pred_slots_spec, gt_objects_spec).

    pred slot spec: (box, probs, mask_grid|None); gt spec: (tid, box, label,
    mask_grid|None).
    """
    pred_frames = []
    gt_frames = []
    for t, (slots_spec, objs_spec) in enumerate(frames_spec):
        slots = []
        for box, probs, grid in slots_spec:
            slots.append(QuerySlot(
                embedding=(1.0, 0.0), box=BBox(*box),
                classes=ClassDistribution(probs),
                mask=rle_encode(grid) if grid is not None else None,
            ))
        while len(slots) < HEADER.n_queries:
            slots.append(QuerySlot(
                embedding=(0.0, 1.0), box=BBox(0, 0, 0, 0),
                classes=ClassDistribution((0.0, 0.0)),
            ))
        pred_frames.append(FramePrediction(t, tuple(slots)))
        gt_frames.append(GroundTruthFrame(t, tuple(
            GroundTruthObject(tid, BBox(*box), label,
                              rle_encode(grid) if grid is not None else None)
            for tid, box, label, grid in objs_spec
        )))
    return (
        VideoStream(header=HEADER, frames=tuple(pred_frames)),
        GroundTruthStream(header=HEADER, frames=tuple(gt_frames)),
    )


def grid_with(pixels):
    g = np.zeros((8, 8), dtype=np.uint8)
    for y, x in pixels:
        g[y, x] = 1
    return g


class TestEvalSegmentation:
    def test_identical(self):
        grid = grid_with([(0, 0), (0, 1), (1, 0)])
        pred, gt = det_streams([
            ([((0, 0, 2, 2), (0.9, 0.0), grid)], [(0, (0, 0, 2, 2), "AD", grid)]),
        ])
        res = eval_segmentation(pred, gt)
        assert (res.dice, res.iou, res.precision, res.recall) == (1.0, 1.0, 1.0, 1.0)

    def test_no_predictions(self):
        grid = grid_with([(0, 0)])
        pred, gt = det_streams([
            ([], [(0, (0, 0, 2, 2), "AD", grid)]),
        ])
        res = eval_segmentation(pred, gt)
        assert res.recall == 0.0
        assert res.precision == 1.0  # vacuous
        assert res.dice == 0.0

    def test_nothing_on_either_side(self):
        pred, gt = det_streams([([], []), ([], [])])
        res = eval_segmentation(pred, gt)
        assert (res.precision, res.recall) == (1.0, 1.0)  # both vacuous

    def test_half_overlap_counts(self):
        # |A|=|B|=2 with intersection 1: dice 1/2, iou 1/3
        a = grid_with([(0, 0), (0, 1)])
        b = grid_with([(0, 1), (0, 2)])
        pred, gt = det_streams([
            ([((0, 0, 2, 1), (0.9, 0.0), a)], [(0, (1, 0, 3, 1), "AD", b)]),
        ])
        res = eval_segmentation(pred, gt)
        assert res.dice == pytest.approx(0.5, abs=1e-12)
        assert res.iou == pytest.approx(1 / 3, abs=1e-12)

    def test_unions_match_raster_oracle(self):
        # several masks a side, overlapping or touching, and slots without one
        rng = np.random.Generator(np.random.Philox(5))

        def grids():
            return [(rng.random((8, 8)) < rng.random()).astype(np.uint8)
                    if rng.random() < 0.8 else None for _ in range(rng.integers(0, 4))]

        frames = [(grids(), grids()) for _ in range(300)]
        pred, gt = det_streams([
            ([(BOX, (0.9, 0.0), g) for g in p], [(i, BOX, "AD", g) for i, g in enumerate(q)])
            for p, q in frames
        ])
        def union(side):
            out = np.zeros((8, 8), dtype=bool)
            for g in side:
                if g is not None:
                    out |= g.astype(bool)
            return out

        dice, iou = [], []
        for p, q in frames:
            pu, gu = union(p), union(q)
            inter, areas = int((pu & gu).sum()), int(pu.sum()) + int(gu.sum())
            dice.append(2.0 * inter / areas if areas else 1.0)
            iou.append(inter / (areas - inter) if areas - inter else 1.0)
        res = eval_segmentation(pred, gt)
        assert (res.dice, res.iou) == (sum(dice) / len(dice), sum(iou) / len(iou))

    def test_mask_of_another_size_rejected(self):
        pred, gt = det_streams([([(BOX, (0.9, 0.0), np.ones((8, 9), np.uint8))], [])])
        with pytest.raises(DimensionError):
            eval_segmentation(pred, gt)


class TestClassificationF1:
    def test_all_correct(self):
        grid = None
        pred, gt = det_streams([
            ([((0, 0, 4, 4), (0.9, 0.05), grid)], [(0, (0, 0, 4, 4), "AD", grid)]),
            ([((2, 2, 6, 6), (0.05, 0.9), grid)], [(0, (2, 2, 6, 6), "HP", grid)]),
        ])
        assert eval_classification_f1(pred, gt) == 1.0

    def test_flipped_classes(self):
        pred, gt = det_streams([
            ([((0, 0, 4, 4), (0.05, 0.9), None)], [(0, (0, 0, 4, 4), "AD", None)]),
            ([((2, 2, 6, 6), (0.9, 0.05), None)], [(0, (2, 2, 6, 6), "HP", None)]),
        ])
        assert eval_classification_f1(pred, gt) == 0.0

    def test_nothing_on_either_side(self):
        pred, gt = det_streams([([], []), ([], [])])
        assert eval_classification_f1(pred, gt) == 1.0

    def test_counts_formula(self):
        # 10 GT over 10 frames; 8 matched correctly, 2 spurious, 2 missed
        frames = []
        for t in range(8):
            frames.append((
                [((0, 0, 4, 4), (0.9, 0.05), None)],
                [(0, (0, 0, 4, 4), "AD", None)],
            ))
        frames.append(([((0, 0, 4, 4), (0.9, 0.05), None)], [(0, (5, 5, 7, 7), "AD", None)]))
        frames.append(([((0, 0, 4, 4), (0.9, 0.05), None)], [(0, (5, 5, 7, 7), "AD", None)]))
        pred, gt = det_streams(frames)
        # P = 8/10, R = 8/10 -> F1 = 0.8
        assert eval_classification_f1(pred, gt) == pytest.approx(0.8, abs=1e-9)

    def test_unknown_class(self):
        pred, gt = det_streams([
            ([((0, 0, 4, 4), (0.9, 0.05), None)], [(0, (0, 0, 4, 4), "XX", None)]),
        ])
        with pytest.raises(UnknownClassError):
            eval_classification_f1(pred, gt)


class TestMaskLocalization:
    def test_mask_iou_preferred_over_box_iou(self):
        # same boxes, disjoint masks: mask IoU 0 kills the match at alpha 0.5
        import numpy as np
        left = rle_encode(np.pad(np.ones((8, 4), dtype=np.uint8), ((0, 0), (0, 4))))
        right = rle_encode(np.pad(np.ones((8, 4), dtype=np.uint8), ((0, 0), (4, 0))))
        gt = TrackedSequence(
            frame_indices=(0,),
            frames=(((TrackedDet(0, BBox(*BOX), left)),),),
        )
        pred_same = TrackedSequence(
            frame_indices=(0,),
            frames=(((TrackedDet(5, BBox(*BOX), left)),),),
        )
        pred_other = TrackedSequence(
            frame_indices=(0,),
            frames=(((TrackedDet(5, BBox(*BOX), right)),),),
        )
        assert eval_idf1(gt, pred_same) == 1.0
        assert eval_idf1(gt, pred_other) == 0.0  # box IoU alone would match


class TestHeaderCompatibility:
    def test_mismatched_frame_size_rejected(self):
        pred, gt = det_streams([
            ([((0, 0, 4, 4), (0.9, 0.05), None)], [(0, (0, 0, 4, 4), "AD", None)]),
        ])
        import dataclasses
        other = dataclasses.replace(gt.header, frame_width=99)
        bad_gt = GroundTruthStream(header=other, frames=gt.frames)
        with pytest.raises(FrameAlignmentError):
            eval_segmentation(pred, bad_gt)


class TestDegradation:
    def test_shifted_predictions_score_strictly_worse(self):
        import numpy as np
        from scopetrack.synth import SynthConfig, generate

        gt, pred = generate(SynthConfig(n_objects=2, n_frames=6, with_masks=True,
                                        frame_height=48, frame_width=48, seed=33,
                                        box_size=0.3))
        perfect = eval_segmentation(pred, gt)
        assert (perfect.dice, perfect.iou) == (1.0, 1.0)

        def shift(slot, dx):
            if slot.is_empty(0.5):
                return slot
            box = slot.box
            moved = BBox(box.x1 + dx, box.y1, box.x2 + dx, box.y2)
            grid = np.zeros((48, 48), dtype=np.uint8)
            grid[int(moved.y1):int(moved.y2), int(moved.x1):int(moved.x2)] = 1
            return QuerySlot(slot.embedding, moved, slot.classes, rle_encode(grid))

        shifted = VideoStream(header=pred.header, frames=tuple(
            FramePrediction(f.frame_index, tuple(shift(s, 6.0) for s in f.slots))
            for f in pred.frames
        ))
        worse = eval_segmentation(shifted, gt)
        assert worse.dice < perfect.dice
        assert worse.iou < perfect.iou
        assert 0.0 < worse.dice < 1.0


class TestMotaRange:
    def test_mota_can_go_negative(self):
        gt = seq([[(0, BOX)] for _ in range(3)])
        flooded = seq([
            [(0, BOX)] + [(k, (60.0 + 12 * k, 0.0, 70.0 + 12 * k, 10.0))
                          for k in range(1, 4)]
            for _ in range(3)
        ])
        value = eval_mota(gt, flooded)
        assert value < 0.0
        assert value <= 1.0


# ------------------------------------------- reference tracking metrics
#
# The per-alpha, uncached procedure with a loop-built similarity matrix, as
# the metrics module computed it before HOTA was solved once per distinct
# feasibility mask. The module must reproduce it exactly.

def reference_sim_matrix(gt_frame, pred_frame) -> np.ndarray:
    return np.asarray(
        [[similarity(g, p) for p in pred_frame] for g in gt_frame],
        dtype=np.float64,
    )


def reference_max_match(sims, feasible, weights):
    n_rows, n_cols = sims.shape
    if n_rows == 0 or n_cols == 0:
        return []
    big = 4.0 * (min(n_rows, n_cols) + 1)
    cost = np.where(feasible, -(big + weights), 0.0)
    result = solve(CostMatrix(tuple(map(tuple, cost))))
    return [(r, c) for r, c in result.pairs if feasible[r, c]]


def reference_id_tables(seq_: TrackedSequence):
    index: dict[int, int] = {}
    counts: list[int] = []
    for frame in seq_.frames:
        for det in frame:
            if det.track_id not in index:
                index[det.track_id] = len(counts)
                counts.append(0)
            counts[index[det.track_id]] += 1
    return index, counts


def reference_hota_components(gt: TrackedSequence, pred: TrackedSequence):
    gt_index, gt_counts = reference_id_tables(gt)
    pr_index, pr_counts = reference_id_tables(pred)
    n_g, n_p = len(gt_counts), len(pr_counts)
    sims_per_frame = [
        reference_sim_matrix(gf, pf) for gf, pf in zip(gt.frames, pred.frames)
    ]
    potential = np.zeros((n_g, n_p), dtype=np.float64)
    for gf, pf, sims in zip(gt.frames, pred.frames, sims_per_frame):
        if not len(gf) or not len(pf):
            continue
        denom = sims.sum(axis=1, keepdims=True) + sims.sum(axis=0, keepdims=True) - sims
        jac = np.divide(sims, denom, out=np.zeros_like(sims), where=denom > ALPHA_MARGIN)
        for i, g in enumerate(gf):
            for j, p in enumerate(pf):
                potential[gt_index[g.track_id], pr_index[p.track_id]] += jac[i, j]
    gc = np.asarray(gt_counts, dtype=np.float64)
    pc = np.asarray(pr_counts, dtype=np.float64)
    if n_g and n_p:
        ga = potential / (gc[:, None] + pc[None, :] - potential)
    else:
        ga = np.zeros((n_g, n_p))

    out = []
    for alpha in HOTA_ALPHAS:
        matches = np.zeros((n_g, n_p), dtype=np.int64)
        tp = fp = fn = 0
        for gf, pf, sims in zip(gt.frames, pred.frames, sims_per_frame):
            if len(gf) and len(pf):
                gids = [gt_index[g.track_id] for g in gf]
                pids = [pr_index[p.track_id] for p in pf]
                weights = ga[np.ix_(gids, pids)] * sims
                feasible = sims >= alpha - ALPHA_MARGIN
                pairs = reference_max_match(sims, feasible, weights)
                for r, c in pairs:
                    matches[gids[r], pids[c]] += 1
                tp += len(pairs)
                fn += len(gf) - len(pairs)
                fp += len(pf) - len(pairs)
            else:
                fn += len(gf)
                fp += len(pf)
        deta = tp / max(1, tp + fn + fp)
        num = 0.0
        for gi in range(n_g):
            for pj in range(n_p):
                m = int(matches[gi, pj])
                if m:
                    num += m * (m / (gt_counts[gi] + pr_counts[pj] - m))
        assa = num / max(1, tp)
        out.append((deta, assa, math.sqrt(deta * assa)))
    return out


def reference_mota(gt: TrackedSequence, pred: TrackedSequence, alpha: float = 0.5) -> float:
    total_gt = sum(len(f) for f in gt.frames)
    fn = fp = idsw = 0
    prev_match: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for gf, pf in zip(gt.frames, pred.frames):
        sims = reference_sim_matrix(gf, pf)
        gt_ids = [d.track_id for d in gf]
        pr_ids = [d.track_id for d in pf]
        matched_g: set[int] = set()
        matched_p: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for i, g in enumerate(gt_ids):
            want = prev_match.get(g)
            if want is None or want not in pr_ids:
                continue
            j = pr_ids.index(want)
            if j not in matched_p and sims[i, j] >= alpha - ALPHA_MARGIN:
                pairs.append((i, j))
                matched_g.add(i)
                matched_p.add(j)
        rest_g = [i for i in range(len(gf)) if i not in matched_g]
        rest_p = [j for j in range(len(pf)) if j not in matched_p]
        if rest_g and rest_p:
            sub = sims[np.ix_(rest_g, rest_p)]
            for r, c in reference_max_match(sub, sub >= alpha - ALPHA_MARGIN, sub):
                pairs.append((rest_g[r], rest_p[c]))
        prev_match = {}
        for i, j in pairs:
            g, p = gt_ids[i], pr_ids[j]
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
            prev_match[g] = p
        fn += len(gf) - len(pairs)
        fp += len(pf) - len(pairs)
    return 1.0 - (fn + fp + idsw) / total_gt


def reference_idf1(gt: TrackedSequence, pred: TrackedSequence, alpha: float = 0.5) -> float:
    gt_index, gt_counts = reference_id_tables(gt)
    pr_index, pr_counts = reference_id_tables(pred)
    if not gt_counts and not pr_counts:
        return 1.0
    if not gt_counts or not pr_counts:
        return 0.0
    overlap = np.zeros((len(gt_counts), len(pr_counts)), dtype=np.int64)
    for gf, pf in zip(gt.frames, pred.frames):
        sims = reference_sim_matrix(gf, pf)
        for i, g in enumerate(gf):
            for j, p in enumerate(pf):
                if sims[i, j] >= alpha - ALPHA_MARGIN:
                    overlap[gt_index[g.track_id], pr_index[p.track_id]] += 1
    result = solve(CostMatrix(tuple(tuple(float(-v) for v in row) for row in overlap)))
    idtp = sum(int(overlap[r, c]) for r, c in result.pairs)
    return 2.0 * idtp / (sum(gt_counts) + sum(pr_counts))


CROWD_SIZE = 12  # frame side in pixels; boxes and masks live on its integer grid


def crowded_pair(rng, n_frames=8):
    """Up to 6 tracks a side on a small integer grid.

    Integer corners make boxes overlap, touch and collapse to zero area, and
    put many IoUs exactly on grid points such as 1/2 and 1/4. Each frame puts
    masks on neither side, on one side only, or on some detections of both.
    """
    def rand_box():
        x1, y1 = (int(v) for v in rng.integers(0, CROWD_SIZE - 1, size=2))
        w, h = (int(v) for v in rng.integers(0, 6, size=2))
        return BBox(float(x1), float(y1), float(min(CROWD_SIZE, x1 + w)),
                    float(min(CROWD_SIZE, y1 + h)))

    def near(box):
        dx, dy, dw = (int(v) for v in rng.integers(-1, 2, size=3))
        x1 = min(max(box.x1 + dx, 0.0), CROWD_SIZE - 1.0)
        y1 = min(max(box.y1 + dy, 0.0), CROWD_SIZE - 1.0)
        return BBox(x1, y1, max(x1, min(box.x2 + dx + dw, float(CROWD_SIZE))),
                    max(y1, min(box.y2 + dy, float(CROWD_SIZE))))

    def rect_mask(box):
        grid = np.zeros((CROWD_SIZE, CROWD_SIZE), dtype=np.uint8)
        grid[int(box.y1):int(box.y2), int(box.x1):int(box.x2)] = 1
        if rng.random() < 0.3:
            grid[rng.random((CROWD_SIZE, CROWD_SIZE)) < 0.1] ^= 1
        return rle_encode(grid)

    n_gt, n_pr = (int(v) for v in rng.integers(1, 7, size=2))
    gt_walk = {t: rand_box() for t in range(n_gt)}
    gt_frames, pr_frames = [], []
    for _ in range(n_frames):
        mask_gt, mask_pr = [(False, False), (True, False), (False, True), (True, True)][
            int(rng.integers(0, 4))]
        gf = []
        for t in range(n_gt):
            if rng.random() < 0.8:
                gt_walk[t] = near(gt_walk[t])
                box = gt_walk[t]
                mask = rect_mask(box) if mask_gt and rng.random() < 0.8 else None
                gf.append(TrackedDet(t, box, mask))
        pf = []
        for t in range(n_pr):
            if rng.random() < 0.2:
                continue
            roll = rng.random()
            if gf and roll < 0.4:
                box = gf[int(rng.integers(0, len(gf)))].box
            elif gf and roll < 0.8:
                box = near(gf[int(rng.integers(0, len(gf)))].box)
            else:
                box = rand_box()
            mask = rect_mask(box) if mask_pr and rng.random() < 0.8 else None
            pf.append(TrackedDet(100 + t, box, mask))
        gt_frames.append(tuple(gf))
        pr_frames.append(tuple(pf))
    indices = tuple(range(n_frames))
    return (TrackedSequence(indices, tuple(gt_frames)),
            TrackedSequence(indices, tuple(pr_frames)))


class TestReferenceEquivalence:
    def test_crowded_instances_match_reference_exactly(self):
        rng = np.random.default_rng(20261017)
        on_grid = solved = free = one_sided = 0
        for _ in range(40):
            gt, pred = crowded_pair(rng)
            assert hota_components(gt, pred) == reference_hota_components(gt, pred)
            if sum(len(f) for f in gt.frames):
                assert eval_mota(gt, pred) == reference_mota(gt, pred)
            assert eval_idf1(gt, pred) == reference_idf1(gt, pred)
            for gf, pf in zip(gt.frames, pred.frames):
                sims = reference_sim_matrix(gf, pf)
                on_grid += int(np.isin(sims, HOTA_ALPHAS).sum())
                one_sided += any(d.mask is not None for d in gf) != any(
                    d.mask is not None for d in pf)
                for alpha in HOTA_ALPHAS:
                    feasible = sims >= alpha - ALPHA_MARGIN
                    if feasible.any():
                        conflict = (feasible.sum(axis=0).max() > 1
                                    or feasible.sum(axis=1).max() > 1)
                        solved += conflict
                        free += not conflict
        # the instances reach every case the fast paths distinguish
        assert on_grid and solved and free and one_sided


class TestSimMatrix:
    coord = st.one_of(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
    )
    grid = st.lists(st.booleans(), min_size=16, max_size=16)

    @staticmethod
    def det(xs, ys, cells):
        (x1, x2), (y1, y2) = sorted(xs), sorted(ys)
        mask = None
        if cells is not None:
            mask = rle_encode(np.asarray(cells, dtype=np.uint8).reshape(4, 4))
        return TrackedDet(0, BBox(x1, y1, x2, y2), mask)

    @given(st.lists(st.tuples(st.tuples(coord, coord), st.tuples(coord, coord),
                              st.none() | grid), max_size=5),
           st.lists(st.tuples(st.tuples(coord, coord), st.tuples(coord, coord),
                              st.none() | grid), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_entries_equal_similarity_bitwise(self, gt_spec, pred_spec):
        gf = tuple(self.det(*s) for s in gt_spec)
        pf = tuple(self.det(*s) for s in pred_spec)
        sims = _sim_matrix(gf, pf)
        assert sims.shape == (len(gf), len(pf))
        for i, g in enumerate(gf):
            for j, p in enumerate(pf):
                assert float(sims[i, j]).hex() == similarity(g, p).hex()

    def test_disjoint_touching_and_degenerate(self):
        boxes = [(0.0, 0.0, 4.0, 4.0), (4.0, 0.0, 8.0, 4.0), (2.0, 2.0, 2.0, 6.0),
                 (0.0, 0.0, 0.0, 0.0), (20.0, 20.0, 30.0, 30.0), (0.0, 0.0, -0.0, 2.0),
                 (-1e200, 0.0, 1e200, 1.0), (-1.7e308, -1.7e308, 1.7e308, 1.7e308)]
        dets = tuple(TrackedDet(k, BBox(*b)) for k, b in enumerate(boxes))
        sims = _sim_matrix(dets, dets)  # the last two overflow, silently
        for i, g in enumerate(dets):
            for j, p in enumerate(dets):
                assert float(sims[i, j]).hex() == similarity(g, p).hex()

    def test_empty_frames(self):
        dets = (TrackedDet(0, BBox(*BOX)), TrackedDet(1, BBox(*BOX)))
        assert _sim_matrix(dets, ()).shape == (2, 0)
        assert _sim_matrix((), dets).shape == (0, 2)
        assert _sim_matrix((), ()).shape == (0, 0)


class TestSolverCalls:
    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return solve(m)

        monkeypatch.setattr(assignment, "solve", counting)
        return calls

    def test_conflict_free_video_needs_no_solve(self, solve_calls):
        # three well separated tracks, jittered predictions and a spurious one
        frames_gt, frames_pr = [], []
        for t in range(12):
            frames_gt.append([(k, (30.0 * k, 0.0, 30.0 * k + 10, 10.0)) for k in range(3)])
            frames_pr.append([(k + 10, (30.0 * k + t % 3, 1.0, 30.0 * k + 10, 11.0))
                              for k in range(3)] + [(99, (200.0, 200.0, 210.0, 210.0))])
        gt, pred = seq(frames_gt), seq(frames_pr)
        assert hota_components(gt, pred) == reference_hota_components(gt, pred)
        solve_calls.clear()
        hota_components(gt, pred)
        assert solve_calls == []

    def test_crowded_frame_solved_once_per_distinct_mask(self, solve_calls):
        gt = seq([[(0, (0.0, 0.0, 10.0, 10.0)), (1, (2.0, 0.0, 12.0, 10.0)),
                   (2, (4.0, 0.0, 14.0, 10.0))]])
        pred = seq([[(5, (1.0, 0.0, 11.0, 10.0)), (6, (3.0, 0.0, 13.0, 10.0)),
                     (7, (5.0, 0.0, 15.0, 10.0))]])
        sims = reference_sim_matrix(gt.frames[0], pred.frames[0])
        masks = {(sims >= alpha - ALPHA_MARGIN).tobytes() for alpha in HOTA_ALPHAS}
        assert hota_components(gt, pred) == reference_hota_components(gt, pred)
        solve_calls.clear()
        hota_components(gt, pred)
        assert 1 <= len(solve_calls) <= len(masks) < len(HOTA_ALPHAS)


class TestAlignmentMessages:
    indices = tuple(range(8))
    shifted = (0, 1, 2, 3, 4, 5, 7, 8)

    def test_tracked_sequences_name_first_difference(self):
        gt = seq([[(0, BOX)] for _ in self.indices])
        pred = TrackedSequence(frame_indices=self.shifted, frames=gt.frames)
        with pytest.raises(FrameAlignmentError,
                           match="position 6, ground-truth has frame 6 and predicted has frame 7"):
            eval_hota(gt, pred)

    def test_length_mismatch_is_named(self):
        gt = seq([[(0, BOX)] for _ in self.indices])
        pred = TrackedSequence(frame_indices=self.indices[:6], frames=gt.frames[:6])
        with pytest.raises(FrameAlignmentError, match="has 8 frames, predicted has 6"):
            eval_mota(gt, pred)

    def test_streams_name_first_difference(self):
        pred, gt = det_streams([
            ([((0, 0, 4, 4), (0.9, 0.05), None)], [(0, (0, 0, 4, 4), "AD", None)])
            for _ in self.indices
        ])
        late = GroundTruthStream(header=gt.header, frames=tuple(
            GroundTruthFrame(t, f.objects) for t, f in zip(self.shifted, gt.frames)
        ))
        with pytest.raises(FrameAlignmentError,
                           match="position 6, prediction has frame 6 and ground-truth has frame 7"):
            eval_segmentation(pred, late)


class TestFromTracking:
    @pytest.mark.parametrize("slot", [2, 7, -1])
    def test_slot_outside_frame_is_data_error(self, header, slot):
        stream = make_stream(header, [[make_slot(unit_vec(0)), make_slot(unit_vec(1))]] * 3)
        tracking = track_video(stream)
        frames = list(tracking.frames)
        frames[1] = FrameAssignments(1, ((slot, 0),))
        broken = dataclasses.replace(tracking, frames=tuple(frames))
        with pytest.raises(DataError, match=f"slot {slot} to track 0, outside"):
            TrackedSequence.from_tracking(broken, stream)
