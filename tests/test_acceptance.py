"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from scopetrack import io
from scopetrack.assignment import CostMatrix, brute_force_solve, solve
from scopetrack.cli import run
from scopetrack.losses import (
    LossWeights,
    conditional_mask_loss,
    detr_match,
    dice_loss,
    giou_loss,
    mask_ce_loss,
    total_loss,
)
from scopetrack.metrics import (TrackedSequence, eval_hota, eval_idf1, eval_mota,
                                 pair_frames)
from scopetrack.model import (
    BBox,
    FramePrediction,
    GroundTruthFrame,
    GroundTruthObject,
    QuerySlot,
    StreamHeader,
    VideoStream,
    rle_encode,
)
from scopetrack.synth import SCENARIO_NAMES, generate, scenario_config
from scopetrack.tracker import iou_baseline_track, track_video

from conftest import make_empty_slot, make_slot, make_stream, unit_vec
from test_losses import brute_force_match, make_header, random_instance
from test_metrics import hota_oracle, random_tracked_pair, seq

BOX = (0.0, 0.0, 10.0, 10.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_assignment_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(1001))
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(5000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        vals = rng.integers(-100, 101, size=(rows, cols))
        m = CostMatrix(tuple(tuple(int(v) for v in row) for row in vals))
        if solve(m).total_cost != brute_force_solve(m).total_cost:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (assignment oracle)",
        mismatches == 0 and elapsed < 10.0,
        f"5000 matrices, {mismatches} mismatches, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_conditional_mask_zeroing():
    rng = np.random.default_rng(1002)
    w = LossWeights()

    exact_zero = True
    for _ in range(500):
        k = int(rng.integers(0, 5))
        n = int(rng.integers(max(1, k), 8))
        frame, gt = random_instance(rng, k, n)
        match = detr_match(frame, gt, w, make_header(n))
        if conditional_mask_loss(frame, gt, match, w) != (0.0, 0.0):
            exact_zero = False

    byte_identical = True
    header = make_header(6, h=8, w=8)
    for _ in range(500):
        k = int(rng.integers(1, 5))
        frame, gt = random_instance(rng, k, 6, h=8, w=8)
        pred_mask = rle_encode((rng.random((8, 8)) < 0.5).astype(np.uint8))
        slots = tuple(QuerySlot(s.embedding, s.box, s.classes, pred_mask)
                      for s in frame.slots)
        masked_frame = FramePrediction(0, slots)
        masked_gt = GroundTruthFrame(0, tuple(
            GroundTruthObject(
                o.gt_track_id, o.box, o.class_label,
                rle_encode((rng.random((8, 8)) < 0.5).astype(np.uint8))
                if rng.random() < 0.5 else None,
            )
            for o in gt.objects
        ))
        with_masks = total_loss(masked_frame, masked_gt, w, header)
        stripped_gt = GroundTruthFrame(0, tuple(
            GroundTruthObject(o.gt_track_id, o.box, o.class_label, None)
            for o in masked_gt.objects
        ))
        stripped = total_loss(masked_frame, stripped_gt, w, header)
        if (with_masks.cls != stripped.cls
                or with_masks.bbox_l1 != stripped.bbox_l1
                or with_masks.bbox_giou != stripped.bbox_giou):
            byte_identical = False

    _report(
        "criterion 2 (conditional mask loss)",
        exact_zero and byte_identical,
        "500 mask-free frames give exactly (0,0); 500 mixed frames keep "
        "cls/bbox terms byte-identical after stripping masks",
    )


def test_criterion_3_detr_matching_oracle():
    rng = np.random.default_rng(1003)
    w = LossWeights()
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(0, 6))
        n = int(rng.integers(max(1, k), 9))
        frame, gt = random_instance(rng, k, n)
        match = detr_match(frame, gt, w, make_header(n))
        if match.pairs != brute_force_match(frame, gt, w, make_header(n)):
            mismatches += 1
    _report(
        "criterion 3 (DETR matching oracle)",
        mismatches == 0,
        f"1000 random instances (K<=5, N<=8), {mismatches} pair-set mismatches",
    )


def _gap_stream(header, gap: int):
    frames = []
    for _ in range(3):
        frames.append([make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    for _ in range(gap):
        frames.append([make_empty_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    for _ in range(3):
        frames.append([make_slot(unit_vec(0)), make_empty_slot(unit_vec(3))])
    return make_stream(header, frames)


def test_criterion_4_tracker_semantics():
    header = StreamHeader(n_queries=2, embed_dim=4, frame_height=100,
                          frame_width=100, classes=("AD", "HP"))

    # (a) a track survives exactly five empty frames, not six
    ids5 = {tid for f in track_video(_gap_stream(header, 5)).frames
            for _, tid in f.assignments}
    ids6 = {tid for f in track_video(_gap_stream(header, 6)).frames
            for _, tid in f.assignments}
    gap_ok = ids5 == {0} and ids6 == {0, 1}

    # (b) ids follow embeddings when slots swap position
    swapped = make_stream(header, [
        [make_slot(unit_vec(0)), make_slot(unit_vec(1))],
        [make_slot(unit_vec(1)), make_slot(unit_vec(0))],
    ])
    out = track_video(swapped)
    swap_ok = dict(out.frames[1].assignments) == {0: 1, 1: 0}

    # (c) scale invariance of the whole output
    rng = np.random.default_rng(1004)
    frames = []
    for _ in range(25):
        frames.append([
            make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.4
            else make_empty_slot(tuple(rng.normal(size=4)))
            for _ in range(2)
        ])
    stream = make_stream(header, frames)
    base = track_video(stream)
    scale_ok = True
    for c in (2.0, 0.5, 3.7):
        scaled_stream = VideoStream(header=header, frames=tuple(
            FramePrediction(f.frame_index, tuple(
                QuerySlot(tuple(c * x for x in s.embedding), s.box, s.classes, s.mask)
                for s in f.slots
            )) for f in stream.frames
        ))
        scaled = track_video(scaled_stream)
        scale_ok = scale_ok and scaled.frames == base.frames and scaled.tracks == base.tracks

    # (d) ids are never reused on a 10,000-frame fuzz stream
    frames = []
    for _ in range(10000):
        frames.append([
            make_slot(tuple(rng.normal(size=4))) if rng.random() > 0.5
            else make_empty_slot(tuple(rng.normal(size=4)))
            for _ in range(2)
        ])
    fuzz = make_stream(header, frames)
    out = track_video(fuzz)
    reuse_ok = True
    for track in out.tracks:
        obs = [f for f, _ in track.observations]
        reuse_ok = reuse_ok and obs == sorted(obs)
        reuse_ok = reuse_ok and all(b - a <= 6 for a, b in zip(obs, obs[1:]))
    ids = [t.track_id for t in out.tracks]
    reuse_ok = reuse_ok and len(ids) == len(set(ids))
    for f in out.frames:
        per_frame = [tid for _, tid in f.assignments]
        reuse_ok = reuse_ok and len(per_frame) == len(set(per_frame))

    _report(
        "criterion 4 (tracker semantics)",
        gap_ok and swap_ok and scale_ok and reuse_ok,
        f"gap5/gap6 {gap_ok}, embedding-following {swap_ok}, "
        f"scale invariance {scale_ok}, id hygiene over 10k frames {reuse_ok}",
    )


def test_criterion_5_table4_direction():
    t0 = time.perf_counter()
    margins = {"occlusion": [], "large_motion": []}
    parity_ok = True
    for seed in range(1, 21):
        for name in SCENARIO_NAMES:
            ground_truth, pred = generate(scenario_config(name, seed))
            q = track_video(pred)
            b = iou_baseline_track(pred)
            det_q = {(f.frame_index, s) for f in q.frames for s, _ in f.assignments}
            det_b = {(f.frame_index, s) for f in b.frames for s, _ in f.assignments}
            parity_ok = parity_ok and det_q == det_b
            if name in margins:
                gt_seq = TrackedSequence.from_ground_truth(ground_truth)
                assa_q, assa_b = (
                    eval_hota(pair_frames(gt_seq, TrackedSequence.from_tracking(t, pred)))[2]
                    for t in (q, b))
                margins[name].append(assa_q - assa_b)
    elapsed = time.perf_counter() - t0
    mean_occ = 100.0 * sum(margins["occlusion"]) / len(margins["occlusion"])
    mean_lm = 100.0 * sum(margins["large_motion"]) / len(margins["large_motion"])
    _report(
        "criterion 5 (query vs IoU direction)",
        parity_ok and mean_occ >= 10.0 and mean_lm >= 10.0 and elapsed < 60.0,
        f"detection parity {parity_ok}; mean AssA gain occlusion "
        f"{mean_occ:.1f}pts, large_motion {mean_lm:.1f}pts (>= 10); "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_metrics_oracles():
    rng = np.random.default_rng(1006)
    hota_ok = True
    for _ in range(40):
        gt, pred = random_tracked_pair(rng)
        if eval_hota(pair_frames(gt, pred)) != hota_oracle(gt, pred):
            hota_ok = False

    gt10 = seq([[(0, BOX)] for _ in range(10)])
    fp_frames = [[(0, BOX)] for _ in range(10)]
    fp_frames[4].append((9, (50.0, 50.0, 60.0, 60.0)))
    mota_fp = eval_mota(pair_frames(gt10, seq(fp_frames)))
    split = seq([[(7, BOX)] for _ in range(5)] + [[(8, BOX)] for _ in range(5)])
    mota_sw = eval_mota(pair_frames(gt10, split))
    idf1_half = eval_idf1(pair_frames(gt10, split))
    hand_ok = (
        abs(mota_fp - 0.9) <= 1e-9
        and abs(mota_sw - 0.9) <= 1e-9
        and abs(idf1_half - 0.5) <= 1e-9
    )

    perfect = seq([[(0, BOX), (1, (20.0, 0.0, 30.0, 10.0))] for _ in range(6)])
    perfect_ok = (
        eval_hota(pair_frames(perfect, perfect)) == (1.0, 1.0, 1.0)
        and eval_mota(pair_frames(perfect, perfect)) == 1.0
        and eval_idf1(pair_frames(perfect, perfect)) == 1.0
    )

    _report(
        "criterion 6 (metrics oracles)",
        hota_ok and hand_ok and perfect_ok,
        f"HOTA == exhaustive oracle on 40 tiny instances: {hota_ok}; "
        f"MOTA fp/switch = {mota_fp:.3f}/{mota_sw:.3f}, IDF1 split = "
        f"{idf1_half:.3f}; perfect tracking all exactly 1.0: {perfect_ok}",
    )


def test_criterion_7_loss_numerics():
    gt_mask = rle_encode(np.array([[1, 1, 0], [0, 0, 0]]))
    pred = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    dice_ok = abs(dice_loss(pred, gt_mask) - (1 - 3 / 5)) <= 1e-9

    big_gt = np.zeros((20, 10), dtype=np.uint8)
    big_gt[:10] = 1
    far = np.zeros((20, 10))
    far[10:] = 1.0
    dice_ok = dice_ok and abs(dice_loss(far, rle_encode(big_gt)) - (1 - 1 / 201)) <= 1e-9

    giou_ok = (
        abs(giou_loss(BBox(0, 0, 1, 1), BBox(9, 0, 10, 1)) - 1.8) <= 1e-9
        and abs(giou_loss(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) - 1.0) <= 1e-9
        and giou_loss(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1)) == 0.0
    )

    ce_ok = (
        abs(mask_ce_loss(np.full((4, 4), 0.5), rle_encode(np.eye(4, dtype=np.uint8)))
            - math.log(2)) <= 1e-9
        and abs(mask_ce_loss(np.array([[0.25]]), rle_encode(np.array([[1]])))
                - (-math.log(0.25))) <= 1e-9
    )

    rng = np.random.default_rng(1007)
    w = LossWeights(w_cls=1.5, w_l1=3.0, w_giou=0.7, w_mask=2.0, w_dice=4.0)
    recompose_ok = True
    for _ in range(200):
        k = int(rng.integers(0, 4))
        n = int(rng.integers(max(1, k), 7))
        frame, gt = random_instance(rng, k, n)
        breakdown = total_loss(frame, gt, w, make_header(n))
        want = (w.w_cls * breakdown.cls + w.w_l1 * breakdown.bbox_l1
                + w.w_giou * breakdown.bbox_giou
                + breakdown.cond_mask_dice + breakdown.cond_mask_ce)
        scale = max(abs(want), 1e-300)
        recompose_ok = recompose_ok and abs(breakdown.total - want) / scale <= 1e-12

    _report(
        "criterion 7 (loss numerics)",
        dice_ok and giou_ok and ce_ok and recompose_ok,
        f"dice {dice_ok}, giou {giou_ok}, cross-entropy {ce_ok}, "
        f"recomposition within 1e-12 relative {recompose_ok}",
    )


def test_criterion_8_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    static_report = None
    for name in ("static", "occlusion", "large_motion", "swap", "drift"):
        gt_path = tmp_path / f"{name}-gt.jsonl"
        pred_path = tmp_path / f"{name}-pred.jsonl"
        tracks_path = tmp_path / f"{name}-tracks.jsonl"
        ok = ok and run(["synth", "--scenario", name, "--seed", "7",
                         "--out-gt", str(gt_path), "--out-pred", str(pred_path)]) == 0
        ok = ok and run(["track", "--in", str(pred_path), "--out", str(tracks_path)]) == 0
        ok = ok and run(["eval-track", "--pred", str(tracks_path),
                         "--gt", str(gt_path)]) == 0
        capsys.readouterr()
        ok = ok and run(["report", "--tracks", str(tracks_path),
                         "--stream", str(pred_path), "--format", "json"]) == 0
        payload = capsys.readouterr().out
        report = json.loads(payload)
        ok = ok and isinstance(report["entries"], list)
        if name == "static":
            static_report = report
    elapsed = time.perf_counter() - t0

    # on the static scenario every object spans all 60 frames
    static_ok = static_report is not None and len(static_report["entries"]) == 3
    if static_ok:
        for entry in static_report["entries"]:
            static_ok = static_ok and (
                entry["first_frame"] == 0
                and entry["last_frame"] == 59
                and entry["frame_count"] == 60
            )

    _report(
        "criterion 8 (end-to-end pipeline)",
        ok and static_ok and elapsed < 30.0,
        f"synth->track->eval-track->report on 5 scenarios in {elapsed:.1f}s "
        f"(< 30s); static report matches construction: {static_ok}",
    )
