from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopetrack.errors import CapacityError, DataError
from scopetrack.metrics import TrackedSequence, evaluate_tracking
from scopetrack.model import BBox, box_iou, rle_decode, validate_ground_truth, validate_stream
from scopetrack.synth import (
    SCENARIO_NAMES,
    SynthConfig,
    _rect_mask,
    generate,
    scenario_config,
)
from scopetrack.tracker import iou_baseline_track, track_video


class TestGenerate:
    def test_deterministic(self):
        cfg = scenario_config("occlusion", 5)
        a_gt, a_pred = generate(cfg)
        b_gt, b_pred = generate(cfg)
        assert a_gt == b_gt
        assert a_pred == b_pred

    def test_streams_validate(self):
        for name in SCENARIO_NAMES:
            gt, pred = generate(scenario_config(name, 3))
            assert validate_stream(pred) == []
            assert validate_ground_truth(gt) == []

    def test_gt_track_count_and_span(self):
        gt, _ = generate(SynthConfig(n_objects=3, n_frames=20, seed=1))
        ids = {o.gt_track_id for f in gt.frames for o in f.objects}
        assert ids == {0, 1, 2}
        for frame in gt.frames:
            assert len(frame.objects) == 3  # no occlusions configured

    def test_occlusion_window_empties_slot(self):
        cfg = SynthConfig(n_objects=2, n_frames=12, seed=2,
                          occlusions=((1, 4, 4),))
        gt, pred = generate(cfg)
        for t, frame in enumerate(pred.frames):
            slot = frame.slots[1]
            if 4 <= t < 8:
                assert slot.is_empty(0.5)
                assert all(o.gt_track_id != 1 for o in gt.frames[t].objects)
            else:
                assert not slot.is_empty(0.5)

    def test_nonempty_slots_match_live_objects(self):
        cfg = scenario_config("occlusion", 9)
        gt, pred = generate(cfg)
        for gt_frame, frame in zip(gt.frames, pred.frames):
            nonempty = sum(not s.is_empty(0.5) for s in frame.slots)
            assert nonempty == len(gt_frame.objects)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            generate(SynthConfig(n_objects=9, n_queries=8))

    def test_bad_occlusion_window(self):
        with pytest.raises(DataError):
            generate(SynthConfig(n_objects=1, n_frames=10, occlusions=((0, 8, 5),)))

    def test_masks_when_requested(self):
        cfg = SynthConfig(n_objects=1, n_frames=3, seed=4, with_masks=True,
                          frame_height=32, frame_width=32)
        gt, pred = generate(cfg)
        assert all(o.mask is not None for f in gt.frames for o in f.objects)
        for frame in pred.frames:
            assert frame.slots[0].mask is not None


class TestScenarios:
    def test_large_motion_box_iou_zero_every_step(self):
        gt, _ = generate(scenario_config("large_motion", 7))
        by_track: dict[int, list] = {}
        for frame in gt.frames:
            for obj in frame.objects:
                by_track.setdefault(obj.gt_track_id, []).append(obj.box)
        for boxes in by_track.values():
            for a, b in zip(boxes, boxes[1:]):
                assert box_iou(a, b) == 0.0

    def test_drift_with_zero_sigma_degenerates_to_static(self):
        cfg = dataclasses.replace(scenario_config("drift", 7), embedding_drift=0.0)
        _, pred = generate(cfg)
        first = pred.frames[0].slots
        for frame in pred.frames[1:]:
            for j in range(cfg.n_objects):
                assert frame.slots[j].embedding == first[j].embedding

    def test_static_scenario_perfect_for_both_trackers(self):
        gt, pred = generate(scenario_config("static", 11))
        gt_seq = TrackedSequence.from_ground_truth(gt)
        for output in (track_video(pred), iou_baseline_track(pred)):
            pred_seq = TrackedSequence.from_tracking(output, pred)
            result = evaluate_tracking(gt_seq, pred_seq)
            assert result.hota == 1.0
            assert result.mota == 1.0
            assert result.idf1 == 1.0

    def test_track_video_equals_step_fold_on_suite(self):
        from scopetrack.tracker import TrackState, step
        _, pred = generate(scenario_config("occlusion", 7))
        folded = track_video(pred)
        state = TrackState()
        outs = []
        for frame in pred.frames:
            state, out = step(state, frame)
            outs.append(out)
        assert tuple(outs) == folded.frames


def _reference_rect(box: BBox, height: int, width: int) -> list[list[int]]:
    """The mask of a box, one pixel at a time: a pixel is set when its row and
    column lie between the box's rounded corners."""
    x1, y1, x2, y2 = (int(round(v)) for v in box.as_tuple())
    return [[int(y1 <= row < y2 and x1 <= col < x2) for col in range(width)]
            for row in range(height)]


class TestRectMask:
    @settings(max_examples=300, deadline=None)
    @given(height=st.integers(1, 12), width=st.integers(1, 12), data=st.data())
    def test_matches_pixel_loop(self, height, width, data):
        """Boxes inside, across and fully outside the frame, on every side."""
        def span(side):
            coord = st.floats(-2.0 * side, 3.0 * side, allow_nan=False)
            return sorted(data.draw(st.tuples(coord, coord)))
        (x1, x2), (y1, y2) = span(width), span(height)
        box = BBox(x1, y1, x2, y2)
        mask = _rect_mask(box, height, width)
        assert rle_decode(mask).tolist() == _reference_rect(box, height, width)

    def test_box_left_of_and_above_the_frame_is_empty(self):
        mask = _rect_mask(BBox(-9.0, -9.0, -3.0, -3.0), 8, 8)
        assert mask.area == 0
