from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import make_empty_slot, make_slot, make_stream, unit_vec
from scopetrack import synth
from scopetrack.errors import DataError, FrameAlignmentError
from scopetrack.report import (
    ExamReport,
    PolypReportEntry,
    class_means,
    generate_report,
    render_report,
)
from scopetrack.tracker import iou_baseline_track, track_video
from scopetrack.model import ClassDistribution, FramePrediction, VideoStream


def tracked_stream(header, probs_by_frame):
    frames = [
        [make_slot(unit_vec(0), probs=probs), make_empty_slot(unit_vec(3))]
        for probs in probs_by_frame
    ]
    stream = make_stream(header, frames)
    return stream, track_video(stream)


def reference_report(tracking, stream, min_frames=1):
    """Report from the track table's observations, each looked up in the stream."""
    by_frame = {f.frame_index: f for f in stream.frames}
    entries = []
    for track in tracking.tracks:
        if len(track.observations) < min_frames:
            continue
        probs = [by_frame[f].slots[slot].classes.probs for f, slot in track.observations]
        mean = np.asarray(probs, dtype=np.float64).mean(axis=0)
        best = int(np.argmax(mean))
        entries.append(PolypReportEntry(
            polyp_id=track.track_id,
            polyp_type=stream.header.classes[best],
            confidence=float(mean[best]),
            frame_count=len(track.observations),
            first_frame=track.observations[0][0],
            last_frame=track.observations[-1][0],
        ))
    entries.sort(key=lambda e: (e.first_frame, e.polyp_id))
    config = dict(tracking.config, min_frames=min_frames)
    return ExamReport(video_id=stream.header.video_id, entries=tuple(entries),
                      config=dict(sorted(config.items())))


def masked_config(seed):
    return synth.SynthConfig(with_masks=True, n_frames=30, seed=seed, motion_amplitude=0.05,
                             embedding_drift=0.05, occlusions=((0, 10, 4),))


class TestReferenceReport:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_synth_suite(self, seed):
        for name in synth.SCENARIO_NAMES:
            self.check(synth.generate(synth.scenario_config(name, seed))[1])

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_masked_streams(self, seed):
        self.check(synth.generate(masked_config(seed))[1])

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_varying_probabilities(self, seed):
        # synth keeps each object's probabilities fixed; redraw them per slot
        rng = np.random.default_rng(seed)
        stream = synth.generate(synth.scenario_config(synth.SCENARIO_NAMES[0], seed))[1]
        self.check(VideoStream(header=stream.header, frames=tuple(
            FramePrediction(f.frame_index, tuple(
                dataclasses.replace(s, classes=ClassDistribution(
                    tuple(float(p) for p in rng.dirichlet((1.0, 1.0, 0.3))[:2])))
                for s in f.slots))
            for f in stream.frames)))

    @staticmethod
    def check(stream):
        for tracking in (track_video(stream), iou_baseline_track(stream)):
            assert tracking.tracks
            for min_frames in (1, 3, 30):
                assert generate_report(tracking, stream, min_frames) == reference_report(
                    tracking, stream, min_frames)


class TestGenerateReport:
    def test_uninterrupted_track_fields(self, header):
        # observed at frames 3..17 inclusive
        frames = []
        for t in range(18):
            if t >= 3:
                frames.append(FramePrediction(t, (make_slot(unit_vec(0)),
                                                  make_empty_slot(unit_vec(3)))))
            else:
                frames.append(FramePrediction(t, (make_empty_slot(unit_vec(0)),
                                                  make_empty_slot(unit_vec(3)))))
        stream = VideoStream(header=header, frames=tuple(frames))
        report = generate_report(track_video(stream), stream)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.frame_count == 15
        assert entry.first_frame == 3
        assert entry.last_frame == 17

    def test_mean_distribution_argmax(self, header):
        stream, tracking = tracked_stream(header, [(0.8, 0.1), (0.9, 0.1)])
        report = generate_report(tracking, stream)
        entry = report.entries[0]
        assert entry.polyp_type == "AD"
        assert entry.confidence == pytest.approx(0.85, abs=1e-12)

    def test_empty_tracking(self, header):
        stream = make_stream(header, [[make_empty_slot(unit_vec(0)),
                                       make_empty_slot(unit_vec(1))]])
        report = generate_report(track_video(stream), stream)
        assert report.entries == ()

    def test_min_frames_filter_is_monotone(self, header):
        frames = []
        for t in range(6):
            first = make_slot(unit_vec(0)) if t < 5 else make_empty_slot(unit_vec(0))
            second = make_slot(unit_vec(1)) if t == 0 else make_empty_slot(unit_vec(1))
            frames.append([first, second])
        stream = make_stream(header, frames)
        tracking = track_video(stream)
        sizes = [len(generate_report(tracking, stream, min_frames=m).entries)
                 for m in (1, 2, 6)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 2 and sizes[1] == 1

    def test_type_stable_under_repeated_observations(self, header):
        short_stream, short_tracking = tracked_stream(header, [(0.7, 0.2)] * 2)
        long_stream, long_tracking = tracked_stream(header, [(0.7, 0.2)] * 9)
        a = generate_report(short_tracking, short_stream).entries[0]
        b = generate_report(long_tracking, long_stream).entries[0]
        assert a.polyp_type == b.polyp_type

    def test_mismatched_stream_rejected(self, header):
        stream, tracking = tracked_stream(header, [(0.8, 0.1), (0.9, 0.1)])
        truncated = VideoStream(header=stream.header, frames=stream.frames[:1])
        with pytest.raises(DataError):
            generate_report(tracking, truncated)

    def test_entries_sorted_by_first_frame(self, header):
        frames = []
        for t in range(4):
            first = make_slot(unit_vec(0)) if t >= 2 else make_empty_slot(unit_vec(0))
            second = make_slot(unit_vec(1)) if t >= 0 else make_empty_slot(unit_vec(1))
            frames.append([first, second])
        stream = make_stream(header, frames)
        report = generate_report(track_video(stream), stream)
        firsts = [e.first_frame for e in report.entries]
        assert firsts == sorted(firsts)


class TestRender:
    def test_text_header_only_when_empty(self, header):
        stream = make_stream(header, [[make_empty_slot(unit_vec(0)),
                                       make_empty_slot(unit_vec(1))]])
        report = generate_report(track_video(stream), stream)
        text = render_report(report, "text").decode()
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["ID", "Type", "Conf", "Fr.Ct.", "1st.Fr.", "Last", "Fr."]

    def test_text_two_entries_three_aligned_lines(self, header):
        frames = [[make_slot(unit_vec(0)), make_slot(unit_vec(1))] for _ in range(3)]
        stream = make_stream(header, frames)
        report = generate_report(track_video(stream), stream)
        lines = render_report(report, "text").decode().strip().splitlines()
        assert len(lines) == 3
        first_cols = [lines[0].index(c) for c in ("ID", "Type", "Conf")]
        assert first_cols == sorted(first_cols)

    def test_json_round_trip(self, header):
        stream, tracking = tracked_stream(header, [(0.8, 0.1), (0.9, 0.05)])
        report = generate_report(tracking, stream, min_frames=1)
        assert render_report(report, "json") == (json.dumps(dataclasses.asdict(report))
                                                 + "\n").encode()

    def test_unknown_format(self, header):
        stream, tracking = tracked_stream(header, [(0.8, 0.1)])
        report = generate_report(tracking, stream)
        with pytest.raises(DataError):
            render_report(report, "yaml")


class TestClassMeans:
    """class_means equals, bit for bit, the mean over each track's stream slots written out."""

    @pytest.mark.parametrize("masks", [False, True], ids=["boxes", "masks"])
    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("name", synth.SCENARIO_NAMES)
    def test_bitwise_equal_to_mean_expression(self, name, seed, masks):
        cfg = dataclasses.replace(synth.scenario_config(name, seed), with_masks=masks)
        self.check(synth.generate(cfg)[1])

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_varying_probabilities(self, seed):
        # synth keeps each object's probabilities fixed; redraw them per slot
        rng = np.random.default_rng(seed)
        stream = synth.generate(synth.scenario_config("occlusion", seed))[1]
        self.check(VideoStream(header=stream.header, frames=tuple(
            FramePrediction(f.frame_index, tuple(
                dataclasses.replace(s, classes=ClassDistribution(
                    tuple(float(p) for p in rng.dirichlet((1.0, 1.0, 0.3))[:2])))
                for s in f.slots))
            for f in stream.frames)))

    @staticmethod
    def check(stream):
        by_frame = {f.frame_index: f for f in stream.frames}
        for tracking in (track_video(stream), iou_baseline_track(stream)):
            means = class_means(stream, tracking.frames)
            assert sorted(means) == [t.track_id for t in tracking.tracks]
            for track in tracking.tracks:
                probs = [by_frame[f].slots[slot].classes.probs for f, slot in track.observations]
                expected = tuple(float(x) for x in np.asarray(
                    probs, dtype=np.float64).mean(axis=0))
                assert [x.hex() for x in means[track.track_id]] == [x.hex() for x in expected]

    def test_frame_missing_from_stream(self, header):
        stream, tracking = tracked_stream(header, [(0.8, 0.1), (0.9, 0.1)])
        truncated = VideoStream(header=stream.header, frames=stream.frames[:1])
        with pytest.raises(FrameAlignmentError, match="tracked frame 1 missing from stream"):
            class_means(truncated, tracking.frames)
        with pytest.raises(FrameAlignmentError, match="tracked frame 1 missing from stream"):
            generate_report(tracking, truncated)
