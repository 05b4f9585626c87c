from __future__ import annotations

import gc
import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopetrack import io
from scopetrack.errors import DataError, DimensionError, FrameAlignmentError, StreamFormatError
from scopetrack.metrics import TrackedSequence
from scopetrack.model import BBox, VideoStream
from scopetrack.synth import SynthConfig, generate, scenario_config
from scopetrack.tracker import track_video


@pytest.fixture
def bundle():
    cfg = scenario_config("occlusion", 13)
    return generate(cfg)


class TestStreamRoundTrip:
    def test_prediction_stream(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "pred.jsonl"
        io.write_stream(pred, path)
        again = io.read_stream(path)
        assert again.header == pred.header
        assert again.frames == pred.frames

    def test_ground_truth_stream(self, tmp_path, bundle):
        gt, _ = bundle
        path = tmp_path / "gt.jsonl"
        io.write_ground_truth(gt, path)
        again = io.read_ground_truth(path)
        assert again.header == gt.header
        assert again.frames == gt.frames

    def test_serialization_is_deterministic(self, tmp_path, bundle):
        _, pred = bundle
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        io.write_stream(pred, a)
        io.write_stream(pred, b)
        assert a.read_bytes() == b.read_bytes()

    def test_masked_stream_round_trip(self, tmp_path):
        from scopetrack.synth import SynthConfig
        gt, pred = generate(SynthConfig(n_objects=1, n_frames=2, with_masks=True,
                                        frame_height=16, frame_width=16, seed=3))
        path = tmp_path / "masked.jsonl"
        io.write_stream(pred, path)
        assert io.read_stream(path).frames == pred.frames


class TestTracksRoundTrip:
    def test_tracking_output(self, tmp_path, bundle):
        _, pred = bundle
        output = track_video(pred)
        path = tmp_path / "tracks.jsonl"
        io.write_tracking(output, pred, path)
        again, sequence = io.read_tracking(path)
        assert again.frames == output.frames
        assert again.tracks == output.tracks
        assert again.config == output.config
        # the embedded slot geometry rebuilds the evaluation sequence
        assert sequence == TrackedSequence.from_tracking(output, pred)

    def test_frame_missing_from_stream(self, tmp_path, bundle):
        _, pred = bundle
        output = track_video(pred)
        missing = pred.frames[3].frame_index
        shorter = VideoStream(header=pred.header,
                              frames=pred.frames[:3] + pred.frames[4:])
        path = tmp_path / "tracks.jsonl"
        with pytest.raises(FrameAlignmentError, match=f"frame {missing} missing"):
            io.write_tracking(output, shorter, path)
        assert not path.exists()


class TestMalformedFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamFormatError):
            io.read_stream(tmp_path / "nope.jsonl")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(StreamFormatError):
            io.read_stream(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "frames-only.jsonl"
        path.write_text(json.dumps({"frame_index": 0, "slots": []}) + "\n")
        with pytest.raises(StreamFormatError):
            io.read_stream(path)

    def test_malformed_frame(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "broken.jsonl"
        io.write_stream(pred, path)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[1])
        del bad["slots"][0]["embedding"]
        lines[1] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError):
            io.read_stream(path)

    def test_tracks_without_table(self, tmp_path):
        path = tmp_path / "trackless.jsonl"
        path.write_text(json.dumps({"frame_index": 0, "assignments": []}) + "\n")
        with pytest.raises(StreamFormatError):
            io.read_tracking(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[0]["assignments"][1].__setitem__(
            "track_id", lines[0]["assignments"][0]["track_id"]), "repeats a track_id"),
        (lambda lines: lines[0]["assignments"][1].__setitem__(
            "slot", lines[0]["assignments"][0]["slot"]), "repeats a slot"),
        (lambda lines: lines.insert(0, lines.pop(1)), "not strictly increasing"),
        (lambda lines: lines[-1].__setitem__("track_table", [
            dict(lines[-1]["track_table"][0], frame_count=999)]), "track table disagrees"),
        (lambda lines: lines[-1]["track_table"][0].__setitem__("last_frame", 0),
         "track table disagrees"),
        (lambda lines: lines[-1].__setitem__("config", []), "malformed track table"),
        (lambda lines: (lines[-1].__setitem__("config", []),
                        lines[-1]["track_table"][0].__setitem__("last_frame", 0)),
         "track table disagrees"),
    ], ids=["repeated_track_id", "repeated_slot", "frames_out_of_order", "table_cut",
            "table_row_wrong", "config_not_object", "table_row_wrong_before_config"])
    def test_tracks_checked_on_read(self, tmp_path, bundle, edit, message):
        _, pred = bundle
        path = tmp_path / "tracks.jsonl"
        io.write_tracking(track_video(pred), pred, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        edit(lines)
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(StreamFormatError, match=message):
            io.read_tracking(path)

    def test_stream_invariants_checked_on_read(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "pred.jsonl"
        io.write_stream(pred, path)
        lines = path.read_text().splitlines()
        for lineno in range(2, 7):  # five frames with one slot too few
            frame = json.loads(lines[lineno - 1])
            frame["slots"].pop()
            lines[lineno - 1] = json.dumps(frame)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError) as info:
            io.read_stream(path)
        assert str(info.value).startswith(f"{path}: invalid stream")
        assert str(info.value).count("slots, header declares") == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(StreamFormatError):
            io.read_stream(path)


class TestHeaderRules:
    """A header that breaks a size or class rule fails on line 1, in both
    readers that read a header, with StreamHeader's own message."""

    @pytest.mark.parametrize("key, value, message", [
        ("n_queries", 0, "n_queries must be positive, got 0"),
        ("embed_dim", -2, "embed_dim must be positive, got -2"),
        ("frame_height", 0, "frame size must be positive, got 0x64"),
        ("frame_width", 0, "frame size must be positive, got 48x0"),
        ("classes", [], "class set is empty"),
    ])
    @pytest.mark.parametrize("kind", ["stream", "ground_truth"])
    def test_rule_broken_on_line_one(self, tmp_path, kind, key, value, message):
        gt, pred = generate(SynthConfig(n_objects=1, n_frames=2, frame_height=48,
                                        frame_width=64, seed=3))
        path = tmp_path / f"{kind}.jsonl"
        write, read = ((io.write_stream, io.read_stream) if kind == "stream"
                       else (io.write_ground_truth, io.read_ground_truth))
        write(pred if kind == "stream" else gt, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header[key] = value
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value) == f"{path}:1: {message}"


class TestFrameOrder:
    """Frame indices are >= 0 and strictly increasing in every file kind."""

    def test_negative_ground_truth_frame_rejected(self, tmp_path, bundle):
        gt, _ = bundle
        path = tmp_path / "gt.jsonl"
        io.write_ground_truth(gt, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[1]["frame_index"] = -1
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(StreamFormatError, match="frame_index must be >= 0, got -1"):
            io.read_ground_truth(path)

    def test_negative_tracks_frame_rejected(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "tracks.jsonl"
        io.write_tracking(track_video(pred), pred, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[0]["frame_index"] = -1
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(StreamFormatError, match=f"{path}:1: frame_index must be >= 0"):
            io.read_tracking(path)


class TestNumbers:
    def test_non_finite_mean_probs_rejected(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "tracks.jsonl"
        io.write_tracking(track_video(pred), pred, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[-1]["track_table"][0]["mean_probs"][0] = float("nan")
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(DimensionError, match="mean_probs"):
            io.read_tracking(path)

    def test_numpy_box_is_written_as_float(self, tmp_path, bundle):
        _, pred = bundle
        frame = pred.frames[0]
        slot = replace(frame.slots[0], box=BBox(np.float32(0.5), 0.0, 2.0, 2.0))
        stream = replace(pred, frames=(replace(frame, slots=(slot,) + frame.slots[1:]),))
        path = tmp_path / "pred.jsonl"
        io.write_stream(stream, path)
        assert io.read_stream(path) == stream

    def test_numpy_integer_fields_are_written_as_ints(self, tmp_path, bundle):
        gt, pred = bundle
        header = replace(pred.header, n_queries=np.int64(pred.header.n_queries),
                         frame_width=np.int32(pred.header.frame_width))
        frame = replace(pred.frames[0], frame_index=np.int64(0))
        stream = replace(pred, header=header, frames=(frame,) + pred.frames[1:])
        path = tmp_path / "pred.jsonl"
        io.write_stream(stream, path)
        assert io.read_stream(path) == pred
        gt_frame = gt.frames[0]
        objects = tuple(replace(o, gt_track_id=np.int64(o.gt_track_id))
                        for o in gt_frame.objects)
        truth = replace(gt, frames=(replace(gt_frame, frame_index=np.int64(0),
                                            objects=objects),) + gt.frames[1:])
        path = tmp_path / "gt.jsonl"
        io.write_ground_truth(truth, path)
        assert io.read_ground_truth(path) == gt


# Every line boundary str.splitlines() knows, and line contents: blank, or one JSON value.
_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
_CONTENTS = ["", " ", "\t", "1", '"\u00e9"', '"\\u2028"', "[2, 3.5]", '{"a": null}']


class TestLineDecoder:
    """io._load reads one physical line at a time, yet numbers lines as
    str.splitlines() does over the whole text."""

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(st.tuples(st.sampled_from(_CONTENTS), st.sampled_from(_SEPARATORS)),
                           max_size=20),
           last=st.sampled_from(_CONTENTS))
    def test_lines_are_those_of_splitlines(self, pieces, last):
        text = "".join(content + sep for content, sep in pieces) + last
        want = [(lineno, json.loads(line))
                for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lines.jsonl"
            path.write_bytes(text.encode())
            if want:
                assert list(io._load(path)) == want
            else:
                with pytest.raises(StreamFormatError, match="empty file"):
                    list(io._load(path))

    def test_invalid_utf8_on_a_late_line_names_it(self, tmp_path, bundle):
        _, pred = bundle
        path = tmp_path / "pred.jsonl"
        io.write_stream(pred, path)
        lines = path.read_bytes().splitlines(keepends=True)
        late = len(lines) - 2
        lines[late] = b'"\xff"\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(StreamFormatError,
                           match=f"^{re.escape(str(path))}:{late + 1}: not UTF-8"):
            io.read_stream(path)

    def test_invalid_utf8_after_other_line_boundaries(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'1\n2\r3\x0b\xff\n')
        with pytest.raises(StreamFormatError, match=f"^{re.escape(str(path))}:4: not UTF-8"):
            list(io._load(path))


@pytest.fixture(scope="module")
def long_files(tmp_path_factory):
    """A 400-frame stream with masks, its ground truth and its tracks file."""
    gt, pred = generate(SynthConfig(n_objects=6, n_frames=400, n_queries=8, embed_dim=32,
                                    frame_height=64, frame_width=64, with_masks=True,
                                    seed=2))
    d = tmp_path_factory.mktemp("long")
    io.write_stream(pred, d / "pred.jsonl")
    io.write_ground_truth(gt, d / "gt.jsonl")
    io.write_tracking(track_video(pred), pred, d / "tracks.jsonl")
    return d


@pytest.mark.parametrize("reader, name", [
    (io.read_stream, "pred.jsonl"),
    (io.read_ground_truth, "gt.jsonl"),
    (io.read_tracking, "tracks.jsonl"),
], ids=["read_stream", "read_ground_truth", "read_tracking"])
def test_reader_holds_one_line_at_a_time(long_files, reader, name):
    """Beyond the objects it returns, a reader's traced peak stays under 1 MiB:
    it never holds the file text or all the decoded lines at once."""
    gc.collect()
    tracemalloc.start()
    try:
        result = reader(long_files / name)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result
    assert peak - retained < 1 << 20, (peak, retained)
