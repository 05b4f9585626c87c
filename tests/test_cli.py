from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scopetrack
from scopetrack.cli import run
from scopetrack import io
from scopetrack.synth import generate, scenario_config
from scopetrack.tracker import track_video


def synth_files(tmp_path, scenario="occlusion", seed=5):
    gt, pred = generate(scenario_config(scenario, seed))
    gt_path = tmp_path / "gt.jsonl"
    pred_path = tmp_path / "pred.jsonl"
    io.write_ground_truth(gt, gt_path)
    io.write_stream(pred, pred_path)
    return gt_path, pred_path


class TestTrack:
    def test_writes_tracks_and_exits_zero(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path)
        out_path = tmp_path / "tracks.jsonl"
        code = run(["track", "--in", str(pred_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["algorithm"] == "query"
        assert summary["tracks"] == 3

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = run(["track", "--in", str(tmp_path / "none.jsonl"),
                    "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "none.jsonl" in capsys.readouterr().err

    def test_baseline_flag(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path)
        out_path = tmp_path / "tracks.jsonl"
        code = run(["track", "--in", str(pred_path), "--out", str(out_path),
                    "--baseline-iou"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["algorithm"] == "iou_baseline"

    @pytest.mark.parametrize("flags", [
        ["--iou-floor", "nan"],
        ["--baseline-iou", "--similarity-floor", "0.99"],
    ], ids=["iou_floor_without_baseline", "similarity_floor_with_baseline"])
    def test_unused_flag_is_usage_error(self, tmp_path, capsys, flags):
        _, pred_path = synth_files(tmp_path)
        out_path = tmp_path / "tracks.jsonl"
        code = run(["track", "--in", str(pred_path), "--out", str(out_path), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "--baseline-iou" in err and flags[-2] in err
        assert not out_path.exists()

    def test_baseline_ignores_config_similarity_floor(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path, "static")
        (tmp_path / "cfg.json").write_text('{"similarity_floor": 0.99}')
        plain, configured = tmp_path / "plain.jsonl", tmp_path / "configured.jsonl"
        assert run(["track", "--in", str(pred_path), "--out", str(plain),
                    "--baseline-iou"]) == 0
        assert run(["--config", str(tmp_path / "cfg.json"), "track", "--in", str(pred_path),
                    "--out", str(configured), "--baseline-iou"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[1])["config"]["similarity_floor"] is None
        assert configured.read_bytes() == plain.read_bytes()

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["track", "--in", str(pred_path), "--out", str(a)]) == 0
        assert run(["track", "--in", str(pred_path), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_eval_track_pipeline(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        tracks = tmp_path / "tracks.jsonl"
        assert run(["track", "--in", str(pred_path), "--out", str(tracks)]) == 0
        capsys.readouterr()
        code = run(["eval-track", "--pred", str(tracks), "--gt", str(gt_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["metrics"]["HOTA"] == 100.0
        assert result["metrics"]["MOTA"] == 100.0
        assert "config" in result

    def test_eval_track_missing_pred(self, tmp_path, capsys):
        gt_path, _ = synth_files(tmp_path)
        code = run(["eval-track", "--pred", str(tmp_path / "missing.jsonl"),
                    "--gt", str(gt_path)])
        assert code == 2
        assert "missing.jsonl" in capsys.readouterr().err

    def test_eval_det(self, tmp_path, capsys):
        from scopetrack.synth import SynthConfig
        gt, pred = generate(SynthConfig(n_objects=2, n_frames=4, with_masks=True,
                                        frame_height=32, frame_width=32, seed=9))
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        io.write_ground_truth(gt, gt_path)
        io.write_stream(pred, pred_path)
        code = run(["eval-det", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["metrics"]["Dice"] == 100.0
        assert result["metrics"]["F1"] == 100.0


    def test_eval_track_overflowing_box_warns_nothing(self, tmp_path):
        """A box whose area overflows scores as no match, without numpy warnings."""
        box = [-1.7e308, -1.7e308, 1.7e308, 1.7e308]
        header = {"version": 1, "n_queries": 1, "embed_dim": 2, "frame_height": 64,
                  "frame_width": 64, "classes": ["AD"]}
        slot = {"embedding": [1.0, 0.0], "box": box, "probs": [0.9]}
        obj = {"gt_track_id": 0, "box": box, "class": "AD"}
        pred_path, gt_path = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        pred_path.write_text(json.dumps(header) + "\n" + json.dumps(
            {"frame_index": 0, "slots": [slot]}) + "\n")
        gt_path.write_text(json.dumps(header) + "\n" + json.dumps(
            {"frame_index": 0, "objects": [obj]}) + "\n")
        tracks = tmp_path / "tracks.jsonl"
        assert run(["track", "--in", str(pred_path), "--out", str(tracks)]) == 0
        proc = subprocess.run([sys.executable, "-m", "scopetrack", "eval-track",
                               "--pred", str(tracks), "--gt", str(gt_path)],
                              env=_child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["metrics"]["HOTA"] == 0.0


class TestReportCli:
    def test_text_report(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path, scenario="static")
        tracks = tmp_path / "tracks.jsonl"
        run(["track", "--in", str(pred_path), "--out", str(tracks)])
        capsys.readouterr()
        code = run(["report", "--tracks", str(tracks), "--stream", str(pred_path),
                    "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("ID")
        assert len(out.strip().splitlines()) == 4  # header + 3 tracks

    def test_json_report_embeds_config(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path, scenario="static")
        tracks = tmp_path / "tracks.jsonl"
        run(["track", "--in", str(pred_path), "--out", str(tracks)])
        capsys.readouterr()
        code = run(["report", "--tracks", str(tracks), "--stream", str(pred_path),
                    "--format", "json", "--min-frames", "2"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["config"]["min_frames"] == 2
        assert len(obj["entries"]) == 3


class TestSynthCli:
    def test_writes_both_files(self, tmp_path, capsys):
        code = run(["synth", "--scenario", "swap", "--seed", "7",
                    "--out-gt", str(tmp_path / "g.jsonl"),
                    "--out-pred", str(tmp_path / "p.jsonl")])
        assert code == 0
        assert (tmp_path / "g.jsonl").exists()
        assert (tmp_path / "p.jsonl").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["seed"] == 7

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--scenario", "tornado", "--seed", "1",
                    "--out-gt", str(tmp_path / "g.jsonl"),
                    "--out-pred", str(tmp_path / "p.jsonl")])
        assert code == 1


class TestLossCheck:
    def test_per_frame_breakdowns(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        head = json.loads(lines[0])
        assert "weights" in head["config"]
        body = [json.loads(line) for line in lines[1:]]
        assert len(body) == 60
        assert all("total" in rec for rec in body)

    def test_custom_weights_file(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"w_cls": 1.0}))
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path),
                    "--weights", str(wpath)])
        assert code == 0
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert head["config"]["weights"]["w_cls"] == 1.0
        assert head["config"]["weights"]["w_l1"] == 5.0


class TestGlobalFlags:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_config_file_provides_defaults_flag_wins(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau": 0.7, "patience": 2}))
        out = tmp_path / "t.jsonl"
        code = run(["--config", str(cfg_path), "track", "--in", str(pred_path),
                    "--out", str(out), "--tau", "0.25"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["empty_threshold"] == 0.25  # flag beats file
        assert summary["config"]["death_patience"] == 2      # file beats default

    def test_selfcheck_passes(self, capsys):
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "PASS assignment-floats" in out
        assert "PASS assignment-large-integers" in out
        assert "PASS loss-mask-terms" in out
        assert "PASS loss-match-costs" in out


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path)
        code = run(["--config", str(tmp_path / "absent.json"), "track",
                    "--in", str(pred_path), "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_weight_keys(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"w_frobnicate": 3.0}))
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path),
                    "--weights", str(wpath)])
        assert code == 2
        assert "w_frobnicate" in capsys.readouterr().err

    def test_loss_check_missing_pred_mask(self, tmp_path, capsys):
        from scopetrack.synth import SynthConfig, generate
        from scopetrack.model import FramePrediction, QuerySlot, VideoStream
        gt, pred = generate(SynthConfig(n_objects=1, n_frames=2, with_masks=True,
                                        frame_height=16, frame_width=16, seed=8))
        stripped = VideoStream(header=pred.header, frames=tuple(
            FramePrediction(f.frame_index, tuple(
                QuerySlot(s.embedding, s.box, s.classes, None) for s in f.slots
            )) for f in pred.frames
        ))
        gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        io.write_ground_truth(gt, gt_path)
        io.write_stream(stripped, pred_path)
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 2
        assert "mask" in capsys.readouterr().err

    def test_loss_check_late_frame_error_prints_nothing(self, tmp_path, capsys):
        """Frames 0-1 are fine; frame 2 has two objects for one query slot."""
        header = {"version": 1, "n_queries": 1, "embed_dim": 2, "frame_height": 64,
                  "frame_width": 64, "classes": ["AD"]}
        slot = {"embedding": [1.0, 0.0], "box": [0.0, 0.0, 10.0, 10.0], "probs": [0.9]}
        objects = [{"gt_track_id": i, "box": [0.0, 0.0, 10.0, 10.0], "class": "AD"}
                   for i in range(2)]
        pred_path, gt_path = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        pred_path.write_text("\n".join(json.dumps(obj) for obj in [header] + [
            {"frame_index": t, "slots": [slot]} for t in range(3)]) + "\n")
        gt_path.write_text("\n".join(json.dumps(obj) for obj in [header] + [
            {"frame_index": t, "objects": objects[:1 + (t == 2)]} for t in range(3)]) + "\n")
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "2 ground-truth objects but only 1 query slots" in err

    def test_misaligned_frames_exit_two(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        gt = io.read_ground_truth(gt_path)
        from scopetrack.model import GroundTruthStream
        shorter = GroundTruthStream(header=gt.header, frames=gt.frames[:-1])
        io.write_ground_truth(shorter, gt_path)
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "align" in err
        assert f"has {len(gt.frames)} frames" in err

    def test_late_misalignment_names_position(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        gt = io.read_ground_truth(gt_path)
        from scopetrack.model import GroundTruthFrame, GroundTruthStream
        first = gt.frames[6].frame_index
        late = GroundTruthStream(header=gt.header, frames=gt.frames[:6] + tuple(
            GroundTruthFrame(f.frame_index + 1, f.objects) for f in gt.frames[6:]
        ))
        io.write_ground_truth(late, gt_path)
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == 2
        assert (f"at position 6, prediction has frame {first} and ground-truth has "
                f"frame {first + 1}") in capsys.readouterr().err


class TestNumbersBeyondFloatRange:
    """An integer literal too large for a float is a data error naming its key."""

    def test_weight(self, tmp_path, capsys):
        gt_path, pred_path = synth_files(tmp_path, scenario="static")
        (tmp_path / "w.json").write_text('{"match_w_cls": 1' + "0" * 400 + "}")
        code = run(["loss-check", "--pred", str(pred_path), "--gt", str(gt_path),
                    "--weights", str(tmp_path / "w.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "match_w_cls" in err

    def test_config_similarity_floor(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path, scenario="static")
        (tmp_path / "c.json").write_text('{"similarity_floor": 1' + "0" * 400 + "}")
        code = run(["--config", str(tmp_path / "c.json"), "track", "--in", str(pred_path),
                    "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "similarity_floor" in err
        assert not (tmp_path / "t.jsonl").exists()


class TestFirstErrorInFileOrder:
    def test_bad_record_before_invalid_json(self, tmp_path, capsys):
        """A bad record on line 5 is reported before invalid JSON on line 10."""
        _, pred_path = synth_files(tmp_path, scenario="static")
        lines = pred_path.read_text().splitlines()
        frame = json.loads(lines[4])
        frame["slots"][0]["box"] = [0.0, 0.0, 1.0]
        lines[4] = json.dumps(frame)
        lines[9] = "{not json"
        pred_path.write_text("\n".join(lines) + "\n")
        code = run(["track", "--in", str(pred_path), "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert f"{pred_path}:5:" in capsys.readouterr().err

    def test_invalid_json_on_line_two_has_one_prefix(self, tmp_path, capsys):
        _, pred_path = synth_files(tmp_path, scenario="static")
        lines = pred_path.read_text().splitlines()
        lines[1] = "{not json"
        pred_path.write_text("\n".join(lines) + "\n")
        code = run(["track", "--in", str(pred_path), "--out", str(tmp_path / "t.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count(f"{pred_path}:") == 1 and f"{pred_path}:2: invalid JSON" in err


def _rewrite_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def _stream_edit(lineno, edit):
    """Rewrite one line of the prediction stream, then run `track` on it."""
    def case(tmp_path, gt_path, pred_path):
        _rewrite_line(pred_path, lineno, edit)
        return ["track", "--in", str(pred_path), "--out", "t.jsonl"], f"{pred_path}:{lineno}:"
    return case


def _raw_stream(data):
    def case(tmp_path, gt_path, pred_path):
        pred_path.write_bytes(data)
        return ["track", "--in", str(pred_path), "--out", "t.jsonl"], str(pred_path)
    return case


def _first_slot(key, value):
    return _stream_edit(2, lambda frame: frame["slots"][0].__setitem__(key, value))


def _weights_file(text):
    def case(tmp_path, gt_path, pred_path):
        (tmp_path / "w.json").write_text(text)
        return ["loss-check", "--pred", str(pred_path), "--gt", str(gt_path),
                "--weights", "w.json"], None
    return case


def _tracks_for(tmp_path, pred_path):
    tracks = tmp_path / "tracks.jsonl"
    stream = io.read_stream(pred_path)
    io.write_tracking(track_video(stream), stream, tracks)
    return tracks


def _argv(command, tmp_path, gt_path, pred_path):
    """A run of `command` on the clean inputs."""
    if command == "track":
        return ["track", "--in", str(pred_path), "--out", "t.jsonl"]
    if command == "report":
        return ["report", "--tracks", str(_tracks_for(tmp_path, pred_path)),
                "--stream", str(pred_path)]
    if command == "eval-det":
        return ["eval-det", "--pred", str(pred_path), "--gt", str(gt_path)]
    if command == "eval-track":
        return ["eval-track", "--pred", str(_tracks_for(tmp_path, pred_path)),
                "--gt", str(gt_path)]
    return ["synth", "--scenario", "static", "--out-gt", "g.jsonl", "--out-pred", "p.jsonl"]


def _config_file(text, key=None, command="track"):
    """Run `command` with a --config file holding `text`."""
    def case(tmp_path, gt_path, pred_path):
        (tmp_path / "cfg.json").write_text(text)
        return ["--config", "cfg.json"] + _argv(command, tmp_path, gt_path, pred_path), key
    return case


def _flags(command, key, *flags):
    """Run `command` on the clean inputs with extra flags; the error names `key`."""
    def case(tmp_path, gt_path, pred_path):
        return _argv(command, tmp_path, gt_path, pred_path) + list(flags), key
    return case


def _loss_check_header_mismatch(tmp_path, gt_path, pred_path):
    _rewrite_line(gt_path, 1, lambda h: h.__setitem__("frame_width", h["frame_width"] + 1))
    return (["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)],
            "headers disagree")


def _extra_prob(command):
    """Give the first slot one class probability more than the header has classes."""
    def case(tmp_path, gt_path, pred_path):
        tracks = _tracks_for(tmp_path, pred_path)
        n_classes = len(json.loads(pred_path.read_text().splitlines()[0])["classes"])
        _rewrite_line(pred_path, 2, lambda frame: frame["slots"][0].__setitem__(
            "probs", [0.1] * (n_classes + 1)))
        argv = {
            "eval-det": ["eval-det", "--pred", str(pred_path), "--gt", str(gt_path)],
            "report": ["report", "--tracks", str(tracks), "--stream", str(pred_path)],
            "loss-check": ["loss-check", "--pred", str(pred_path), "--gt", str(gt_path)],
        }[command]
        return argv, f"{pred_path}: invalid stream"
    return case


def _gt_edit(edit):
    """Rewrite the first ground-truth frame, then run `eval-track` against it."""
    def case(tmp_path, gt_path, pred_path):
        tracks = _tracks_for(tmp_path, pred_path)
        _rewrite_line(gt_path, 2, edit)
        return (["eval-track", "--pred", str(tracks), "--gt", str(gt_path)],
                f"{gt_path}: invalid stream")
    return case


def _duplicate_gt_id(frame):
    frame["objects"][1]["gt_track_id"] = frame["objects"][0]["gt_track_id"]


_DEEP = "[" * 100_000 + "]" * 100_000


def _deeply_nested(which):
    """Replace line 2 of one input file with 100,000 nested arrays, then read it."""
    def case(tmp_path, gt_path, pred_path):
        tracks = _tracks_for(tmp_path, pred_path)
        path = {"pred": pred_path, "gt": gt_path, "tracks": tracks}[which]
        lines = path.read_text().splitlines()
        lines[1] = _DEEP
        path.write_text("\n".join(lines) + "\n")
        if which == "tracks":
            argv = ["eval-track", "--pred", str(tracks), "--gt", str(gt_path)]
        else:
            argv = ["eval-det", "--pred", str(pred_path), "--gt", str(gt_path)]
        return argv, f"{path}:2: invalid JSON: nested too deeply"
    return case


def _gt_line_edit(edit):
    """Rewrite the first ground-truth frame, then run `eval-det` against it."""
    def case(tmp_path, gt_path, pred_path):
        _rewrite_line(gt_path, 2, edit)
        return (["eval-det", "--pred", str(pred_path), "--gt", str(gt_path)],
                f"{gt_path}:2:")
    return case


def _tracks_edit(lineno, edit, command):
    """Rewrite one line of a tracks file, then run `command` on it."""
    def case(tmp_path, gt_path, pred_path):
        tracks = _tracks_for(tmp_path, pred_path)
        _rewrite_line(tracks, lineno, edit)
        argv = {
            "eval-track": ["eval-track", "--pred", str(tracks), "--gt", str(gt_path)],
            "report": ["report", "--tracks", str(tracks), "--stream", str(pred_path)],
        }[command]
        return argv, f"{tracks}:{lineno}:"
    return case


def _gt_class_integer(tmp_path, gt_path, pred_path):
    """Label the first object 1 under a header that lists the class "1"."""
    tracks = _tracks_for(tmp_path, pred_path)
    _rewrite_line(gt_path, 1, lambda h: h["classes"].append("1"))
    _rewrite_line(gt_path, 2, lambda frame: frame["objects"][0].__setitem__("class", 1))
    return ["eval-track", "--pred", str(tracks), "--gt", str(gt_path)], f"{gt_path}:2:"


def _first_assignment(key, value):
    return lambda frame: frame["assignments"][0].__setitem__(key, value)


def _repeat_track_id(frame):
    frame["assignments"][1]["track_id"] = frame["assignments"][0]["track_id"]


_BAD_INPUTS = {
    "embedding_not_numbers": _first_slot("embedding", ["x"] * 32),
    "three_element_box": _first_slot("box", [0.0, 0.0, 1.0]),
    "box_corners_out_of_order": _first_slot("box", [10.0, 10.0, 0.0, 0.0]),
    "frame_index_not_int": _stream_edit(2, lambda f: f.__setitem__("frame_index", "abc")),
    "n_queries_not_int": _stream_edit(1, lambda h: h.__setitem__("n_queries", "abc")),
    "weights_not_json": _weights_file("{not json"),
    "weight_not_number": _weights_file('{"w_cls": "a"}'),
    "config_tau_not_number": _config_file('{"tau": "abc"}'),
    "config_floor_not_number": _config_file('{"similarity_floor": "abc"}'),
    "stream_not_utf8": _raw_stream(b"\xff\xfe{}\n"),
    "eval_det_extra_prob": _extra_prob("eval-det"),
    "report_extra_prob": _extra_prob("report"),
    "loss_check_extra_prob": _extra_prob("loss-check"),
    "gt_duplicate_track_id": _gt_edit(_duplicate_gt_id),
    "gt_unknown_class": _gt_edit(lambda frame: frame["objects"][0].__setitem__(
        "class", "carcinoid")),
    "config_carry_forward_string": _config_file('{"carry_forward": "false"}', "carry_forward"),
    "config_patience_not_integral": _config_file('{"patience": 2.9}', "patience"),
    "config_min_frames_not_integral": _config_file('{"min_frames": 2.9}', "min_frames",
                                                   "report"),
    "config_seed_not_integral": _config_file('{"seed": 2.9}', "seed", "synth"),
    "config_seed_negative": _config_file('{"seed": -1}', "seed", "synth"),
    "config_min_frames_boolean": _config_file('{"min_frames": true}', "min_frames",
                                              "report"),
    "loss_check_header_mismatch": _loss_check_header_mismatch,
    "stream_deeply_nested": _deeply_nested("pred"),
    "gt_deeply_nested": _deeply_nested("gt"),
    "tracks_deeply_nested": _deeply_nested("tracks"),
    "config_deeply_nested": _config_file(_DEEP, "nested too deeply"),
    "weights_deeply_nested": _weights_file(_DEEP),
    "frame_index_fractional": _stream_edit(2, lambda f: f.__setitem__("frame_index", 0.7)),
    "n_queries_fractional": _stream_edit(1, lambda h: h.__setitem__("n_queries", 8.9)),
    "gt_track_id_fractional": _gt_line_edit(lambda frame: frame["objects"][0].__setitem__(
        "gt_track_id", 0.5)),
    "tracks_slot_boolean": _tracks_edit(1, _first_assignment("slot", True), "report"),
    "tracks_track_id_float": _tracks_edit(1, _first_assignment("track_id", 1e300),
                                          "eval-track"),
    "tracks_frame_index_string": _tracks_edit(1, lambda f: f.__setitem__("frame_index", "0"),
                                              "eval-track"),
    "tracks_repeated_track_id": _tracks_edit(1, _repeat_track_id, "eval-track"),
    "eval_track_alpha_above_one": _flags("eval-track", "alpha", "--alpha", "1.5"),
    "eval_track_alpha_nan": _flags("eval-track", "alpha", "--alpha", "nan"),
    "eval_det_tau_above_one": _flags("eval-det", "tau", "--tau", "1.5"),
    "eval_det_tau_zero": _flags("eval-det", "tau", "--tau", "0"),
    "eval_det_tau_nan": _flags("eval-det", "tau", "--tau", "nan"),
    "iou_floor_nan": _flags("track", "iou_floor", "--baseline-iou", "--iou-floor", "nan"),
    "similarity_floor_nan": _flags("track", "similarity_floor", "--similarity-floor", "nan"),
    "box_strings": _first_slot("box", ["0", "0", "10", "10"]),
    "prob_string": _first_slot("probs", ["0.9", 0.0]),
    "embedding_boolean": _first_slot("embedding", [True] + [0.0] * 31),
    "config_tau_string": _config_file('{"tau": "0.3"}', "tau"),
    "config_alpha_boolean": _config_file('{"alpha": true}', "alpha", "eval-track"),
    "weight_boolean": _weights_file('{"w_cls": true}'),
    "weight_nan": _weights_file('{"w_cls": NaN}'),
    "video_id_list": _stream_edit(1, lambda h: h.__setitem__("video_id", ["x"])),
    "classes_string": _stream_edit(1, lambda h: h.__setitem__("classes", "AD")),
    "gt_class_integer": _gt_class_integer,
    "config_patience_zero": _config_file('{"patience": 0}', "error: patience"),
    "config_patience_boolean": _config_file('{"patience": true}', "error: patience"),
    "patience_flag_zero": _flags("track", "error: patience", "--patience", "0"),
}


def _child_env(**extra) -> dict:
    """os.environ plus extra, with this checkout's package first on PYTHONPATH."""
    src = str(Path(scopetrack.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_malformed_input_is_data_error(tmp_path, name):
    """Decode failures at the parse boundary exit 2 without a traceback."""
    gt_path, pred_path = synth_files(tmp_path, scenario="static")
    argv, location = _BAD_INPUTS[name](tmp_path, gt_path, pred_path)
    proc = subprocess.run([sys.executable, "-m", "scopetrack"] + argv, cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    if location is not None:
        assert location in proc.stderr


_ADDRESS_SPACE_CAP = 4 << 30


def _capped_run(argv, cwd):
    """Run the CLI in a child process whose address space is capped at 4 GiB.

    Under the cap a huge allocation fails at once, whatever the host's
    overcommit setting; uncapped it might not.
    """
    resource = pytest.importorskip("resource")

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, hard))

    return subprocess.run([sys.executable, "-m", "scopetrack"] + argv, cwd=cwd,
                          env=_child_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap, capture_output=True, text=True)


def _one_frame_files(tmp_path, size, mask=None):
    """A one-slot stream and its ground truth, one frame, under a size x size header."""
    header = {"version": 1, "n_queries": 1, "embed_dim": 2, "frame_height": size,
              "frame_width": size, "classes": ["AD"]}
    box = [0.0, 0.0, 10.0, 10.0]
    slot = {"embedding": [1.0, 0.0], "box": box, "probs": [0.9], "mask": mask}
    obj = {"gt_track_id": 0, "box": box, "mask": mask, "class": "AD"}
    pred_path, gt_path = tmp_path / f"pred{size}.jsonl", tmp_path / f"gt{size}.jsonl"
    for path, frame in ((pred_path, {"frame_index": 0, "slots": [slot]}),
                        (gt_path, {"frame_index": 0, "objects": [obj]})):
        path.write_text(json.dumps(header) + "\n" + json.dumps(frame) + "\n")
    return ["--pred", str(pred_path), "--gt", str(gt_path)]


class TestHugeFrames:
    def test_eval_det_cost_does_not_follow_frame_size(self, tmp_path):
        huge = _capped_run(["eval-det"] + _one_frame_files(tmp_path, 1_000_000), tmp_path)
        small = _capped_run(["eval-det"] + _one_frame_files(tmp_path, 256), tmp_path)
        assert huge.returncode == 0, huge.stderr
        assert small.returncode == 0, small.stderr
        assert huge.stdout == small.stdout

    def test_out_of_memory_is_data_error(self, tmp_path):
        mask = {"h": 1_000_000, "w": 1_000_000, "runs": [999_999_999_900, 100]}
        proc = _capped_run(["loss-check"] + _one_frame_files(tmp_path, 1_000_000, mask),
                           tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory")

    @pytest.mark.parametrize("size", [3 * 10**9, 10**10], ids=["int64_pixels", "wider"])
    def test_mask_beyond_address_space_is_out_of_memory(self, tmp_path, size):
        # 9e18 pixels fit an int64 but not as float64 bytes; 1e20 fit neither
        mask = {"h": size, "w": size, "runs": [size * size - 100, 100]}
        proc = _capped_run(["loss-check"] + _one_frame_files(tmp_path, size, mask), tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory")
