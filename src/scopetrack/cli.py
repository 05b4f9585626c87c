"""Single command-line entry point wiring all modules together.

Exit codes: 0 success, 1 usage error, 2 data/validation error. Results go
to stdout, diagnostics to stderr. Option precedence is flag > --config
file > built-in default, and every JSON result embeds the effective
configuration so runs are self-describing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial

from . import io, losses, metrics, report as report_mod, synth, tracker
from .errors import DataError
from .model import require_int, require_range
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# The ranges of the threshold keys, as checkers for _pick.
_TAU = partial(require_range, low=0.0, high=1.0, open_low=True, open_high=True)
_ALPHA = partial(require_range, low=0.0, high=1.0, open_low=True)
_IOU_FLOOR = partial(require_range, low=0.0, high=1.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="scopetrack", description=__doc__)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("track", help="associate query slots across frames")
    p.add_argument("--in", dest="stream", required=True)
    p.add_argument("--out", dest="out", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--no-carry-forward", action="store_true")
    p.add_argument("--similarity-floor", type=float, default=None)
    p.add_argument("--baseline-iou", action="store_true",
                   help="use the IoU-overlap baseline instead of query matching")
    p.add_argument("--iou-floor", type=float, default=None)

    p = sub.add_parser("eval-det", help="detection/segmentation/classification metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--tau", type=float, default=None)

    p = sub.add_parser("eval-track", help="HOTA/MOTA/IDF1 tracking metrics")
    p.add_argument("--pred", required=True, help="tracks file written by `track`")
    p.add_argument("--gt", required=True)
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("report", help="per-video exam report")
    p.add_argument("--tracks", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--min-frames", type=int, default=None)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, choices=synth.SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-pred", required=True)

    p = sub.add_parser("loss-check", help="per-frame loss breakdown")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--weights", type=str, default=None)

    sub.add_parser("selfcheck", help="run the embedded oracle suites")
    return parser


def _pick(flag, file_cfg: dict, key: str, default, check=None):
    """flag > config file > default; check(value, key) vets the picked value."""
    value = flag if flag is not None else file_cfg.get(key, default)
    return value if check is None else check(value, key)


def _patience(value, key: str) -> int:
    if require_int(value, key) < 1:
        raise DataError(f"{key} must be >= 1, got {value}")
    return value


def _tracker_config(args, file_cfg: dict) -> tracker.TrackerConfig:
    # the IoU baseline ignores a config file's similarity_floor, as query
    # matching ignores its iou_floor, so the run's record holds null
    floor = None if args.baseline_iou else _pick(args.similarity_floor, file_cfg,
                                                 "similarity_floor", None)
    return tracker.TrackerConfig(
        empty_threshold=_pick(args.tau, file_cfg, "tau", 0.5, _TAU),
        death_patience=_pick(args.patience, file_cfg, "patience", 5, _patience),
        carry_forward=_pick(False if args.no_carry_forward else None, file_cfg,
                            "carry_forward", True),
        similarity_floor=floor,
    )


def _weights(path: str | None, file_cfg: dict) -> losses.LossWeights:
    obj = file_cfg.get("weights", {}) if path is None else io.load_json_object(path)
    if not isinstance(obj, dict):
        raise DataError("weights must be a JSON object")
    unknown = set(obj) - set(asdict(losses.LossWeights()))
    if unknown:
        raise DataError(f"unknown weight keys: {sorted(unknown)}")
    return losses.LossWeights(**obj)


def _pct(value: float) -> float:
    """Benchmark-table formatting: percent with one decimal."""
    return round(100.0 * value, 1)


def _cmd_track(args, file_cfg: dict) -> int:
    cfg = _tracker_config(args, file_cfg)
    stream = io.read_stream(args.stream)
    if args.baseline_iou:
        floor = _pick(args.iou_floor, file_cfg, "iou_floor", 0.1, _IOU_FLOOR)
        output = tracker.iou_baseline_track(stream, iou_floor=floor, cfg=cfg)
    else:
        output = tracker.track_video(stream, cfg)
    io.write_tracking(output, stream, args.out)
    print(json.dumps({
        "written": str(args.out),
        "frames": len(output.frames),
        "tracks": len(output.tracks),
        "config": output.config,
    }))
    return EXIT_OK


def _cmd_eval_det(args, file_cfg: dict) -> int:
    tau = _pick(args.tau, file_cfg, "tau", 0.5, _TAU)
    preds = io.read_stream(args.pred)
    gts = io.read_ground_truth(args.gt)
    det = metrics.eval_segmentation(preds, gts, tau=tau)
    f1 = metrics.eval_classification_f1(preds, gts, tau=tau)
    print(json.dumps({
        "metrics": {
            "Dice": _pct(det.dice), "IoU": _pct(det.iou),
            "Pre.": _pct(det.precision), "Rec.": _pct(det.recall),
            "F1": _pct(f1),
        },
        "counts": {"tp": det.tp, "fp": det.fp, "fn": det.fn},
        "config": {"tau": tau, "match_iou": metrics.MATCH_IOU},
    }))
    return EXIT_OK


def _cmd_eval_track(args, file_cfg: dict) -> int:
    alpha = _pick(args.alpha, file_cfg, "alpha", 0.5, _ALPHA)
    tracking, pred_seq = io.read_tracking(args.pred)
    gts = io.read_ground_truth(args.gt)
    gt_seq = metrics.TrackedSequence.from_ground_truth(gts)
    result = metrics.evaluate_tracking(gt_seq, pred_seq, alpha=alpha)
    print(json.dumps({
        "metrics": {
            "DetA": _pct(result.deta), "AssA": _pct(result.assa),
            "HOTA": _pct(result.hota), "MOTA": _pct(result.mota),
            "IDF1": _pct(result.idf1),
        },
        "config": {"alpha": alpha, "tracker": tracking.config},
    }))
    return EXIT_OK


def _cmd_report(args, file_cfg: dict) -> int:
    fmt = _pick(args.format, file_cfg, "format", "text")
    min_frames = _pick(args.min_frames, file_cfg, "min_frames", 1, require_int)
    tracking = io.read_tracking(args.tracks)[0]
    stream = io.read_stream(args.stream)
    exam = report_mod.generate_report(tracking, stream, min_frames=min_frames)
    sys.stdout.buffer.write(report_mod.render_report(exam, fmt))
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_synth(args, file_cfg: dict) -> int:
    seed = _pick(args.seed, file_cfg, "seed", 0, require_int)
    cfg = synth.scenario_config(args.scenario, seed)
    gt, pred = synth.generate(cfg)
    io.write_ground_truth(gt, args.out_gt)
    io.write_stream(pred, args.out_pred)
    print(json.dumps({
        "scenario": args.scenario,
        "out_gt": str(args.out_gt),
        "out_pred": str(args.out_pred),
        "config": cfg.as_dict(),
    }))
    return EXIT_OK


def _cmd_loss_check(args, file_cfg: dict) -> int:
    weights = _weights(args.weights, file_cfg)
    preds = io.read_stream(args.pred)
    gts = io.read_ground_truth(args.gt)
    metrics.check_streams_aligned(preds, gts)
    lines = [json.dumps({"config": {"weights": asdict(weights)}})]
    for frame, gt_frame in zip(preds.frames, gts.frames):
        breakdown = losses.total_loss(frame, gt_frame, weights, preds.header)
        lines.append(json.dumps({"frame_index": frame.frame_index, **vars(breakdown)}))
    print("\n".join(lines))  # only once every frame checks out
    return EXIT_OK


def _cmd_selfcheck(args, file_cfg: dict) -> int:
    ok = True
    for name, passed, detail in run_selfcheck():
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_DATA


_COMMANDS = {
    "track": _cmd_track,
    "eval-det": _cmd_eval_det,
    "eval-track": _cmd_eval_track,
    "report": _cmd_report,
    "synth": _cmd_synth,
    "loss-check": _cmd_loss_check,
    "selfcheck": _cmd_selfcheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand")
        if args.command == "track" and args.iou_floor is not None and not args.baseline_iou:
            raise _UsageError("--iou-floor is only used with --baseline-iou")
        if args.command == "track" and args.similarity_floor is not None and args.baseline_iou:
            raise _UsageError("--similarity-floor is not used with --baseline-iou")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        file_cfg = {} if args.config is None else io.load_json_object(args.config)
        return _COMMANDS[args.command](args, file_cfg)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an input too large to hold, such as a huge mask
        detail = str(exc)
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
