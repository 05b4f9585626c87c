"""Byte-for-byte pins of every CLI output on the synth suite.

Each case is one scenario at one seed, with boxes only (written by the
`synth` subcommand) or with masks (generated in process and written with
`io`). Every subcommand and tracker mode then runs on it through
`cli.run`, in process, with default options. The option cases run one
scenario again with non-default flags, a --weights file and a --config
file. Each output's sha256 covers its exit code, its stdout with the work
directory replaced by "<tmp>", and every file it wrote. After a
deliberate output change, rewrite the digest file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from scopetrack import cli, synth
from scopetrack import io as st_io

SEEDS = (1, 2)
DIGESTS = Path(__file__).with_name("golden_digests.json")
TRACK_MODES = {
    "default": [],
    "baseline-iou": ["--baseline-iou"],
    "no-carry-forward": ["--no-carry-forward"],
}
CASES = [(scenario, seed, masks) for seed in SEEDS for scenario in synth.SCENARIO_NAMES
         for masks in (False, True)]
OPTION_CASES = [("occlusion", 1, masks) for masks in (False, True)]
TRACK_OPTIONS = {
    "tau-patience": ["--tau", "0.4", "--patience", "2"],
    "similarity-floor": ["--similarity-floor", "0.5"],
    "baseline-iou-floor": ["--baseline-iou", "--iou-floor", "0.3"],
}
# an integer weight pins that weights are echoed as given
WEIGHTS = {"w_cls": 1, "match_w_giou": 0.5}
CONFIG = {"tau": 0.45, "alpha": 0.4, "weights": {"w_l1": 3, "w_dice": 2.5}}


def case_key(scenario: str, seed: int, masks: bool) -> str:
    return f"{scenario}/seed{seed}/{'masks' if masks else 'boxes'}"


def option_key(scenario: str, seed: int, masks: bool) -> str:
    return case_key(scenario, seed, masks) + "/options"


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _run(work: Path, argv: list[str], written: tuple[str, ...] = ()) -> str:
    """Digest of one cli.run call: exit code, stdout, then each written file.

    stdout is a text stream over a bytes buffer, so both print() and the
    report's sys.stdout.buffer writes are captured as a user gets them.
    """
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved, sys.stdout = sys.stdout, out
    try:
        code = cli.run(argv)
    finally:
        out.flush()
        sys.stdout = saved
        out.detach()
    stdout = buf.getvalue().replace(str(work).encode(), b"<tmp>")
    return _digest([str(code).encode(), stdout] + [(work / n).read_bytes() for n in written])


def _write_inputs(work: Path, scenario: str, seed: int, masks: bool) -> str:
    """Generate the scenario in process, write gt.jsonl and pred.jsonl, digest both."""
    cfg = replace(synth.scenario_config(scenario, seed), with_masks=masks)
    gt_stream, pred_stream = synth.generate(cfg)
    st_io.write_ground_truth(gt_stream, work / "gt.jsonl")
    st_io.write_stream(pred_stream, work / "pred.jsonl")
    return _digest([(work / n).read_bytes() for n in ("gt.jsonl", "pred.jsonl")])


def case_digests(scenario: str, seed: int, masks: bool) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        gt, pred, tracks = (str(work / n) for n in ("gt.jsonl", "pred.jsonl", "tracks.jsonl"))
        out = {}
        if masks:
            out["inputs"] = _write_inputs(work, scenario, seed, masks)
        else:
            out["synth"] = _run(work, ["synth", "--scenario", scenario, "--seed", str(seed),
                                       "--out-gt", gt, "--out-pred", pred],
                                ("gt.jsonl", "pred.jsonl"))
        for mode, flags in TRACK_MODES.items():
            out[f"track {mode}"] = _run(work, ["track", "--in", pred, "--out", tracks, *flags],
                                        ("tracks.jsonl",))
            out[f"eval-track {mode}"] = _run(work, ["eval-track", "--pred", tracks, "--gt", gt])
            for fmt in ("text", "json"):
                out[f"report {fmt} {mode}"] = _run(
                    work, ["report", "--tracks", tracks, "--stream", pred, "--format", fmt])
        out["eval-det"] = _run(work, ["eval-det", "--pred", pred, "--gt", gt])
        out["loss-check"] = _run(work, ["loss-check", "--pred", pred, "--gt", gt])
        return out


def option_digests(scenario: str, seed: int, masks: bool) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        gt, pred, tracks, weights, config = (str(work / n) for n in (
            "gt.jsonl", "pred.jsonl", "tracks.jsonl", "weights.json", "config.json"))
        (work / "weights.json").write_text(json.dumps(WEIGHTS))
        (work / "config.json").write_text(json.dumps(CONFIG))
        out = {"inputs": _write_inputs(work, scenario, seed, masks)}
        for name, flags in TRACK_OPTIONS.items():
            out[f"track {name}"] = _run(work, ["track", "--in", pred, "--out", tracks, *flags],
                                        ("tracks.jsonl",))
            out[f"eval-track {name}"] = _run(
                work, ["eval-track", "--pred", tracks, "--gt", gt, "--alpha", "0.3"])
            out[f"report {name}"] = _run(work, ["report", "--tracks", tracks, "--stream", pred,
                                                "--min-frames", "30", "--format", "json"])
        out["eval-det"] = _run(work, ["eval-det", "--pred", pred, "--gt", gt, "--tau", "0.3"])
        out["loss-check"] = _run(work, ["loss-check", "--pred", pred, "--gt", gt,
                                        "--weights", weights])
        out["config track"] = _run(work, ["--config", config, "track", "--in", pred,
                                          "--out", tracks], ("tracks.jsonl",))
        out["config eval-track"] = _run(work, ["--config", config, "eval-track",
                                               "--pred", tracks, "--gt", gt])
        out["config eval-det"] = _run(work, ["--config", config, "eval-det",
                                             "--pred", pred, "--gt", gt])
        if not masks:  # loss-check decodes every mask; one masked run is enough
            out["config loss-check"] = _run(work, ["--config", config, "loss-check",
                                                   "--pred", pred, "--gt", gt])
        return out


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", CASES, ids=[case_key(*c) for c in CASES])
def test_outputs_match_digests(case, recorded):
    assert case_digests(*case) == recorded[case_key(*case)]


@pytest.mark.parametrize("case", OPTION_CASES, ids=[option_key(*c) for c in OPTION_CASES])
def test_option_outputs_match_digests(case, recorded):
    assert option_digests(*case) == recorded[option_key(*case)]


if __name__ == "__main__":
    digests = {case_key(*c): case_digests(*c) for c in CASES}
    digests.update({option_key(*c): option_digests(*c) for c in OPTION_CASES})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
