"""Mutation fuzzing of every input file: `cli.run` returns 0 or 2 and never raises.

Starts from valid 5-frame stream, ground-truth and tracks files and valid
--config and --weights objects, mutates one or more of them, and runs a
subcommand that reads the mutated file in process.
"""

from __future__ import annotations

import contextlib
import copy
import io as pyio
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scopetrack import io
from scopetrack.cli import run
from scopetrack.synth import SynthConfig, generate
from scopetrack.tracker import track_video

_N_QUERIES = 3
# Placeholders that become n nested arrays once the line is serialized.
_DEEP = [f"__deep{n}__" for n in (50, 700, 100_000)]


def _valid_inputs() -> dict[str, list]:
    """The decoded lines of each valid input file."""
    gt, pred = generate(SynthConfig(n_objects=2, n_frames=5, n_queries=_N_QUERIES,
                                    embed_dim=4, frame_height=32, frame_width=32,
                                    box_size=0.25, motion_amplitude=0.2,
                                    with_masks=True, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("stream", "gt", "tracks")}
        io.write_stream(pred, paths["stream"])
        io.write_ground_truth(gt, paths["gt"])
        io.write_tracking(track_video(pred), pred, paths["tracks"])
        inputs = {name: [json.loads(line) for line in path.read_text().splitlines()]
                  for name, path in paths.items()}
    inputs["config"] = [{"tau": 0.5, "patience": 2, "carry_forward": True,
                         "similarity_floor": None, "iou_floor": 0.1, "alpha": 0.5,
                         "format": "json", "min_frames": 1, "seed": 1,
                         "weights": {"w_cls": 1.0, "match_w_l1": 4.0}}]
    inputs["weights"] = [{"w_cls": 1.0, "w_dice": 2.5, "match_w_giou": 3.0}]
    return inputs


_VALID = _valid_inputs()

_REPLACEMENTS = st.sampled_from([
    None, True, False, "", "x", "0", 0, 1, -1, -7, 0.5, 2.9, 1e300, 10**30, 10**400,
    float("nan"), float("inf"), float("-inf"), [], {}, [1, 2], {"a": 1}, *_DEEP,
])


def _nodes(obj, path=()):
    """Every (parent path, key) that addresses a value inside obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutation(draw, lines: list):
    """Mutate one decoded line in place; return (line index, raw-text cut or None)."""
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    kind = draw(st.sampled_from(["replace", "delete", "wrap", "stringify", "truncate",
                                 "slot"]))
    if kind == "truncate":
        return index, draw(st.floats(0.0, 1.0))
    if kind == "slot":  # out of range, or another assignment's slot
        records = line.get("assignments") if isinstance(line, dict) else None
        if isinstance(records, list) and records and all(isinstance(r, dict) for r in records):
            record = draw(st.sampled_from(records))
            other = draw(st.sampled_from(records)).get("slot")
            record["slot"] = draw(st.sampled_from([-1, _N_QUERIES, 10**6, other]))
        return index, None
    nodes = list(_nodes(line)) if isinstance(line, (dict, list)) else []
    if not nodes:
        return index, None
    path, key = draw(st.sampled_from(nodes))
    parent = _at(line, path)
    if kind == "delete":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "stringify":
        parent[key] = str(parent[key])
    else:
        parent[key] = copy.deepcopy(draw(_REPLACEMENTS))
    return index, None


def _serialize(lines: list, cuts: dict) -> str:
    out = []
    for index, line in enumerate(lines):
        text = re.sub(r'"__deep(\d+)__"', lambda m: "[" * int(m[1]) + "]" * int(m[1]),
                      json.dumps(line))
        if index in cuts:
            text = text[:int(cuts[index] * len(text))]
        out.append(text)
    return "\n".join(out) + "\n"


_COMMANDS = {
    "stream": ["track", "eval-det", "report", "loss-check"],
    "gt": ["eval-det", "eval-track", "loss-check"],
    "tracks": ["eval-track", "report"],
    "config": ["track", "eval-det", "eval-track", "report", "loss-check", "synth"],
    "weights": ["loss-check"],
}


def _argv(command: str, d: Path) -> list[str]:
    return {
        "track": ["track", "--in", str(d / "stream"), "--out", str(d / "out")],
        "eval-det": ["eval-det", "--pred", str(d / "stream"), "--gt", str(d / "gt")],
        "eval-track": ["eval-track", "--pred", str(d / "tracks"), "--gt", str(d / "gt")],
        "report": ["report", "--tracks", str(d / "tracks"), "--stream", str(d / "stream")],
        "loss-check": ["loss-check", "--pred", str(d / "stream"), "--gt", str(d / "gt"),
                       "--weights", str(d / "weights")],
        "synth": ["synth", "--scenario", "static", "--out-gt", str(d / "synth-gt"),
                  "--out-pred", str(d / "synth-pred")],
    }[command]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_zero_or_two(data):
    target = data.draw(st.sampled_from(sorted(_COMMANDS)))
    lines = json.loads(json.dumps(_VALID[target]))
    cuts = {}
    for _ in range(data.draw(st.integers(1, 3))):
        index, cut = data.draw(_mutation(lines))
        if cut is not None:
            cuts[index] = cut
    command = data.draw(st.sampled_from(_COMMANDS[target]))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, valid in _VALID.items():
            (d / name).write_text(_serialize(lines, cuts) if name == target
                                  else _serialize(valid, {}))
        argv = ["--config", str(d / "config")] if target == "config" else []
        stdout = pyio.TextIOWrapper(pyio.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(pyio.StringIO()):
            code = run(argv + _argv(command, d))
    assert code in (0, 2)
