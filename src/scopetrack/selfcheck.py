"""Built-in oracle suites runnable from the command line.

Each suite cross-checks a fast implementation against an independent
reference: the assignment solver against exhaustive enumeration on small
and on large integers, the mask codec against a round trip, and HOTA
against closed-form tiny instances.
"""

from __future__ import annotations

import math

import numpy as np

from . import assignment
from .metrics import TrackedDet, TrackedSequence, eval_hota
from .model import BBox, rle_decode, rle_encode


def _check_assignment(n_instances: int = 300, large: bool = False) -> tuple[bool, str]:
    """Random integer matrices; large ones are tie-heavy and offset by 1e9 to 1e15."""
    rng = np.random.Generator(np.random.Philox(20240503 if large else 20240501))
    spread = 5 if large else 100
    for _ in range(n_instances):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        offset = 10 ** int(rng.integers(9, 16)) if large else 0
        values = rng.integers(-spread, spread + 1, size=(rows, cols))
        m = assignment.CostMatrix(tuple(tuple(offset + int(v) for v in row) for row in values))
        got = assignment.solve(m)
        want = assignment.brute_force_solve(m)
        if got.total_cost != want.total_cost or got.pairs != want.pairs:
            return False, f"mismatch on {m.values}: {got} vs {want}"
    return True, f"{n_instances} random matrices agree with brute force"


def _check_rle(n_instances: int = 200) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.Philox(20240502))
    for _ in range(n_instances):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        grid = (rng.random((h, w)) < rng.random()).astype(np.uint8)
        if not np.array_equal(rle_decode(rle_encode(grid)), grid):
            return False, f"round trip failed on a {h}x{w} grid"
    return True, f"{n_instances} random masks round-trip exactly"


def _track(frames: list[list[tuple[int, tuple[float, float, float, float]]]]) -> TrackedSequence:
    return TrackedSequence(
        frame_indices=tuple(range(len(frames))),
        frames=tuple(
            tuple(TrackedDet(tid, BBox(*box)) for tid, box in frame)
            for frame in frames
        ),
    )


def _check_hota() -> tuple[bool, str]:
    box = (0.0, 0.0, 10.0, 10.0)
    # perfect tracking: every score is exactly 1
    gt = _track([[(0, box)] for _ in range(6)])
    hota, deta, assa = eval_hota(gt, gt)
    if (hota, deta, assa) != (1.0, 1.0, 1.0):
        return False, f"perfect case gave {(hota, deta, assa)}"
    # one GT track split into two equal halves: TPA fraction 1/2 everywhere
    pred = _track([[(10, box)] for _ in range(3)] + [[(11, box)] for _ in range(3)])
    hota, deta, assa = eval_hota(gt, pred)
    if deta != 1.0 or assa != 0.5 or abs(hota - math.sqrt(0.5)) > 1e-12:
        return False, f"split-track case gave {(hota, deta, assa)}"
    return True, "tiny-instance closed forms reproduced"


def run_selfcheck() -> list[tuple[str, bool, str]]:
    return [
        ("assignment-oracle", *_check_assignment()),
        ("assignment-large-integers", *_check_assignment(large=True)),
        ("rle-round-trip", *_check_rle()),
        ("hota-tiny-oracle", *_check_hota()),
    ]
