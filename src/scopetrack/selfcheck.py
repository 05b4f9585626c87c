"""Built-in oracle suites runnable from the command line.

Each suite cross-checks a fast implementation against an independent
reference: the assignment solver against exhaustive enumeration on small
integers, on large integers and on floats, the mask codec against a round
trip, and HOTA against closed-form tiny instances.
"""

from __future__ import annotations

import math

import numpy as np

from . import assignment
from .metrics import TrackedDet, TrackedSequence, eval_hota
from .model import BBox, rle_decode, rle_encode


# Entries whose exact sums float arithmetic rounds: signed zeros, subnormals,
# magnitudes 600 orders apart, 0.1 + 0.2 != 0.3, and 2**53 + 1, which no
# float holds.
_MIXED_MAGNITUDES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                     0.1, 0.2, 0.30000000000000004, 2**53, 2**53 + 1)


def _random_costs(rng: np.random.Generator, kind: str, i: int) -> assignment.CostMatrix:
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    if kind == "integers":
        values = rng.integers(-100, 101, size=(rows, cols)).tolist()
    elif kind == "large-integers":  # tie-heavy, offset by 1e9 to 1e15
        offset = 10 ** int(rng.integers(9, 16))
        values = (offset + rng.integers(-5, 6, size=(rows, cols))).tolist()
    elif i % 2:  # floats: one-decimal, or picks from the mixed-magnitude pool
        values = (rng.integers(-20, 21, size=(rows, cols)) / 10).tolist()
    else:
        pool = rng.integers(0, len(_MIXED_MAGNITUDES), size=(rows, cols))
        values = [[_MIXED_MAGNITUDES[k] for k in row] for row in pool.tolist()]
    return assignment.CostMatrix(values)


def _check_assignment(kind: str, seed: int, n_instances: int = 300) -> tuple[bool, str]:
    """solve against brute force on random matrices of one value kind."""
    rng = np.random.Generator(np.random.Philox(seed))
    for i in range(n_instances):
        m = _random_costs(rng, kind, i)
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
        ("assignment-oracle", *_check_assignment("integers", 20240501)),
        ("assignment-large-integers", *_check_assignment("large-integers", 20240503)),
        ("assignment-floats", *_check_assignment("floats", 20240504)),
        ("rle-round-trip", *_check_rle()),
        ("hota-tiny-oracle", *_check_hota()),
    ]
