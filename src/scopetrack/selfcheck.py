"""Built-in oracle suites runnable from the command line.

Each suite cross-checks a fast implementation against an independent
reference: the assignment solver against exhaustive enumeration on small
integers, on large integers and on floats, the mask codec against a round
trip, HOTA against closed-form tiny instances, and the array loss terms
against the scalar and dense formulas, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import assignment, losses
from .metrics import TrackedDet, TrackedSequence, eval_hota, pair_frames
from .model import (BBox, ClassDistribution, FramePrediction, GroundTruthFrame,
                    GroundTruthObject, QuerySlot, StreamHeader, rle_decode, rle_encode)


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


def _same_bits(got, want) -> bool:
    """Equal float64 bit patterns, any two NaNs counting as equal."""
    a, b = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return bool(np.all((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


def _check_mask_terms(n_instances: int = 200) -> tuple[bool, str]:
    """Run-based dice and CE against the dense float64 formulas."""
    rng = np.random.Generator(np.random.Philox(20240505))
    for _ in range(n_instances):
        h, w = (int(v) for v in rng.integers(1, 33, size=2))
        pred, gt = (rle_encode(rng.random((h, w)) < rng.random()) for _ in range(2))
        dense = rle_decode(pred).astype(np.float64)
        got = losses._mask_terms(pred, gt)
        want = (losses.dice_loss(dense, gt), losses.mask_ce_loss(dense, gt))
        if not _same_bits(got, want):
            return False, f"mismatch on {pred} and {gt}: {got} vs {want}"
    return True, f"{n_instances} random mask pairs match the dense terms bit for bit"


# Box coordinates that branch or round: signed zeros, shared edges, points
# outside the 48x64 frame, and 1e300, whose products overflow.
_COORDS = (0.0, -0.0, 1.0, 8.0, 16.0, -5.0, 70.0, 1e300, -1e300)


def _check_match_costs(n_instances: int = 200) -> tuple[bool, str]:
    """The K x N matching-cost array against the scalar terms, cell by cell."""
    rng = np.random.Generator(np.random.Philox(20240506))
    classes = ("AD", "HP")
    header = StreamHeader(n_queries=6, embed_dim=1, frame_height=48, frame_width=64,
                          classes=classes)
    w = losses.LossWeights()

    def box() -> BBox:
        coords = np.where(rng.random(4) < 0.5, rng.choice(_COORDS, 4), rng.uniform(-80, 80, 4))
        (x1, x2), (y1, y2) = sorted(coords[::2].tolist()), sorted(coords[1::2].tolist())
        return BBox(x1, y1, x2, y2)

    for _ in range(n_instances):
        n = int(rng.integers(1, 7))
        frame = FramePrediction(0, tuple(
            QuerySlot((0.0,), box(), ClassDistribution(tuple(rng.dirichlet((1, 1, 1))[:2])))
            for _ in range(n)))
        gt = GroundTruthFrame(0, tuple(
            GroundTruthObject(i, box(), classes[int(rng.integers(0, 2))])
            for i in range(int(rng.integers(1, n + 1)))))
        got = losses._match_costs(frame, gt, w, header)
        want = [[w.match_w_cls * -losses._label_prob(slot.classes, obj.class_label, classes)
                 + w.match_w_l1 * losses.l1_box_loss(slot.box, obj.box, header.frame_height,
                                                     header.frame_width)
                 + w.match_w_giou * losses.giou_loss(slot.box, obj.box)
                 for slot in frame.slots] for obj in gt.objects]
        if not _same_bits(got, want):
            return False, f"mismatch on {frame} and {gt}: {got.tolist()} vs {want}"
    return True, f"{n_instances} random frames match the scalar costs bit for bit"


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
    hota, deta, assa = eval_hota(pair_frames(gt, gt))
    if (hota, deta, assa) != (1.0, 1.0, 1.0):
        return False, f"perfect case gave {(hota, deta, assa)}"
    # one GT track split into two equal halves: TPA fraction 1/2 everywhere
    pred = _track([[(10, box)] for _ in range(3)] + [[(11, box)] for _ in range(3)])
    hota, deta, assa = eval_hota(pair_frames(gt, pred))
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
        ("loss-mask-terms", *_check_mask_terms()),
        ("loss-match-costs", *_check_match_costs()),
    ]
