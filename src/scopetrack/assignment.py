"""Minimum-cost rectangular bipartite assignment.

solve() is a Hungarian solver in the potentials / shortest-augmenting-path
formulation, handling rectangular matrices natively. Among cost-tied optima
it returns the row-major lexicographically smallest pair set. It is exact
for every finite input, int or float of any magnitude: it compares exact
integer sums, never rounded ones. When each row's minimum is strict and in
a column of its own (by columns when rows > cols), those minima are the
unique optimum and solve() returns them without the grid or the Hungarian.
brute_force_solve() is the independent enumeration oracle with the same
contract.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DataError, InstanceTooLargeError

_INF = float("inf")
# Relative band within which the oracle keeps float totals as candidates for
# its exact comparison.
_RC_ATOL = 1e-9


@dataclass(frozen=True, slots=True)
class CostMatrix:
    """Dense rows x cols matrix of finite costs, each an int or a float."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.values)
        object.__setattr__(self, "values", rows)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise DataError("cost matrix rows have unequal lengths")
            if not all(map(math.isfinite, row)):  # one C-level pass per row
                bad = next(v for v in row if not math.isfinite(v))
                raise DataError(f"cost matrix entry is not finite: {bad!r}")

    @property
    def rows(self) -> int:
        return len(self.values)

    @property
    def cols(self) -> int:
        return len(self.values[0]) if self.values else 0


@dataclass(frozen=True, slots=True)
class Assignment:
    """Injective row->col matching of size min(rows, cols)."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _pair_cost(values: Sequence[Sequence[float]], pairs: Sequence[tuple[int, int]]):
    # Fixed summation order (row-major) so solver and oracle agree bitwise.
    return sum(values[r][c] for r, c in pairs)


def _exact_cost(values: Sequence[Sequence[float]], pairs: Sequence[tuple[int, int]]):
    return sum(Fraction(values[r][c]) for r, c in pairs)


def _hungarian(a: Sequence[Sequence[int]], n_rows: int, n_cols: int) -> list[int]:
    """Shortest augmenting paths with potentials (Crouse, IEEE TAES 2016).

    Requires n_rows <= n_cols. Each row in turn is joined to the matching
    by a shortest alternating path in reduced costs; the potentials are
    updated once per path. Returns the column matched to each row.
    """
    u = [0] * n_rows
    v = [0] * n_cols
    row4col = [-1] * n_cols
    col4row = [-1] * n_rows
    path = [-1] * n_cols
    for start in range(n_rows):
        shortest = [_INF] * n_cols
        remaining = list(range(n_cols))
        visited = []
        i = start
        min_val = 0
        while i >= 0:
            row = a[i]
            offset = min_val - u[i]
            lowest = _INF
            for j in remaining:
                reduced = offset + row[j] - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                if shortest[j] < lowest:
                    lowest = shortest[j]
                    sink = j
            min_val = lowest
            remaining.remove(sink)
            visited.append(sink)
            i = row4col[sink]
        u[start] += min_val
        for j in visited:
            if row4col[j] >= 0:
                u[row4col[j]] += min_val - shortest[j]
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def _strict_minima(lines: Sequence[Sequence[float]]) -> list[int] | None:
    """Where each line takes its minimum, if each minimum occurs once in its
    line and no two lines take theirs at the same place; else None.

    Entries compare with ==, so -0.0 and 0.0, or 1 and 1.0, tie.
    """
    picks: list[int] = []
    for line in lines:
        low = min(line)
        if line.count(low) > 1:
            return None
        picks.append(line.index(low))
    return picks if len(set(picks)) == len(picks) else None


def _tie_broken_costs(values: Sequence[Sequence[float]], n_rows: int, n_cols: int
                      ) -> list[list[int]]:
    """The costs on one exact integer grid, made unique by the tie-break.

    Every finite entry is n/d with d a power of two, so with D the largest d
    each n·(D/d) is an exact integer. Scaled by S = B**rows, B = cols + 1,
    entry (i, j) gains (j - cols)·B**(rows-1-i). A matching's gains sum to
    N - (S - 1), where N reads one base-B digit per row: the row's column,
    or cols when the row is unmatched. That sum lies in (-S, 0], so it never
    outweighs one grid unit of cost, and N orders cost-tied matchings
    row-major lexicographically: the optimum of these costs is unique and
    is the tie-broken optimum.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in values]
    top_bits = max(d for row in ratios for _, d in row).bit_length()
    base = n_cols + 1
    tie_scale = base ** n_rows
    return [
        [(n << (top_bits - d.bit_length())) * tie_scale + tie
         for (n, d), tie in zip(row, range(-n_cols * weight, 0, weight))]
        for row, weight in zip(ratios, (base ** k for k in range(n_rows - 1, -1, -1)))
    ]


def solve(m: CostMatrix) -> Assignment:
    """Globally minimal assignment with a deterministic lexicographic tie-break.

    Call the shorter side's entries lines (rows when rows <= cols, else
    columns). When each line's minimum is strict and no two lines take
    theirs at the same place, matching every line to its minimum is the
    optimum, and the only one: any other matching of the same size puts
    some line above its minimum, so its exact sum is strictly larger. The
    tie-break then has nothing to choose, and those pairs are returned
    without the grid or the Hungarian. Otherwise the Hungarian solves the
    tie-broken grid.
    """
    n_rows, n_cols = m.rows, m.cols
    if min(n_rows, n_cols) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    wide = n_rows <= n_cols
    lines = m.values if wide else tuple(zip(*m.values))
    picks = _strict_minima(lines)
    if picks is None:
        a = _tie_broken_costs(m.values, n_rows, n_cols)
        picks = _hungarian(a if wide else list(zip(*a)), len(lines), len(lines[0]))
    pairs = (tuple(enumerate(picks)) if wide
             else tuple(sorted((r, c) for c, r in enumerate(picks))))
    return Assignment(pairs=pairs, total_cost=_pair_cost(m.values, pairs))


@functools.cache
def _permutation_table(n: int, k: int) -> "np.ndarray":
    return np.asarray(list(itertools.permutations(range(n), k)), dtype=np.intp)


def brute_force_solve(m: CostMatrix) -> Assignment:
    """Exhaustive oracle over all maximum matchings; same contract as solve.

    A tall matrix is enumerated as its transpose, whose matchings are the
    same pairs with the same elements summed. Ties are arbitrated with
    exact rational sums so that matchings whose float totals differ only by
    summation-order rounding still count as cost-tied and fall through to
    the lexicographic rule.
    """
    n_rows, n_cols = m.rows, m.cols
    if min(n_rows, n_cols) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    if min(n_rows, n_cols) > 8:
        raise InstanceTooLargeError(
            f"brute force limited to min dimension 8, got {n_rows}x{n_cols}"
        )
    values = m.values
    wide = n_rows <= n_cols
    arr = np.asarray(values) if wide else np.asarray(values).T
    band = _RC_ATOL * max(1.0, float(np.abs(arr).max())) * min(n_rows, n_cols)
    k, n = arr.shape
    perms = _permutation_table(n, k)
    costs = arr[np.arange(k), perms].sum(axis=1)
    near = np.flatnonzero(costs <= costs.min() + band)
    candidates = [
        tuple(sorted(pair if wide else pair[::-1] for pair in enumerate(perms[i].tolist())))
        for i in near
    ]
    best_pairs = min(candidates, key=lambda pairs: (_exact_cost(values, pairs), pairs))
    return Assignment(pairs=best_pairs, total_cost=_pair_cost(values, best_pairs))
