"""Minimum-cost rectangular bipartite assignment.

solve() is a Hungarian solver in the potentials / shortest-augmenting-path
formulation, handling rectangular matrices natively. Among cost-tied optima
it returns the row-major lexicographically smallest pair set; ties are
resolved exactly for integer-valued inputs of any magnitude.
brute_force_solve() is the independent enumeration oracle with the same
contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DataError, InstanceTooLargeError

_INF = float("inf")
# Relative band for treating a float reduced cost as zero. Integer-valued
# inputs use none: their reduced costs are exact integers.
_RC_ATOL = 1e-9


@dataclass(frozen=True)
class CostMatrix:
    """Dense rows x cols matrix of finite costs."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.values)
        object.__setattr__(self, "values", rows)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise DataError("cost matrix rows have unequal lengths")
            for v in row:
                if not math.isfinite(v):
                    raise DataError(f"cost matrix entry is not finite: {v!r}")

    @property
    def rows(self) -> int:
        return len(self.values)

    @property
    def cols(self) -> int:
        return len(self.values[0]) if self.values else 0


@dataclass(frozen=True)
class Assignment:
    """Injective row->col matching of size min(rows, cols)."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)


def _pair_cost(values: Sequence[Sequence[float]], pairs: Sequence[tuple[int, int]]):
    # Fixed summation order (row-major) so solver and oracle agree bitwise.
    return sum(values[r][c] for r, c in pairs)


def _exact_cost(values: Sequence[Sequence[float]], pairs: Sequence[tuple[int, int]]):
    return sum(Fraction(values[r][c]) for r, c in pairs)


def _hungarian(a: Sequence[Sequence[float]], n_rows: int, n_cols: int):
    """Classic potentials formulation; requires n_rows <= n_cols.

    Returns (u, v, col_to_row) with 1-indexed potentials. Integer inputs stay
    integral throughout, so reduced costs are exact for them.
    """
    u = [0] * (n_rows + 1)
    v = [0] * (n_cols + 1)
    p = [0] * (n_cols + 1)  # p[j] = row matched to column j, 0 = free
    way = [0] * (n_cols + 1)
    for i in range(1, n_rows + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = 0
            row = a[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    return u, v, p


def _saturates(adj: list[list[int]], targets: list[int]) -> bool:
    """True when some matching covers every left vertex in `targets`."""
    match_right: dict[int, int] = {}

    def try_augment(left: int, seen: set[int]) -> bool:
        for right in adj[left]:
            if right in seen:
                continue
            seen.add(right)
            if right not in match_right or try_augment(match_right[right], seen):
                match_right[right] = left
                return True
        return False

    for left in targets:
        if not try_augment(left, set()):
            return False
    return True


class _LexRefiner:
    """Picks the lexicographically smallest optimal pair set.

    Works on the admissible graph (zero reduced-cost edges) of an optimal
    dual solution. A matching of size min(R, C) is optimal exactly when it
    uses admissible edges only and saturates every "must" vertex: every
    vertex of the short side (rows when R <= C, else columns) and every
    vertex of the long side whose potential is strictly negative.
    """

    def __init__(self, values, n_rows, n_cols, row_pot, col_pot, atol):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.adj = [
            [
                j
                for j in range(n_cols)
                if abs(values[i][j] - row_pot[i] - col_pot[j]) <= atol
            ]
            for i in range(n_rows)
        ]
        self.must_rows = {
            i for i in range(n_rows) if n_rows <= n_cols or row_pot[i] < -atol
        }
        self.must_cols = {
            j for j in range(n_cols) if n_rows > n_cols or col_pot[j] < -atol
        }

    def _completable(self, next_row: int, used_cols: set[int]) -> bool:
        """Can rows >= next_row and the unused columns saturate every must vertex?

        Each side is tested on its own: by the Mendelsohn-Dulmage theorem a
        set of rows and a set of columns that can each be saturated can be
        saturated by one matching.
        """
        adj = [[c for c in self.adj[r] if c not in used_cols]
               for r in range(next_row, self.n_rows)]
        radj: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r_local, cols in enumerate(adj):
            for c in cols:
                radj[c].append(r_local)
        want_rows = [r - next_row for r in self.must_rows if r >= next_row]
        want_cols = [c for c in self.must_cols if c not in used_cols]
        return _saturates(adj, want_rows) and _saturates(radj, want_cols)

    def _place(self, r: int, used_cols: set[int]) -> tuple[int, int]:
        """The smallest (row, col) from row r on that keeps a completion.

        Rows may be skipped, but never past a must-row. The column is added
        to used_cols.
        """
        for rr in range(r, self.n_rows):
            for c in self.adj[rr]:
                if c in used_cols:
                    continue
                used_cols.add(c)
                if self._completable(rr + 1, used_cols):
                    return rr, c
                used_cols.discard(c)
            if rr in self.must_rows:
                break
        raise AssertionError("lexicographic refinement lost feasibility")

    def run(self) -> tuple[tuple[int, int], ...]:
        used_cols: set[int] = set()
        pairs: list[tuple[int, int]] = []
        r = 0
        while len(pairs) < min(self.n_rows, self.n_cols):
            pairs.append(self._place(r, used_cols))
            r = pairs[-1][0] + 1
        return tuple(pairs)


def solve(m: CostMatrix) -> Assignment:
    """Globally minimal assignment with a deterministic lexicographic tie-break."""
    n_rows, n_cols = m.rows, m.cols
    if min(n_rows, n_cols) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    values = m.values
    if all(float(x).is_integer() for row in values for x in row):
        values = tuple(tuple(int(x) for x in row) for row in values)
        atol = 0
    else:
        atol = _RC_ATOL * max(1.0, max(abs(x) for row in values for x in row))
    if n_rows <= n_cols:
        u, v, _ = _hungarian(values, n_rows, n_cols)
        row_pot = [u[i + 1] for i in range(n_rows)]
        col_pot = [v[j + 1] for j in range(n_cols)]
    else:
        transposed = tuple(
            tuple(values[i][j] for i in range(n_rows)) for j in range(n_cols)
        )
        u, v, _ = _hungarian(transposed, n_cols, n_rows)
        col_pot = [u[j + 1] for j in range(n_cols)]
        row_pot = [v[i + 1] for i in range(n_rows)]
    pairs = _LexRefiner(values, n_rows, n_cols, row_pot, col_pot, atol).run()
    return Assignment(pairs=pairs, total_cost=_pair_cost(m.values, pairs))


_PERM_CACHE: dict[tuple[int, int], "np.ndarray"] = {}


def _permutation_table(n: int, k: int) -> "np.ndarray":
    key = (n, k)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.asarray(
            list(itertools.permutations(range(n), k)), dtype=np.intp
        )
    return _PERM_CACHE[key]


def brute_force_solve(m: CostMatrix) -> Assignment:
    """Exhaustive oracle over all maximum matchings; same contract as solve.

    Ties are arbitrated with exact rational sums so that matchings whose
    float totals differ only by summation-order rounding still count as
    cost-tied and fall through to the lexicographic rule.
    """
    n_rows, n_cols = m.rows, m.cols
    if min(n_rows, n_cols) == 0:
        return Assignment(pairs=(), total_cost=0.0)
    if min(n_rows, n_cols) > 8:
        raise InstanceTooLargeError(
            f"brute force limited to min dimension 8, got {n_rows}x{n_cols}"
        )
    values = m.values
    arr = np.asarray(values)
    band = _RC_ATOL * max(1.0, float(np.abs(arr).max())) * min(n_rows, n_cols)
    if n_rows <= n_cols:
        perms = _permutation_table(n_cols, n_rows)
        costs = arr[np.arange(n_rows), perms].sum(axis=1)
        near = np.flatnonzero(costs <= costs.min() + band)
        candidates = [
            tuple(enumerate(int(c) for c in perms[i])) for i in near
        ]
    else:
        perms = _permutation_table(n_rows, n_cols)
        costs = arr[perms, np.arange(n_cols)].sum(axis=1)
        near = np.flatnonzero(costs <= costs.min() + band)
        candidates = [
            tuple(sorted((int(r), c) for c, r in enumerate(perms[i])))
            for i in near
        ]
    best_pairs = min(candidates, key=lambda pairs: (_exact_cost(values, pairs), pairs))
    return Assignment(pairs=best_pairs, total_cost=_pair_cost(values, best_pairs))
