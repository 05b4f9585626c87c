from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scopetrack import assignment
from scopetrack.assignment import Assignment, CostMatrix, brute_force_solve, solve
from scopetrack.errors import DataError, InstanceTooLargeError


def random_matrix(rng, max_dim=7, integral=True, span=100):
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    if integral:
        vals = rng.integers(-span, span + 1, size=(rows, cols))
        return CostMatrix(tuple(tuple(int(v) for v in row) for row in vals))
    vals = rng.random(size=(rows, cols)) * span
    return CostMatrix(tuple(tuple(float(v) for v in row) for row in vals))


# Entries whose exact sums float arithmetic rounds: signed zeros, subnormals,
# magnitudes 600 orders apart, 0.1 + 0.2 != 0.3, and 2**53 + 1, which no
# float holds.
MIXED_MAGNITUDES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                    0.1, 0.2, 0.30000000000000004, 2**53, 2**53 + 1)


def exact_float_matrix(rng, kind, max_dim=6):
    """A one-decimal normal matrix, or one drawn from MIXED_MAGNITUDES."""
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    if kind == "one_decimal":
        vals = np.round(rng.normal(size=(rows, cols)), 1).tolist()
    else:
        picks = rng.integers(0, len(MIXED_MAGNITUDES), size=(rows, cols)).tolist()
        vals = [[MIXED_MAGNITUDES[k] for k in row] for row in picks]
    return CostMatrix(tuple(tuple(row) for row in vals))


class TestExamples:
    def test_zero_diagonal(self):
        m = CostMatrix(((0, 9, 9), (9, 0, 9), (9, 9, 0)))
        got = solve(m)
        assert got.pairs == ((0, 0), (1, 1), (2, 2))
        assert got.total_cost == 0

    def test_two_by_two(self):
        # brute force over the 2 permutations picks the diagonal
        got = solve(CostMatrix(((1, 2), (2, 1))))
        assert got.pairs == ((0, 0), (1, 1))
        assert got.total_cost == 2

    def test_rectangular(self):
        # brute force over the 12 injections picks columns 1 and 2
        m = CostMatrix(((9, 1, 9, 9), (9, 9, 1, 9)))
        got = solve(m)
        assert got.pairs == ((0, 1), (1, 2))
        assert got.total_cost == 2
        assert brute_force_solve(m) == got

    def test_large_integers_exact(self):
        # a tolerance scaled by the entries' magnitude would call 1 a tie here
        m = CostMatrix(((10**9, 10**9 + 1), (10**9 + 1, 10**9 + 3)))
        got = solve(m)
        assert got.pairs == ((0, 1), (1, 0))
        assert got.total_cost == 2_000_000_002
        assert brute_force_solve(m) == got

    def test_one_decimal_tie_exact(self):
        # ((0, 1), (2, 2), (3, 0)) and the optimum both have float total
        # -0.9000000000000001, but the optimum's exact total is 5.6e-17
        # lower: a tolerance that calls them tied takes the other one
        m = CostMatrix(((1.1, 0.6, -0.8), (0.7, 0.8, -0.1), (-0.3, -0.2, -1.7),
                        (0.2, 0.2, -0.9)))
        got = solve(m)
        assert got.pairs == ((0, 2), (2, 0), (3, 1))
        assert brute_force_solve(m) == got

    def test_brute_force_single(self):
        assert brute_force_solve(CostMatrix(((5,),))) == Assignment(((0, 0),), 5)

    def test_empty_matrix(self):
        assert solve(CostMatrix(())) == Assignment((), 0.0)
        assert brute_force_solve(CostMatrix(())) == Assignment((), 0.0)

    @pytest.mark.parametrize("values", [((1.0, 2.0), (3.0,)), ((1,), (2, 3)), ((), (1.0,))])
    def test_unequal_rows_rejected(self, values):
        with pytest.raises(DataError, match="^cost matrix rows have unequal lengths$"):
            CostMatrix(values)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            CostMatrix(((1.0, float("nan")),))

    def test_oracle_size_limit(self):
        big = CostMatrix(tuple(tuple(0 for _ in range(9)) for _ in range(9)))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(big)


class TestOracleEquivalence:
    def test_integer_matrices(self):
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(1500):
            m = random_matrix(rng, integral=True)
            got, want = solve(m), brute_force_solve(m)
            assert got.total_cost == want.total_cost, m.values
            assert got.pairs == want.pairs, m.values

    def test_tie_heavy_matrices(self):
        rng = np.random.Generator(np.random.Philox(102))
        for _ in range(1500):
            m = random_matrix(rng, max_dim=6, integral=True, span=2)
            got, want = solve(m), brute_force_solve(m)
            assert got.total_cost == want.total_cost, m.values
            assert got.pairs == want.pairs, m.values

    def test_float_matrices(self):
        rng = np.random.Generator(np.random.Philox(103))
        for _ in range(800):
            m = random_matrix(rng, max_dim=6, integral=False)
            got, want = solve(m), brute_force_solve(m)
            assert got.pairs == want.pairs, m.values
            assert got.total_cost == want.total_cost

    @pytest.mark.parametrize("offset", [10**9, 10**12, 10**15, 1e15, 2.0**70])
    def test_large_integer_matrices(self, offset):
        # integer-valued entries tie exactly at any magnitude, int or float typed
        rng = np.random.Generator(np.random.Philox(104))
        for _ in range(300):
            small = random_matrix(rng, max_dim=6, integral=True, span=5)
            step = 2**18 if offset == 2.0**70 else 1
            m = CostMatrix(tuple(tuple(offset + step * v for v in row)
                                 for row in small.values))
            got, want = solve(m), brute_force_solve(m)
            assert got.pairs == want.pairs, m.values
            assert got.total_cost == want.total_cost, m.values

    @pytest.mark.parametrize("kind, count", [("one_decimal", 3000), ("mixed_magnitudes", 1000)])
    def test_exact_float_matrices(self, kind, count):
        # exact cost ties that float sums split, and float sums that round
        # distinct exact costs together
        rng = np.random.Generator(np.random.Philox(105))
        for _ in range(count):
            m = exact_float_matrix(rng, kind)
            got, want = solve(m), brute_force_solve(m)
            assert got.pairs == want.pairs, m.values
            assert got.total_cost == want.total_cost, m.values

    def test_all_equal_entries_pick_lexicographic(self):
        m = CostMatrix(tuple(tuple(3 for _ in range(5)) for _ in range(5)))
        assert solve(m).pairs == tuple((i, i) for i in range(5))
        tall = CostMatrix(tuple(tuple(3 for _ in range(2)) for _ in range(5)))
        assert solve(tall).pairs == ((0, 0), (1, 1))


@st.composite
def small_int_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    values = draw(st.lists(
        st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ))
    return CostMatrix(tuple(tuple(row) for row in values))


class TestProperties:
    @given(small_int_matrix(), st.integers(-30, 30), st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_row_shift_changes_cost_by_constant(self, m, shift, row_pick):
        row = row_pick % m.rows
        base = solve(m)
        shifted = CostMatrix(tuple(
            tuple(v + shift for v in r) if i == row else r
            for i, r in enumerate(m.values)
        ))
        moved = solve(shifted)
        # the shifted row is matched iff rows <= cols, where all rows match
        if m.rows <= m.cols:
            assert moved.total_cost == base.total_cost + shift
        unique = _has_unique_optimum(m)
        if unique and m.rows <= m.cols:
            assert moved.pairs == base.pairs

    @given(small_int_matrix(), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_row_permutation_equivariance(self, m, seed):
        base = solve(m)
        if not _has_unique_optimum(m):
            return
        rng = np.random.Generator(np.random.Philox(seed))
        perm = rng.permutation(m.rows)
        permuted = CostMatrix(tuple(m.values[int(i)] for i in perm))
        moved = solve(permuted)
        want = tuple(sorted((int(np.flatnonzero(perm == r)[0]), c) for r, c in base.pairs))
        assert moved.pairs == want


def _has_unique_optimum(m: CostMatrix) -> bool:
    import itertools
    best = None
    count = 0
    if m.rows <= m.cols:
        for cols in itertools.permutations(range(m.cols), m.rows):
            cost = sum(m.values[r][c] for r, c in enumerate(cols))
            if best is None or cost < best:
                best, count = cost, 1
            elif cost == best:
                count += 1
    else:
        for rows in itertools.permutations(range(m.rows), m.cols):
            cost = sum(m.values[r][c] for c, r in enumerate(rows))
            if best is None or cost < best:
                best, count = cost, 1
            elif cost == best:
                count += 1
    return count == 1


class TestContract:
    def test_pair_count_and_cost_consistency(self):
        rng = np.random.Generator(np.random.Philox(500))
        for _ in range(300):
            m = random_matrix(rng, max_dim=6, integral=False)
            got = solve(m)
            assert len(got.pairs) == min(m.rows, m.cols)
            rows = [r for r, _ in got.pairs]
            cols = [c for _, c in got.pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert got.total_cost == sum(m.values[r][c] for r, c in got.pairs)
            assert got.pairs == tuple(sorted(got.pairs))


class TestExactTieArbitration:
    def test_duplicate_float_pools_agree_with_solver(self):
        # matchings over duplicated float values tie exactly; summation-order
        # rounding must not leak into the tie-break
        rng = np.random.Generator(np.random.Philox(777))
        for _ in range(400):
            r = int(rng.integers(2, 8))
            c = int(rng.integers(2, 9))
            pool = rng.random(3)
            vals = [[float(pool[int(rng.integers(0, 3))]) for _ in range(c)]
                    for _ in range(r)]
            m = CostMatrix(tuple(tuple(row) for row in vals))
            assert solve(m).pairs == brute_force_solve(m).pairs


class TestScipyCrossCheck:
    @pytest.mark.parametrize("shape", [(30, 40), (40, 30)])
    def test_optimal_cost_matches_linear_sum_assignment(self, shape):
        # larger than the brute-force oracle reaches; scipy is optional
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.Generator(np.random.Philox(4031))
        for _ in range(3):
            vals = rng.random(size=shape) * 100.0
            got = solve(CostMatrix(tuple(tuple(float(v) for v in row) for row in vals)))
            rows, cols = optimize.linear_sum_assignment(vals)
            assert len(got.pairs) == min(shape)
            assert got.total_cost == pytest.approx(float(vals[rows, cols].sum()),
                                                   rel=1e-12, abs=1e-9)


# Value pools for the strict-minima exit: ints, one-decimal floats, the
# mixed-magnitude pool, and all three at once (so 1 and 1.0 both occur).
INTS = tuple(range(-20, 21))
ONE_DECIMAL = tuple(k / 10 for k in range(-20, 21))
EXIT_POOLS = (INTS, ONE_DECIMAL, MIXED_MAGNITUDES, INTS + ONE_DECIMAL + MIXED_MAGNITUDES)


@st.composite
def strict_minima_matrix(draw):
    """A matrix whose lines (rows when rows <= cols, else columns) each take
    a strict minimum at a place no other line takes; the other entries of a
    line may tie among themselves."""
    pool = draw(st.sampled_from(EXIT_POOLS))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    short, long = min(rows, cols), max(rows, cols)
    places = draw(st.permutations(range(long)))[:short]
    lows = sorted(v for v in pool if any(w > v for w in pool))
    lines = []
    for place in places:
        low = draw(st.sampled_from(lows))
        line = draw(st.lists(st.sampled_from([v for v in pool if v > low]),
                             min_size=long, max_size=long))
        line[place] = low
        lines.append(tuple(line))
    return CostMatrix(tuple(lines) if rows <= cols else tuple(zip(*lines)))


def spied_solve(m: CostMatrix):
    """solve(m), with the number of _hungarian calls it made."""
    with mock.patch.object(assignment, "_hungarian", wraps=assignment._hungarian) as spy:
        got = solve(m)
    return got, spy.call_count


# Each breaks the exit in one way: a minimum tied between -0.0 and 0.0, a
# minimum tied between 1 and 1.0, or two rows whose minima share a column.
NEAR_MISSES = {
    "signed_zero_tie": ((-0.0, 0.0, 1.0), (1.0, 2.0, 0.5)),
    "int_float_tie": ((1, 1.0, 3), (4, 5, 2)),
    "shared_column": ((0, 5, 6), (1, 7, 8)),
    "one_row_tie": ((2, 1, 1.0, 3),),
}


def transposed(values):
    return tuple(zip(*values))


class TestStrictMinimaExit:
    @given(strict_minima_matrix())
    @settings(max_examples=400, deadline=None)
    def test_exit_agrees_with_oracle(self, m):
        got, hungarian_calls = spied_solve(m)
        want = brute_force_solve(m)
        assert hungarian_calls == 0
        assert got.pairs == want.pairs
        assert got.total_cost == want.total_cost

    @pytest.mark.parametrize("values", [
        ((0, 9, 9), (9, 0, 9)),
        transposed(((0, 9, 9), (9, 0, 9))),
        ((3, -1.5, 7),),
        transposed(((3, -1.5, 7),)),
        ((-0.0, 1e300), (5e-324, -1e-300)),
    ])
    def test_exit_skips_hungarian(self, values):
        m = CostMatrix(values)
        got, hungarian_calls = spied_solve(m)
        assert hungarian_calls == 0
        assert got == brute_force_solve(m)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_near_miss_takes_full_path(self, name, transpose):
        values = NEAR_MISSES[name]
        m = CostMatrix(transposed(values) if transpose else values)
        got, hungarian_calls = spied_solve(m)
        want = brute_force_solve(m)
        assert hungarian_calls == 1
        assert got.pairs == want.pairs
        assert got.total_cost == want.total_cost
