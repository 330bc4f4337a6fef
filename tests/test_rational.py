"""Exact rational linear algebra and the dense simplex."""

import random
from fractions import Fraction as F

from qmarginal.rational import (
    canon_hyperplane,
    echelon,
    lp_max,
    nullspace,
    primitive,
    rank,
    row_space_basis,
    solve_any,
    solve_square,
)


def test_primitive_and_canon():
    assert primitive((F(1, 2), F(1, 3))) == (3, 2)
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((-2, 4, 6)) == (-1, 2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive([3, 5]) == (3, 5)
    assert primitive((F(-4, 1), 6)) == (-2, 3)
    assert canon_hyperplane((-2, 4)) == (1, -2)
    assert canon_hyperplane((0, -3, 6)) == (0, 1, -2)


def test_rank():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0


def test_rank_matches_fraction_elimination_on_deficient_matrices():
    def fraction_rank(rows):
        rows = [list(map(F, r)) for r in rows]
        rk = 0
        for col in range(len(rows[0])):
            piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            for i in range(rk + 1, len(rows)):
                f = rows[i][col] / rows[rk][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
            rk += 1
        return rk

    rng = random.Random(11)
    for trial in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        basis = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(0, min(m, n)))]
        rows = [[sum(c * b[j] for c, b in zip(coef, basis)) for j in range(n)]
                for coef in ([rng.randint(-2, 2) for _ in basis] for _ in range(m))]
        if trial % 2:
            rows = [[F(x, rng.randint(1, 4)) for x in r] for r in rows]
        assert rank(rows) == fraction_rank(rows), rows


def test_solve_square():
    x = solve_square([[2, 0], [0, 4]], [1, 1])
    assert x == (F(1, 2), F(1, 4))
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None


def test_solve_any_consistent_and_not():
    x = solve_any([(1, 1, 0), (0, 1, 1)], [3, 5])
    assert x is not None
    assert x[0] + x[1] == 3 and x[1] + x[2] == 5
    assert solve_any([(1, 0), (1, 0)], [1, 2]) is None


def test_nullspace():
    ns = nullspace([(1, 1, 1)])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0
    assert nullspace([(1, 0), (0, 1)]) == []


def test_lp_basic_optimum():
    # max x + y st x <= 1, y <= 2, x + y <= 2.5
    res = lp_max(
        [1, 1],
        [(1, 0), (0, 1), (1, 1)],
        [1, 2, F(5, 2)],
    )
    assert res.status == "optimal"
    assert res.value == F(5, 2)


def test_lp_unbounded():
    res = lp_max([1], [(-1,)], [0])
    assert res.status == "unbounded"


def test_lp_infeasible():
    res = lp_max([1], [(1,), (-1,)], [1, -2])
    assert res.status == "infeasible"


def test_lp_with_equalities():
    # max x st x + y = 1, y >= 0  ->  x = 1
    res = lp_max([1, 0], [(0, -1)], [0], [(1, 1)], [1])
    assert res.status == "optimal"
    assert res.value == 1


def test_lp_degenerate_terminates():
    # several redundant constraints through the same vertex (Bland's rule)
    res = lp_max(
        [1, 1],
        [(1, 0), (0, 1), (1, 1), (2, 2), (1, 1)],
        [1, 1, 2, 4, 2],
    )
    assert res.status == "optimal"
    assert res.value == 2


def test_lp_exact_fractions():
    res = lp_max([F(1, 3)], [(F(1, 7),)], [F(2, 11)])
    assert res.status == "optimal"
    assert res.value == F(1, 3) * (F(2, 11) * 7)


# ---------------------------------------------------------------------------
# The elimination kernel against the Fraction Gauss-Jordan loops it replaced

def _fraction_row_space_basis(rows):
    mat = [list(map(F, r)) for r in rows]
    basis = []
    pivots = []
    for row in mat:
        row = row[:]
        for b, p in zip(basis, pivots):
            if row[p] != 0:
                factor = row[p] / b[p]
                row = [a - factor * c for a, c in zip(row, b)]
        pivot = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot is not None:
            basis.append(row)
            pivots.append(pivot)
    return [tuple(b) for b in basis], pivots


def _fraction_solve_square(mat, rhs):
    n = len(mat)
    a = [list(map(F, row)) + [F(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def _fraction_gauss_jordan(a, n, stop_at_full=False):
    """Reduced row echelon form of the first n columns of ``a``, in place;
    returns the pivot columns."""
    m = len(a)
    pivots = []
    rk = 0
    for col in range(n):
        pivot = next((i for i in range(rk, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rk], a[pivot] = a[pivot], a[rk]
        pv = a[rk][col]
        a[rk] = [x / pv for x in a[rk]]
        for i in range(m):
            if i != rk and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rk])]
        pivots.append(col)
        rk += 1
        if stop_at_full and rk == m:
            break
    return pivots


def _fraction_solve_any(rows, rhs):
    if not rows:
        return None
    m, n = len(rows), len(rows[0])
    a = [list(map(F, rows[i])) + [F(rhs[i])] for i in range(m)]
    pivots = _fraction_gauss_jordan(a, n, stop_at_full=True)
    for i in range(len(pivots), m):
        if a[i][n] != 0:
            return None
    x = [F(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return tuple(x)


def _fraction_nullspace(rows, ncols=None):
    if not rows:
        return [tuple()] if ncols is None else [
            tuple(F(int(i == j)) for j in range(ncols)) for i in range(ncols)
        ]
    n = len(rows[0])
    a = [list(map(F, r)) for r in rows]
    pivots = _fraction_gauss_jordan(a, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[fc] = F(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return basis


def _fraction_rank(rows):
    if not rows:
        return 0
    return len(_fraction_gauss_jordan([list(map(F, r)) for r in rows], len(rows[0])))


def _random_matrix(rng, m, n):
    """A seeded rational m x n matrix of random rank: integer combinations
    of a few random rows, with zero and duplicate rows mixed in and, half
    the time, rows scaled by fractions."""
    basis = [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(0, min(m, n)))]
    rows = [[sum(c * b[j] for c, b in zip(coef, basis)) for j in range(n)]
            for coef in ([rng.randint(-2, 2) for _ in basis] for _ in range(m))]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(m)] = [0] * n
    if m > 1 and rng.random() < 0.3:
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    if rng.random() < 0.5:
        rows = [[F(x, rng.randint(1, 4)) for x in r] for r in rows]
    return rows


def _check_echelon_form(rows, out):
    kept, pivots, sources = out
    assert len(kept) == len(pivots) == len(sources) == _fraction_rank(rows)
    assert sources == sorted(set(sources))
    for row, p in zip(kept, pivots):
        assert all(type(x) is int for x in row)
        assert primitive(row) == row
        assert next(c for c, x in enumerate(row) if x) == p and row[p] > 0
        assert all(row[q] == 0 for q in pivots if q != p)
    # the kept rows are the reduced row echelon form of the input
    ncols = len(rows[0]) if rows else 0
    a = [list(map(F, r)) for r in rows]
    want_pivots = _fraction_gauss_jordan(a, ncols)
    assert sorted(pivots) == want_pivots
    rref = {p: tuple(F(x, row[p]) for x in row) for row, p in zip(kept, pivots)}
    assert [rref[p] for p in want_pivots] == [tuple(r) for r in a[:len(want_pivots)]]
    # the i-th kept row comes from the first input row that raises the rank
    # to i + 1
    for i, src in enumerate(sources):
        assert _fraction_rank(rows[:src]) == i
        assert _fraction_rank(rows[:src + 1]) == i + 1


def test_echelon_edge_cases():
    assert echelon([]) == ([], [], [])
    assert echelon([(0, 0), (0, 0)]) == ([], [], [])
    assert echelon([(2, 4), (1, 2), (0, 3)]) == ([(1, 0), (0, 1)], [0, 1], [0, 2])
    assert echelon([(0, -2, 4), (3, 1, 1)]) == ([(0, 1, -2), (1, 0, 1)], [1, 0], [0, 1])
    # stops once the rank equals the column count
    assert echelon([(1, 0), (0, 1), (1, 1)])[2] == [0, 1]
    assert echelon([(F(1, 2), F(-1, 3))]) == ([(3, -2)], [0], [0])


def test_echelon_is_the_reduced_row_echelon_form():
    rng = random.Random(20261018)
    for _ in range(400):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        _check_echelon_form(rows, echelon(rows))


def test_wrappers_match_fraction_elimination():
    """rank, nullspace, solve_any and solve_square equal the Fraction loops
    exactly; row_space_basis has the same pivots and row space."""
    rng = random.Random(6)
    inconsistent = singular = 0
    for trial in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, m, n)
        assert nullspace(rows) == _fraction_nullspace(rows)
        assert nullspace(rows, ncols=n) == _fraction_nullspace(rows, ncols=n)

        basis, pivots = row_space_basis(rows)
        old_basis, old_pivots = _fraction_row_space_basis(rows)
        assert pivots == old_pivots
        assert (_fraction_rank(basis) == _fraction_rank(old_basis)
                == _fraction_rank(basis + old_basis) == len(pivots))
        assert all(type(x) is F for b in basis for x in b)

        if trial % 3 == 0:   # a right-hand side in the column space
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum(F(a) * b for a, b in zip(r, x)) for r in rows]
        else:
            rhs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        got = solve_any(rows, rhs)
        assert got == _fraction_solve_any(rows, rhs)
        inconsistent += got is None

        square = _random_matrix(rng, n, n)
        rhs = rhs[:n] + [F(1)] * (n - len(rhs))
        got = solve_square(square, rhs)
        assert got == _fraction_solve_square(square, rhs)
        singular += got is None
    assert inconsistent > 100 and singular > 100


def test_wrappers_without_rows():
    for ncols in (None, 0, 3):
        assert nullspace([], ncols=ncols) == _fraction_nullspace([], ncols=ncols)
    assert solve_any([], []) is None
    assert solve_square([], []) == _fraction_solve_square([], []) == ()
    assert row_space_basis([]) == ([], [])
    assert rank([(0, 0)]) == 0
