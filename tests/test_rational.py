"""Exact rational linear algebra and the dense simplex."""

from fractions import Fraction as F

from qmarginal.rational import (
    canon_hyperplane,
    lp_max,
    nullspace,
    primitive,
    rank,
    solve_any,
    solve_square,
)


def test_primitive_and_canon():
    assert primitive((F(1, 2), F(1, 3))) == (3, 2)
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert canon_hyperplane((-2, 4)) == (1, -2)
    assert canon_hyperplane((0, -3, 6)) == (0, 1, -2)


def test_rank():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0


def test_rank_matches_fraction_elimination_on_deficient_matrices():
    import random

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
