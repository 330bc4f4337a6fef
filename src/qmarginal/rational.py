"""Exact rational linear algebra and a small dense simplex solver.

Everything here is exact: ``fractions.Fraction``, or Python ints where
``rank`` eliminates fraction-free; no floating point.  The simplex uses
Bland's rule, so it terminates on degenerate problems.  The library no
longer calls it; the tests keep it as the oracle of
``chambers.redundancy_filter``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def to_fractions(vec):
    return tuple(Fraction(v) for v in vec)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def primitive(vec):
    """Scale a rational vector by a positive factor to coprime integers."""
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def canon_hyperplane(vec):
    """Primitive integer normal with the first nonzero entry positive."""
    ints = list(primitive(vec))
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def rank(rows) -> int:
    """Rank of a list of rational vectors.

    Each row is scaled to integers, then eliminated fraction-free (Bareiss):
    every division is exact, so entries stay integers of bounded size.
    """
    mat = [list(r) if all(type(x) is int for x in r) else list(primitive(r))
           for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rk = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rk], mat[pivot] = mat[pivot], mat[rk]
        prow = mat[rk]
        pv = prow[col]
        for i in range(rk + 1, len(mat)):
            row = mat[i]
            f = row[col]
            mat[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = pv
        rk += 1
        if rk == len(mat):
            break
    return rk


def row_space_basis(rows):
    """Independent subset-spanning basis (echelon rows) of the row space."""
    mat = [list(map(Fraction, r)) for r in rows]
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


def solve_square(mat, rhs):
    """Solve an invertible square rational system; returns None if singular."""
    n = len(mat)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(mat)]
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


def solve_any(rows, rhs):
    """One particular solution of a consistent rational system, else None."""
    if not rows:
        return None
    m, n = len(rows), len(rows[0])
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(m)]
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
        if rk == m:
            break
    for i in range(rk, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return tuple(x)


def nullspace(rows, ncols=None):
    """Basis of the right null space of a rational matrix."""
    if not rows:
        return [tuple()] if ncols is None else [
            tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)
        ]
    n = len(rows[0])
    a = [list(map(Fraction, r)) for r in rows]
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
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return basis


class LPResult:
    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LPResult({self.status}, {self.value})"


def lp_max(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """Maximize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Exact two-phase simplex on the split-variable standard form.  Returns
    an LPResult with status in {"optimal", "unbounded", "infeasible"}.
    """
    c = to_fractions(c)
    n = len(c)
    rows = []
    rhs = []
    # x = u - v with u, v >= 0; one slack per inequality row.
    n_ub = len(a_ub)
    for i, row in enumerate(a_ub):
        r = to_fractions(row)
        slack = [Fraction(0)] * n_ub
        slack[i] = Fraction(1)
        rows.append(list(r) + [-x for x in r] + slack)
        rhs.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        r = to_fractions(row)
        rows.append(list(r) + [-x for x in r] + [Fraction(0)] * n_ub)
        rhs.append(Fraction(b_eq[i]))
    nvars = 2 * n + n_ub
    obj = list(c) + [-x for x in c] + [Fraction(0)] * n_ub

    # Make right-hand sides nonnegative, then add one artificial per row.
    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    total = nvars + m
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [nvars + i for i in range(m)]

    def pivot(t, bs, row, col):
        pv = t[row][col]
        t[row] = [x / pv for x in t[row]]
        for i in range(len(t)):
            if i != row and t[i][col] != 0:
                factor = t[i][col]
                t[i] = [x - factor * y for x, y in zip(t[i], t[row])]
        bs[row] = col

    def run_phase(t, bs, cost, allowed):
        # cost: row of reduced-cost coefficients for a minimization of cost.x
        while True:
            z = [Fraction(0)] * (len(cost) + 1)
            for i, b in enumerate(bs):
                cb = cost[b]
                if cb != 0:
                    for j in range(len(cost)):
                        z[j] += cb * t[i][j]
                    z[-1] += cb * t[i][-1]
            reduced = [cost[j] - z[j] for j in range(len(cost))]
            enter = next(
                (j for j in range(allowed) if reduced[j] < 0), None
            )
            if enter is None:
                return "optimal", z[-1]
            ratios = [
                (t[i][-1] / t[i][enter], i)
                for i in range(len(t))
                if t[i][enter] > 0
            ]
            if not ratios:
                return "unbounded", None
            _, leave = min(ratios, key=lambda p: (p[0], bs[p[1]]))
            pivot(t, bs, leave, enter)

    # Phase 1: minimize the artificial sum.
    cost1 = [Fraction(0)] * nvars + [Fraction(1)] * m
    status, value = run_phase(tableau, basis, cost1, total)
    if status != "optimal" or value != 0:
        return LPResult("infeasible")
    # Drive leftover artificial basic variables out where possible.
    for i in range(m):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(tableau, basis, i, col)

    # Phase 2: minimize -obj over the original variables.
    cost2 = [-x for x in obj] + [Fraction(0)] * m
    status, value = run_phase(tableau, basis, cost2, nvars)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][-1]
    sol = tuple(x[j] - x[n + j] for j in range(n))
    return LPResult("optimal", -value, sol)
