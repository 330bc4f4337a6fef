"""Exact rational linear algebra and a small dense simplex solver.

Everything here is exact: Python ints or ``fractions.Fraction``, no
floating point.  All elimination goes through one kernel, ``echelon``: it
scales each row to primitive integers and reduces it fraction-free against
the rows kept so far, so the kept rows are always a scaled reduced row
echelon form.  ``rank``, ``row_space_basis``, ``solve_square``,
``solve_any`` and ``nullspace`` read their answers off that form, the two
solvers through ``affine_solutions``; a caller holding an echelon form
reads its null space through ``null_vectors``.

The simplex uses Bland's rule, so it terminates on degenerate problems.
The library no longer calls it; the tests keep it as the oracle of
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
    if all(type(x) is int for x in vec):
        g = gcd(*vec)
        return tuple(x // g for x in vec) if g > 1 else tuple(vec)
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
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


def echelon(rows):
    """Fraction-free reduced row echelon form of rational rows.

    Rows are taken in order.  Each is scaled to primitive integers and
    reduced against the rows kept so far; a row that does not vanish is
    divided by its content, signed so its pivot (first nonzero entry) is
    positive, and the kept rows are reduced in its pivot column.  Every
    step multiplies by a pivot entry instead of dividing by it, so all
    entries stay integers.  Stops once the rank equals the column count.

    Returns ``(rows, pivots, sources)``: the kept primitive integer rows,
    each zero in every other row's pivot column; the pivot column of each;
    and the index of the input row each came from.  Dividing each row by
    its pivot entry gives the (unique) reduced row echelon form.
    """
    kept, pivots, sources = [], [], []
    for index, row in enumerate(rows):
        red = primitive(row)
        for piv, col in zip(kept, pivots):
            f = red[col]
            if f:
                p = piv[col]
                red = [p * a - f * b for a, b in zip(red, piv)]
        col = next((c for c, x in enumerate(red) if x), None)
        if col is None:
            continue
        g = gcd(*red)
        if red[col] < 0:
            g = -g
        red = [x // g for x in red]
        p = red[col]
        for k, piv in enumerate(kept):
            f = piv[col]
            if f:
                new = [p * a - f * b for a, b in zip(piv, red)]
                g = gcd(*new)
                kept[k] = [x // g for x in new]
        kept.append(red)
        pivots.append(col)
        sources.append(index)
        if len(kept) == len(red):
            break
    return [tuple(r) for r in kept], pivots, sources


def rank(rows) -> int:
    """Rank of a list of rational vectors."""
    return len(echelon(rows)[1])


def row_space_basis(rows):
    """(basis, pivots): the reduced row echelon rows of the row space, as
    Fractions, in the order of the input rows they came from."""
    basis, pivots, _ = echelon(rows)
    rref = [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(basis, pivots)]
    return rref, pivots


def null_vectors(basis, pivots, n):
    """Basis of the null space of the first n columns of an echelon form
    (rows and pivots as ``echelon`` returns them, every pivot below n): one
    vector per free column, 1 there and 0 in the other free columns."""
    out = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, p in zip(basis, pivots):
            vec[p] = Fraction(-r[fc], r[p])
        out.append(tuple(vec))
    return out


def affine_solutions(rows, rhs, n):
    """(x, null) for rows.x = rhs in n unknowns, from one echelon form of
    [rows | rhs]: x has the free unknowns (the non-pivot columns) zero, and
    null is ``nullspace(rows, ncols=n)``.  None if the system is
    inconsistent."""
    basis, pivots, _ = echelon([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, p in zip(basis, pivots):
        x[p] = Fraction(r[n], r[p])
    return tuple(x), null_vectors(basis, pivots, n)


def solve_square(mat, rhs):
    """Solve an invertible square rational system; returns None if singular."""
    sol = affine_solutions(mat, rhs, len(mat))
    return sol[0] if sol is not None and not sol[1] else None


def solve_any(rows, rhs):
    """One particular solution of a consistent rational system, else None.

    The free unknowns (the non-pivot columns) are zero.
    """
    if not rows:
        return None
    sol = affine_solutions(rows, rhs, len(rows[0]))
    return None if sol is None else sol[0]


def nullspace(rows, ncols=None):
    """Basis of the right null space of a rational matrix: one vector per
    free column, 1 there and 0 in the other free columns."""
    if not rows:
        return [tuple()] if ncols is None else null_vectors([], [], ncols)
    basis, pivots, _ = echelon(rows)
    return null_vectors(basis, pivots, len(rows[0]))


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
