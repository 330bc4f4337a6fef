"""Decomposition of symmetric powers of the fermionic space.

Weight multiplicities of S^m(wedge^n C^r) (multisets of orbital subsets,
counted by Newton's recurrence), Kostka numbers by semistandard-tableau
recursion, triangular inversion to irreducible multiplicities, the
normalized occurring spectra, and the convex-hull inner approximation of
the pure one-body spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .chambers import HullResult, canon_inequality, convex_hull
from .rational import dot, nullspace, to_fractions

CAP_BASIS = 70
CAP_POWER = 4


class PlethysmError(ValueError):
    """Raised when a computation exceeds its caps or its inputs clash."""


def _check_caps(r, n, m):
    if not 0 < n < r:
        raise PlethysmError(f"need 0 < n < r, got r={r}, n={n}")
    if comb(r, n) > CAP_BASIS or m > CAP_POWER or m < 1:
        raise PlethysmError(
            f"capped at C(r,n) <= {CAP_BASIS} and 1 <= m <= {CAP_POWER}; "
            f"got C({r},{n}) = {comb(r, n)}, m = {m}"
        )


def weight_multiplicities(r: int, n: int, m: int) -> dict:
    """Counts of size-m multisets of n-subsets of {1..r} by total content.

    Keys are length-r occupation vectors; the counts total the dimension of
    the m-th symmetric power, C(C(r,n)+m-1, m).

    The character h_j[e_n] of S^j(wedge^n C^r) obeys Newton's identity
    j h_j[e_n] = sum_{k=1..j} p_k[e_n] h_{j-k}[e_n], where p_k[e_n] has
    weight k times each subset indicator with coefficient 1.  A weight is
    packed into one int in base m + 1 (no entry of a degree-j weight
    exceeds j), so adding weights is adding ints.
    """
    _check_caps(r, n, m)
    base = m + 1
    subsets = [sum(base ** i for i in s) for s in combinations(range(r), n)]
    chars = [{0: 1}]
    for j in range(1, m + 1):
        acc = {}
        for k in range(1, j + 1):
            steps = [k * s for s in subsets]
            for w, cnt in chars[j - k].items():
                for step in steps:
                    key = w + step
                    acc[key] = acc.get(key, 0) + cnt
        char = {}
        for w, total in acc.items():
            count, rem = divmod(total, j)
            if rem:
                raise PlethysmError(
                    f"Newton recurrence left a remainder at degree {j}: "
                    f"{total} is not divisible by {j}"
                )
            char[w] = count
        chars.append(char)
    return _unpack_weights(chars[m], r, base)


def _unpack_weights(packed: dict, r: int, base: int) -> dict:
    """Occupation-vector keys for base-``base`` packed weights.

    Each weight is cut into a low and a high half whose digit tuples are
    computed once per distinct half and concatenated.
    """
    low = r // 2
    cut = base ** low
    lows, highs = {}, {}
    out = {}
    for w, cnt in packed.items():
        high, rest = divmod(w, cut)
        if rest not in lows:
            lows[rest] = _digits(rest, low, base)
        if high not in highs:
            highs[high] = _digits(high, r - low, base)
        out[lows[rest] + highs[high]] = cnt
    return out


def _digits(value: int, size: int, base: int) -> tuple:
    digits = []
    for _ in range(size):
        value, digit = divmod(value, base)
        digits.append(digit)
    return tuple(digits)


@lru_cache(maxsize=None)
def kostka(lam: tuple, mu: tuple) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Content order is irrelevant; the recursion peels the last content entry
    as a horizontal strip.
    """
    lam = tuple(x for x in lam if x)
    mu = tuple(sorted((x for x in mu if x), reverse=True))
    if sum(lam) != sum(mu):
        raise PlethysmError(f"|lam| = {sum(lam)} differs from |mu| = {sum(mu)}")
    if not mu:
        return 1
    last = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _strip_predecessors(lam, last):
        total += kostka(nu, rest)
    return total


def _strip_predecessors(lam, size):
    """Shapes nu with lam/nu a horizontal strip of the given size."""
    rows = len(lam)

    def rec(i, remaining, prev_upper, acc):
        if i == rows:
            if remaining == 0:
                yield tuple(x for x in acc if x)
            return
        low = lam[i + 1] if i + 1 < rows else 0
        high = min(lam[i], prev_upper)
        for v in range(high, low - 1, -1):
            removed = lam[i] - v
            if removed > remaining:
                continue
            yield from rec(i + 1, remaining - removed, v, acc + [v])

    yield from rec(0, size, lam[0] if rows else 0, [])


def weyl_dimension(lam: tuple, r: int) -> int:
    """Dimension of the GL(r) irreducible with highest weight lam."""
    lam = tuple(lam) + (0,) * (r - len(lam))
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if num.denominator != 1:
        raise PlethysmError("Weyl dimension did not reduce to an integer")
    return int(num)


@dataclass(frozen=True)
class PlethysmDecomposition:
    """Multiplicities of the irreducible components of S^m(wedge^n C^r).

    Keys of ``multiplicities`` are highest weights padded to r parts; every
    diagram fits the r x m rectangle and the dimension identity
    sum m_lam dim(lam) = C(C(r,n)+m-1, m) holds exactly.
    """

    r: int
    n: int
    m: int
    multiplicities: tuple  # ((weight, mult), ...) sorted lex descending

    def as_dict(self) -> dict:
        return dict(self.multiplicities)

    @property
    def total_dimension(self) -> int:
        return comb(comb(self.r, self.n) + self.m - 1, self.m)


def decompose(r: int, n: int, m: int) -> PlethysmDecomposition:
    """Irreducible decomposition by dominance-triangular Kostka elimination."""
    weights = weight_multiplicities(r, n, m)
    dominant = {
        w: c for w, c in weights.items() if all(a >= b for a, b in zip(w, w[1:]))
    }
    mults = {}
    for lam in sorted(dominant, reverse=True):
        value = dominant[lam]
        for mu, c in mults.items():
            if c and mu > lam:
                value -= c * kostka(mu, lam)
        if value < 0:
            raise PlethysmError(
                f"negative multiplicity for {lam}: combinatorics bug"
            )
        if value:
            if lam[0] > m:
                raise PlethysmError(f"component {lam} leaves the r x m rectangle")
            mults[lam] = value
    total = sum(c * weyl_dimension(w, r) for w, c in mults.items())
    expected = comb(comb(r, n) + m - 1, m)
    if total != expected:
        raise PlethysmError(
            f"dimension identity failed: {total} != {expected}"
        )
    return PlethysmDecomposition(
        r, n, m, tuple(sorted(mults.items(), reverse=True))
    )


def complement_weight(lam: tuple, r: int, m: int) -> tuple:
    """Complement of the diagram in the r x m rectangle, reversed."""
    lam = tuple(lam) + (0,) * (r - len(lam))
    return tuple(m - lam[r - 1 - i] for i in range(r))


def selfdual_check(r: int, n: int, m: int) -> bool:
    """True iff every component of S^m(wedge^n C^r) is rectangle-self-dual."""
    dec = decompose(r, n, m)
    return all(
        complement_weight(w, r, m) == w for w, _ in dec.multiplicities
    )


def occurring_spectra(r: int, n: int, max_power: int) -> tuple:
    """Normalized highest weights lam/m over all components with m <= M.

    Exact rationals, trace n, deduplicated and sorted.
    """
    out = {}
    for m in range(1, max_power + 1):
        for w, _ in decompose(r, n, m).multiplicities:
            out[tuple(Fraction(x, m) for x in w)] = True
    return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class InnerApproximation:
    r: int
    n: int
    max_power: int
    points: tuple
    hull: HullResult
    facet_matches: tuple  # per facet: tuple of matching catalog labels


def inner_approximation(r: int, n: int, max_power: int, dim_cap: int = 7) -> InnerApproximation:
    """Convex hull of the occurring spectra, with each facet matched against
    the catalogued linear constraints of the system (modulo the affine hull).
    """
    points = occurring_spectra(r, n, max_power)
    hull = convex_hull(points, dim_cap=dim_cap)
    matches = tuple(
        tuple(_matching_catalog_labels(r, n, normal, rhs, hull, points))
        for normal, rhs in hull.facets
    )
    return InnerApproximation(r, n, max_power, points, hull, matches)


def _restricted_form(normal, rhs, directions, base_point):
    vec = tuple(dot(to_fractions(normal), d) for d in directions)
    offset = Fraction(rhs) - dot(to_fractions(normal), base_point)
    return canon_inequality(vec, offset)


def _matching_catalog_labels(r, n, normal, rhs, hull, points):
    from .catalog import FAMILIES
    from .systems import SystemDescriptor

    if not points:
        return []
    base_point = to_fractions(points[0])
    eq_rows = [to_fractions(nrm) for nrm, _ in hull.equalities]
    directions = nullspace(eq_rows, ncols=r) if eq_rows else [
        tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)
    ]
    target = _restricted_form(normal, rhs, directions, base_point)
    system = SystemDescriptor("fermion", r=r, n=n, pure=True)
    labels = []
    for fid in sorted(FAMILIES):
        fam = FAMILIES[fid]
        if not fam.matcher(system) or not fam.records:
            continue
        for rec in fam.records:
            terms = dict(rec.terms)
            if set(terms) != {"lam"} or rec.relation != "<=":
                continue
            cand = _restricted_form(terms["lam"], rec.bound, directions, base_point)
            if cand == target:
                labels.append(f"{fid}:{rec.label}")
    return labels
