"""Decomposition of symmetric powers of the fermionic space.

Weight multiplicities of S^m(wedge^n C^r) (multisets of orbital subsets,
counted by Newton's recurrence on dominant weights), Kostka numbers by
semistandard-tableau recursion, triangular inversion to irreducible
multiplicities, the normalized occurring spectra, and the convex-hull inner
approximation of the pure one-body spectra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .chambers import HullResult, canon_inequality, convex_hull
from .rational import dot, nullspace, to_fractions
from .records import FAMILIES, applicable_families
from .spectra import dominates
from .systems import SystemDescriptor

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


def _partitions(total: int, parts: int, largest: int):
    """Non-increasing ``parts``-tuples of entries <= ``largest`` summing to
    ``total`` (partitions padded with zeros)."""
    if total == 0:
        yield (0,) * parts
        return
    if parts == 0:
        return
    for first in range(min(total, largest), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _orbit_size(lam: tuple) -> int:
    """Number of distinct rearrangements of ``lam``: r! / prod(b_i!)."""
    size = factorial(len(lam))
    for block in Counter(lam).values():
        size //= factorial(block)
    return size


def _dominant_characters(r: int, n: int, m: int) -> list:
    """The chain [c_0, ..., c_m] of the characters h_j[e_n] of
    S^j(wedge^n C^r) on dominant weights only.

    c_j maps each partition lam of j*n (r parts, entries <= j) with a
    nonzero count to the multiplicity of the weight lam.  The character is
    S_r-symmetric, so Newton's identity j h_j = sum_{k=1..j} p_k[e_n]
    h_{j-k} reads j c_j(lam) = sum_k sum_{|S|=n} c_{j-k}(sort(lam - k 1_S));
    a term with a negative entry is zero.  Since lam is non-increasing, the
    entries >= k form a prefix and S ranges over its n-subsets.
    """
    chars = [{(0,) * r: 1}]
    for j in range(1, m + 1):
        char = {}
        for lam in _partitions(j * n, r, j):
            total = 0
            for k in range(1, j + 1):
                prev = chars[j - k]
                prefix = sum(1 for x in lam if x >= k)
                for subset in combinations(range(prefix), n):
                    mu = list(lam)
                    for i in subset:
                        mu[i] -= k
                    mu.sort(reverse=True)
                    total += prev.get(tuple(mu), 0)
            count, rem = divmod(total, j)
            if rem:
                raise PlethysmError(
                    f"Newton recurrence left a remainder at degree {j}: "
                    f"{total} is not divisible by {j}"
                )
            if count:
                char[lam] = count
        orbits = sum(_orbit_size(lam) * c for lam, c in char.items())
        expected = comb(comb(r, n) + j - 1, j)
        if orbits != expected:
            raise PlethysmError(
                f"orbit count failed at degree {j}: {orbits} != {expected}"
            )
        chars.append(char)
    return chars


def weight_multiplicities(r: int, n: int, m: int) -> dict:
    """Counts of size-m multisets of n-subsets of {1..r} by total content.

    Keys are length-r occupation vectors; the counts total the dimension of
    the m-th symmetric power, C(C(r,n)+m-1, m).  Each dominant weight of
    ``_dominant_characters`` is expanded over its S_r-orbit.
    """
    _check_caps(r, n, m)
    memo = {}
    out = {}
    for lam, count in _dominant_characters(r, n, m)[m].items():
        out.update(dict.fromkeys(_arrangements(lam, memo), count))
    return out


def _arrangements(values: tuple, memo: dict) -> list:
    """Distinct rearrangements of the non-increasing tuple ``values``.

    Meet in the middle: every rearrangement is a rearrangement of a
    sub-multiset of half the length followed by one of its complement, and
    the halves are memoized in ``memo`` by their sorted values.
    """
    got = memo.get(values)
    if got is not None:
        return got
    if values[0] == values[-1]:
        out = [values]
    else:
        counts = Counter(values)
        distinct = sorted(counts, reverse=True)
        out = []
        for picks in _sub_multisets([counts[v] for v in distinct], len(values) // 2):
            low = tuple(v for v, t in zip(distinct, picks) for _ in range(t))
            high = tuple(v for v, t in zip(distinct, picks)
                         for _ in range(counts[v] - t))
            highs = _arrangements(high, memo)
            out += [a + b for a in _arrangements(low, memo) for b in highs]
    memo[values] = out
    return out


def _sub_multisets(blocks: list, size: int):
    """Count vectors t with 0 <= t_i <= blocks[i] and sum t = size."""
    if len(blocks) == 1:
        if size <= blocks[0]:
            yield (size,)
        return
    rest = sum(blocks[1:])
    for t in range(min(blocks[0], size), max(0, size - rest) - 1, -1):
        for tail in _sub_multisets(blocks[1:], size - t):
            yield (t,) + tail


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
    if not dominates(lam, mu):   # K(lam, mu) != 0 exactly when lam dominates mu
        return 0
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

    @property
    def total_dimension(self) -> int:
        return comb(comb(self.r, self.n) + self.m - 1, self.m)


def decompose(r: int, n: int, m: int) -> PlethysmDecomposition:
    """Irreducible decomposition by dominance-triangular Kostka elimination."""
    _check_caps(r, n, m)
    return _decompose(r, n, m, _dominant_characters(r, n, m)[m])


def _decompose(r: int, n: int, m: int, dominant: dict) -> PlethysmDecomposition:
    """Kostka elimination of the dominant weight multiplicities of
    S^m(wedge^n C^r), largest weight first.

    K(mu, lam) is nonzero exactly when mu dominates lam, so only the
    components whose partial sums all reach lam's are subtracted.
    """
    mults = {}
    for lam in sorted(dominant, reverse=True):
        value = dominant[lam]
        for mu, c in mults.items():
            if dominates(mu, lam):
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


def occurring_spectra(r: int, n: int, max_power: int) -> tuple:
    """Normalized highest weights lam/m over all components with m <= M.

    Exact rationals, trace n, deduplicated and sorted.  One character
    chain h_1..h_M serves every m.
    """
    _check_caps(r, n, max_power)
    chars = _dominant_characters(r, n, max_power)
    out = {}
    for m in range(1, max_power + 1):
        for w, _ in _decompose(r, n, m, chars[m]).multiplicities:
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


def inner_approximation(r: int, n: int, max_power: int) -> InnerApproximation:
    """Convex hull of the occurring spectra, with each facet matched against
    the catalogued linear constraints of the system (modulo the affine hull).
    """
    points = occurring_spectra(r, n, max_power)
    hull = convex_hull(points)
    matches = _facet_matches(r, n, hull, points)
    return InnerApproximation(r, n, max_power, points, hull, matches)


def _restricted_form(normal, rhs, directions, base_point):
    vec = tuple(dot(to_fractions(normal), d) for d in directions)
    offset = Fraction(rhs) - dot(to_fractions(normal), base_point)
    return canon_inequality(vec, offset)


def _facet_matches(r, n, hull, points) -> tuple:
    """Per facet, the labels of the catalogued fermionic constraints whose
    form restricted to the affine hull equals the facet's.

    The hull's directions, its base point and the restricted forms of the
    catalog records are computed once for all facets.
    """
    if not hull.facets:
        return ()
    base_point = to_fractions(points[0])
    eq_rows = [to_fractions(nrm) for nrm, _ in hull.equalities]
    directions = nullspace(eq_rows, ncols=r) if eq_rows else [
        tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)
    ]
    catalog = []
    for fid in applicable_families(SystemDescriptor("fermion", r=r, n=n, pure=True)):
        for rec in FAMILIES[fid].records:
            terms = dict(rec.terms)
            if set(terms) != {"lam"} or rec.relation != "<=":
                continue
            form = _restricted_form(terms["lam"], rec.bound, directions, base_point)
            catalog.append((form, f"{fid}:{rec.label}"))
    targets = [_restricted_form(normal, rhs, directions, base_point)
               for normal, rhs in hull.facets]
    return tuple(
        tuple(label for form, label in catalog if form == target)
        for target in targets
    )
