"""Exact rational polyhedral geometry.

Cubicle hyperplane arrangements for test spectra, chamber enumeration by
depth-first double description, extremal-edge extraction, convex hulls of
rational point sets, and redundancy filtering.  The double-description
engine works on primitive integer vectors, and each cone it builds is
pruned and keeps one incidence bitmask per ray.  Hulls and the filter
homogenize in full coordinates; ``_generators`` alone splits their cones
into lineality space and pointed part.  No floating point enters here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import gcd, lcm
from operator import mul, sub

from .rational import (
    canon_hyperplane,
    dot,
    echelon,
    null_vectors,
    primitive,
    rank,
    to_fractions,
)
from .systems import SystemDescriptor, SystemError, parse_system

DIM_CAP = 7


class GeometryError(ValueError):
    """Raised for unsupported dimensions or degenerate inputs."""


@dataclass(frozen=True)
class Cone:
    """Pointed polyhedral cone carried in both representations.

    ``ineqs`` are integer normals (h.x >= 0); ``rays`` are the primitive
    extreme rays.  ``incidence`` holds one int per ray whose bit j is set
    when ``ineqs[j]`` is tight on that ray.  Only a cone in pruned form
    (implicit equalities and one inequality per facet), as the engine
    builds them, may carry it; one without it is pruned at its first cut.
    """

    ineqs: tuple
    rays: tuple
    incidence: tuple = field(default=None, compare=False, repr=False)

    @property
    def dim(self):
        return len(self.rays[0]) if self.rays else len(self.ineqs[0])


def _idot(u, v):
    return sum(map(mul, u, v))


def _bits(mask):
    """Indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _tight_mask(row, vectors) -> int:
    """Bit i is set when ``row`` is orthogonal to ``vectors[i]``."""
    return sum(1 << i for i, v in enumerate(vectors) if _idot(row, v) == 0)


def positive_orthant(d: int) -> Cone:
    ineqs = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    rays = ineqs
    return Cone(ineqs, rays)


def sorted_nonneg_cone(d: int) -> Cone:
    """{0 <= x1 <= x2 <= ... <= xd}; rays have k trailing ones."""
    ineqs = [tuple(int(j == 0) for j in range(d))]
    for i in range(d - 1):
        row = [0] * d
        row[i] = -1
        row[i + 1] = 1
        ineqs.append(tuple(row))
    rays = tuple(tuple(int(j >= d - k) for j in range(d)) for k in range(1, d + 1))
    return Cone(tuple(ineqs), rays)


def _prune(ineqs, rays, masks):
    """Cone with the redundant inequalities of a ray-complete one dropped.

    An inequality tight on every ray is an implicit equality and stays.  Of
    the others, one per maximal tight ray set stays: those are the facets.
    """
    full = (1 << len(rays)) - 1
    tight = [0] * len(ineqs)
    for i, mask in enumerate(masks):
        for j in _bits(mask):
            tight[j] |= 1 << i
    partial = [t for t in tight if t != full]
    keep, seen = [], set()
    for j, t in enumerate(tight):
        if t != full:
            if t in seen or any(t & u == t and u != t for u in partial):
                continue
            seen.add(t)
        keep.append(j)
    if len(keep) < len(ineqs):
        ineqs = tuple(ineqs[j] for j in keep)
        masks = [0] * len(rays)
        for k, j in enumerate(keep):
            for i in _bits(tight[j]):
                masks[i] |= 1 << k
    return Cone(tuple(ineqs), tuple(rays), tuple(masks))


def _facet_side(ineqs, rays, masks, strict):
    """Side of a real cut of a cone in the form ``_prune`` leaves: its
    implicit equalities and one inequality per facet.  The new normal is
    the last of ``ineqs``; the first ``strict`` rays lie strictly inside
    the side.

    An old facet stays a facet iff one of its tight rays lies strictly
    inside, an equality is tight on those rays too, and the new hyperplane
    is a facet of both sides.  So one OR over those rays' masks gives the
    inequalities ``_prune`` would keep, and the masks drop the other bits.
    """
    keep = 1 << (len(ineqs) - 1)
    for mask in masks[:strict]:
        keep |= mask
    dropped = _bits(((1 << len(ineqs)) - 1) ^ keep)
    if dropped:
        ineqs = tuple(n for j, n in enumerate(ineqs) if keep >> j & 1)
        for j in reversed(dropped):
            low = (1 << j) - 1
            masks = [m & low | m >> (j + 1) << j for m in masks]
    return Cone(ineqs, tuple(rays), tuple(masks))


def _cut(cone: Cone, h, both: bool, vals=None):
    """One double-description step: the parts (plus, minus) of ``cone``
    with h.x >= 0 and h.x <= 0, ``minus`` built only when ``both``.

    A part the hyperplane leaves whole is the cone itself; when ``both``,
    the other part (a face) is then None.  A built part keeps its side's
    rays, the rays on h.x = 0 and the crossing rays.  A crossing ray lies
    on h.x = 0 between adjacent rays p and q of opposite sides; they are
    adjacent when no third ray is tight on every inequality the two share,
    and a shared tight set below d - 2 rules adjacency out at once.

    ``vals`` are the values h.r of the rays when the caller has them.  A
    cone without ``incidence`` is pruned first.  ``_facet_side`` builds a
    part with a ray strictly inside, ``_prune`` a face (not when ``both``).
    """
    rays = cone.rays
    if vals is None:
        vals = [_idot(h, r) for r in rays]
    pos = [i for i, v in enumerate(vals) if v > 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    if not neg:
        return cone, None
    if both and not pos:
        return None, cone
    if cone.incidence is None:
        cone = _prune(cone.ineqs, rays, [_tight_mask(r, cone.ineqs) for r in rays])
    masks = cone.incidence
    bit, d = 1 << len(cone.ineqs), cone.dim
    zer = [i for i, v in enumerate(vals) if v == 0]
    on_rays = [rays[i] for i in zer]
    on_masks = [masks[i] | bit for i in zer]
    for p in pos:
        mp, vp, rp = masks[p], vals[p], rays[p]
        for q in neg:
            common = mp & masks[q]
            if common.bit_count() < d - 2:
                continue
            # p and q themselves always contain the shared set
            if sum(m & common == common for m in masks) > 2:
                continue
            new = [vp * b - vals[q] * a for a, b in zip(rp, rays[q])]
            g = gcd(*new)
            on_rays.append(tuple(x // g for x in new) if g > 1 else tuple(new))
            on_masks.append(common | bit)
    sides = ((pos, h), (neg, tuple(-x for x in h))) if both else ((pos, h),)
    parts = []
    for side, normal in sides:
        args = (cone.ineqs + (normal,), [rays[i] for i in side] + on_rays,
                [masks[i] for i in side] + on_masks)
        parts.append(_facet_side(*args, len(side)) if side else _prune(*args))
    return parts[0], parts[1] if both else None


def split_cone(cone: Cone, h):
    """Split a cone by the hyperplane h.x = 0.

    Returns (plus, minus); a side is None when the hyperplane does not cut
    the cone's interior (the cone then lies weakly on the other side, and
    is returned unchanged as that side).
    """
    return _cut(cone, primitive(h), both=True)


def _simplicial_start(rows, d):
    """Indices of d independent rows, and the extreme rays of their cone.

    The echelon form of [B | I] for the chosen rows B is [I | B^-1] up to
    row scaling, so ray j is column j of B^-1 scaled positively.
    """
    chosen = echelon(rows)[2]
    if len(chosen) < d:
        raise GeometryError("cone is not pointed (normals do not span)")
    red, pivots, _ = echelon([tuple(rows[i]) + tuple(int(j == k) for j in range(d))
                              for k, i in enumerate(chosen)])
    by_pivot = [row for _, row in sorted(zip(pivots, red))]   # pivots 0..d-1
    scale = lcm(*(row[p] for p, row in enumerate(by_pivot)))
    factors = [scale // row[p] for p, row in enumerate(by_pivot)]
    rays = [primitive([f * row[d + j] for f, row in zip(factors, by_pivot)])
            for j in range(d)]
    return chosen, rays


def rays_from_inequalities(ineqs, d: int) -> tuple:
    """Extreme rays of the pointed cone {x : ineqs . x >= 0}.

    Starts from an invertible subset of the normals and inserts the rest by
    double description steps.  A cone without interior yields the extreme
    rays of the face it is; the cone {0} yields ().
    """
    rows = [primitive(r) for r in ineqs]
    _check_lengths(rows, d, "a normal")
    rows = [r for r in rows if any(r)]
    chosen, rays = _simplicial_start(rows, d)
    full = (1 << d) - 1
    cone = Cone(tuple(rows[i] for i in chosen), tuple(rays),
                tuple(full ^ (1 << j) for j in range(d)))
    skip = set(chosen)
    for i, h in enumerate(rows):
        if i not in skip:
            cone = _cut(cone, h, both=False)[0]
    return cone.rays


@dataclass(frozen=True)
class Chamber:
    """Full-dimensional sign chamber of an arrangement."""

    signs: tuple   # one of '+', '-' per hyperplane
    cone: Cone

    def barycenter(self):
        """Sum of the extreme rays, as Fractions: a point of the interior."""
        return tuple(Fraction(sum(col)) for col in zip(*self.cone.rays))


@dataclass(frozen=True)
class Arrangement:
    """Cubicle arrangement of a system's test-spectrum cone."""

    system: SystemDescriptor
    cone: Cone
    hyperplanes: tuple
    chart: Chart = field(compare=False)

    @property
    def dim(self):
        return self.cone.dim


def _cuts_interior(h, cone: Cone) -> bool:
    vals = [_idot(h, r) for r in cone.rays]
    return any(v > 0 for v in vals) and any(v < 0 for v in vals)


@dataclass(frozen=True)
class Chart:
    """Exact linear map from chart coordinates to concatenated test spectra:
    entry i is rows[i] . x / denom for integer ``rows``.  ``sizes`` are the
    lengths of the spectra, in order."""

    rows: tuple
    denom: int
    sizes: tuple

    def to_test_spectra(self, vec):
        """The test spectra of a chart point, as Fractions.  A non-int
        coordinate is read exactly by ``Fraction``, so a float keeps its
        binary value.  The point is put over one denominator, so each entry
        is one integer dot product and one division."""
        _check_lengths([vec], len(self.rows[0]), "a chart point")
        x = [v if type(v) is int else Fraction(v) for v in vec]
        scale = lcm(*(v.denominator for v in x))
        nums = [v.numerator * (scale // v.denominator) for v in x]
        flat = [Fraction(_idot(row, nums), self.denom * scale) for row in self.rows]
        ends = accumulate(self.sizes)
        return tuple(tuple(flat[end - size:end]) for size, end in zip(self.sizes, ends))


def _qubit_chart(n):
    """Per-site values a_i; site i's test spectrum is (a_i, -a_i)."""
    rows = tuple(tuple(sign * (j == i) for j in range(n))
                 for i in range(n) for sign in (1, -1))
    return Chart(rows, 1, (2,) * n)


def _difference_chart(sizes):
    """Successive differences of each nonincreasing zero-sum spectrum.  Entry
    k of a spectrum of size s is the tail sum of its differences less their
    mean: the sum over p of ([p >= k] - (p + 1) / s) diff_p."""
    denom, dim = lcm(*sizes), sum(sizes) - len(sizes)
    rows, start = [], 0
    for s in sizes:
        for k in range(s):
            row = [0] * dim
            row[start:start + s - 1] = [denom * (p >= k) - denom // s * (p + 1)
                                        for p in range(s - 1)]
            rows.append(tuple(row))
        start += s - 1
    return Chart(tuple(rows), denom, tuple(sizes))


def _tie_hyperplanes(chart, subsets, cone):
    """Walls where two subset sums of the concatenated test spectra tie.

    ``subsets`` are 0-based index tuples into the concatenated spectra.  A
    subset's image, the sum of its chart rows, is ``denom`` times its sum as
    a functional of chart coordinates, and the wall of subsets s and t is
    the difference of their images.  Returns the canonical normals of the
    walls that cut the cone's interior, sorted.
    """
    images = [tuple(map(sum, zip(*(chart.rows[i] for i in s)))) for s in subsets]
    rows = {tuple(map(sub, p, q)) for p, q in combinations(images, 2)}
    walls = {canon_hyperplane(row) for row in rows if any(row)}
    return tuple(sorted(h for h in walls if _cuts_interior(h, cone)))


def cubicle_arrangement(system) -> Arrangement:
    """Ambient test-spectrum cone and the tie hyperplanes that cut it.

    Every system kind is treated as sums over subsets of its concatenated
    test spectra: an array of qubits takes one entry of (a_i, -a_i) per
    site, an m x n format the pairs {a_i, b_j}, a fermionic system the
    n-subsets of a.  Qubit arrays use the per-site values a_i >= 0 sorted
    increasing; tensor and fermionic systems use the dominance cone of
    nonincreasing zero-sum spectra in successive-difference coordinates.
    """
    if isinstance(system, str):
        system = parse_system(system)
    if system.kind == "qubits":
        n = len(system.dims)
        chart, cone = _qubit_chart(n), sorted_nonneg_cone(n)
        subsets = product(*((2 * i, 2 * i + 1) for i in range(n)))
    elif system.kind == "tensor":
        if len(system.dims) != 2:
            raise SystemError(
                "cubicle arrangements support two-sided tensor formats; "
                "use qubits:<n> for arrays"
            )
        m, n = system.dims
        chart, cone = _difference_chart((m, n)), positive_orthant(m + n - 2)
        subsets = [(i, m + j) for i in range(m) for j in range(n)]
    elif system.kind == "fermion":
        r = system.r
        chart, cone = _difference_chart((r,)), positive_orthant(r - 1)
        subsets = combinations(range(r), system.n)
    else:
        raise SystemError(f"unknown system kind {system.kind!r}")
    return Arrangement(system, cone, _tie_hyperplanes(chart, subsets, cone), chart)


def enumerate_chambers(arrangement: Arrangement, dim_cap: int = DIM_CAP):
    """Full-dimensional sign chambers meeting the cone's interior.

    The dimension cap is checked at the call.  The chambers are then
    yielded lazily by a depth-first walk, in lexicographic order of their
    signs ('+' first).  The root cone is full-dimensional and the walk
    cuts a cone only by a hyperplane with rays on both sides, so every leaf
    has rank d.
    """
    d = arrangement.dim
    if d > dim_cap:
        raise GeometryError(
            f"chamber enumeration in dimension {d} exceeds the cap {dim_cap}"
        )
    return _walk(arrangement.cone, arrangement.hyperplanes)


def _walk(root: Cone, hyperplanes):
    """Depth-first walk that makes only the cuts that split a cone.

    A per-walk table maps each ray to its values against every hyperplane
    and to the masks of the hyperplanes it is positive and negative on.  At
    depth j the next cut is the lowest hyperplane >= j with a ray on each
    side; the ones before it leave the cone whole and take '-' when a ray
    is negative on them, '+' otherwise, as ``split_cone`` would.  The root
    carries no incidence, so ``_cut`` prunes it at its first cut.
    """
    normals = [primitive(h) for h in hyperplanes]
    table = {}

    def sign_row(ray):
        row = table.get(ray)
        if row is None:
            vals = [_idot(h, ray) for h in normals]
            pos = neg = 0
            for k, v in enumerate(vals):
                if v > 0:
                    pos |= 1 << k
                elif v < 0:
                    neg |= 1 << k
            row = table[ray] = (vals, pos, neg)
        return row

    def fill(signs, neg, start, stop):
        return signs + tuple("-" if neg >> k & 1 else "+" for k in range(start, stop))

    stack = [((), root)]
    while stack:
        signs, cone = stack.pop()
        rows = [sign_row(r) for r in cone.rays]
        pos = neg = 0
        for _, p, n in rows:
            pos |= p
            neg |= n
        depth = len(signs)
        cutting = (pos & neg) >> depth
        if not cutting:
            yield Chamber(fill(signs, neg, depth, len(normals)), cone)
            continue
        k = depth + (cutting & -cutting).bit_length() - 1
        signs = fill(signs, neg, depth, k)
        plus, minus = _cut(cone, normals[k], True, [v[k] for v, _, _ in rows])
        # '-' is pushed first, so the '+' subtree is walked first
        stack += [(signs + ("-",), minus), (signs + ("+",), plus)]


def extremal_edges(chambers) -> tuple:
    """Sorted union of the chambers' extreme rays (primitive), read from
    any iterable of chambers, one chamber at a time."""
    seen = set()
    for ch in chambers:
        seen.update(ch.cone.rays)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class HullResult:
    """Facets and affine hull of a rational point set.

    Facet inequalities are (normal, rhs) pairs meaning normal.x <= rhs;
    equalities describe the affine span.  ``dim`` is the hull dimension.
    """

    facets: tuple
    equalities: tuple
    dim: int


def convex_hull(points) -> HullResult:
    """Irredundant facet description of the convex hull of rational points.

    Dual double description on the homogenized cone of the normals
    (gamma0, gamma) with gamma.p <= gamma0 + gamma.p0 at every point p.  Its
    lineality space holds the normals of the points' affine span, and each
    extreme ray with gamma != 0 is a facet.
    """
    pts = list(dict.fromkeys(to_fractions(p) for p in points))
    if not pts:
        raise GeometryError("convex hull of an empty point set")
    D = len(pts[0])
    _check_lengths(pts, D, "a point")
    p0 = pts[0]
    rows = [(1,) + tuple(a - b for a, b in zip(p0, p)) for p in pts]
    lineality, rays = _generators(rows, D + 1, hull_cap=DIM_CAP)
    normals = [canon_hyperplane(v[1:]) for v in lineality]
    equalities = [(n, dot(n, p0)) for n in normals]
    facets = [canon_inequality(g[1:], g[0] + dot(g[1:], p0))
              for g in rays if any(g[1:])]
    return HullResult(tuple(sorted(facets)), tuple(sorted(equalities)),
                      D - len(lineality))


def canon_inequality(normal, rhs):
    """Jointly primitive canonical form of (normal, rhs) for normal.x <= rhs."""
    scaled = primitive(tuple(normal) + (rhs,))
    return scaled[:-1], Fraction(scaled[-1])


def _check_lengths(vectors, n, what):
    for v in vectors:
        if len(v) != n:
            raise GeometryError(f"{what} has length {len(v)}, expected {n}")


def _homogenize(normal, rhs):
    """A canonical normal.x <= rhs as the row g with g.(t, x) >= 0."""
    return (int(rhs),) + tuple(-x for x in normal)


def _generators(rows, D, hull_cap=None):
    """Generators of the cone {z in R^D : row.z >= 0 for every row}.

    Returns (lineality basis, extreme rays of the pointed part) as integer
    vectors.  The pointed part lies on the pivot columns of the rows'
    echelon form, which meet the lineality space only in 0.  ``hull_cap``
    bounds a hull's dimension, the rank less one, before any cut.
    """
    basis, pivots, _ = echelon(rows)
    if hull_cap is not None and len(pivots) - 1 > hull_cap:
        raise GeometryError(
            f"hull dimension {len(pivots) - 1} exceeds the cap {hull_cap}")
    lineality = tuple(primitive(v) for v in null_vectors(basis, pivots, D))
    rays = rays_from_inequalities([[r[p] for p in pivots] for r in rows], len(pivots))
    at = {p: k for k, p in enumerate(pivots)}
    return lineality, tuple(tuple(c[at[j]] if j in at else 0 for j in range(D))
                            for c in rays)


def _feasible(gens) -> bool:
    """Whether a homogenized system (first coordinate t >= 0) has a point."""
    return any(g[0] > 0 for g in gens[1])


def _implies(row, gens) -> bool:
    lineality, rays = gens
    return (all(_idot(row, r) >= 0 for r in rays)
            and all(_idot(row, v) == 0 for v in lineality))


def _dimension(gens) -> int:
    return len(gens[0]) + rank(gens[1])


def redundancy_filter(inequalities, ambient_ineqs=(), ambient_eqs=()):
    """Drop every inequality implied by the others plus the ambient system.

    Inequalities are (normal, rhs) pairs meaning normal.x <= rhs, all exact
    rationals.  The result is the one the sequential rule gives: each
    inequality in turn is dropped when the ones still kept, with the
    ambient system, are feasible and imply it.  Raises GeometryError if the
    ambient system is infeasible.

    The system is homogenized in full coordinates (t >= 0), each ambient
    equality as a pair of opposite inequalities, so the polyhedron becomes
    a cone whose generators are enumerated once by double description.
    When the inequalities leave the polyhedron nonempty and of the ambient
    system's dimension, an inequality is kept iff its tight generators span
    a facet that no ambient inequality and no later inequality also
    defines.  Otherwise each inequality is decided in order with one
    enumeration of the others.
    """
    ineqs = [canon_inequality(n, r) for n, r in inequalities]
    ineqs = list(dict.fromkeys(ineqs))
    amb_ub = [canon_inequality(n, r) for n, r in ambient_ineqs]
    amb_eq = [canon_inequality(n, r) for n, r in ambient_eqs]
    normals = [n for n, _ in ineqs + amb_ub + amb_eq]
    if not normals:
        return []
    d = len(normals[0])
    _check_lengths(normals, d, "a normal")
    D = d + 1
    records = [_homogenize(n, r) for n, r in ineqs]
    ambient = [_homogenize(n, r) for n, r in amb_ub]
    ambient += [tuple(s * x for x in _homogenize(n, r))
                for n, r in amb_eq for s in (1, -1)]
    ambient.append((1,) + (0,) * d)                     # t >= 0

    gens = _generators(records + ambient, D)
    rays = gens[1]
    masks = [_tight_mask(row, rays) for row in records]
    if _feasible(gens):
        # an inequality tight on the whole polyhedron may or may not cut it
        # below the ambient system's dimension
        degenerate = ((1 << len(rays)) - 1 in masks and
                      _dimension(_generators(ambient, D)) > _dimension(gens))
    elif _feasible(_generators(ambient, D)):
        degenerate = True
    else:
        raise GeometryError("ambient system is infeasible")

    if degenerate:
        kept = list(range(len(records)))
        for i in range(len(records)):
            others = [records[j] for j in kept if j != i] + ambient
            others_gens = _generators(others, D)
            if _feasible(others_gens) and _implies(records[i], others_gens):
                kept.remove(i)
        return [ineqs[i] for i in kept]

    facet_rank = rank(rays) - 1
    ambient_masks = {_tight_mask(row, rays) for row in ambient}
    kept = []
    for i, mask in enumerate(masks):
        if (mask in ambient_masks or mask in masks[i + 1:]
                or mask.bit_count() < facet_rank
                or rank([rays[k] for k in _bits(mask)]) != facet_rank):
            continue
        kept.append(ineqs[i])
    return kept
