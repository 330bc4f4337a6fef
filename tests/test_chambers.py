"""Exact chamber geometry: arrangements, edges, hulls, redundancy."""

from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest

from qmarginal.records import F8_31_GROUPS, F84_14_GROUPS
from qmarginal.chambers import (
    GeometryError,
    convex_hull,
    cubicle_arrangement,
    enumerate_chambers,
    extremal_edges,
    rays_from_inequalities,
    redundancy_filter,
    split_cone,
    sorted_nonneg_cone,
)
from qmarginal.rational import dot, rank, to_fractions
from qmarginal.schubert import TieError, sum_order
from qmarginal.systems import parse_system


def test_two_qubit_arrangement():
    arr = cubicle_arrangement("qubits:2")
    assert len(arr.hyperplanes) == 0
    chambers = list(enumerate_chambers(arr))
    assert len(chambers) == 1
    assert len(extremal_edges(chambers)) == 2


def test_split_single_hyperplane():
    cone = sorted_nonneg_cone(2)
    plus, minus = split_cone(cone, (1, -1))
    # x1 <= x2 holds on the whole cone, so only one side survives
    assert minus is not None and plus is None or plus is not None
    # a genuinely cutting split in the positive orthant
    from qmarginal.chambers import positive_orthant

    plus, minus = split_cone(positive_orthant(2), (1, -1))
    assert plus is not None and minus is not None
    assert len(plus.rays) == 2 and len(minus.rays) == 2


def test_empty_arrangement_returns_cone():
    arr = cubicle_arrangement("qubits:2")
    chambers = list(enumerate_chambers(arr))
    assert chambers[0].cone.rays == arr.cone.rays


def test_qubit_edge_counts_match_published_table():
    expected = {2: 2, 3: 4, 4: 12}
    for n, count in expected.items():
        arr = cubicle_arrangement(f"qubits:{n}")
        edges = extremal_edges(enumerate_chambers(arr))
        assert len(edges) == count, n


def test_three_qubit_edges_are_the_printed_ones():
    arr = cubicle_arrangement("qubits:3")
    edges = extremal_edges(enumerate_chambers(arr))
    assert set(edges) == {(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)}


@pytest.mark.parametrize("system, groups", [
    ("fermi:8:3", F8_31_GROUPS), ("fermi:8:4", F84_14_GROUPS),
])
def test_printed_fermion_edge_groups_lie_on_one_dimensional_flats(system, groups):
    """Each printed group of an (8, 3) or (8, 4) family comes from one edge:
    its rows permute one test spectrum, whose successive differences lie in
    the arrangement's cone on a flat of dimension one (the tie hyperplanes
    and cone walls tight on it have rank d - 1).  No chamber is enumerated."""
    arr = cubicle_arrangement(system)
    for _, rows in groups:
        vec = sorted(rows[0], reverse=True)
        assert all(sorted(row, reverse=True) == vec for row in rows), rows
        diffs = [a - b for a, b in zip(vec, vec[1:])]
        assert all(dot(h, diffs) >= 0 for h in arr.cone.ineqs), vec
        tight = [h for h in arr.cone.ineqs + arr.hyperplanes if dot(h, diffs) == 0]
        assert rank(tight) == arr.dim - 1 == 6, vec


def test_tensor_2x2_arrangement():
    arr = cubicle_arrangement("2x2")
    assert len(arr.hyperplanes) == 1
    chambers = list(enumerate_chambers(arr))
    assert len(chambers) == 2
    a, b = arr.chart.to_test_spectra((1, 1))
    assert sum(a) == 0 and sum(b) == 0


def test_chamber_barycenters_are_tie_free():
    for fmt in ("2x2", "2x3"):
        arr = cubicle_arrangement(fmt)
        for chamber in enumerate_chambers(arr):
            a, b = arr.chart.to_test_spectra(chamber.barycenter())
            sum_order(a, b)  # raises TieError on a wall


def test_split_preserves_halfspace_orientation():
    # the split normal is directed; splitting must not flip it
    from qmarginal.chambers import positive_orthant

    plus, minus = split_cone(positive_orthant(2), (-1, 1))
    for cone in (plus, minus):
        for ray in cone.rays:
            for h in cone.ineqs:
                assert dot(to_fractions(h), to_fractions(ray)) >= 0


def test_chamber_rays_satisfy_constraints():
    arr = cubicle_arrangement("2x3")
    for chamber in enumerate_chambers(arr):
        for ray in chamber.cone.rays:
            for h in chamber.cone.ineqs:
                assert dot(to_fractions(h), to_fractions(ray)) >= 0


def test_edge_on_wall_raises_tie():
    arr = cubicle_arrangement("2x2")
    edges = extremal_edges(enumerate_chambers(arr))
    assert (1, 1) in edges
    a, b = arr.chart.to_test_spectra((1, 1))
    with pytest.raises(TieError):
        sum_order(a, b)


def test_fermi_chamber_barycenters_are_tie_free():
    from qmarginal.schubert import fermi_sum_order

    arr = cubicle_arrangement("fermi:4:2")
    chambers = list(enumerate_chambers(arr))
    assert len(chambers) == 2  # single cutting tie for two particles in four
    for chamber in chambers:
        (a,) = arr.chart.to_test_spectra(chamber.barycenter())
        fermi_sum_order(a, 2)  # raises TieError on a wall


def test_fermi_arrangement_matches_bruteforce_ties():
    r, n = 6, 3
    arr = cubicle_arrangement(f"fermi:{r}:{n}")
    # brute-force oracle: all distinct difference vectors of subset sums,
    # expressed in difference coordinates, deduplicated, cutting the cone
    from qmarginal.rational import canon_hyperplane

    seen = set()
    subsets = list(combinations(range(r), n))
    for s, t in combinations(subsets, 2):
        d = [0] * r
        for i in s:
            d[i] += 1
        for i in t:
            d[i] -= 1
        row = []
        acc = 0
        for p in range(r - 1):
            acc += d[p]
            row.append(acc)
        if any(row):
            # base cone is the positive orthant in difference coordinates,
            # so the hyperplane cuts it iff the row has mixed signs
            if any(v > 0 for v in row) and any(v < 0 for v in row):
                seen.add(canon_hyperplane(row))
    assert set(arr.hyperplanes) == seen


# ---------------------------------------------------------------------------
# Tie hyperplanes against the per-kind generators they replaced

def _cuts(h, cone):
    vals = [dot(h, r) for r in cone.rays]
    return any(v > 0 for v in vals) and any(v < 0 for v in vals)


def _qubit_hyperplanes(n, cone):
    from itertools import product

    from qmarginal.rational import canon_hyperplane

    seen = set()
    for eps in product((-1, 0, 1), repeat=n):
        if any(eps):
            h = canon_hyperplane(eps)
            if _cuts(h, cone):
                seen.add(h)
    return tuple(sorted(seen))


def _tensor_hyperplanes(m, n, cone):
    from qmarginal.rational import canon_hyperplane

    pairs = [(i, j) for i in range(m) for j in range(n)]
    seen = set()
    for (i, j), (k, l) in combinations(pairs, 2):
        row = [0] * ((m - 1) + (n - 1))
        for lo, hi, base in ((i, k, 0), (j, l, m - 1)):
            sgn = 1 if lo < hi else -1
            for p in range(min(lo, hi), max(lo, hi)):
                row[base + p] += sgn
        if any(row):
            h = canon_hyperplane(row)
            if _cuts(h, cone):
                seen.add(h)
    return tuple(sorted(seen))


def _fermi_hyperplanes(r, n, cone):
    from qmarginal.rational import canon_hyperplane

    seen = set()
    for s, t in combinations(list(combinations(range(r), n)), 2):
        d = [int(i in s) - int(i in t) for i in range(r)]
        row = [sum(d[:p + 1]) for p in range(r - 1)]
        if any(row):
            h = canon_hyperplane(row)
            if _cuts(h, cone):
                seen.add(h)
    return tuple(sorted(seen))


TIE_SYSTEMS = ([f"qubits:{n}" for n in range(2, 7)]
               + [f"{m}x{n}" for m in range(2, 5) for n in range(m, 5)]
               + [f"fermi:{r}:{n}" for r in range(3, 9) for n in range(1, r)])


@pytest.mark.parametrize("system", TIE_SYSTEMS)
def test_tie_hyperplanes_match_per_kind_generators(system):
    arr = cubicle_arrangement(system)
    desc = arr.system
    if desc.kind == "qubits":
        want = _qubit_hyperplanes(len(desc.dims), arr.cone)
    elif desc.kind == "tensor":
        want = _tensor_hyperplanes(*desc.dims, arr.cone)
    else:
        want = _fermi_hyperplanes(desc.r, desc.n, arr.cone)
    assert arr.hyperplanes == want


# ---------------------------------------------------------------------------
# The chart map against its definitions

def _reference_spectra(desc, point):
    """Test spectra by definition.  Qubit site i has (a_i, -a_i); a block of
    a tensor or fermionic system has the tail sums of its successive
    differences, less their mean."""
    point = [v if type(v) is int else F(v) for v in point]
    if desc.kind == "qubits":
        return tuple((F(a), F(-a)) for a in point)
    out, start = [], 0
    for size in desc.dims if desc.kind == "tensor" else (desc.r,):
        diffs = point[start:start + size - 1]
        tail = [sum(diffs[k:]) for k in range(size)]
        mean = F(sum(tail), size)
        out.append(tuple(t - mean for t in tail))
        start += size - 1
    return tuple(out)


# the systems whose chamber walk takes a second or more
SLOW_WALKS = ({"qubits:6", "fermi:7:3", "fermi:7:4"}
              | {f"fermi:8:{n}" for n in range(2, 7)})


@pytest.mark.parametrize("system", [s for s in TIE_SYSTEMS if s not in SLOW_WALKS])
def test_chart_matches_the_reference_spectra_on_edges_and_barycenters(system):
    """Ints, Fractions and floats are all read exactly, into Fractions.  A
    barycenter here is a sum of integer rays, so its thirds are Fractions
    and its quarters exact floats."""
    arr = cubicle_arrangement(system)
    chambers = list(enumerate_chambers(arr))
    points = list(extremal_edges(chambers)) + [ch.barycenter() for ch in chambers]
    for point in points:
        ints = [int(v) for v in point]
        for given in (ints, [F(v, 3) for v in ints], [v / 4 for v in ints]):
            spectra = arr.chart.to_test_spectra(given)
            assert spectra == _reference_spectra(arr.system, given), (system, given)
            assert all(type(x) is F for spec in spectra for x in spec)


@pytest.mark.parametrize("system, length", [
    ("2x3", 2), ("2x3", 4), ("fermi:5:2", 3), ("qubits:3", 2), ("qubits:3", 4),
])
def test_chart_refuses_a_point_of_the_wrong_length(system, length):
    arr = cubicle_arrangement(system)
    with pytest.raises(GeometryError, match=f"length {length}, expected {arr.dim}"):
        arr.chart.to_test_spectra((1,) * length)


def _image(chart, subset):
    """A subset's image as ``_tie_hyperplanes`` forms it: the sum of its rows."""
    return tuple(map(sum, zip(*(chart.rows[i] for i in subset))))


@pytest.mark.parametrize("system", ["2x2", "2x3", "3x3", "3x4", "fermi:5:2",
                                    "fermi:6:3", "fermi:7:2"])
def test_chart_pullback_evaluates_tie_functionals(system):
    """A subset's image, the functional the tie walls are differences of,
    evaluated at a chart point is ``denom`` times the sum of the point's
    concatenated test spectra over the subset."""
    import random

    arr = cubicle_arrangement(system)
    chart = arr.chart
    rng = random.Random(11)
    for _ in range(20):
        point = [rng.randint(0, 9) for _ in range(arr.dim)]
        flat = [x for spec in chart.to_test_spectra(point) for x in spec]
        for _ in range(5):
            subset = rng.sample(range(len(flat)), rng.randint(1, len(flat)))
            assert dot(_image(chart, subset), point) == chart.denom * sum(
                flat[i] for i in subset)


def test_qubit_chart_pullback_evaluates_sign_sums():
    from itertools import product

    arr = cubicle_arrangement("qubits:4")
    point = (1, 2, 4, 7)
    flat = [x for spec in arr.chart.to_test_spectra(point) for x in spec]
    assert arr.chart.denom == 1
    for picks in product(*((2 * i, 2 * i + 1) for i in range(4))):
        assert dot(_image(arr.chart, picks), point) == sum(flat[i] for i in picks)


@pytest.mark.parametrize("system", ["qubits:3", "qubits:4", "qubits:5", "2x2",
                                    "2x3", "3x3", "3x4", "fermi:4:2", "fermi:5:2",
                                    "fermi:6:2", "fermi:6:3"])
def test_every_chamber_is_full_dimensional(system):
    """enumerate_chambers keeps every leaf: a split keeps only sides cut
    through the interior of a full-dimensional cone, so each has rank d."""
    arr = cubicle_arrangement(system)
    chambers = list(enumerate_chambers(arr))
    assert chambers
    assert all(rank(ch.cone.rays) == arr.dim for ch in chambers)


def test_chamber_enumeration_against_random_point_oracle():
    """Independent check of the double-description path: random interior
    points of the 4-qubit cone must land in an enumerated chamber with the
    matching sign vector, and every chamber's barycenter must reproduce its
    own sign vector."""
    import random

    arr = cubicle_arrangement("qubits:4")
    chambers = list(enumerate_chambers(arr))
    by_signs = {ch.signs: ch for ch in chambers}
    assert len(by_signs) == len(chambers)

    rng = random.Random(2025)
    hits = set()
    samples = 0
    while samples < 2000:
        point = sorted(rng.randint(1, 400) for _ in range(4))
        vals = [dot(to_fractions(h), to_fractions(point)) for h in arr.hyperplanes]
        if any(v == 0 for v in vals):
            continue
        signs = tuple("+" if v > 0 else "-" for v in vals)
        assert signs in by_signs, (point, signs)
        hits.add(signs)
        samples += 1
    # the sampler should reach most chambers; all of them are genuine
    assert len(hits) >= len(chambers) - 2

    for ch in chambers:
        bary = ch.barycenter()
        vals = [dot(to_fractions(h), to_fractions(bary)) for h in arr.hyperplanes]
        got = tuple("+" if v > 0 else ("-" if v < 0 else "0") for v in vals)
        assert got == ch.signs


def test_hull_facets_are_supported():
    """Each facet of a k-dimensional hull is tight on points that affinely
    span k-1 dimensions."""
    from qmarginal.plethysm import occurring_spectra
    from qmarginal.rational import rank as _rank

    pts = [to_fractions(p) for p in occurring_spectra(6, 3, 4)]
    h = convex_hull(pts)
    for normal, rhs in h.facets:
        tight = [p for p in pts if dot(to_fractions(normal), p) == rhs]
        assert len(tight) >= h.dim
        diffs = [tuple(a - b for a, b in zip(q, tight[0])) for q in tight[1:]]
        assert _rank(diffs) == h.dim - 1


def test_unit_square_hull():
    h = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(h.facets) == 4
    assert h.dim == 2
    assert h.equalities == ()


def test_simplex_hull():
    h = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert h.dim == 2
    assert len(h.facets) == 3
    assert len(h.equalities) == 1
    normal, rhs = h.equalities[0]
    assert normal == (1, 1, 1) and rhs == 1


def test_hull_all_points_inside_and_permutation_invariant():
    import random

    rng = random.Random(4)
    pts = [tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
           for _ in range(20)]
    h1 = convex_hull(pts)
    for p in pts:
        for normal, rhs in h1.facets:
            assert dot(to_fractions(normal), to_fractions(p)) <= rhs
    shuffled = pts[:]
    rng.shuffle(shuffled)
    h2 = convex_hull(shuffled)
    assert h1.facets == h2.facets


def _bruteforce_facets(points):
    """Supporting-plane oracle: every triple spanning a plane with all
    points weakly on one side and at least 3 affinely independent tight."""
    from qmarginal.rational import canon_hyperplane, rank

    pts = [to_fractions(p) for p in points]
    facets = set()
    for trio in combinations(range(len(pts)), 3):
        p0, p1, p2 = (pts[i] for i in trio)
        u = tuple(a - b for a, b in zip(p1, p0))
        v = tuple(a - b for a, b in zip(p2, p0))
        normal = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if all(x == 0 for x in normal):
            continue
        rhs = dot(to_fractions(normal), p0)
        vals = [dot(to_fractions(normal), p) - rhs for p in pts]
        for sgn in (1, -1):
            if all(sgn * v <= 0 for v in vals):
                tight = [pts[i] for i, v in enumerate(vals) if v == 0]
                diffs = [tuple(a - b for a, b in zip(q, tight[0])) for q in tight[1:]]
                if rank(diffs) >= 2:
                    nrm = tuple(sgn * x for x in normal)
                    from qmarginal.rational import primitive

                    scaled = primitive(nrm + (sgn * rhs,))
                    facets.add((scaled[:-1], F(scaled[-1])))
    return facets


def test_hull_matches_bruteforce_oracle_random_3d():
    import random

    rng = random.Random(99)
    pts = [tuple(F(rng.randint(-4, 4)) for _ in range(3)) for _ in range(20)]
    h = convex_hull(pts)
    if h.dim == 3:
        assert set(h.facets) == _bruteforce_facets(pts)


def test_hull_dimension_cap(monkeypatch):
    """The cap is checked before any double description step."""
    import qmarginal.chambers as chambers

    def fail(*args):
        raise AssertionError("double description ran before the cap check")

    monkeypatch.setattr(chambers, "rays_from_inequalities", fail)
    pts = [tuple(F(int(i == j)) for j in range(9)) for i in range(9)]
    with pytest.raises(GeometryError, match="hull dimension 8 exceeds the cap 7"):
        convex_hull(pts)


@pytest.mark.parametrize("call,expected", [
    (lambda: convex_hull([(0, 0), (1, 0, 5), (0, 1)]), 2),
    (lambda: convex_hull([(0, 0, 0), (1, 0), (0, 1, 0)]), 3),
    (lambda: redundancy_filter([((1, 0), F(1)), ((1,), F(2))]), 2),
    (lambda: redundancy_filter([((1, 0), F(1))], [], [((1,), F(0))]), 2),
    (lambda: redundancy_filter([((1, 0), F(1)), ((0, 1, 1), F(1))]), 2),
    (lambda: redundancy_filter([], [((1, 0), F(1)), ((1, 0, 0), F(1))]), 2),
    (lambda: rays_from_inequalities([(1, 0, 0), (0, 1, 0)], 2), 2),
], ids=["hull-long-point", "hull-short-point", "filter-short-normal",
        "filter-short-equality", "filter-long-normal", "filter-long-ambient",
        "rays-long-normal"])
def test_ragged_vectors_are_refused(call, expected):
    with pytest.raises(GeometryError, match=f"expected {expected}$"):
        call()


def test_redundancy_filter_duplicates_and_domination():
    kept = redundancy_filter([((1,), F(2)), ((1,), F(1)), ((2,), F(2))])
    assert kept == [((1,), F(1))]


def test_redundancy_filter_infeasible_ambient():
    with pytest.raises(GeometryError):
        redundancy_filter([((1,), F(1))], [((1,), F(-1)), ((-1,), F(-1))])


@pytest.mark.parametrize("records,ub,eq", [
    ([((0, 1), F(1))], [], [((1, 0), F(0)), ((1, 0), F(1))]),
    ([((1, 1, 1), F(3))], [((0, 0, 1), F(5))],
     [((1, 1, 0), F(1)), ((0, 1, 1), F(1)), ((1, 2, 1), F(3))]),
    ([], [((1, 0, 0), F(1))], [((2, 0, 0), F(1)), ((1, 0, 0), F(1))]),
    ([], [], [((1,), F(0)), ((1,), F(1))]),
])
def test_redundancy_filter_clashing_ambient_equalities(records, ub, eq):
    """Equalities with no common solution make the ambient system empty;
    the second case is dependent on the left (row 3 = row 1 + row 2) but
    not on the right (3 != 1 + 1).  The last has equalities and nothing
    else."""
    for fn in (_lp_redundancy_filter, redundancy_filter):
        with pytest.raises(GeometryError, match="ambient system is infeasible"):
            fn(records, ub, eq)


def test_redundancy_filter_feasible_equalities_alone_keep_nothing():
    for fn in (_lp_redundancy_filter, redundancy_filter):
        assert fn([], [], [((1, 1), F(1)), ((1, -1), F(0))]) == []


def test_redundancy_filter_basic_2x2_against_vertex_oracle():
    """BASIC family for 2x2 filtered against ordering and normalization.

    Variables (a1, a2, b1, b2, l1..l4); the oracle checks implication by
    evaluating all candidate inequalities on the vertices of the constraint
    polytope sampled by exact LP in random objective directions.
    """
    d = 8
    rows = []

    def row(aa, bb, ll, rhs):
        return (tuple(F(x) for x in aa + bb + ll), F(rhs))

    basic = [
        row((-1, 0), (0, 0), (1, 1, 0, 0), 0),   # a1 <= l1+l2
        row((-1, -1), (0, 0), (1, 1, 1, 1), 0),  # a1+a2 <= sum l
        row((0, 0), (-1, 0), (1, 1, 0, 0), 0),   # b1 <= l1+l2
        row((0, 0), (-1, -1), (1, 1, 1, 1), 0),  # b1+b2 <= sum l
    ]
    ambient_ub = []
    # orderings a1 >= a2 >= 0, b1 >= b2 >= 0, l1 >= ... >= l4 >= 0
    def amb(vec, rhs=0):
        ambient_ub.append((tuple(F(x) for x in vec), F(rhs)))

    amb((-1, 1, 0, 0, 0, 0, 0, 0))
    amb((0, -1, 0, 0, 0, 0, 0, 0))
    amb((0, 0, -1, 1, 0, 0, 0, 0))
    amb((0, 0, 0, -1, 0, 0, 0, 0))
    amb((0, 0, 0, 0, -1, 1, 0, 0))
    amb((0, 0, 0, 0, 0, -1, 1, 0))
    amb((0, 0, 0, 0, 0, 0, -1, 1))
    amb((0, 0, 0, 0, 0, 0, 0, -1))
    ambient_eq = [
        ((F(1), F(1), 0, 0, 0, 0, 0, 0), F(1)),       # trace of marginal A
        ((0, 0, F(1), F(1), 0, 0, 0, 0), F(1)),       # trace of marginal B
        ((0, 0, 0, 0, F(1), F(1), F(1), F(1)), F(1)),  # trace of the state
    ]
    kept = redundancy_filter(basic, ambient_ub, ambient_eq)
    # the equal-trace rows a1+a2 <= sum(l) and b1+b2 <= sum(l) are implied
    assert len(kept) < len(basic)

    # vertex-enumeration oracle, independent of the simplex: the feasible
    # region of {kept + ambient} is a bounded polytope, so every original
    # row is implied iff it holds at every vertex
    rows = (
        [(n, r) for n, r in kept]
        + ambient_ub
        + [(n, r) for n, r in ambient_eq]
        + [(tuple(-x for x in n), -r) for n, r in ambient_eq]
    )
    d = 8
    vertices = []
    for subset in combinations(range(len(rows)), d):
        mat = [list(rows[i][0]) for i in subset]
        rhs = [rows[i][1] for i in subset]
        from qmarginal.rational import solve_square

        point = solve_square(mat, rhs)
        if point is None:
            continue
        if all(dot(to_fractions(n), point) <= r for n, r in rows):
            if point not in vertices:
                vertices.append(point)
    assert vertices
    for normal, rhs in basic:
        assert all(dot(to_fractions(normal), v) <= rhs for v in vertices)


# ---------------------------------------------------------------------------
# Double description against brute force

def _bruteforce_rays(normals, d):
    """Extreme rays of a pointed cone: each primitive +-nullspace vector of
    a rank-(d-1) subset of the normals that satisfies every normal."""
    from qmarginal.rational import nullspace, primitive, rank

    rays = set()
    for subset in combinations(normals, d - 1):
        if rank(list(subset)) != d - 1:
            continue
        (v,) = nullspace(list(subset), ncols=d)
        for sgn in (1, -1):
            ray = primitive(tuple(sgn * x for x in v))
            if all(dot(to_fractions(h), to_fractions(ray)) >= 0 for h in normals):
                rays.add(ray)
    return rays


def _random_pointed_normals(rng, d):
    """Random normals spanning R^d; some sets hold a +-pair, so that the
    cone has no interior.  Entries in {-1, 0, 1} make degenerate cones,
    where sharing d - 2 facets does not make two rays adjacent."""
    from qmarginal.rational import rank

    span = 3 if d <= 3 else 1
    while True:
        normals = [tuple(rng.randint(-span, span) for _ in range(d))
                   for _ in range(rng.randint(d, d + 5))]
        if rng.random() < 0.4:
            h = normals[0]
            normals.append(tuple(-x for x in h))
        if rank(normals) == d:
            return normals


def test_rays_from_inequalities_cone_without_interior():
    from qmarginal.chambers import rays_from_inequalities

    assert rays_from_inequalities([(1, 0), (0, 1), (-1, 0)], 2) == ((0, 1),)
    assert rays_from_inequalities([(1, 0), (0, 1), (-1, -1)], 2) == ()


def test_rays_from_inequalities_matches_bruteforce_oracle(monkeypatch):
    """Some systems hold a pair h, -h: inserting the second normal leaves no
    ray strictly inside, and ``_cut`` builds that face by ``_prune``, which
    the simplicial start's pruned cones never need otherwise."""
    import random

    from qmarginal import chambers

    faces = []
    prune = chambers._prune
    monkeypatch.setattr(chambers, "_prune", lambda *args: faces.append(1) or prune(*args))
    rng = random.Random(20261018)
    flat = pair_faces = 0
    for trial in range(320):
        d = 2 + trial % 4
        normals = _random_pointed_normals(rng, d)
        before = len(faces)
        got = chambers.rays_from_inequalities(normals, d)
        assert len(got) == len(set(got))
        want = _bruteforce_rays(normals, d)
        assert set(got) == want, (normals, got, want)
        flat += bool(want) and len(want) < d
        pair_faces += (len(faces) > before
                       and any(tuple(-x for x in h) in normals for h in normals))
    assert flat >= 20   # nonempty cones without interior were exercised
    assert pair_faces >= 20   # and so was the face branch of a +-pair


def test_split_of_degenerate_cone_matches_bruteforce_oracle():
    """Cone over square x square pyramid (d = 6).  The rays over opposite
    square corners and the apex share the pyramid's four triangles, d - 2
    facets, yet are not adjacent; a split between them adds no ray."""
    from qmarginal.chambers import Cone, rays_from_inequalities

    square = [(1, -1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0),
              (1, 0, -1, 0, 0, 0), (1, 0, 1, 0, 0, 0)]
    pyramid = [(0, 0, 0, 0, 0, 1), (1, 0, 0, -1, 0, -1), (1, 0, 0, 1, 0, -1),
               (1, 0, 0, 0, -1, -1), (1, 0, 0, 0, 1, -1)]
    normals = square + pyramid
    rays = rays_from_inequalities(normals, 6)
    assert len(rays) == 20 and set(rays) == _bruteforce_rays(normals, 6)
    h = (0, 1, 1, 0, 0, 0)
    plus, minus = split_cone(Cone(tuple(normals), rays), h)
    assert set(plus.rays) == _bruteforce_rays(normals + [h], 6)
    assert set(minus.rays) == _bruteforce_rays(normals + [tuple(-x for x in h)], 6)


def _random_arrangements():
    """24 seeded arrangements of up to 5 hyperplanes in orthants of d = 2..4."""
    import random

    from qmarginal.chambers import Arrangement, positive_orthant
    from qmarginal.rational import canon_hyperplane

    rng = random.Random(7)
    for trial in range(24):
        d = 2 + trial % 3
        hyperplanes = sorted({
            canon_hyperplane(tuple(rng.randint(-2, 2) for _ in range(d)))
            for _ in range(rng.randint(1, 5))
        } - {(0,) * d})
        yield Arrangement(None, positive_orthant(d), tuple(hyperplanes), None)


def test_random_arrangement_chambers_are_full_dimensional():
    for arr in _random_arrangements():
        d, cone, hyperplanes = arr.dim, arr.cone, arr.hyperplanes
        chambers = list(enumerate_chambers(arr))
        assert chambers
        for ch in chambers:
            assert rank(ch.cone.rays) == d
            signed = [h if s == "+" else tuple(-x for x in h)
                      for h, s in zip(hyperplanes, ch.signs)]
            assert set(ch.cone.rays) == _bruteforce_rays(
                list(cone.ineqs) + signed, d)


# ---------------------------------------------------------------------------
# The depth-first walk against the list-based walk it replaced

def _crossing_rays(rays, masks, vals, pos, neg, d, bit):
    """Rays on h.x = 0 between adjacent rays p in pos and q in neg, with
    their masks."""
    new_rays, new_masks = [], []
    for p in pos:
        mp, vp, rp = masks[p], vals[p], rays[p]
        for q in neg:
            common = mp & masks[q]
            if common.bit_count() < d - 2:
                continue
            if sum(m & common == common for m in masks) > 2:
                continue
            vq = vals[q]
            new = [vp * b - vq * a for a, b in zip(rp, rays[q])]
            g = gcd(*new)
            new_rays.append(tuple(x // g for x in new) if g > 1 else tuple(new))
            new_masks.append(common | bit)
    return new_rays, new_masks


def _two_sided_split_cone(cone, h):
    """Both halves of a cut, built by their own copy of the step."""
    from qmarginal.chambers import _idot, _prune
    from qmarginal.rational import primitive

    h = primitive(h)
    rays = cone.rays
    vals = [_idot(h, r) for r in rays]
    pos = [i for i, v in enumerate(vals) if v > 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    if not neg:
        return cone, None
    if not pos:
        return None, cone
    zer = [i for i, v in enumerate(vals) if v == 0]
    masks = [sum(1 << j for j, n in enumerate(cone.ineqs) if _idot(n, r) == 0)
             for r in rays]
    bit = 1 << len(cone.ineqs)
    new_rays, new_masks = _crossing_rays(rays, masks, vals, pos, neg, cone.dim, bit)
    zer_rays = [rays[i] for i in zer]
    zer_masks = [masks[i] | bit for i in zer]
    sides = []
    for side, normal in ((pos, h), (neg, tuple(-x for x in h))):
        sides.append(_prune(
            cone.ineqs + (normal,),
            [rays[i] for i in side] + zer_rays + new_rays,
            [masks[i] for i in side] + zer_masks + new_masks,
        ))
    return sides[0], sides[1]


def _list_enumerate_chambers(arrangement):
    """Every chamber of each prefix of the arrangement, held as one list."""
    from qmarginal.chambers import Chamber

    chambers = [((), arrangement.cone)]
    for h in arrangement.hyperplanes:
        nxt = []
        for signs, cone in chambers:
            plus, minus = _two_sided_split_cone(cone, h)
            if plus is not None:
                nxt.append((signs + ("+",), plus))
            if minus is not None:
                nxt.append((signs + ("-",), minus))
        chambers = nxt
    return [Chamber(signs, cone) for signs, cone in chambers]


def _cone_parts(cone):
    return None if cone is None else (cone.ineqs, cone.rays, cone.incidence)


def _chamber_parts(chambers):
    return [(ch.signs, _cone_parts(ch.cone)) for ch in chambers]


# fermi:7:3 (52956 chambers) is left out, and with it fermi:7:4: its
# arrangement has the same hyperplanes, as n and r - n subsets tie alike
WALK_SYSTEMS = ([f"qubits:{n}" for n in range(2, 6)]
                + [f"{m}x{n}" for m in range(2, 5) for n in range(m, 5)]
                + [f"fermi:{r}:{n}" for r in range(2, 8) for n in range(1, r)
                   if (r, n) not in ((7, 3), (7, 4))])


@pytest.mark.parametrize("system", WALK_SYSTEMS)
def test_depth_first_walk_matches_list_walk(system):
    arr = cubicle_arrangement(system)
    assert (_chamber_parts(enumerate_chambers(arr))
            == _chamber_parts(_list_enumerate_chambers(arr)))


def _assert_pruned_or_untouched(cone, source):
    """A cone the engine built carries its incidence and is in the form
    ``_prune`` leaves; a cone it did not build is its input, untouched."""
    from qmarginal.chambers import _prune

    if cone.incidence is None:
        assert cone is source
        return
    again = _prune(cone.ineqs, cone.rays, cone.incidence)
    assert (again.ineqs, again.incidence) == (cone.ineqs, cone.incidence)


@pytest.mark.parametrize("system", WALK_SYSTEMS)
def test_every_chamber_of_a_walk_is_in_pruned_form(system):
    """``_cut`` builds the sides of a cone with incidence by the facet rule,
    which holds only for a cone in pruned form."""
    arr = cubicle_arrangement(system)
    for ch in enumerate_chambers(arr):
        _assert_pruned_or_untouched(ch.cone, arr.cone)


def test_depth_first_walk_matches_list_walk_on_random_arrangements():
    for arr in _random_arrangements():
        assert (_chamber_parts(enumerate_chambers(arr))
                == _chamber_parts(_list_enumerate_chambers(arr)))


def test_split_cone_matches_two_sided_copy_on_random_cuts():
    import random

    from qmarginal.chambers import Cone, rays_from_inequalities

    rng = random.Random(404)
    for trial in range(200):
        d = 2 + trial % 4
        normals = _random_pointed_normals(rng, d)
        rays = rays_from_inequalities(normals, d)
        if len(rays) < d:
            continue
        cone = Cone(tuple(normals), rays)
        h = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(h):
            continue
        sides = split_cone(cone, h)
        assert (list(map(_cone_parts, sides))
                == list(map(_cone_parts, _two_sided_split_cone(cone, h)))), (normals, h)
        for side in sides:
            if side is not None:
                _assert_pruned_or_untouched(side, cone)


def _random_walk_arrangements(trials):
    """Seeded arrangements of up to 8 hyperplanes in d = 2..6 over orthant
    and sorted roots.  Some hyperplanes are scaled copies (not primitive),
    some repeat an earlier one up to sign; a third of the roots carry a
    redundant inequality and a few are a face, of codimension 1 or 2,
    without interior."""
    import random

    from qmarginal.chambers import Arrangement, Cone, _idot, positive_orthant

    rng = random.Random(1996)
    for trial in range(trials):
        d = 2 + trial % 5
        root = rng.choice((positive_orthant, sorted_nonneg_cone))(d)
        ineqs, rays = list(root.ineqs), root.rays
        kind = trial // 5 % 6
        if kind in (1, 3):
            i, j = rng.sample(range(d), 2)
            ineqs.insert(rng.randint(0, d), tuple(a + b for a, b in zip(ineqs[i], ineqs[j])))
        elif kind == 5:
            face = rng.sample(ineqs, rng.randint(1, 2))
            ineqs += [tuple(-x for x in h) for h in face]
            rays = tuple(r for r in rays if not any(_idot(h, r) for h in face))
        hyperplanes = []
        for _ in range(rng.randint(1, 8)):
            if hyperplanes and rng.random() < 0.15:
                h = rng.choice(hyperplanes)
                h = tuple(rng.choice((-2, -1, 1, 3)) * x for x in h)
            else:
                h = tuple(rng.randint(-2, 2) for _ in range(d))
                if not any(h):
                    continue
                h = tuple(rng.choice((1, 1, 2, 3)) * x for x in h)
            hyperplanes.append(h)
        yield Arrangement(None, Cone(tuple(ineqs), rays), tuple(hyperplanes), None)


def test_walk_matches_list_walk_on_random_arrangements_up_to_dimension_six():
    """The walk skips the hyperplanes that cut nothing and keeps facets by
    the positive-ray rule below the root; the list walk splits by every
    hyperplane and prunes every side.  A root with a redundant inequality
    must still be pruned at its cut; a root without interior keeps its
    equalities."""
    cuts = flat_cuts = 0
    for arr in _random_walk_arrangements(600):
        chambers = _chamber_parts(enumerate_chambers(arr))
        assert chambers == _chamber_parts(_list_enumerate_chambers(arr)), arr
        cuts += len(chambers) - 1
        if rank(arr.cone.rays) < arr.dim:
            flat_cuts += len(chambers) - 1
    assert cuts > 2500 and flat_cuts > 150


def test_fermi_7_3_counts_from_one_streamed_walk():
    """The README's fermi:7:3 figures: 70 hyperplanes, 52956 chambers and
    4557 edges, all read from one lazy walk."""
    from itertools import count

    arr = cubicle_arrangement("fermi:7:3")
    assert len(arr.hyperplanes) == 70
    tally = count()
    edges = extremal_edges(ch for ch, _ in zip(enumerate_chambers(arr), tally))
    assert next(tally) == 52956
    assert len(edges) == 4557


def test_dimension_cap_is_checked_at_the_call():
    arr = cubicle_arrangement("fermi:8:4")
    with pytest.raises(GeometryError):
        enumerate_chambers(arr, dim_cap=3)   # raises before any next()


# ---------------------------------------------------------------------------
# Simplicial start and hulls against the Fraction paths they replaced

def _gauss_jordan_simplicial_start(rows, d):
    """Independent rows by forward elimination, then the columns of B^-1
    by a fraction-free Gauss-Jordan sweep over [B | I]."""
    from math import gcd

    from qmarginal.rational import primitive

    chosen, echelon = [], []
    for i, row in enumerate(rows):
        red = list(row)
        for col, piv in echelon:
            if red[col]:
                red = [piv[col] * a - red[col] * b for a, b in zip(red, piv)]
        col = next((c for c, v in enumerate(red) if v), None)
        if col is not None:
            g = gcd(*red)
            echelon.append((col, [x // g for x in red]))
            chosen.append(i)
            if len(chosen) == d:
                break
    if len(chosen) < d:
        raise GeometryError("cone is not pointed (normals do not span)")
    aug = [list(rows[i]) + [int(j == k) for j in range(d)]
           for k, i in enumerate(chosen)]
    for col in range(d):
        piv_row = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv_row] = aug[piv_row], aug[col]
        piv = aug[col]
        for r in range(d):
            f = aug[r][col]
            if r != col and f:
                red = [piv[col] * a - f * b for a, b in zip(aug[r], piv)]
                g = gcd(*red)
                aug[r] = [x // g for x in red]
    diag = [aug[k][k] for k in range(d)]
    lcm = 1
    for v in diag:
        lcm = lcm * abs(v) // gcd(lcm, v)
    rays = [primitive([aug[k][d + j] * (lcm // diag[k]) for k in range(d)])
            for j in range(d)]
    return chosen, rays


def test_simplicial_start_matches_gauss_jordan():
    import random

    from qmarginal.chambers import _simplicial_start
    from qmarginal.rational import primitive

    rng = random.Random(31)
    for trial in range(400):
        d = 2 + trial % 5
        rows = [primitive(r) for r in _random_pointed_normals(rng, d)]
        rng.shuffle(rows)
        rows = [r for r in rows if any(r)]
        assert _simplicial_start(rows, d) == _gauss_jordan_simplicial_start(rows, d)
        short = rows[:d - 1] + [rows[0]] * 2
        for start in (_simplicial_start, _gauss_jordan_simplicial_start):
            with pytest.raises(GeometryError):
                start(short, d)


def _gram_convex_hull(points):
    """The hull by coordinates from the Gram system of an echelon basis and
    facet normals lifted by a particular solution."""
    from qmarginal.chambers import HullResult, canon_inequality, rays_from_inequalities
    from qmarginal.rational import canon_hyperplane
    from tests.test_rational import (
        _fraction_nullspace,
        _fraction_row_space_basis,
        _fraction_solve_any,
        _fraction_solve_square,
    )

    pts = list(dict.fromkeys(to_fractions(p) for p in points))
    D = len(pts[0])
    p0 = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in pts[1:]]
    basis, _ = _fraction_row_space_basis(diffs)
    k = len(basis)
    equalities = []
    for nv in _fraction_nullspace(diffs if diffs else [[F(0)] * D], ncols=D):
        nv = canon_hyperplane(nv)
        equalities.append((nv, dot(to_fractions(nv), p0)))
    if k == 0:
        return HullResult((), tuple(sorted(equalities)), 0)
    gram = [[dot(b1, b2) for b2 in basis] for b1 in basis]
    coords = []
    for p in pts:
        diff = tuple(a - b for a, b in zip(p, p0))
        coords.append(_fraction_solve_square(gram, [dot(b, diff) for b in basis]))
    rows = [(F(1),) + tuple(-z for z in zc) for zc in coords]
    facets = []
    for ray in rays_from_inequalities(rows, k + 1):
        gamma0, gamma = F(ray[0]), ray[1:]
        if all(g == 0 for g in gamma):
            continue
        lift = _fraction_solve_any([list(b) for b in basis], list(gamma))
        facets.append(canon_inequality(lift, gamma0 + dot(to_fractions(lift), p0)))
    return HullResult(tuple(sorted(facets)), tuple(sorted(equalities)), k)


def test_convex_hull_matches_gram_path():
    """Seeded point sets in D = 1..5 whose affine span has every dimension
    from 0 to min(D, 4), with duplicate points."""
    import random

    rng = random.Random(1968)
    dims = set()
    for trial in range(150):
        D = 1 + trial % 5
        k = rng.randint(0, min(D, 4))
        p0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(D)]
        dirs = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(D)]
                for _ in range(k)]
        coefs = [[rng.randint(-2, 2) for _ in dirs]
                 for _ in range(rng.randint(1, 3 + 2 * k))]
        pts = [tuple(x + sum(c * v[j] for c, v in zip(cs, dirs))
                     for j, x in enumerate(p0))
               for cs in coefs]
        pts += pts[:2]
        got = convex_hull(pts)
        assert got == _gram_convex_hull(pts), pts
        dims.add((D, got.dim))
    assert {dim for _, dim in dims} == {0, 1, 2, 3, 4}
    assert any(dim < D for D, dim in dims)


# ---------------------------------------------------------------------------
# Redundancy filter against the sequential LP loop

def _lp_redundancy_filter(inequalities, ambient_ineqs=(), ambient_eqs=()):
    """Sequential oracle: drop each record that the records still kept,
    with the ambient system, bound by an exact LP."""
    from qmarginal.chambers import canon_inequality
    from qmarginal.rational import lp_max

    ineqs = list(dict.fromkeys(canon_inequality(n, r) for n, r in inequalities))
    amb_ub = [(list(map(F, n)), F(r)) for n, r in ambient_ineqs]
    a_eq = [list(map(F, n)) for n, _ in ambient_eqs]
    b_eq = [F(r) for _, r in ambient_eqs]
    normals = [n for n, _ in ineqs] + [n for n, _ in amb_ub] + a_eq
    if not normals:
        return []
    d = len(normals[0])
    feas = lp_max([0] * d, [n for n, _ in amb_ub], [r for _, r in amb_ub], a_eq, b_eq)
    if feas.status == "infeasible":
        raise GeometryError("ambient system is infeasible")
    kept = list(ineqs)
    i = 0
    while i < len(kept):
        normal, rhs = kept[i]
        rows = kept[:i] + kept[i + 1:] + amb_ub
        res = lp_max(list(normal), [list(n) for n, _ in rows],
                     [r for _, r in rows], a_eq, b_eq)
        if res.status == "optimal" and res.value <= rhs:
            kept.pop(i)
        else:
            i += 1
    return kept


def _random_filter_system(rng, case, d):
    """(records, ambient inequalities, ambient equalities) of one case."""
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(d))

    records = [(vec(), F(rng.randint(-2, 6))) for _ in range(rng.randint(2, 6))]
    box = [(tuple(s * int(i == j) for j in range(d)), F(4))
           for i in range(d) for s in (1, -1)]
    ub, eq = (box if rng.random() < 0.6 else []), []
    if case == "duplicates":
        n, r = rng.choice(records)
        k = rng.choice((2, 3, F(1, 2)))
        records += [(n, r), (tuple(k * x for x in n), k * r)]
        rng.shuffle(records)
    elif case == "implicit":
        n, r = records[0]
        records.insert(rng.randrange(len(records)), (tuple(-x for x in n), -r))
    elif case == "ambient_pair":
        n, r = vec(), F(rng.randint(-1, 1))
        ub = ub + [(n, r), (tuple(-x for x in n), -r)]
        if rng.random() < 0.5:
            records.append((n, r))
    elif case == "empty":
        n, r = records[0]
        records.append((tuple(-x for x in n), -r - 1))
    elif case == "unbounded":
        ub = []
        records = [(tuple(-abs(x) for x in n), r) for n, r in records]
    elif case == "line":
        ub = [(n[:-1] + (0,), r) for n, r in ub]
        records = [(n[:-1] + (0,), r) for n, r in records]
    elif case == "equality":
        eq = [(vec(), F(rng.randint(-2, 2)))]
    elif case == "equality_twin":
        # a record shifted by a multiple of the equality: the same facet
        e, c = vec(), F(rng.randint(-2, 2))
        eq = [(e, c)]
        n, r = records[0]
        k = rng.choice((1, 2, -1))
        records.insert(rng.randrange(1, len(records) + 1),
                       (tuple(a + k * b for a, b in zip(n, e)), r + k * c))
    elif case == "infeasible_ambient":
        n = vec()
        ub = ub + [(n, F(-1)), (tuple(-x for x in n), F(-1))]
    return records, ub, eq


FILTER_CASES = ("plain", "duplicates", "implicit", "ambient_pair", "empty",
                "unbounded", "line", "equality", "equality_twin",
                "infeasible_ambient")


def test_redundancy_filter_matches_sequential_lp_on_random_systems():
    import random

    rng = random.Random(31337)
    raised = 0
    for trial in range(24 * len(FILTER_CASES)):
        case = FILTER_CASES[trial % len(FILTER_CASES)]
        d = 2 + trial % 3
        records, ub, eq = _random_filter_system(rng, case, d)
        try:
            want = _lp_redundancy_filter(records, ub, eq)
        except GeometryError:
            with pytest.raises(GeometryError):
                redundancy_filter(records, ub, eq)
            raised += 1
            continue
        assert redundancy_filter(records, ub, eq) == want, (case, records, ub, eq)
        if case in ("equality", "equality_twin"):
            # each equality as a pair of opposite ambient inequalities
            pairs = [(tuple(s * x for x in n), s * c) for n, c in eq for s in (1, -1)]
            assert redundancy_filter(records, ub + pairs) == want, (case, records, eq)
    assert raised >= 24   # every infeasible-ambient system raised in both
