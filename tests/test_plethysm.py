"""Plethysm decompositions: weights, Kostka numbers, duality, the hull."""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, combinations
from math import comb

import pytest

from qmarginal.catalog import SpectraBundle, check_family
from qmarginal.plethysm import (
    PlethysmError,
    _dominant_characters,
    _restricted_form,
    decompose,
    inner_approximation,
    kostka,
    occurring_spectra,
    weight_multiplicities,
    weyl_dimension,
)
from qmarginal.spectra import spectrum


# ---------------------------------------------------------------------------
# Weight multiplicities

def test_weights_m1_are_subset_indicators():
    w = weight_multiplicities(5, 2, 1)
    assert len(w) == comb(5, 2)
    assert all(count == 1 for count in w.values())
    assert all(sum(key) == 2 and set(key) <= {0, 1} for key in w)


def test_weights_total_is_symmetric_power_dimension():
    for (r, n, m) in [(4, 2, 2), (4, 2, 3), (5, 2, 2), (6, 3, 2), (6, 3, 3)]:
        w = weight_multiplicities(r, n, m)
        assert sum(w.values()) == comb(comb(r, n) + m - 1, m), (r, n, m)


def _exhaustive_weights(r, n, m):
    subsets = list(combinations(range(r), n))
    oracle = Counter()
    for multiset in combinations_with_replacement(range(len(subsets)), m):
        content = [0] * r
        for idx in multiset:
            for i in subsets[idx]:
                content[i] += 1
        oracle[tuple(content)] += 1
    return dict(oracle)


def test_weights_match_exhaustive_enumeration_6_3_2():
    assert weight_multiplicities(6, 3, 2) == _exhaustive_weights(6, 3, 2)


@pytest.mark.parametrize("r,n,m", [(6, 3, 4), (7, 3, 3)])
def test_weights_match_exhaustive_enumeration_larger(r, n, m):
    assert weight_multiplicities(r, n, m) == _exhaustive_weights(r, n, m)


def _subset_dp_weights(r, n, m):
    """The dynamic program over the C(r, n) subsets: states (used, content)
    absorb each subset 0..m-used times."""
    subsets = list(combinations(range(r), n))
    states = {(0, (0,) * r): 1}
    for s in subsets:
        nxt = dict(states)
        for (used, w), cnt in states.items():
            acc = list(w)
            for c in range(1, m - used + 1):
                for i in s:
                    acc[i] += 1
                key = (used + c, tuple(acc))
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    out = {}
    for (used, w), cnt in states.items():
        if used == m:
            out[w] = out.get(w, 0) + cnt
    return out


SMALL_CASES = [
    (r, n, m)
    for r in range(2, 36) for n in range(1, r) if comb(r, n) <= 35
    for m in range(1, 5)
]


def test_weights_match_subset_dp():
    assert len(SMALL_CASES) == 316
    for r, n, m in SMALL_CASES + [(8, 4, 3)]:
        assert weight_multiplicities(r, n, m) == _subset_dp_weights(r, n, m), (r, n, m)


def _packed_chain(r, n, m):
    """The reference: Newton's recurrence j h_j = sum_k p_k[e_n] h_{j-k}
    over every weight, each packed into one int in base m + 1; returns the
    occupation-vector dicts of h_0..h_m."""
    base = m + 1
    subsets = [sum(base ** i for i in s) for s in combinations(range(r), n)]
    chars = [{0: 1}]
    for j in range(1, m + 1):
        acc = {}
        for k in range(1, j + 1):
            steps = [k * s for s in subsets]
            for w, cnt in chars[j - k].items():
                for step in steps:
                    acc[w + step] = acc.get(w + step, 0) + cnt
        assert all(total % j == 0 for total in acc.values())
        chars.append({w: total // j for w, total in acc.items()})
    return [_unpack(char, r, base) for char in chars]


def _unpack(packed, r, base):
    """Occupation vectors of packed weights; each weight is cut into a low
    and a high half whose digit tuples are computed once per distinct half."""
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


def _digits(value, size, base):
    digits = []
    for _ in range(size):
        value, digit = divmod(value, base)
        digits.append(digit)
    return tuple(digits)


def _dominant(weights):
    return {w: c for w, c in weights.items()
            if all(a >= b for a, b in zip(w, w[1:]))}


def _reference_dominant(r, n, m):
    """Dominant part of the packed reference, shrunk by two identities so
    that every capped (r, n) stays cheap:

    - duality: h_m[e_{r-n}](x) = (x_1...x_r)^m h_m[e_n](1/x), so the
      weight lam of (r, r - n) has the count of m - reversed(lam) of (r, n);
    - restriction: a dominant weight of degree m*n has at most m*n nonzero
      parts, and setting the other variables to 0 leaves its coefficient,
      so ell = min(r, m*n) variables suffice.
    """
    if 2 * n > r:
        dual = _reference_dominant(r, r - n, m)
        return {tuple(m - x for x in reversed(w)): c for w, c in dual.items()}
    ell = min(r, m * n)
    return {w + (0,) * (r - ell): c
            for w, c in _dominant(_packed_chain(ell, n, m)[m]).items()}


def test_dominant_characters_match_packed_recurrence():
    for r, n in sorted({(r, n) for r, n, _ in SMALL_CASES} | {(8, 4)}):
        chain = _dominant_characters(r, n, 4)
        reference = _packed_chain(r, n, 4)
        for m in range(1, 5):
            assert chain[m] == _dominant(reference[m]), (r, n, m)
            if 2 * n > r or m * n < r:   # the shrunken reference differs
                assert chain[m] == _reference_dominant(r, n, m), (r, n, m)


def test_dominant_characters_refuse_a_broken_orbit_count(monkeypatch):
    import qmarginal.plethysm as plethysm

    monkeypatch.setattr(plethysm, "_orbit_size", lambda lam: 1)
    with pytest.raises(PlethysmError, match="orbit count"):
        plethysm._dominant_characters(6, 3, 2)


def _reference_decompose(r, n, m):
    """Kostka elimination over the reference's dominant weights."""
    dominant = _reference_dominant(r, n, m)
    mults = {}
    for lam in sorted(dominant, reverse=True):
        value = dominant[lam] - sum(
            c * kostka(mu, lam) for mu, c in mults.items() if mu > lam)
        assert value >= 0
        if value:
            mults[lam] = value
    return tuple(sorted(mults.items(), reverse=True))


CAPPED_BASES = [(r, n) for r in range(2, 71) for n in range(1, r)
                if comb(r, n) <= 70]


def test_decompose_matches_reference_on_every_capped_case():
    assert len(CAPPED_BASES) == 160
    for r, n in CAPPED_BASES:
        for m in range(1, 5):
            dec = decompose(r, n, m)
            assert dec.multiplicities == _reference_decompose(r, n, m), (r, n, m)


def test_weights_cap():
    with pytest.raises(PlethysmError):
        weight_multiplicities(30, 3, 2)
    with pytest.raises(PlethysmError):
        weight_multiplicities(6, 3, 9)


# ---------------------------------------------------------------------------
# Kostka numbers

def test_kostka_diagonal_is_one():
    for lam in [(3, 1), (2, 2), (4, 2, 1), (1, 1, 1)]:
        assert kostka(lam, lam) == 1


def test_kostka_standard_example():
    assert kostka((2, 1), (1, 1, 1)) == 2


def test_kostka_zero_without_dominance():
    assert kostka((1, 1, 1), (3,)) == 0
    assert kostka((2, 2), (3, 1)) == 0


def _partitions_of(k, largest=None):
    """The partitions of k as non-increasing tuples without zeros."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions_of(k - first, first):
            yield (first,) + rest


def _dominates_by_partial_sums(mu, lam):
    size = max(len(mu), len(lam))
    mu, lam = mu + (0,) * (size - len(mu)), lam + (0,) * (size - len(lam))
    return all(sum(mu[:i]) >= sum(lam[:i]) for i in range(1, size + 1))


def test_kostka_tableau_enumeration_oracle():
    """Direct semistandard-tableau count for every pair of partitions of
    k <= 8; the count is zero exactly when the shape does not dominate the
    content."""
    def ssyt_count(shape, content):
        # fill cells row by row; value v appears content[v] times
        rows = len(shape)
        cells = [(i, j) for i in range(rows) for j in range(shape[i])]
        counts = list(content)

        def rec(k, filling):
            if k == len(cells):
                return 1
            i, j = cells[k]
            total = 0
            for v in range(len(counts)):
                if counts[v] == 0:
                    continue
                if j > 0 and filling[(i, j - 1)] > v:
                    continue
                if i > 0 and filling[(i - 1, j)] >= v:
                    continue
                counts[v] -= 1
                filling[(i, j)] = v
                total += rec(k + 1, filling)
                del filling[(i, j)]
                counts[v] += 1
            return total

        return rec(0, {})

    pairs = 0
    for k in range(1, 9):
        parts = list(_partitions_of(k))
        for shape in parts:
            for content in parts:
                value = kostka(shape, content)
                assert value == ssyt_count(shape, content), (shape, content)
                # K(shape, content) vanishes exactly off dominance
                assert (value == 0) == (not _dominates_by_partial_sums(shape, content))
                pairs += 1
    assert pairs == 918


def test_kostka_size_mismatch():
    with pytest.raises(PlethysmError):
        kostka((2, 1), (1, 1))


# ---------------------------------------------------------------------------
# Decompositions

def test_decompose_m1_is_fundamental_weight():
    dec = decompose(6, 3, 1)
    assert dec.multiplicities == (((1, 1, 1, 0, 0, 0), 1),)


def test_decompose_s2_wedge2_c4():
    dec = decompose(4, 2, 2)
    assert dict(dec.multiplicities) == {(2, 2, 0, 0): 1, (1, 1, 1, 1): 1}
    assert weyl_dimension((2, 2, 0, 0), 4) == 20
    assert weyl_dimension((1, 1, 1, 1), 4) == 1


def test_even_row_theorem_wedge2():
    for r in (4, 5, 6):
        for m in (1, 2, 3, 4):
            dec = decompose(r, 2, m)
            for weight, mult in dec.multiplicities:
                assert mult == 1
                counts = Counter(x for x in weight if x)
                assert all(c % 2 == 0 for c in counts.values()), (r, m, weight)


def test_dimension_identity_exact():
    for (r, n, m) in [(6, 3, 2), (6, 3, 3), (7, 3, 2), (8, 3, 2), (8, 4, 2)]:
        dec = decompose(r, n, m)  # raises internally if the identity fails
        total = sum(mult * weyl_dimension(w, r) for w, mult in dec.multiplicities)
        assert total == comb(comb(r, n) + m - 1, m)


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


def test_selfduality_63():
    assert selfdual_check(6, 3, 1)
    assert selfdual_check(6, 3, 2)
    assert selfdual_check(6, 3, 3)


def test_selfduality_control_42():
    # evaluated by the complement oracle and recorded: for (4, 2) all
    # components up to m=2 happen to be self-dual as well
    assert selfdual_check(4, 2, 2) is True


def test_duality_correspondence():
    for (r, n) in [(6, 3), (7, 3), (8, 4)]:
        for m in (1, 2):
            dec = dict(decompose(r, n, m).multiplicities)
            dual = dict(decompose(r, r - n, m).multiplicities)
            mapped = {complement_weight(w, r, m): c for w, c in dec.items()}
            assert mapped == dual, (r, n, m)


# ---------------------------------------------------------------------------
# Occurring spectra and the hull

def test_occurring_spectra_m1():
    pts = occurring_spectra(6, 3, 1)
    assert pts == ((F(1), F(1), F(1), F(0), F(0), F(0)),)


def test_occurring_spectra_pass_catalog_families():
    for (r, n, M, fams) in [
        (6, 3, 3, ("BD6", "PAULI")),
        (7, 3, 2, ("F7_BD", "F7_LIST", "PAULI")),
        (8, 3, 2, ("F8_31", "PAULI")),
        (8, 4, 2, ("F84_14", "F84_ABS", "PAULI")),
    ]:
        for point in occurring_spectra(r, n, M):
            lam = spectrum(point, n)
            for fid in fams:
                rep = check_family(fid, SpectraBundle(one_body=lam))
                assert rep.satisfied, (r, n, M, fid, point)


@pytest.mark.parametrize("max_power", [0, -3, 5])
def test_occurring_spectra_refuse_a_power_outside_the_cap(max_power):
    with pytest.raises(PlethysmError, match="1 <= m <= 4"):
        occurring_spectra(6, 3, max_power)


def test_inner_approximation_single_point():
    inner = inner_approximation(6, 3, 1)
    assert inner.hull.dim == 0
    assert inner.hull.facets == ()


def test_inner_approximation_monotone():
    p2 = set(occurring_spectra(6, 3, 2))
    p3 = set(occurring_spectra(6, 3, 3))
    assert p2 <= p3


def test_inner_approximation_6_3_matches_bd6():
    inner = inner_approximation(6, 3, 4)
    # every vertex satisfies the catalog family
    for point in inner.points:
        rep = check_family("BD6", SpectraBundle(one_body=spectrum(point, 3)))
        assert rep.satisfied
    # the hull has converged onto the printed polytope: three pair
    # equalities span the affine hull, and the one non-ordering facet is
    # recognized as the printed inequality
    assert inner.hull.dim == 3
    assert len(inner.hull.equalities) == 3
    flat = [m for matches in inner.facet_matches for m in matches]
    assert "BD6:l4<=l5+l6" in flat


def test_inner_approximation_larger_systems_match_modulo_hull():
    # at small M the hulls are low-dimensional; facet recognition works
    # modulo the affine hull and is exact, hence deterministic
    inner = inner_approximation(8, 3, 2)
    assert inner.hull.dim == 1
    assert all(matches for matches in inner.facet_matches)
    inner = inner_approximation(8, 4, 2)
    assert inner.hull.dim == 2
    assert sum(1 for m in inner.facet_matches if m) == 1


def _per_facet_catalog_labels(r, n, normal, rhs, hull, points):
    """The reference: one facet at a time, with the hull's directions, base
    point and every catalog form recomputed for each facet."""
    from qmarginal.rational import nullspace, to_fractions
    from qmarginal.records import FAMILIES
    from qmarginal.systems import SystemDescriptor

    if not points:
        return []
    base_point = to_fractions(points[0])
    eq_rows = [to_fractions(nrm) for nrm, _ in hull.equalities]
    directions = nullspace(eq_rows, ncols=r) if eq_rows else [
        tuple(F(int(i == j)) for j in range(r)) for i in range(r)
    ]
    target = _restricted_form(normal, rhs, directions, base_point)
    system = SystemDescriptor("fermion", r=r, n=n, pure=True)
    labels = []
    for fid in sorted(FAMILIES):
        fam = FAMILIES[fid]
        if not fam.applies(system) or not fam.records:
            continue
        for rec in fam.records:
            terms = dict(rec.terms)
            if set(terms) != {"lam"} or rec.relation != "<=":
                continue
            cand = _restricted_form(terms["lam"], rec.bound, directions, base_point)
            if cand == target:
                labels.append(f"{fid}:{rec.label}")
    return labels


@pytest.mark.parametrize("r,n,M", [(6, 3, 1), (6, 3, 2), (6, 3, 3), (6, 3, 4),
                                   (7, 3, 4), (8, 4, 4)])
def test_facet_matches_equal_the_per_facet_reference(r, n, M):
    inner = inner_approximation(r, n, M)
    reference = tuple(
        tuple(_per_facet_catalog_labels(r, n, normal, rhs, inner.hull, inner.points))
        for normal, rhs in inner.hull.facets
    )
    assert inner.facet_matches == reference
