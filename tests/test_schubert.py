"""Schubert engine: divided differences, polynomials, coefficients,
inequality generation.

The expansion oracle reconstructs a substituted polynomial in the tensored
Schubert basis (indexed by Lehmer codes supported on each variable block)
and cross-checks every coefficient the engine reports.
"""

import random
from fractions import Fraction as F
from itertools import permutations as iperm
from itertools import zip_longest
from math import comb

import pytest

from qmarginal.records import THREE_QUBIT_RECORDS
from qmarginal.schubert import (
    SchubertError,
    TieError,
    _pair_sums,
    _perms_up_to_length,
    _two_sided_record,
    apply_chain,
    check_test_spectrum,
    coeff_fermi,
    coeff_two,
    divided_difference,
    enumerate_inequalities,
    fermi_sum_order,
    generate_fermi_inequality,
    generate_inequality,
    generate_qubit_array,
    identity_perm,
    length,
    minimal_word,
    schubert_poly,
    sum_order,
)


# ---------------------------------------------------------------------------
# Permutations

def perm_mul(u, v) -> tuple:
    """(u v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def perm_inverse(w) -> tuple:
    inv = [0] * len(w)
    for i, x in enumerate(w):
        inv[x - 1] = i + 1
    return tuple(inv)


def compose_word(word, n: int) -> tuple:
    """Product s_{i_1} ... s_{i_l} as a permutation of 1..n."""
    p = identity_perm(n)
    for i in word:
        s = list(identity_perm(n))
        s[i - 1], s[i] = s[i], s[i - 1]
        p = perm_mul(p, tuple(s))
    return p


def test_length_and_word_basics():
    assert length((1, 2, 3)) == 0
    assert minimal_word((1, 2, 3)) == ()
    assert length((4, 3, 2, 1)) == 6


def test_word_recomposition_random():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 7)
        w = tuple(rng.sample(range(1, n + 1), n))
        word = minimal_word(w)
        assert len(word) == length(w)
        assert compose_word(word, n) == w


def test_perm_algebra():
    u, v = (2, 3, 1), (3, 1, 2)
    assert perm_mul(u, perm_inverse(u)) == (1, 2, 3)
    assert perm_mul(u, v) == tuple(u[v[i] - 1] for i in range(3))


# ---------------------------------------------------------------------------
# Polynomials, as the library builds them: {exponent tuple without trailing
# zeros: nonzero int}.  The ring operations serve the oracles only.

def _monomial(exp, coeff=1):
    exp = tuple(exp)
    while exp and exp[-1] == 0:
        exp = exp[:-1]
    return {exp: coeff} if coeff else {}


def _variable(i):
    """x_i for 1-based i."""
    return {(0,) * (i - 1) + (1,): 1}


def _add(*polys):
    out = {}
    for p in polys:
        for exp, c in p.items():
            out[exp] = out.get(exp, 0) + c
    return {exp: c for exp, c in out.items() if c}


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            # exponents are nonnegative, so the sum keeps a nonzero last entry
            exp = tuple(map(sum, zip_longest(e1, e2, fillvalue=0)))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def _pow(p, k):
    out = {(): 1}
    for _ in range(k):
        out = _mul(out, p)
    return out


def _degree(p):
    return max((sum(e) for e in p), default=0)


def _constant(p):
    """The integer value if the polynomial is constant, else None."""
    if not p:
        return 0
    return p[()] if len(p) == 1 and () in p else None


# ---------------------------------------------------------------------------
# Divided differences

def _random_poly(rng, nvars=5, max_deg=6, terms=6):
    p = {}
    for _ in range(terms):
        exp = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exp[rng.randrange(nvars)] += 1
        p = _add(p, _monomial(exp, rng.randint(-9, 9)))
    return p


def test_dd_trivial_cases():
    x1, x2 = _variable(1), _variable(2)
    assert divided_difference(1, x1) == _monomial(())
    assert divided_difference(1, _mul(x1, x2)) == {}
    assert divided_difference(1, _mul(x1, x1)) == _add(x1, x2)


def test_dd_nilpotence_and_braid_on_random_polys():
    rng = random.Random(42)
    for _ in range(100):
        p = _random_poly(rng)
        i = rng.randint(1, 4)
        assert divided_difference(i, divided_difference(i, p)) == {}
        lhs = divided_difference(i, divided_difference(i + 1, divided_difference(i, p)))
        rhs = divided_difference(i + 1, divided_difference(i, divided_difference(i + 1, p)))
        assert lhs == rhs


def test_dd_commutes_at_distance():
    rng = random.Random(7)
    for _ in range(30):
        p = _random_poly(rng)
        a = divided_difference(1, divided_difference(3, p))
        b = divided_difference(3, divided_difference(1, p))
        assert a == b


def _divided_difference_reference(i, p):
    """The monomial-by-monomial divided difference: one polynomial per
    output monomial, summed one at a time."""
    out = {}
    for exp, coeff in p.items():
        a = exp[i - 1] if i - 1 < len(exp) else 0
        b = exp[i] if i < len(exp) else 0
        if a == b:
            continue
        width = max(len(exp), i + 1)
        base = list(exp) + [0] * (width - len(exp))
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for j in range(hi - lo):
            mono = base[:]
            mono[i - 1] = lo + j
            mono[i] = hi - 1 - j
            out = _add(out, _monomial(mono, sign * coeff))
    return out


def test_dd_matches_monomial_reference_on_random_polys():
    rng = random.Random(2024)
    for _ in range(300):
        p = _random_poly(rng, nvars=rng.randint(1, 6), max_deg=9,
                         terms=rng.randint(0, 25))
        for i in range(1, 8):
            assert divided_difference(i, p) == _divided_difference_reference(i, p)
    # the two monomials of the symmetric x1^2 x2 + x1 x2^2 cancel exactly
    p = _add(_monomial((2, 1)), _monomial((1, 2)))
    assert divided_difference(1, p) == {}
    assert _divided_difference_reference(1, p) == {}
    assert divided_difference(1, _monomial((2, 0, 5), 3)) == \
        _divided_difference_reference(1, _monomial((2, 0, 5), 3))


# ---------------------------------------------------------------------------
# Schubert polynomials

def test_schubert_small_table():
    assert schubert_poly((1, 2, 3)) == _monomial(())
    assert schubert_poly((2, 1, 3)) == _variable(1)
    assert schubert_poly((1, 3, 2)) == _add(_variable(1), _variable(2))
    assert schubert_poly((2, 3, 1)) == _mul(_variable(1), _variable(2))
    assert schubert_poly((3, 1, 2)) == _mul(_variable(1), _variable(1))
    assert schubert_poly((3, 2, 1)) == _monomial((2, 1))


def test_schubert_identity_and_top():
    for n in (2, 3, 4, 5):
        assert schubert_poly(identity_perm(n)) == _monomial(())
        top = tuple(range(n, 0, -1))
        assert schubert_poly(top) == _monomial(tuple(range(n - 1, 0, -1)))


def _all_reduced_words(w):
    if length(w) == 0:
        yield ()
        return
    n = len(w)
    for i in range(1, n):
        if w[i - 1] > w[i]:
            prev = list(w)
            prev[i - 1], prev[i] = prev[i], prev[i - 1]
            for word in _all_reduced_words(tuple(prev)):
                yield word + (i,)


def test_schubert_reduced_word_independence_all_s4():
    for w in iperm((1, 2, 3, 4)):
        w0 = (4, 3, 2, 1)
        chain = perm_mul(perm_inverse(w), w0)
        words = list(_all_reduced_words(chain))
        staircase = _monomial((3, 2, 1))
        results = {frozenset(apply_chain(word, staircase).items()) for word in words[:6]}
        assert len(results) == 1
        assert dict(results.pop()) == schubert_poly(w)


def test_schubert_degree_and_positivity():
    for w in iperm((1, 2, 3, 4)):
        p = schubert_poly(w)
        assert _degree(p) == length(w)
        assert all(c > 0 for c in p.values())


def _chain_schubert(w):
    """The oracle: S_w as the divided-difference chain of w^{-1} w0 on the
    staircase monomial x_1^{n-1} x_2^{n-2} ... x_{n-1}."""
    n = len(w)
    chain = perm_mul(perm_inverse(w), tuple(range(n, 0, -1)))
    return apply_chain(minimal_word(chain), _monomial(tuple(range(n - 1, 0, -1))))


def _random_perm_of_length(rng, n, lw):
    """A permutation of 1..n with lw inversions: lw random steps up the
    weak order from the identity, each swapping a random ascent."""
    w = list(identity_perm(n))
    for _ in range(lw):
        i = rng.choice([i for i in range(n - 1) if w[i] < w[i + 1]])
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def test_schubert_poly_matches_chain_on_every_small_permutation():
    for n in range(1, 8):
        for w in iperm(range(1, n + 1)):
            assert schubert_poly(w) == _chain_schubert(w), w


def test_schubert_poly_matches_chain_on_seeded_s10_sample():
    rng = random.Random(10)
    for lw in (4, 7, 10):
        for _ in range(20):
            w = _random_perm_of_length(rng, 10, lw)
            assert length(w) == lw
            assert schubert_poly(w) == _chain_schubert(w), w


def test_schubert_poly_is_stable_under_trailing_fixed_points():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        w = tuple(rng.sample(range(1, n + 1), n))
        for extra in (1, 3):
            assert schubert_poly(w + tuple(range(n + 1, n + extra + 1))) == schubert_poly(w)


def test_schubert_poly_takes_sequences_and_validates_them():
    assert schubert_poly([2, 1, 3]) == schubert_poly((2, 1, 3)) == _variable(1)
    assert schubert_poly(iter((1, 3, 2))) == _add(_variable(1), _variable(2))
    for bad in ([1, 1, 2], (0, 1), (2, 3)):
        with pytest.raises(SchubertError):
            schubert_poly(bad)


def test_schubert_poly_results_do_not_alias_the_memo():
    """Mutating a returned polynomial changes neither a later S_w nor the
    longer S_w built on it by the recursion."""
    got = schubert_poly((1, 3, 2, 4))
    got.clear()
    got[(9,)] = 7
    assert schubert_poly((1, 3, 2, 4)) == _add(_variable(1), _variable(2))
    w = (3, 2, 1, 5, 4)
    assert schubert_poly(w) == _chain_schubert(w)


# ---------------------------------------------------------------------------
# Orders

def test_sum_order_example():
    order = sum_order((1, -1), (3, 2, -5))
    assert order == ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3))


def test_sum_order_tie_errors():
    with pytest.raises(TieError):
        sum_order((1, -1), (2, 0, -2))
    with pytest.raises(TieError):
        sum_order((1, -1), (1, -1))


def test_sum_order_scale_invariance():
    base = sum_order((1, -1), (3, 2, -5))
    assert sum_order((F(1, 3), F(-1, 3)), (1, F(2, 3), F(-5, 3))) == base
    assert sum_order((7, -7), (21, 14, -35)) == base


def test_sum_order_validates_test_spectra():
    with pytest.raises(SchubertError):
        sum_order((1, 1), (1, -1))       # nonzero sum
    with pytest.raises(SchubertError):
        sum_order((-1, 1), (1, -1))      # increasing


def test_fermi_sum_order():
    order = fermi_sum_order((5, 1, -2, -4), 2)
    assert order == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    with pytest.raises(TieError):
        fermi_sum_order((3, 1, -1, -3), 2)


# ---------------------------------------------------------------------------
# Coefficients

def _order_for_chamber(arr, chamber):
    return sum_order(*arr.chart.to_test_spectra(chamber.barycenter()))


def test_identity_coefficient_is_one_over_all_small_chambers():
    from qmarginal.chambers import cubicle_arrangement, enumerate_chambers

    for fmt, (m, n) in (("2x2", (2, 2)), ("2x3", (2, 3))):
        arr = cubicle_arrangement(fmt)
        chambers = list(enumerate_chambers(arr))
        assert chambers
        for chamber in chambers:
            order = _order_for_chamber(arr, chamber)
            value = coeff_two(
                identity_perm(m), identity_perm(n), identity_perm(m * n), order
            )
            assert value == 1


@pytest.mark.parametrize("u,v,order", [
    # the pairs of a 2x3 format given to permutations of a 3x2 one
    ((1, 2, 3), (1, 2), sum_order((1, -1), (5, 1, -6))),
    ((1, 2), (1, 2), ((1, 1), (1, 2), (2, 1), (2, 1))),   # a pair twice
    ((1, 2), (1, 2), ((1, 1), (1, 2), (2, 1), (2, 3))),   # j out of range
])
def test_coeff_two_refuses_an_order_that_is_not_the_pairs(u, v, order):
    with pytest.raises(SchubertError, match="pairs"):
        coeff_two(u, v, tuple(range(1, len(order) + 1)), order)


@pytest.mark.parametrize("v,w,order", [
    # the 1-subsets of 1..2 given to a permutation of 3 orbitals
    ((2, 1, 3), (2, 1), fermi_sum_order((1, -1), 1)),
    ((1, 2, 3, 4), identity_perm(6), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 4))),
    ((1, 2, 3), (1, 2, 3), ((1, 2), (1, 3), (2,))),   # subsets of two sizes
])
def test_coeff_fermi_refuses_an_order_that_is_not_the_subsets(v, w, order):
    with pytest.raises(SchubertError, match="subsets"):
        coeff_fermi(v, w, order)


def test_degree_mismatch_is_zero():
    order = sum_order((1, -1), (2, -2))
    assert coeff_two((2, 1), (2, 1), (2, 1, 3, 4), order) == 0
    assert coeff_fermi((2, 1, 3, 4), identity_perm(6),
                       fermi_sum_order((5, 1, -2, -4), 2)) == 0


def _perm_from_code(code, size):
    avail = list(range(1, size + 1))
    out = []
    padded = list(code) + [0] * (size - len(code))
    for c in padded:
        out.append(avail.pop(c))
    return tuple(out)


def _codes(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _codes(total - first, parts - 1):
            yield (first,) + rest


def _substitute(poly, images):
    """poly with z_k replaced by the polynomial images[k], on whole
    polynomials: the reference the library's memoized monomial images are
    checked against."""
    out = {}
    for exp, coeff in poly.items():
        term = _monomial((), coeff)
        for k, e in enumerate(exp):
            if e:
                term = _mul(term, _pow(images[k], e))
        out = _add(out, term)
    return out


def _shift_poly(p, offset):
    out = {}
    for exp, c in p.items():
        out = _add(out, _monomial((0,) * offset + tuple(exp), c))
    return out


def _expand_in_schubert_pairs(w, order, m, n):
    """All coefficients of the substituted S_w over S_u(x_A) * S_v(x_B).

    Works in a wide variable layout (the B block starts at m + deg) so the
    divided-difference chains of codes with a descent at the block boundary
    stay inside their own block; verifies exact reconstruction.
    """
    deg = length(w)
    wide = m + deg
    lins = [_add(_variable(i), _variable(wide + j)) for (i, j) in order]
    f = _substitute(schubert_poly(w), lins)
    coeffs = {}
    rebuilt = {}
    for da in range(deg + 1):
        db = deg - da
        for code_a in _codes(da, m):
            u = _perm_from_code(code_a, m + da)
            for code_b in _codes(db, n):
                v = _perm_from_code(code_b, n + db)
                res = apply_chain(minimal_word(u), f, offset=0)
                res = apply_chain(minimal_word(v), res, offset=wide)
                c = _constant(res)
                assert c is not None, "chain left non-constant residue"
                if c:
                    coeffs[(u, v)] = c
                    term = _mul(schubert_poly(u), _shift_poly(schubert_poly(v), wide))
                    rebuilt = _add(rebuilt, _mul(term, _monomial((), c)))
    assert rebuilt == f, "Schubert-pair expansion failed to reconstruct"
    return coeffs


def test_coeff_two_agrees_with_expansion_oracle():
    """At least 10 non-identity triples in the 2x2 system, both chambers."""
    from qmarginal.chambers import cubicle_arrangement, enumerate_chambers

    arr = cubicle_arrangement("2x2")
    chambers = list(enumerate_chambers(arr))
    s2 = [(1, 2), (2, 1)]
    s4_all = list(iperm((1, 2, 3, 4)))
    checked = 0
    for chamber in chambers:
        order = _order_for_chamber(arr, chamber)
        for u in s2:
            for v in s2:
                lw = length(u) + length(v)
                if lw == 0:
                    continue
                for w in s4_all:
                    if length(w) != lw:
                        continue
                    oracle = _expand_in_schubert_pairs(w, order, 2, 2)
                    pad_u = u + tuple(range(3, 3 + lw))
                    pad_v = v + tuple(range(3, 3 + lw))
                    expected = 0
                    for (ou, ov), val in oracle.items():
                        if ou[:2] == u and _is_padded_identity(ou, 2) and \
                           ov[:2] == v and _is_padded_identity(ov, 2):
                            expected = val
                    got = coeff_two(u, v, w, order)
                    assert got == expected, (u, v, w, order)
                    checked += 1
    assert checked >= 10


def _is_padded_identity(perm, prefix):
    return perm[prefix:] == tuple(range(prefix + 1, len(perm) + 1))


def test_coeff_fermi_agrees_with_expansion_oracle():
    a = (5, 1, -2, -4)
    order = fermi_sum_order(a, 2)
    s6_len1 = [w for w in iperm((1, 2, 3, 4, 5, 6)) if length(w) == 1]
    for w in s6_len1:
        lins = []
        for subset in order:
            acc = {}
            for i in subset:
                acc = _add(acc, _variable(i))
            lins.append(acc)
        f = _substitute(schubert_poly(w), lins)
        # oracle: single-block expansion over codes of length 4
        deg = _degree(f)
        rebuilt = {}
        values = {}
        for code in _codes(deg, 4):
            v = _perm_from_code(code, 4 + deg)
            c = _constant(apply_chain(minimal_word(v), f))
            assert c is not None
            if c:
                values[v] = c
                rebuilt = _add(rebuilt, _mul(schubert_poly(v), _monomial((), c)))
        assert rebuilt == f
        padded = {
            k[:4]: val for k, val in values.items()
            if k[4:] == tuple(range(5, len(k) + 1))
        }
        for v4 in iperm((1, 2, 3, 4)):
            if length(v4) != 1:
                continue
            assert coeff_fermi(v4, w, order) == padded.get(v4, 0)


def test_coeff_fermi_identity():
    a = (5, 1, -2, -4)
    order = fermi_sum_order(a, 2)
    assert coeff_fermi(identity_perm(4), identity_perm(6), order) == 1


# ---------------------------------------------------------------------------
# Inequality generation

def test_generate_basic_inequality_identity_triple():
    rec = generate_inequality((1, -1), (1, 0, -1), (1, 2), (1, 2, 3),
                              identity_perm(6))
    terms = dict(rec.terms)
    assert terms["A"] == (1, -1)
    assert terms["B"] == (1, 0, -1)
    # pair sums (2, 1, 0, 0, -1, -2), negated on the right-hand side
    assert terms["AB"] == (-2, -1, 0, 0, 1, 2)
    assert rec.meta["coeff"] == 1


def test_generate_rejects_vanishing_coefficient():
    order_spectra = ((1, -1), (2, -2))
    with pytest.raises(SchubertError):
        generate_inequality((1, -1), (2, -2), (2, 1), (1, 2), (1, 3, 2, 4))


def test_generated_inequalities_hold_on_sampled_2x2_states():
    """Every nonzero-coefficient record from the 2x2 cubicles holds on
    10^4 sampled mixed two-qubit states (slack >= -1e-10)."""
    from qmarginal.chambers import cubicle_arrangement, enumerate_chambers
    from qmarginal.schubert import enumerate_inequalities
    from qmarginal.tensor import partial_trace, random_density, rng_from_seed, spectrum_of

    arr = cubicle_arrangement("2x2")
    records = []
    for chamber in enumerate_chambers(arr):
        a, b = arr.chart.to_test_spectra(chamber.barycenter())
        records.extend(enumerate_inequalities(a, b, coeff_filter="nonzero"))
    assert len(records) >= 6
    rng = rng_from_seed(2718)
    worst = 0.0
    for trial in range(10000):
        rho = random_density((2, 2), rng)
        values = {
            "A": spectrum_of(partial_trace(rho, [0])).as_floats(),
            "B": spectrum_of(partial_trace(rho, [1])).as_floats(),
            "AB": spectrum_of(rho).as_floats(),
        }
        worst = min(worst, min(rec.slack(values) for rec in records))
    assert worst >= -1e-10


def test_enumerate_inequalities_filters():
    """Both printed coefficient conditions are exposed: the unit filter is
    a subset of the odd filter, which is a subset of all active records."""
    arr_a = (F(1), F(-1))
    arr_b = (F(2), F(-2))
    unit = enumerate_inequalities(arr_a, arr_b, coeff_filter="unit")
    odd = enumerate_inequalities(arr_a, arr_b, coeff_filter="odd")
    every = enumerate_inequalities(arr_a, arr_b, coeff_filter="nonzero")
    assert set(unit) <= set(odd) <= set(every)
    assert all(rec.meta["coeff"] == 1 for rec in unit)
    assert all(rec.meta["coeff"] % 2 == 1 for rec in odd)
    with pytest.raises(SchubertError):
        enumerate_inequalities(arr_a, arr_b, coeff_filter="bogus")


def test_enumerate_inequalities_rejects_negative_max_length():
    assert len(enumerate_inequalities((1, -1), (2, -2), max_length=0)) == 1
    with pytest.raises(SchubertError, match="max_length"):
        enumerate_inequalities((1, -1), (2, -2), max_length=-1)


def _scan_reference(a, b, max_length):
    """(u, v, w, c) of the full-S_{mn} scan: the chains of every triple with
    l(w) = l(u) + l(v) <= max_length on the whole substituted S_w
    (``_old_coeff_two``, substituting once per w), in the scan's order."""
    a, b = check_test_spectrum(a), check_test_spectrum(b)
    order = sum_order(a, b)
    m, n = len(a), len(b)
    us = {}
    for u in iperm(range(1, m + 1)):
        us.setdefault(length(u), []).append(u)
    vs = {}
    for v in iperm(range(1, n + 1)):
        vs.setdefault(length(v), []).append(v)
    found = []
    for w in iperm(range(1, m * n + 1)):
        lw = length(w)
        if lw > max_length:
            continue
        sub = _old_substituted(w, order, m)
        for lu, ulist in us.items():
            for v in vs.get(lw - lu, ()):
                for u in ulist:
                    c = _old_chains(sub, u, v)
                    if c:
                        found.append((u, v, w, c))
    return a, b, found


def _assert_scan_matches_reference(a, b, max_length):
    a, b, found = _scan_reference(a, b, max_length)
    keep = {
        "unit": lambda c: c == 1,
        "odd": lambda c: c % 2 == 1,
        "nonzero": lambda c: True,
    }
    for name, passes in keep.items():
        want = [_record(a, b, u, v, w, c) for u, v, w, c in found if passes(c)]
        got = enumerate_inequalities(a, b, max_length=max_length, coeff_filter=name)
        assert got == want, (a, b, name)
        assert [r.label for r in got] == [r.label for r in want]
    return found


@pytest.mark.parametrize("fmt", ["2x2", "2x3"])
def test_enumerate_inequalities_matches_per_triple_scan_on_chambers(fmt):
    from qmarginal.chambers import cubicle_arrangement, enumerate_chambers

    arr = cubicle_arrangement(fmt)
    chambers = list(enumerate_chambers(arr))
    assert chambers
    for chamber in chambers:
        a, b = arr.chart.to_test_spectra(chamber.barycenter())
        _assert_scan_matches_reference(a, b, max_length=6)


def test_enumerate_inequalities_matches_per_triple_scan_on_2x4_cubicle():
    """Up to length 3 (the benchmark's scan) and length 4, every filter."""
    for max_length, active, units, top in ((3, 507, 218, 8), (4, 1480, 464, 14)):
        found = _assert_scan_matches_reference((3, -3), (8, 1, -3, -6), max_length)
        coeffs = [c for *_, c in found]
        assert (len(coeffs), coeffs.count(1), max(coeffs)) == (active, units, top)


def test_scan_records_are_unchanged_with_the_chain_oracle(monkeypatch):
    """The 2x4 scan gives the same records in the same order whether S_w
    comes from the transition recursion or from the staircase chain."""
    import qmarginal.schubert as schubert

    a, b = (3, -3), (8, 1, -3, -6)
    for name in ("unit", "nonzero"):
        got = enumerate_inequalities(a, b, max_length=3, coeff_filter=name)
        with monkeypatch.context() as patch:
            patch.setattr(schubert, "schubert_poly", _chain_schubert)
            want = enumerate_inequalities(a, b, max_length=3, coeff_filter=name)
        assert got == want
        assert [r.label for r in got] == [r.label for r in want]


def test_perms_up_to_length_matches_filtered_permutations():
    for n in range(1, 7):
        top = n * (n - 1) // 2
        for cap in range(-1, top + 2):
            want = [(w, length(w)) for w in iperm(range(1, n + 1)) if length(w) <= cap]
            assert _perms_up_to_length(n, cap) == want


def test_basic_partial_sums_arise_from_step_test_spectra():
    """The identity-triple record for a step test spectrum against b = 0 is
    exactly the partial-sum bound: its slack equals the independently coded
    partial-sum slack on sampled mixed states."""
    from qmarginal.tensor import partial_trace, random_density, rng_from_seed, spectrum_of

    rec = generate_inequality(
        (F(1, 2), F(-1, 2)), (0, 0), (1, 2), (1, 2), identity_perm(4)
    )
    rng = rng_from_seed(808)
    for trial in range(100):
        rho = random_density((2, 2), rng)
        la = spectrum_of(partial_trace(rho, [0])).as_floats()
        lab = spectrum_of(rho).as_floats()
        got = rec.slack({
            "A": la,
            "B": spectrum_of(partial_trace(rho, [1])).as_floats(),
            "AB": lab,
        })
        partial_sum_slack = (lab[0] + lab[1]) - la[0]
        assert abs(got - partial_sum_slack) < 1e-12


def test_generated_fermi_identity_records_hold_on_mixed_states():
    """Identity-pair fermionic records hold on sampled fixed-spectrum mixed
    states of two particles in four orbitals."""
    import numpy as np

    from qmarginal.fermion import fermion_basis, one_rdm_mixed
    from qmarginal.tensor import haar_unitary, rng_from_seed, spectrum_of

    recs = [
        generate_fermi_inequality((5, 1, -2, -4), 2, identity_perm(4), identity_perm(6)),
        generate_fermi_inequality((1, 1, -1, -1), 2, identity_perm(4), identity_perm(6)),
    ]
    basis = fermion_basis(4, 2)
    rng = rng_from_seed(909)
    for trial in range(200):
        nu = np.sort(rng.dirichlet(np.ones(basis.dim)))[::-1]
        u = haar_unitary(basis.dim, rng)
        rho = (u * nu) @ u.conj().T
        lam = spectrum_of(one_rdm_mixed(rho, basis)).as_floats()
        values = {"lam": lam, "nu": tuple(nu)}
        for rec in recs:
            assert rec.slack(values) >= -1e-10


def test_generate_fermi_identity():
    rec = generate_fermi_inequality((5, 1, -2, -4), 2, identity_perm(4),
                                    identity_perm(6))
    terms = dict(rec.terms)
    assert terms["lam"] == (5, 1, -2, -4)
    assert terms["nu"][0] == -6  # largest pair sum 5+1


def test_generate_fermi_takes_the_particle_number():
    """C(4, 1) = C(4, 3) = 4, so |w| = 4 alone does not fix n: n = 3 gives
    the 3-subset sums (4, 2, -1, -5), not the 1-subset sums."""
    a, v, w = (5, 1, -2, -4), identity_perm(4), identity_perm(4)
    assert dict(generate_fermi_inequality(a, 3, v, w).terms)["nu"] == (-4, -2, 1, 5)
    assert dict(generate_fermi_inequality(a, 1, v, w).terms)["nu"] == (-5, -1, 2, 4)
    for n in (0, 2, 4):
        with pytest.raises(SchubertError):
            generate_fermi_inequality(a, n, v, w)


# ---------------------------------------------------------------------------
# The one combined-sum path against the per-kind code it replaced

def _old_sum_order(a, b):
    a, b = check_test_spectrum(a), check_test_spectrum(b)
    sums = [(a[i] + b[j], (i + 1, j + 1)) for i in range(len(a)) for j in range(len(b))]
    sums.sort(key=lambda t: t[0], reverse=True)
    for (v1, _), (v2, _) in zip(sums, sums[1:]):
        if v1 == v2:
            raise TieError(v1)
    return tuple(p for _, p in sums)


def _old_fermi_sum_order(a, n):
    from itertools import combinations

    a = check_test_spectrum(a)
    sums = [(sum((a[i - 1] for i in s), F(0)), s)
            for s in combinations(range(1, len(a) + 1), n)]
    sums.sort(key=lambda t: t[0], reverse=True)
    for (v1, _), (v2, _) in zip(sums, sums[1:]):
        if v1 == v2:
            raise TieError(v1)
    return tuple(s for _, s in sums)


def _residue(res):
    value = _constant(res)
    assert value is not None, "non-constant residue"
    return value


def _old_substituted(w, order, m):
    """S_w with z_k = x^A_i + x^B_j for the k-th pair (i, j) of the order."""
    lins = [_add(_variable(i), _variable(m + j)) for (i, j) in order]
    return _substitute(schubert_poly(w), lins)


def _old_chains(sub, u, v):
    """The u chain on the A block, then the v chain on the B block, of a
    whole substituted polynomial; the residue must be a constant."""
    res = apply_chain(minimal_word(u), sub, offset=0)
    return _residue(apply_chain(minimal_word(v), res, offset=len(u)))


def _old_coeff_two(u, v, w, order):
    if length(w) != length(u) + length(v):
        return 0
    return _old_chains(_old_substituted(w, order, len(u)), u, v)


def _old_coeff_fermi(v, w, order):
    if length(w) != length(v):
        return 0
    lins = []
    for subset in order:
        acc = {}
        for i in subset:
            acc = _add(acc, _variable(i))
        lins.append(acc)
    return _residue(apply_chain(minimal_word(v), _substitute(schubert_poly(w), lins)))


def _fmt_vec(vals):
    return "(" + ",".join(str(x) for x in vals) + ")"


def _old_two_sided_record(a, b, u, v, w, coeff):
    m, n = len(a), len(b)
    coef_a, coef_b = [F(0)] * m, [F(0)] * n
    for i in range(m):
        coef_a[u[i] - 1] = a[i]
    for j in range(n):
        coef_b[v[j] - 1] = b[j]
    sums = sorted((x + y for x in a for y in b), reverse=True)
    coef_ab = [F(0)] * (m * n)
    for k in range(m * n):
        coef_ab[w[k] - 1] -= sums[k]
    label = (f"edge a={_fmt_vec(a)} b={_fmt_vec(b)} u={u} v={v} w={w} c={coeff}")
    meta = {"a": a, "b": b, "u": u, "v": v, "w": w, "coeff": coeff}
    return (("A", tuple(coef_a)), ("B", tuple(coef_b)), ("AB", tuple(coef_ab))), label, meta


def _old_fermi_record(a, v, w, n, coeff):
    from itertools import combinations

    r = len(a)
    coef_lam = [F(0)] * r
    for i in range(r):
        coef_lam[v[i] - 1] = a[i]
    sums = sorted((sum((a[i - 1] for i in s), F(0))
                   for s in combinations(range(1, r + 1), n)), reverse=True)
    coef_nu = [F(0)] * len(w)
    for k in range(len(w)):
        coef_nu[w[k] - 1] -= sums[k]
    label = f"fermi edge a={_fmt_vec(a)} v={v} w={w} c={coeff}"
    return (("lam", tuple(coef_lam)), ("nu", tuple(coef_nu))), label, \
        {"a": a, "v": v, "w": w, "coeff": coeff}


def _parts(rec):
    return rec.terms, rec.label, rec.meta


def _record(a, b, u, v, w, coeff):
    """The library's record of (u, v, w), given the negated pair sums its
    callers compute once."""
    return _two_sided_record(a, b, u, v, w, coeff,
                             [-x for x, _ in _pair_sums(a, b, ties=True)])


def _random_test_spectrum(rng, size, spread=4):
    """A nonincreasing zero-sum integer vector, often with repeated sums."""
    vals = sorted((rng.randint(-spread, spread) for _ in range(size)), reverse=True)
    vals = [size * x for x in vals]
    shift = sum(vals) // size
    return tuple(F(x - shift) for x in vals)


def _order_or_tie(fn, *args):
    try:
        return fn(*args)
    except TieError:
        return TieError


def test_sum_orders_match_per_kind_routines():
    rng = random.Random(31)
    ties = 0
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a, b = _random_test_spectrum(rng, m), _random_test_spectrum(rng, n)
        want = _order_or_tie(_old_sum_order, a, b)
        assert _order_or_tie(sum_order, a, b) == want, (a, b)
        ties += want is TieError
        r = rng.randint(2, 7)
        a = _random_test_spectrum(rng, r)
        k = rng.randint(0, r)
        want = _order_or_tie(_old_fermi_sum_order, a, k)
        assert _order_or_tie(fermi_sum_order, a, k) == want, (a, k)
    assert 30 < ties < 270


def _chamber_orders(system, order_fn):
    from qmarginal.chambers import cubicle_arrangement, enumerate_chambers

    arr = cubicle_arrangement(system)
    return [order_fn(*arr.chart.to_test_spectra(ch.barycenter()))
            for ch in enumerate_chambers(arr)]


def _perms_by_length(size, top):
    by_length = {}
    for w, lw in _perms_up_to_length(size, top):
        by_length.setdefault(lw, []).append(w)
    return by_length


def test_coeff_two_matches_per_kind_kernel():
    rng = random.Random(5)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        us = list(iperm(range(1, m + 1)))
        vs = list(iperm(range(1, n + 1)))
        ws = _perms_by_length(m * n, 6)
        for order in _chamber_orders(f"{m}x{n}", sum_order):
            for _ in range(25):
                u, v = rng.choice(us), rng.choice(vs)
                if rng.random() < 0.8 and length(u) + length(v) <= 6:
                    w = rng.choice(ws[length(u) + length(v)])   # matching length
                else:
                    w = tuple(rng.sample(range(1, m * n + 1), m * n))
                assert coeff_two(u, v, w, order) == _old_coeff_two(u, v, w, order)


def test_coeff_fermi_matches_per_kind_kernel():
    rng = random.Random(6)
    found = 0
    for system, n in (("fermi:4:2", 2), ("fermi:5:2", 2)):
        r = int(system.split(":")[1])
        for order in _chamber_orders(system, lambda a: fermi_sum_order(a, n)):
            ws = _perms_by_length(len(order), 2)
            for v in iperm(range(1, r + 1)):
                if length(v) > 2:
                    continue
                for _ in range(3):
                    w = rng.choice(ws[length(v)])
                    got = coeff_fermi(v, w, order)
                    assert got == _old_coeff_fermi(v, w, order)
                    found += got != 0
    assert found > 10


def test_records_match_per_kind_builders():
    rng = random.Random(8)
    for m, n in ((2, 2), (2, 3), (3, 2)):
        for _ in range(20):
            a, b = _random_test_spectrum(rng, m), _random_test_spectrum(rng, n)
            u = tuple(rng.sample(range(1, m + 1), m))
            v = tuple(rng.sample(range(1, n + 1), n))
            w = tuple(rng.sample(range(1, m * n + 1), m * n))
            c = rng.randint(1, 5)
            rec = _record(a, b, u, v, w, c)
            assert _parts(rec) == _old_two_sided_record(a, b, u, v, w, c)


def test_identity_records_on_walls_match_per_kind_builders():
    """The identity shortcut skips the tie check: a point on a wall (the
    2x2 edge (1, 1) and a tied fermionic spectrum) still gets its record."""
    from qmarginal.chambers import cubicle_arrangement

    a, b = cubicle_arrangement("2x2").chart.to_test_spectra((1, 1))
    with pytest.raises(TieError):
        sum_order(a, b)
    rec = generate_inequality(a, b, (1, 2), (1, 2), identity_perm(4))
    assert _parts(rec) == _old_two_sided_record(a, b, (1, 2), (1, 2), identity_perm(4), 1)
    for a, n in (((1, 1, -1, -1), 2), ((3, 1, -1, -3), 2), ((2, 0, -2), 1),
                 ((4, 1, 0, -5), 1)):
        a = tuple(F(x) for x in a)
        w = identity_perm(comb(len(a), n))
        rec = generate_fermi_inequality(a, n, identity_perm(len(a)), w)
        assert _parts(rec) == _old_fermi_record(a, identity_perm(len(a)), w, n, 1)


def test_nonidentity_records_match_per_kind_builders():
    rng = random.Random(9)
    a, b = (F(3), F(-3)), (F(8), F(1), F(-3), F(-6))
    order = sum_order(a, b)
    checked = 0
    while checked < 20:
        u = tuple(rng.sample((1, 2), 2))
        v = tuple(rng.sample((1, 2, 3, 4), 4))
        w = tuple(rng.sample(range(1, 9), 8))
        c = _old_coeff_two(u, v, w, order)
        if c == 0:
            continue
        rec = generate_inequality(a, b, u, v, w)
        assert _parts(rec) == _old_two_sided_record(a, b, u, v, w, c)
        checked += 1
    a = (F(5), F(1), F(-2), F(-4))
    order = fermi_sum_order(a, 2)
    for v in iperm((1, 2, 3, 4)):
        for w in iperm(range(1, 7)):
            if length(w) != length(v) or length(v) > 1:
                continue
            c = _old_coeff_fermi(v, w, order)
            if c:
                rec = generate_fermi_inequality(a, 2, v, w)
                assert _parts(rec) == _old_fermi_record(a, v, w, 2, c)
            else:
                with pytest.raises(SchubertError):
                    generate_fermi_inequality(a, 2, v, w)


# ---------------------------------------------------------------------------
# Qubit arrays

def test_qubit_array_groups_match_printed_three_qubit_list():
    printed = {
        (dict(r.terms)["delta"], dict(r.terms)["joint"])
        for r in THREE_QUBIT_RECORDS
    }
    generated = set()
    for edge in ((0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)):
        group = generate_qubit_array(edge)
        for rec in group.records:
            t = dict(rec.terms)
            generated.add((t["delta"], t["joint"]))
    assert generated == printed


def test_qubit_array_group_sizes():
    sizes = {
        (0, 0, 1): 1,
        (0, 1, 1): 1,
        (1, 1, 1): 3,
        (1, 1, 2): 5,
    }
    for edge, size in sizes.items():
        assert len(generate_qubit_array(edge).records) == size


def test_qubit_array_raw_includes_redundant_modifications():
    raw = generate_qubit_array((1, 1, 1), irredundant=False)
    assert len(raw.records) == 7  # basic + 3 sites x 2 nontrivial swaps


def test_qubit_array_rejects_negative_site_values():
    with pytest.raises(SchubertError):
        generate_qubit_array((-1, 1))


@pytest.mark.parametrize("edge,match", [
    ((1, 1, 0), r"qubit edge \(1,1,0\) must be sorted increasing"),
    ((0, 2, 1), r"qubit edge \(0,2,1\) must be sorted increasing"),
    ((1, 0), r"qubit edge \(1,0\) must be sorted increasing"),
    ((0, 0, 0), r"qubit edge \(0,0,0\) is zero"),
    ((0, 0), r"qubit edge \(0,0\) is zero"),
])
def test_qubit_array_rejects_edges_outside_the_sorted_cone(edge, match):
    """An unsorted edge would give the weaker record of another edge under
    its label, and the zero edge the vacuous record 0 <= 0."""
    with pytest.raises(SchubertError, match=match):
        generate_qubit_array(edge)
    with pytest.raises(SchubertError, match=match):
        generate_qubit_array(edge, irredundant=False)


def test_two_qubit_edge_bounds_consistent_with_bravyi_on_pure_states():
    """Pure two-qubit states: the 2-qubit array records from edge (0, 1)
    never fire while the Bravyi family (with nu pure) is satisfied."""
    from qmarginal.catalog import SpectraBundle, check_family
    from qmarginal.spectra import spectrum
    from qmarginal.tensor import haar_pure, pure_marginal, spectrum_of

    group = generate_qubit_array((0, 1))
    for trial in range(200):
        psi = haar_pure((2, 2), 1234, stream=trial)
        sites = [spectrum_of(pure_marginal(psi, [i])) for i in range(2)]
        joint = spectrum((1.0, 0.0, 0.0, 0.0), 1.0)
        deltas = sorted(s.as_floats()[0] - s.as_floats()[1] for s in sites)
        values = {"delta": tuple(deltas), "joint": joint.as_floats()}
        for rec in group.records:
            assert rec.slack(values) >= -1e-10
        bundle = SpectraBundle(sites=tuple(sites), joint=joint)
        assert check_family("BRAVYI_2Q", bundle).satisfied
