"""Spectrum combinatorics: majorization, diagrams, Gale-Ryser, duality."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarginal.spectra import (
    Spectrum,
    SpectrumError,
    YoungDiagram,
    dominates,
    gale_ryser,
    majorizes,
    particle_hole,
    renormalize,
    spectrum,
    transpose,
)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spectrum_rejects_non_finite_values(bad):
    with pytest.raises(SpectrumError, match="not finite"):
        Spectrum((1.0, bad), 1.0)
    with pytest.raises(SpectrumError, match="not finite"):
        Spectrum((0.5, 0.5), bad)


@pytest.mark.parametrize("trace_tag", [None, 1])
def test_spectrum_of_an_integer_no_float_holds_is_a_spectrum_error(trace_tag):
    """``spectrum`` sorts by float; an entry no float holds is refused as
    ``Spectrum`` refuses it, not with a bare OverflowError."""
    with pytest.raises(SpectrumError, match="too large for a float"):
        spectrum((10 ** 400, 1), trace_tag)
    with pytest.raises(SpectrumError, match="too large for a float"):
        Spectrum((10 ** 400, 1), 1)


def test_spectrum_validation():
    spectrum((0.5, 0.5))
    with pytest.raises(SpectrumError):
        Spectrum((0.2, 0.8), 1.0)
    with pytest.raises(SpectrumError):
        Spectrum((0.5, 0.5), 2.0)


def test_majorizes_trivial():
    assert majorizes(spectrum((1, 0)), spectrum((0.5, 0.5)))
    lam = spectrum((0.4, 0.35, 0.25))
    assert majorizes(lam, lam)
    assert not majorizes(spectrum((0.5, 0.5)), spectrum((1, 0)))


def test_majorizes_pads_zeros():
    assert majorizes(spectrum((1,), 1), spectrum((0.5, 0.3, 0.2), 1))
    # only the padded third partial sum (1.2 > 1.0) decides this one
    assert not majorizes(spectrum((1.0,), 1.0), spectrum((0.6, 0.6, -0.2), 1.0))


def _dominates_by_padded_partial_sums(a, b, tol):
    size = max(len(a), len(b))
    a = list(a) + [0] * (size - len(a))
    b = list(b) + [0] * (size - len(b))
    return all(sum(a[:k + 1]) + tol >= sum(b[:k + 1]) for k in range(size))


@pytest.mark.parametrize("a,b,tol,want", [
    ((3, 1), (2, 2), 0, True),
    ((2, 2), (3, 1), 0, False),
    ((2,), (1, 1), 0, True),                     # first argument shorter
    ((1,), (1, 1), 0, False),                    # ... and only its padding fails
    ((1, 1), (2,), 0, False),                    # second argument shorter
    ((2, -1), (2,), 0, False),                   # ... and only its padding fails
    ((2, 1, -1), (2,), 0, True),
    ((1.0,), (0.6, 0.6, -0.2), 0, False),        # a negative entry past the end
    ((0.5, 0.5), (0.75, 0.25), 0.25, True),      # tol > 0
    ((0.5, 0.5), (0.75, 0.25), 0.125, False),
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)), 0, True),
    ((Fraction(1, 3),), (Fraction(1, 2),), Fraction(1, 6), True),
    ((Fraction(1, 3),), (Fraction(1, 2),), Fraction(1, 7), False),
    ((), (), 0, True),
])
def test_dominates_matches_padded_partial_sums(a, b, tol, want):
    assert dominates(a, b, tol) == _dominates_by_padded_partial_sums(a, b, tol) == want


def test_majorizes_sum_mismatch():
    with pytest.raises(SpectrumError):
        majorizes(spectrum((1, 0)), spectrum((0.6, 0.6), 1.2))


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
       st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_majorizes_matches_partial_sum_scan(a, b):
    sa, sb = sum(a), sum(b)
    lam = spectrum([x / sa for x in a])
    nu = spectrum([x / sb for x in b])
    # independent oracle: direct partial-sum comparison on padded lists
    size = max(len(a), len(b))
    la = sorted([x / sa for x in a], reverse=True) + [0.0] * (size - len(a))
    lb = sorted([x / sb for x in b], reverse=True) + [0.0] * (size - len(b))
    expect = all(
        sum(la[: k + 1]) <= sum(lb[: k + 1]) + 1e-10 for k in range(size)
    )
    assert majorizes(nu, lam) == expect


def test_majorizes_is_a_partial_order():
    import random

    rng = random.Random(12)
    pool = []
    for _ in range(60):
        vals = sorted((rng.random() for _ in range(4)), reverse=True)
        total = sum(vals)
        pool.append(spectrum([v / total for v in vals]))
    for lam in pool[:20]:
        assert majorizes(lam, lam)  # reflexive
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if majorizes(a, b) and majorizes(b, a):
            # antisymmetric on sorted vectors (within tolerance)
            assert max(
                abs(x - y) for x, y in zip(a.as_floats(), b.as_floats())
            ) < 1e-9
        if majorizes(a, b) and majorizes(b, c):
            assert majorizes(a, c, tol=1e-9)  # transitive


def test_transpose_paper_pair():
    assert transpose(YoungDiagram((5, 4, 2, 1))).rows == (4, 3, 2, 2, 1)


def test_transpose_small():
    assert transpose(YoungDiagram((1,))).rows == (1,)
    assert transpose(YoungDiagram((3, 3))).rows == (2, 2, 2)


def test_transpose_involution_exhaustive():
    # all diagrams with at most 20 cells and at most 5 rows of size <= 6
    def diagrams(max_cells):
        for rows in range(6):
            for combo in product(range(1, 7), repeat=rows):
                if sum(combo) <= max_cells and all(
                    a >= b for a, b in zip(combo, combo[1:])
                ):
                    yield YoungDiagram(combo)

    for lam in diagrams(20):
        assert transpose(transpose(lam)) == lam


def _feasible_margins_by_enumeration(max_dim=4):
    """Exhaustive 0/1-matrix oracle: every (row sums, column sums) pair."""
    feasible = set()
    for rows in range(1, max_dim + 1):
        for cols in range(1, max_dim + 1):
            for bits in range(2 ** (rows * cols)):
                row_sums = [0] * rows
                col_sums = [0] * cols
                for i in range(rows):
                    for j in range(cols):
                        if bits >> (i * cols + j) & 1:
                            row_sums[i] += 1
                            col_sums[j] += 1
                lam = tuple(sorted((s for s in row_sums if s), reverse=True))
                mu = tuple(sorted((s for s in col_sums if s), reverse=True))
                feasible.add((lam, mu))
    return feasible


def _partitions(total, max_part, max_len):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_len - 1):
            if max_len > 0:
                yield (first,) + rest


def test_gale_ryser_matches_exhaustive_enumeration():
    feasible = _feasible_margins_by_enumeration(4)
    checked = 0
    for total in range(1, 17):
        for lam in _partitions(total, 4, 4):
            for mu in _partitions(total, 4, 4):
                expect = (lam, mu) in feasible
                got = gale_ryser(YoungDiagram(lam), YoungDiagram(mu))
                assert got == expect, (lam, mu)
                checked += 1
    assert checked > 100


def test_gale_ryser_examples():
    assert gale_ryser(YoungDiagram((2, 2, 1)), YoungDiagram((3, 1, 1)))
    assert gale_ryser(YoungDiagram((3,)), YoungDiagram((1, 1, 1)))
    assert not gale_ryser(YoungDiagram((3,)), YoungDiagram((3,)))


def test_gale_ryser_size_mismatch():
    with pytest.raises(SpectrumError):
        gale_ryser(YoungDiagram((2,)), YoungDiagram((1,)))


def test_particle_hole_fixed_points():
    lam = spectrum((1, 1, 1, 0, 0, 0), 3)
    assert particle_hole(lam, 6).values == lam.values
    lam = spectrum((1,) * 7 + (0,), 7)
    assert particle_hole(lam, 8).as_floats() == (1.0,) + (0.0,) * 7


def test_particle_hole_involution_and_trace():
    lam = spectrum((0.9, 0.8, 0.7, 0.4, 0.2), 3)
    dual = particle_hole(lam, 5)
    assert abs(float(dual.trace_tag) - 2) < 1e-12
    back = particle_hole(dual, 5)
    assert all(abs(a - b) < 1e-12 for a, b in zip(back.as_floats(), lam.as_floats()))


def test_particle_hole_rejects_out_of_range():
    with pytest.raises(SpectrumError):
        particle_hole(spectrum((1.5, 0.5), 2), 2)
    with pytest.raises(SpectrumError):
        particle_hole(spectrum((0.9, 0.8), 1.7), 3)


def test_renormalize():
    assert renormalize(spectrum((3, 0, 0), 3), 1).values == (Fraction(1), 0, 0)
    assert renormalize(spectrum((0.5, 0.5), 1), 2).as_floats() == (1.0, 1.0)
    lam = spectrum((0.43, 0.31, 0.26), 1)
    back = renormalize(renormalize(lam, 7), 1)
    assert all(abs(a - b) < 1e-14 for a, b in zip(back.as_floats(), lam.as_floats()))
    with pytest.raises(SpectrumError):
        renormalize(Spectrum((0.0,), 0.0), 1)


def test_float_sums_are_taken_in_order():
    """Ten entries of 0.1 add up to 0.9999999999999999 left to right, the
    order the block path adds in; ``sum`` gives 1.0 from Python 3.12 on."""
    from qmarginal.records import InequalityRecord
    from qmarginal.spectra import sequential_sum

    tenth = [0.1] * 10
    in_order = 0.9999999999999999
    assert sequential_sum(tenth) == in_order
    assert InequalityRecord((("x", (1,) * 10),)).lhs({"x": tenth}) == in_order
    scaled = renormalize(Spectrum(tuple(tenth), 1.0), 2.0)
    assert scaled.values == (0.1 * (2.0 / in_order),) * 10
    assert scaled.values[0] != 0.2
    # spectrum's default tag, Spectrum's own total and majorizes' sums
    assert spectrum(tenth).trace_tag == in_order
    assert spectrum([0.3] * 10).trace_tag == 2.9999999999999996
    with pytest.raises(SpectrumError, match=f"spectrum sum {in_order} does not match"):
        Spectrum(tuple(tenth), 2.0)
    with pytest.raises(SpectrumError, match="equal sums"):
        majorizes(spectrum([1.0]), spectrum(tenth), tol=0.0)
