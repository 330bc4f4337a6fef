"""Catalog registry: list integrity, trivial substitutions, dualities."""

from itertools import product

import numpy as np
import pytest

from qmarginal.catalog import (
    CatalogError,
    SpectraBundle,
    check_chsh,
    check_equivalence,
    check_family,
)
from qmarginal.records import (
    BRAVYI_RECORDS,
    F7_LIST_RECORDS,
    F8_31_RECORDS,
    F84_14_RECORDS,
    FAMILIES,
    applicable_families,
    get_family,
)
from qmarginal.spectra import particle_hole, spectrum


# ---------------------------------------------------------------------------
# Registry integrity

def test_declared_counts_match_stored_records():
    for fid, fam in FAMILIES.items():
        if fam.records:
            assert len(fam.records) == fam.declared_count, fid


def test_evaluators_cover_exactly_the_registered_families():
    """Every family with inequalities has one canonicalizer, which both
    paths share; W2H5_META, a count without a list, is the only family
    without one."""
    from qmarginal import catalog
    from qmarginal.records import CANONICALIZERS

    listed = sorted(fid for fid, fam in FAMILIES.items()
                    if fam.records or fam.generate is not None)
    assert sorted(CANONICALIZERS) == listed
    assert catalog.CANONICALIZERS is CANONICALIZERS
    assert sorted(set(FAMILIES) - set(CANONICALIZERS)) == ["W2H5_META"]


def test_each_family_names_its_system_in_words():
    assert {fid: fam.system for fid, fam in FAMILIES.items()} == {
        "POLYGON": "qubit arrays, pure", "BRAVYI_2Q": "2x2 mixed",
        "FRANZ_3QUTRIT": "3x3x3 pure", "BASIC": "bipartite m x n mixed",
        "THREE_QUBIT_MIXED": "2x2x2 mixed", "PAULI": "fermionic (r, n)",
        "TWO_PARTICLE_PURE": "fermionic (r, 2) or (r, r-2) pure",
        "BD6": "fermionic (6, 3) pure", "F7_BD": "fermionic (7, 3) pure",
        "F7_LIST": "fermionic (7, 3) pure", "F8_31": "fermionic (8, 3) pure",
        "F84_14": "fermionic (8, 4) pure", "F84_ABS": "fermionic (8, 4) pure",
        "W2H4_MIXED": "fermionic (4, 2) mixed", "W2H5_META": "fermionic (5, 2) mixed",
        "CHSH_16": "two-qubit correlations, two settings per site",
    }


def test_a_qubit_array_matches_as_its_tensor_format():
    for qubits, tensor in (("qubits:2:mixed", "2x2:mixed"), ("qubits:3", "2x2x2"),
                           ("qubits:3:mixed", "2x2x2:mixed")):
        assert applicable_families(qubits) == applicable_families(tensor), qubits
    assert applicable_families("qubits:3:mixed") == ("THREE_QUBIT_MIXED",)


def test_f8_group_sizes():
    from qmarginal.records import F8_31_GROUPS

    sizes = tuple(len(rows) for _, rows in F8_31_GROUPS)
    assert sizes == (1, 4, 5, 2, 3, 2, 6, 4, 4)
    assert sum(sizes) == 31


def test_fermionic_rows_are_zero_sum_test_spectra():
    # printed rows of the pure fermionic systems are permuted zero-sum
    # test spectra, so every coefficient row sums to zero
    for records in (F7_LIST_RECORDS, F8_31_RECORDS, F84_14_RECORDS):
        for rec in records:
            row = dict(rec.terms)["lam"]
            assert sum(row) == 0, rec.label


def test_franz_count_and_dedup():
    fam = get_family("FRANZ_3QUTRIT")
    assert len(fam.records) == 36
    assert len(set(fam.records)) == 36


def test_bravyi_count():
    assert len(BRAVYI_RECORDS) == 7


# ---------------------------------------------------------------------------
# Trivial checks from direct substitution

def test_bd6_trivial():
    sat = SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0, 0), 3))
    assert check_family("BD6", sat).satisfied
    bad = SpectraBundle(one_body=spectrum((1, 1, 0.5, 0.5, 0, 0), 3))
    rep = check_family("BD6", bad)
    assert not rep.satisfied
    assert "l4<=l5+l6" in rep.violated


def test_bd6_rank_mismatch():
    with pytest.raises(CatalogError):
        check_family("BD6", SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0), 3)))


def test_polygon_trivial():
    bad = SpectraBundle(sites=(
        spectrum((0.6, 0.4)), spectrum((0.9, 0.1)), spectrum((0.9, 0.1)),
    ))
    assert not check_family("POLYGON", bad).satisfied
    good = SpectraBundle(sites=(spectrum((0.5, 0.5)),) * 3)
    assert check_family("POLYGON", good).satisfied


def test_bravyi_pure_state_degeneration():
    pure_nu = spectrum((1, 0, 0, 0))
    eq = SpectraBundle(
        sites=(spectrum((0.7, 0.3)), spectrum((0.7, 0.3))), joint=pure_nu
    )
    assert check_family("BRAVYI_2Q", eq).satisfied
    ne = SpectraBundle(
        sites=(spectrum((0.7, 0.3)), spectrum((0.8, 0.2))), joint=pure_nu
    )
    assert not check_family("BRAVYI_2Q", ne).satisfied


def test_franz_uniform_point():
    t = spectrum((1 / 3,) * 3)
    assert check_family("FRANZ_3QUTRIT", SpectraBundle(sites=(t, t, t))).satisfied


def test_three_qubit_mixed_sorts_gaps():
    # gaps arrive unsorted; canonicalization must sort them increasing
    sites = (spectrum((0.9, 0.1)), spectrum((0.6, 0.4)), spectrum((0.7, 0.3)))
    joint = spectrum((1, 0, 0, 0, 0, 0, 0, 0))
    rep = check_family("THREE_QUBIT_MIXED", SpectraBundle(sites=sites, joint=joint))
    assert rep.n_inequalities == 10
    assert any("increasing" in note for note in rep.notes)


def test_pauli_family():
    ok = SpectraBundle(one_body=spectrum((1, 0.7, 0.3, 0, 0, 0), 2))
    assert check_family("PAULI", ok).satisfied
    bad = SpectraBundle(one_body=spectrum((1.2, 0.5, 0.3), 2))
    assert not check_family("PAULI", bad).satisfied


def test_two_particle_pure_family():
    ok = SpectraBundle(one_body=spectrum((0.7, 0.7, 0.3, 0.3), 2))
    assert check_family("TWO_PARTICLE_PURE", ok).satisfied
    odd = SpectraBundle(one_body=spectrum((0.7, 0.7, 0.3, 0.3, 0.0), 2))
    assert check_family("TWO_PARTICLE_PURE", odd).satisfied
    bad = SpectraBundle(one_body=spectrum((0.8, 0.6, 0.3, 0.3), 2))
    assert not check_family("TWO_PARTICLE_PURE", bad).satisfied


def test_two_particle_pure_needs_an_integer_trace():
    """n is read from the trace: 2.4 is no particle number, and a trace
    within 1e-10 of 2 is taken as 2."""
    with pytest.raises(CatalogError, match="integer particle number"):
        check_family("TWO_PARTICLE_PURE",
                     SpectraBundle(one_body=spectrum((0.8, 0.8, 0.4, 0.4))))
    near = SpectraBundle(one_body=spectrum((0.7, 0.7, 0.3, 0.3), 2 + 5e-11))
    rep = check_family("TWO_PARTICLE_PURE", near)
    assert rep.satisfied and not any("renormalized" in n for n in rep.notes)


def test_w2h5_is_metadata_only():
    fam = get_family("W2H5_META")
    assert fam.declared_count == 460
    with pytest.raises(CatalogError):
        check_family("W2H5_META", SpectraBundle(one_body=spectrum((1, 0.5, 0.3, 0.2), 2)))


def test_basic_family_on_product_spectra():
    a = spectrum((0.8, 0.2))
    b = spectrum((0.6, 0.4))
    ab = spectrum(sorted((x * y for x in a for y in b), reverse=True))
    rep = check_family("BASIC", SpectraBundle(sites=(a, b), joint=ab))
    assert rep.satisfied


# ---------------------------------------------------------------------------
# CHSH

def test_chsh_all_local_deterministic_strategies():
    for a1, a2, b1, b2 in product((1, -1), repeat=4):
        corr = (a1 * b1, a1 * b2, a2 * b1, a2 * b2)
        rep = check_chsh(corr)
        assert rep.satisfied, corr
        assert rep.n_inequalities == 16


def test_chsh_tsirelson_and_pr_box():
    s = 2 ** -0.5
    rep = check_chsh((s, s, s, -s))
    assert not rep.satisfied
    assert rep.worst_slack == pytest.approx(2 - 2 * 2 ** 0.5, abs=1e-12)
    assert not check_chsh((1, 1, 1, -1)).satisfied


def test_chsh_records_are_the_facets_of_the_local_correlation_polytope():
    """The hull of the eight deterministic correlation vectors has exactly
    the sixteen records as facets, each once."""
    from qmarginal.chambers import canon_inequality, convex_hull
    from qmarginal.records import CHSH_RECORDS

    points = {(a1 * b1, a1 * b2, a2 * b1, a2 * b2)
              for a1, a2, b1, b2 in product((1, -1), repeat=4)}
    hull = convex_hull(sorted(points))
    assert hull.dim == 4 and hull.equalities == ()
    assert {rec.relation for rec in CHSH_RECORDS} == {"<="}
    records = {canon_inequality(rec.terms[0][1], rec.bound) for rec in CHSH_RECORDS}
    assert len(records) == len(CHSH_RECORDS) == 16
    assert records == set(hull.facets)


def test_chsh_box_bounds_are_checked_with_the_range():
    """A correlation in (1, 1 + 1e-12] passes the range refusal and shows a
    negative box slack; one inside [-1, 1] leaves the box its margin."""
    assert check_chsh((0.9, 0, 0, 0)).worst_slack == pytest.approx(0.1, abs=1e-15)
    rep = check_chsh((1 + 1e-12, 0, 0, 0), tolerance=0)
    assert -1.1e-12 < rep.worst_slack <= -1e-12 and not rep.satisfied


def test_chsh_rejects_out_of_range():
    with pytest.raises(CatalogError):
        check_chsh((1.5, 0, 0, 0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", range(4))
def test_chsh_rejects_a_correlation_that_is_not_finite(bad, position):
    """NaN compares false with every bound, so it must fail the range
    check as an infinity does, not yield a report with a NaN slack."""
    corr = [0.0] * 4
    corr[position] = bad
    with pytest.raises(CatalogError, match=r"outside \[-1, 1\]"):
        check_chsh(corr)


# ---------------------------------------------------------------------------
# Cross-family structure

def test_applicable_families_examples():
    assert applicable_families("fermi:6:3:pure") == ("BD6", "PAULI")
    assert applicable_families("2x2:mixed") == ("BASIC", "BRAVYI_2Q")
    assert applicable_families("3x3x3:pure") == ("FRANZ_3QUTRIT",)
    assert "TWO_PARTICLE_PURE" in applicable_families("fermi:5:2:pure")
    assert "F84_14" in applicable_families("fermi:8:4:pure")
    assert "W2H4_MIXED" in applicable_families("fermi:4:2:mixed")
    assert "W2H4_MIXED" in applicable_families("fermi:4:2:pure")


def test_applicable_families_unknown_descriptor():
    from qmarginal.systems import SystemError

    with pytest.raises(SystemError):
        applicable_families("whatever:3")


def test_particle_hole_duality_borland_dennis():
    """(6,3) is self-dual: BD6 verdicts are invariant under particle-hole."""
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(314)
    for trial in range(200):
        vals = sorted(rng.dirichlet([1] * 6) * 3, reverse=True)
        if max(vals) > 1:
            continue
        lam = spectrum(vals, 3.0)
        dual = particle_hole(lam, 6)
        a = check_family("BD6", SpectraBundle(one_body=lam)).satisfied
        b = check_family("BD6", SpectraBundle(one_body=dual)).satisfied
        assert a == b


def test_particle_hole_duality_pauli_and_even_degeneracy():
    """Families whose dual system is also in range keep their verdicts
    under the particle-hole substitution."""
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(555)
    for trial in range(200):
        vals = sorted(rng.uniform(0, 1, size=5), reverse=True)
        lam = spectrum(vals, float(sum(vals)))
        dual = particle_hole(lam, 5)
        a = check_family("PAULI", SpectraBundle(one_body=lam)).satisfied
        b = check_family("PAULI", SpectraBundle(one_body=dual)).satisfied
        assert a == b
    # paired spectrum of a two-particle system maps to a valid two-hole one
    lam = spectrum((0.7, 0.7, 0.2, 0.2, 0.1, 0.1), 2)
    dual = particle_hole(lam, 6)
    a = check_family("TWO_PARTICLE_PURE", SpectraBundle(one_body=lam)).satisfied
    b = check_family("TWO_PARTICLE_PURE", SpectraBundle(one_body=dual)).satisfied
    assert a and b


def test_particle_hole_duality_f84():
    """(8,4) is its own dual system: verdicts are invariant under the
    particle-hole substitution on random valid spectra."""
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(556)
    done = 0
    while done < 200:
        vals = sorted(rng.dirichlet([1] * 8) * 4, reverse=True)
        if max(vals) > 1:
            continue
        lam = spectrum(vals, 4.0)
        dual = particle_hole(lam, 8)
        for fid in ("F84_14", "F84_ABS"):
            a = check_family(fid, SpectraBundle(one_body=lam)).satisfied
            b = check_family(fid, SpectraBundle(one_body=dual)).satisfied
            assert a == b, (fid, tuple(lam.as_floats()))
        done += 1


def test_particle_hole_duality_f7_against_f74():
    """F7 lists transported by particle-hole: lam satisfies the (7,3) list
    iff its dual is a valid (7,4) spectrum satisfying the transported
    system.  Implemented via the plethysm-side duality: the (7,4) polytope
    is the particle-hole image of the (7,3) one, so transported checks
    reduce to checking the dual against F7 after dualizing back."""
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(2718)
    for trial in range(100):
        vals = sorted(rng.dirichlet([1] * 7) * 3, reverse=True)
        if max(vals) > 1:
            continue
        lam = spectrum(vals, 3.0)
        dual = particle_hole(lam, 7)
        back = particle_hole(dual, 7)
        a = check_family("F7_LIST", SpectraBundle(one_body=lam)).satisfied
        b = check_family("F7_LIST", SpectraBundle(one_body=back)).satisfied
        assert a == b


# ---------------------------------------------------------------------------
# Equivalence campaigns (small versions; acceptance runs the full sizes)

def test_equivalence_self():
    rep = check_equivalence("F7_LIST", "F7_LIST", 200, seed=1)
    assert rep.disagreements == 0


def test_equivalence_f7_forms():
    rep = check_equivalence("F7_BD", "F7_LIST", 2000, seed=2)
    assert rep.disagreements == 0


def test_equivalence_f84_forms():
    rep = check_equivalence("F84_14", "F84_ABS", 2000, seed=3)
    assert rep.disagreements == 0


def test_equivalence_requires_same_system():
    with pytest.raises(CatalogError):
        check_equivalence("F7_BD", "F84_14", 10, seed=0)


def test_equivalence_refuses_a_negative_sample_count():
    with pytest.raises(CatalogError, match="samples"):
        check_equivalence("F7_BD", "F7_LIST", -5, 1)
    rep = check_equivalence("F7_BD", "F7_LIST", 0, 1)
    assert rep.samples == 0 and rep.disagreements == 0


@pytest.mark.parametrize("tolerance", [-1, -1e-300, float("nan")])
def test_checks_refuse_a_negative_or_nan_tolerance(tolerance):
    """A negative tolerance would report satisfied rows as violated (BD6 at
    slack 0 here), and NaN would compare nothing."""
    bundle = SpectraBundle(one_body=spectrum([1, 1, 1, 0, 0, 0]))
    assert check_family("BD6", bundle, 0.0).satisfied
    with pytest.raises(CatalogError, match="tolerance"):
        check_family("BD6", bundle, tolerance)
    with pytest.raises(CatalogError, match="tolerance"):
        check_chsh([0, 0, 0, 0], tolerance)
    with pytest.raises(CatalogError, match="tolerance"):
        check_equivalence("F7_BD", "F7_LIST", 0, 1, tolerance)


@pytest.mark.parametrize("family", ["W2H4_MIXED", "W2H5_META"])
@pytest.mark.parametrize("samples", [50, 0])
def test_equivalence_refuses_families_that_need_more_than_one_body_spectra(
        monkeypatch, family, samples):
    from qmarginal import catalog

    def no_sampling(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(catalog, "_ValidOccupations", no_sampling)
    with pytest.raises(CatalogError, match=f"{family} .*one-body spectra of pure"):
        check_equivalence(family, family, samples, seed=1)


def _reference_sample_valid_occupation(rng, r, n, perturbed: bool):
    """The equivalence sampler as ``rng.dirichlet`` and numpy arrays draw it,
    one try at a time: the reference for ``_ValidOccupations``."""
    alpha = np.ones(r)
    for _ in range(10000):
        if perturbed:
            vals = np.abs(n / r + 0.3 * rng.standard_normal(r))
            vals *= n / vals.sum()
        else:
            vals = rng.dirichlet(alpha) * n
        if vals.max() <= 1.0:
            return vals
    raise CatalogError(f"could not sample a valid occupation spectrum for ({r}, {n})")


def _reference_occupations(seed, r, n, trials):
    """Sample t from the reference on stream 0 of the seed if t is even, on
    stream 1 if it is odd, each stream taken in order."""
    from qmarginal.tensor import rng_from_seed

    rngs = (rng_from_seed(seed, 0), rng_from_seed(seed, 1))
    return np.array([_reference_sample_valid_occupation(rngs[t % 2], r, n, t % 2 == 1)
                     for t in trials])


# Every fixed (r, n) of the catalog, two more, and r = 20 (numpy sums 8 or
# more entries pairwise, fewer left to right).
SAMPLER_SIZES = [(6, 3), (7, 3), (8, 3), (8, 4), (4, 2), (5, 2), (3, 1), (20, 3)]


def test_sampler_sizes_cover_the_fixed_catalog_systems():
    fixed = {(fam.fixed.r, fam.fixed.n) for fam in FAMILIES.values()
             if fam.fixed is not None and fam.fixed.kind == "fermion"}
    assert fixed <= set(SAMPLER_SIZES)


@pytest.mark.parametrize("r,n", SAMPLER_SIZES)
def test_valid_occupations_draw_what_the_reference_draws(r, n):
    """Same samples bit for bit.  The generators' states are not compared:
    chunks draw past the last accepted row."""
    from qmarginal.catalog import _ValidOccupations

    for seed in (0, 1, 20260809):
        want = _reference_occupations(seed, r, n, range(3000))
        got = _ValidOccupations(seed, r, n).rows(range(3000))
        assert np.array_equal(got, want), (r, n, seed)


def test_valid_occupations_take_the_parity_of_the_trial_index():
    """Even samples are the Dirichlet rows of stream 0 and odd ones the
    perturbed rows of stream 1, whatever index the block starts at."""
    from qmarginal.catalog import _ValidOccupations

    for first in (0, 1, 256, 257):
        trials = range(first, first + 43)
        want = _reference_occupations(4, 8, 4, trials)
        assert np.array_equal(_ValidOccupations(4, 8, 4).rows(trials), want), first


@pytest.mark.parametrize("kind", ["_dirichlet_proposals", "_perturbed_proposals"])
@pytest.mark.parametrize("r,n", [(8, 4), (20, 3)])
def test_accepted_rows_do_not_depend_on_chunk_sizes(kind, r, n):
    """Takes of 7, 300 and 1193 rows equal one take of 1500."""
    from qmarginal import catalog
    from qmarginal.tensor import rng_from_seed

    def stream():
        propose = getattr(catalog, kind)(rng_from_seed(3, 0), r, n)
        return catalog._AcceptedRows(propose, r, n)

    pieces = stream()
    got = np.concatenate([pieces.take(k) for k in (7, 300, 1193)])
    assert np.array_equal(got, stream().take(1500))
    assert np.all(got.max(axis=1) <= 1.0)


@pytest.mark.parametrize("first", [0, 1])
def test_an_unsampleable_size_is_refused(first):
    """A trace-2 pair lies in the box only at (1, 1), which neither kind of
    proposal draws: both kinds are refused."""
    from qmarginal.catalog import _ValidOccupations

    with pytest.raises(CatalogError) as refusal:
        _ValidOccupations(1, 2, 2).rows(range(first, first + 1))
    assert str(refusal.value) == "could not sample a valid occupation spectrum for (2, 2)"


def _scripted_proposals(accepted_at, total):
    """Proposal i is (0.5, i / total) if i is in ``accepted_at`` and
    (2.0, i / total) otherwise, so only the listed ones are accepted."""
    drawn = [0]

    def propose(k):
        index = np.arange(drawn[0], drawn[0] + k)
        drawn[0] += k
        return np.stack([np.where(np.isin(index, accepted_at), 0.5, 2.0), index / total],
                        axis=1)
    return propose


@pytest.mark.parametrize("takes", [(1, 1), (2,)])
def test_a_row_is_refused_after_ten_thousand_rejections_in_a_row(takes):
    """Runs of 9 999 rejected proposals, at the start of the stream and
    between two rows, are waited out whichever chunks split them; a run of
    10 000 refuses the row after it."""
    from qmarginal.catalog import _AcceptedRows

    total = 10 ** 6
    rows = _AcceptedRows(_scripted_proposals([9999, 19999, 30000], total), 2, 2)
    got = np.concatenate([rows.take(k) for k in takes])
    assert got[:, 1].tolist() == [9999 / total, 19999 / total]
    with pytest.raises(CatalogError, match=r"valid occupation spectrum for \(2, 2\)"):
        rows.take(1)


def _reference_equivalence(family_a, family_b, samples, seed):
    """(disagreements, first) from one sample and one ``check_family`` at a time."""
    r, n = get_family(family_a).fixed.r, get_family(family_a).fixed.n
    disagreements, first = 0, None
    for vals in _reference_occupations(seed, r, n, range(samples)):
        lam = spectrum(vals, float(n))
        bundle = SpectraBundle(one_body=lam)
        if (check_family(family_a, bundle).satisfied
                != check_family(family_b, bundle).satisfied):
            disagreements += 1
            first = first or tuple(lam.as_floats())
    return disagreements, first


def test_equivalence_disagreements_do_not_depend_on_the_block(monkeypatch):
    """A planted family, F7_BD with its bound raised, disagrees with F7_BD on
    some samples: the count and the first disagreement match the one-by-one
    reference for every block size."""
    import dataclasses
    from fractions import Fraction

    from qmarginal import catalog, records

    fam = get_family("F7_BD")
    raised = tuple(dataclasses.replace(rec, bound=Fraction(-21, 20)) for rec in fam.records)
    monkeypatch.setitem(FAMILIES, "F7_RAISED",
                        dataclasses.replace(fam, family_id="F7_RAISED", records=raised))
    monkeypatch.setitem(records.CANONICALIZERS, "F7_RAISED", records.CANONICALIZERS["F7_BD"])
    want = _reference_equivalence("F7_BD", "F7_RAISED", 700, 5)
    assert want[0] > 0
    for block in (1, 32, 256, 1024):
        monkeypatch.setattr(catalog, "EQUIV_BLOCK", block)
        rep = check_equivalence("F7_BD", "F7_RAISED", 700, 5)
        assert (rep.disagreements, rep.first_disagreement) == want, block


def test_planted_violation_is_flagged():
    bad = SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0, 0.0001), 3.0001))
    rep = check_family("BD6", bad, tolerance=1e-10)
    assert not rep.satisfied


# ---------------------------------------------------------------------------
# Compiled evaluation against the per-record loop
#
# The checkers below are the record-by-record evaluation that the compiled
# float64 path replaced, kept as its reference.

from qmarginal.records import F84_ABS_PATTERNS  # noqa: E402
from qmarginal.spectra import Spectrum, renormalize  # noqa: E402


def _ref_report(slacks, labels, tol, notes=()):
    worst = min(slacks) if slacks else 0.0
    violated = tuple(lbl for s, lbl in zip(slacks, labels) if s < -tol)
    return (worst >= -tol, worst, violated, len(slacks), tol, tuple(notes)), slacks


def _ref_eval_records(records, values, tol, notes=()):
    slacks = [r.slack(values) for r in records]
    labels = [r.label or f"#{i}" for i, r in enumerate(records)]
    return _ref_report(slacks, labels, tol, notes)


def _ref_desc(spec):
    return tuple(sorted(spec.as_floats(), reverse=True))


def _ref_need_sites(bundle, count, size, family_id):
    if len(bundle.sites) != count:
        raise CatalogError(f"{family_id} needs {count} site spectra")
    for s in bundle.sites:
        if len(s) != size:
            raise CatalogError(f"{family_id} needs site spectra of length {size}")
    return [_ref_desc(s) for s in bundle.sites]


def _ref_need_joint(bundle, size, family_id):
    if bundle.joint is None or len(bundle.joint) != size:
        raise CatalogError(f"{family_id} needs a joint spectrum of length {size}")
    return _ref_desc(bundle.joint)


def _ref_need_one_body(bundle, r, n, family_id):
    lam = bundle.one_body
    if lam is None or len(lam) != r:
        raise CatalogError(f"{family_id} needs a one-body spectrum of length {r}")
    notes = []
    if abs(float(lam.trace_tag) - n) > 1e-10:
        lam = renormalize(lam, float(n))
        notes.append(f"renormalized one-body spectrum to trace {n}")
    return tuple(sorted(lam.as_floats(), reverse=True)), notes


def _ref_polygon(fam, bundle, tol):
    if len(bundle.sites) < 2:
        raise CatalogError("POLYGON needs at least two site spectra")
    mins = []
    for s in bundle.sites:
        if len(s) != 2:
            raise CatalogError("POLYGON applies to qubit marginals")
        mins.append(min(s.as_floats()))
    slacks = [sum(mins) - 2 * m for m in mins]
    return _ref_report(slacks, [f"site{i}" for i in range(len(mins))], tol)


def _ref_bravyi(fam, bundle, tol):
    sites = _ref_need_sites(bundle, 2, 2, fam.family_id)
    joint = _ref_need_joint(bundle, 4, fam.family_id)
    values = {"mins": (sites[0][1], sites[1][1]), "joint": joint}
    return _ref_eval_records(fam.records, values, tol)


def _ref_franz(fam, bundle, tol):
    sites = _ref_need_sites(bundle, 3, 3, fam.family_id)
    values = {f"site{i}": tuple(reversed(s)) for i, s in enumerate(sites)}
    return _ref_eval_records(fam.records, values, tol, ("sites sorted increasing",))


def _ref_basic(fam, bundle, tol):
    if len(bundle.sites) != 2:
        raise CatalogError("BASIC needs two site spectra")
    a = _ref_desc(bundle.sites[0])
    b = _ref_desc(bundle.sites[1])
    ab = _ref_need_joint(bundle, len(a) * len(b), fam.family_id)
    m, n = len(a), len(b)
    slacks, labels = [], []
    for k in range(1, m + 1):
        slacks.append(sum(ab[: k * n]) - sum(a[:k]))
        labels.append(f"A{k}")
    for l in range(1, n + 1):
        slacks.append(sum(ab[: m * l]) - sum(b[:l]))
        labels.append(f"B{l}")
    return _ref_report(slacks, labels, tol)


def _ref_three_qubit(fam, bundle, tol):
    sites = _ref_need_sites(bundle, 3, 2, fam.family_id)
    joint = _ref_need_joint(bundle, 8, fam.family_id)
    values = {"delta": tuple(sorted(s[0] - s[1] for s in sites)), "joint": joint}
    return _ref_eval_records(fam.records, values, tol, ("gaps sorted increasing",))


def _ref_pauli(fam, bundle, tol):
    vals = tuple(sorted(bundle.one_body.as_floats(), reverse=True))
    slacks, labels = [], []
    for i, v in enumerate(vals):
        slacks.append(v)
        labels.append(f"l{i+1}>=0")
        slacks.append(1.0 - v)
        labels.append(f"l{i+1}<=1")
    return _ref_report(slacks, labels, tol)


def _ref_even_degeneracy(fam, bundle, tol):
    trace = float(bundle.one_body.trace_tag)
    if abs(trace - round(trace)) > 1e-10:
        raise CatalogError(
            f"{fam.family_id} needs an integer particle number, got trace {trace!r}")
    r, n = _ref_size(fam, bundle)
    if n not in (2, r - 2):
        raise CatalogError(
            f"even-degeneracy criterion applies to two particles or two "
            f"holes, not (r={r}, n={n})"
        )
    lam, notes = _ref_need_one_body(bundle, r, n, fam.family_id)
    pair_tol = 1e-8
    vals = list(lam)
    leftover = None
    if r % 2 == 1:
        if n == 2:
            leftover = abs(vals.pop())
        else:
            leftover = abs(vals.pop(0) - 1)
    defect = 0.0
    for i in range(0, len(vals), 2):
        defect = max(defect, abs(vals[i] - vals[i + 1]))
    if leftover is not None:
        defect = max(defect, leftover)
    return _ref_report([pair_tol - defect], ["even-degeneracy defect"], 0.0,
                       tuple(notes) + (f"pairing tolerance {pair_tol}",))


def _ref_fermi_records(fam, bundle, tol):
    r, n = _ref_size(fam, bundle)
    lam, notes = _ref_need_one_body(bundle, r, n, fam.family_id)
    return _ref_eval_records(fam.records, {"lam": lam}, tol, notes)


def _ref_f84_abs(fam, bundle, tol):
    lam, notes = _ref_need_one_body(bundle, 8, 4, fam.family_id)
    total = 0.0
    for pattern in F84_ABS_PATTERNS:
        total += abs(sum(c * v for c, v in zip(pattern, lam)))
    return _ref_report([4.0 - total], ["sum|x|<=4"], tol, notes)


def _ref_w2h4(fam, bundle, tol):
    lam = bundle.one_body
    if lam is None or len(lam) != 4:
        raise CatalogError(f"{fam.family_id} needs a one-body spectrum of length 4")
    notes = []
    if abs(float(lam.trace_tag) - 1.0) > 1e-10:
        lam = renormalize(lam, 1.0)
        notes.append("renormalized one-body spectrum to trace 1")
    nu = _ref_need_joint(bundle, 6, fam.family_id)
    values = {"lam": tuple(sorted(lam.as_floats(), reverse=True)), "nu": nu}
    return _ref_eval_records(fam.records, values, tol, notes)


def _ref_w2h5_meta(fam, bundle, tol):
    raise CatalogError(
        "W2H5 is recorded as metadata only (460 independent inequalities); "
        "the list is not reproduced"
    )


def _ref_chsh_records(fam, bundle, tol):
    raise CatalogError("use check_chsh for correlation data")


_REF_CHECKERS = {
    "POLYGON": _ref_polygon,
    "BRAVYI_2Q": _ref_bravyi,
    "FRANZ_3QUTRIT": _ref_franz,
    "BASIC": _ref_basic,
    "THREE_QUBIT_MIXED": _ref_three_qubit,
    "PAULI": _ref_pauli,
    "TWO_PARTICLE_PURE": _ref_even_degeneracy,
    "BD6": _ref_fermi_records,
    "F7_BD": _ref_fermi_records,
    "F7_LIST": _ref_fermi_records,
    "F8_31": _ref_fermi_records,
    "F84_14": _ref_fermi_records,
    "F84_ABS": _ref_f84_abs,
    "W2H4_MIXED": _ref_w2h4,
    "W2H5_META": _ref_w2h5_meta,
    "CHSH_16": _ref_chsh_records,
}


def _ref_size(fam, bundle):
    """(r, n): the family's fixed system, or else the bundle's own."""
    if fam.fixed is not None:
        return fam.fixed.r, fam.fixed.n
    lam = bundle.one_body
    return len(lam), int(round(float(lam.trace_tag)))


def _ref_check_family(family_id, bundle, tol=1e-10):
    """(report fields, slacks) of the per-record loop."""
    if family_id in ("PAULI", "TWO_PARTICLE_PURE") and bundle.one_body is None:
        raise CatalogError(f"{family_id} needs a one-body spectrum")
    return _REF_CHECKERS[family_id](get_family(family_id), bundle, tol)


def _raw(values, trace=None):
    """A Spectrum in the given order; entries may rise by less than the
    sorting tolerance."""
    values = tuple(float(v) for v in values)
    return Spectrum(values, sum(values) if trace is None else trace)


def _jitter_unsorted(rng, values):
    """Swap one adjacent pair after nudging it within the sort tolerance."""
    vals = sorted(values, reverse=True)
    i = int(rng.integers(len(vals) - 1))
    mid = (vals[i] + vals[i + 1]) / 2
    vals[i], vals[i + 1] = mid - 4e-13, mid + 4e-13
    return vals


def _random_spectrum(rng, size, scale=1.0):
    vals = list(rng.dirichlet(np.ones(size)) * scale)
    if rng.random() < 0.25:
        return _raw(_jitter_unsorted(rng, vals))
    return spectrum(vals)


def _one_body(rng, r, n):
    """Occupations of trace n, some outside [0, 1]; a quarter declare a
    different trace (they need renormalizing), a quarter are nudged out of
    order within the sorting tolerance."""
    vals = list(rng.dirichlet(np.ones(r) * rng.choice([0.5, 2.0, 8.0])) * n)
    pick = rng.random()
    if pick < 0.25:
        scale = rng.choice([0.5, 1.0 / n, 1.0 + 1e-3])
        vals = [v * scale for v in vals]
        return _raw(sorted(vals, reverse=True))
    if pick < 0.5:
        return _raw(_jitter_unsorted(rng, vals), float(n))
    return spectrum(vals, float(n))


def _bundles(family_id, rng, count):
    out = []
    for _ in range(count):
        if family_id == "POLYGON":
            k = int(rng.integers(2, 6))
            out.append(SpectraBundle(sites=tuple(
                _random_spectrum(rng, 2) for _ in range(k))))
        elif family_id == "BRAVYI_2Q":
            out.append(SpectraBundle(
                sites=(_random_spectrum(rng, 2), _random_spectrum(rng, 2)),
                joint=_random_spectrum(rng, 4)))
        elif family_id == "FRANZ_3QUTRIT":
            out.append(SpectraBundle(sites=tuple(
                _random_spectrum(rng, 3) for _ in range(3))))
        elif family_id == "BASIC":
            m, n = (int(x) for x in rng.integers(2, 4, size=2))
            out.append(SpectraBundle(
                sites=(_random_spectrum(rng, m), _random_spectrum(rng, n)),
                joint=_random_spectrum(rng, m * n)))
        elif family_id == "THREE_QUBIT_MIXED":
            out.append(SpectraBundle(
                sites=tuple(_random_spectrum(rng, 2) for _ in range(3)),
                joint=_random_spectrum(rng, 8)))
        elif family_id == "PAULI":
            r = int(rng.integers(3, 9))
            vals = rng.uniform(-0.1, 1.1, size=r)
            out.append(SpectraBundle(one_body=spectrum(vals, float(vals.sum()))))
        elif family_id == "TWO_PARTICLE_PURE":
            r = int(rng.integers(4, 9))
            n = int(rng.choice([2, r - 2]))
            pairs = rng.dirichlet(np.ones(r // 2))
            vals = list(np.repeat(pairs, 2))
            if r % 2:
                vals.append(0.0)
            if n != 2:
                vals = [1 - v for v in vals]   # the two-hole dual
            if rng.random() < 0.5:
                noise = 1e-6 * rng.standard_normal(len(vals))
                if rng.random() < 0.5:
                    noise -= noise.mean()   # the trace stays an integer
                vals = [v + e for v, e in zip(vals, noise)]
            if rng.random() < 0.25:
                vals = [v * 1.05 for v in vals]
            out.append(SpectraBundle(one_body=_raw(sorted(vals, reverse=True))))
        elif family_id in ("BD6", "F7_BD", "F7_LIST", "F8_31", "F84_14", "F84_ABS"):
            fam = get_family(family_id)
            out.append(SpectraBundle(one_body=_one_body(rng, fam.fixed.r, fam.fixed.n)))
        elif family_id == "W2H4_MIXED":
            out.append(SpectraBundle(one_body=_one_body(rng, 4, 2),
                                     joint=_random_spectrum(rng, 6)))
        else:
            out.append(SpectraBundle(one_body=_one_body(rng, 5, 2),
                                     joint=_random_spectrum(rng, 4)))
    return out


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_check_family_matches_record_loop(family_id):
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(4242, stream=sorted(FAMILIES).index(family_id))
    bundles = _bundles(family_id, rng, 240)
    if family_id in ("W2H5_META", "CHSH_16"):
        for bundle in bundles[:5]:
            with pytest.raises(CatalogError) as ref:
                _ref_check_family(family_id, bundle)
            with pytest.raises(CatalogError) as new:
                check_family(family_id, bundle)
            assert str(new.value) == str(ref.value)
        return
    violated = renormalized = refused = 0
    for bundle in bundles:
        try:
            (sat, worst, bad, count, tol, notes), slacks = _ref_check_family(family_id, bundle)
        except CatalogError as ref:
            with pytest.raises(CatalogError) as new:
                check_family(family_id, bundle)
            assert str(new.value) == str(ref)
            refused += 1
            continue
        rep = check_family(family_id, bundle)
        assert abs(rep.worst_slack - worst) <= 1e-12, (bundle, rep, worst)
        assert rep.n_inequalities == count
        assert rep.notes == notes
        assert rep.tolerance == tol
        if all(abs(s + tol) >= 1e-12 for s in slacks):
            assert rep.satisfied == sat
            assert rep.violated == bad
        violated += not sat
        renormalized += any("renormalized" in note for note in notes)
    assert violated > 0
    fam = get_family(family_id)
    if family_id == "TWO_PARTICLE_PURE":
        # n is the bundle's trace, so a trace off an integer is refused
        # instead of renormalized
        assert refused > 0 and renormalized == 0
    else:
        assert refused == 0
    if family_id not in ("POLYGON", "BRAVYI_2Q", "FRANZ_3QUTRIT", "BASIC",
                         "THREE_QUBIT_MIXED", "PAULI", "TWO_PARTICLE_PURE"):
        assert renormalized > 0, fam.family_id


_BAD_BUNDLES = {
    "POLYGON": [SpectraBundle(sites=(spectrum((0.6, 0.4)),)),
                SpectraBundle(sites=(spectrum((0.6, 0.4)), spectrum((0.5, 0.3, 0.2))))],
    "BRAVYI_2Q": [SpectraBundle(sites=(spectrum((0.6, 0.4)),) * 3, joint=spectrum((1, 0, 0, 0))),
                  SpectraBundle(sites=(spectrum((0.6, 0.4)),) * 2, joint=spectrum((1, 0, 0)))],
    "FRANZ_3QUTRIT": [SpectraBundle(sites=(spectrum((0.5, 0.3, 0.2)),) * 2),
                      SpectraBundle(sites=(spectrum((0.6, 0.4)),) * 3)],
    "BASIC": [SpectraBundle(sites=(spectrum((0.6, 0.4)),), joint=spectrum((1, 0))),
              SpectraBundle(sites=(spectrum((0.6, 0.4)),) * 2, joint=spectrum((1, 0, 0)))],
    "THREE_QUBIT_MIXED": [SpectraBundle(sites=(spectrum((0.6, 0.4)),) * 3,
                                        joint=spectrum((1, 0, 0, 0)))],
    "PAULI": [SpectraBundle(sites=(spectrum((0.6, 0.4)),))],
    "TWO_PARTICLE_PURE": [SpectraBundle(),
                          SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0, 0, 0, 0), 3)),
                          SpectraBundle(one_body=spectrum((0.8, 0.8, 0.4, 0.4)))],
    "BD6": [SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0), 3)), SpectraBundle()],
    "F8_31": [SpectraBundle(one_body=spectrum((1, 1, 1, 0, 0, 0, 0), 3))],
    "F84_ABS": [SpectraBundle(one_body=spectrum((1, 1, 1, 1, 0, 0, 0), 4))],
    "W2H4_MIXED": [SpectraBundle(one_body=spectrum((1, 1, 0), 2), joint=spectrum((1, 0, 0, 0, 0, 0))),
                   SpectraBundle(one_body=spectrum((1, 0.5, 0.5, 0), 2), joint=spectrum((1, 0)))],
}


@pytest.mark.parametrize("family_id", sorted(_BAD_BUNDLES))
def test_check_family_errors_match_record_loop(family_id):
    for bundle in _BAD_BUNDLES[family_id]:
        with pytest.raises(CatalogError) as ref:
            _ref_check_family(family_id, bundle)
        with pytest.raises(CatalogError) as new:
            check_family(family_id, bundle)
        assert str(new.value) == str(ref.value)


def test_check_chsh_matches_record_loop():
    from qmarginal.records import CHSH_RECORDS
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(77)
    for _ in range(200):
        corr = tuple(float(c) for c in rng.uniform(-1, 1, size=4))
        (sat, worst, bad, count, _, _), _ = _ref_eval_records(
            CHSH_RECORDS, {"corr": corr}, 1e-10)
        rep = check_chsh(corr)
        assert abs(rep.worst_slack - worst) <= 1e-12
        assert (rep.satisfied, rep.violated, rep.n_inequalities) == (sat, bad, count)


# ---------------------------------------------------------------------------
# F84_ABS and TWO_PARTICLE_PURE as linear systems over canonical slots
#
# The two oracles below are the hand-written evaluators these families had
# before their slots (|x_i| and the pairing defect) were made canonical:
# they map the canonical spectrum straight to slacks.


def _oracle_abs_sum(lam):
    from qmarginal.catalog import _combine

    patterns = np.array(F84_ABS_PATTERNS, dtype=float)
    total = np.zeros(len(lam))
    for col in _combine(lam, patterns).T:
        total = total + np.abs(col)
    return (4.0 - total)[:, None]


def _oracle_even_degeneracy(lam, n):
    from qmarginal.records import PAIR_TOL

    parts = [np.zeros((len(lam), 1))]
    if lam.shape[1] % 2 == 1:
        if n == 2:
            parts.append(np.abs(lam[:, -1:]))
            lam = lam[:, :-1]
        else:
            parts.append(np.abs(lam[:, :1] - 1))
            lam = lam[:, 1:]
    parts.append(np.abs(lam[:, 0::2] - lam[:, 1::2]))
    defect = np.hstack(parts).max(axis=1)
    return (PAIR_TOL - defect)[:, None]


def _f84_block(rng, count):
    """Rows of trace 4 in random order, a third declaring another trace (they
    are renormalized), and rows on the boundary sum |x_i| = 4."""
    from qmarginal.catalog import SpectraBlock

    lam = rng.dirichlet(np.ones(8) * rng.choice([0.5, 2.0, 8.0]), size=count) * 4
    trace = np.full(count, 4.0)
    off = rng.random(count) < 1 / 3
    lam[off] *= rng.choice([0.5, 0.25, 1.001], size=(int(off.sum()), 1))
    trace[off] = lam[off].sum(axis=1)
    lam[0] = (1, 1, 1, 1, 0, 0, 0, 0)
    trace[0] = 4.0
    return SpectraBlock(one_body=rng.permuted(lam, axis=1), one_body_trace=trace)


def _pairing_block(rng, count):
    """Two particles or two holes on r = 4..9 orbitals: paired rows, some
    nudged by noise that keeps the trace an integer n."""
    from qmarginal.catalog import SpectraBlock

    r = int(rng.integers(4, 10))
    n = int(rng.choice([2, r - 2]))
    pairs = rng.dirichlet(np.ones(r // 2), size=count)
    lam = np.repeat(pairs, 2, axis=1)
    if r % 2:
        lam = np.hstack([lam, np.zeros((count, 1))])
    if n != 2:
        lam = 1 - lam
    noisy = rng.random(count) < 0.5
    noise = rng.choice([1e-9, 1e-6], size=(count, 1)) * rng.standard_normal((count, r))
    lam[noisy] += (noise - noise.mean(axis=1, keepdims=True))[noisy]
    return SpectraBlock(one_body=rng.permuted(lam, axis=1),
                        one_body_trace=np.full(count, float(n))), n


def test_linear_slacks_equal_the_former_evaluators_bitwise():
    """F84_ABS and TWO_PARTICLE_PURE slacks from the compiled linear system
    equal the former evaluators' bit for bit, signs of zero included, on
    renormalized rows, odd r and two-hole systems."""
    from qmarginal.catalog import _ARRAY_ROWS, check_block
    from qmarginal.records import _fermi_slots
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(20261019)
    seen = set()
    for _ in range(60):
        block = _f84_block(rng, 40)
        canon = _fermi_slots(get_family("F84_ABS"), block, _ARRAY_ROWS)
        got = check_block("F84_ABS", block, tolerance=1e-9)
        want = _oracle_abs_sum(canon.values["lam"])
        assert np.array_equal(got.slacks, want)
        assert np.array_equal(np.signbit(got.slacks), np.signbit(want))
        assert got.labels == ("sum|x|<=4",) and got.tolerance == 1e-9
        assert np.array_equal(got.renormalized, canon.renormalized)
        seen.add(("renormalized", bool(canon.renormalized.any())))
        seen.add(("boundary", bool((want == 0).any())))

        block, n = _pairing_block(rng, 40)
        got = check_block("TWO_PARTICLE_PURE", block, tolerance=1e-3)
        want = _oracle_even_degeneracy(_ARRAY_ROWS.desc(block.one_body), n)
        assert np.array_equal(got.slacks, want)
        assert np.array_equal(np.signbit(got.slacks), np.signbit(want))
        assert got.labels == ("even-degeneracy defect",) and got.tolerance == 0.0
        r = block.one_body.shape[1]
        seen |= {("odd r", r % 2 == 1), ("holes", n != 2),
                 ("violated", bool((want < 0).any()))}
    assert seen >= {("renormalized", True), ("boundary", True), ("odd r", True),
                    ("odd r", False), ("holes", True), ("holes", False),
                    ("violated", True)}


def test_row_operations_agree_row_by_row():
    """Each numpy row operation gives on every row of a block what the
    one-bundle operation gives on that row alone, on 200 random blocks with
    -0.0 entries, ties and rows to renormalize.  The renormalized rows are
    bitwise equal, signs of zero included; a sort may order 0.0 and -0.0
    differently, so the others are compared by value."""
    from qmarginal.catalog import _ARRAY_ROWS as block_ops
    from qmarginal.records import _FLOAT_ROWS as row_ops
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(20261020)
    seen = set()
    for _ in range(200):
        t, k = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        x = rng.choice([0.25, 0.5, 1.0], size=(t, k)) * rng.random((t, k))
        x[rng.random((t, k)) < 0.3] = -0.0
        x[rng.random((t, k)) < 0.2] = 0.25
        x[np.arange(t), rng.integers(k, size=t)] = 0.5   # no zero-sum row
        traces = np.where(rng.random(t) < 0.5, 3.0, x.sum(axis=1) + 1e-6)
        x[0] = -0.0   # a zero-sum row at its declared trace is left as it is
        traces[0] = 3.0
        lam, off = block_ops.renormalize(x, traces, 3)
        for i, row in enumerate(x.tolist()):
            want, flag = row_ops.renormalize(row, float(traces[i]), 3)
            assert bool(off[i]) == flag
            assert np.array_equal(lam[i], want)
            assert np.array_equal(np.signbit(lam[i]), np.signbit(want))
            seen.add(("renormalized", flag))
            assert block_ops.width(x) == row_ops.width(row)
            for op in ("desc", "sort", "reverse"):
                assert np.array_equal(getattr(block_ops, op)(x)[i], getattr(row_ops, op)(row))
            for op in ("row_min", "row_max"):
                assert getattr(block_ops, op)(x)[i] == getattr(row_ops, op)(row)
            cols = [block_ops.column(x, j) for j in range(k)]
            assert np.array_equal(block_ops.stack(cols)[i],
                                  row_ops.stack([row_ops.column(row, j) for j in range(k)]))
    assert seen == {("renormalized", True), ("renormalized", False)}
    ns = np.array([2.0, 2.0 + 1e-11, 2.0 - 1e-11])
    assert block_ops.particle_number(ns, "F") == row_ops.particle_number(2.0, "F") == 2
    with pytest.raises(CatalogError) as got:
        block_ops.particle_number(np.append(ns, 2.5), "F")
    with pytest.raises(CatalogError) as want:
        row_ops.particle_number(2.5, "F")
    assert str(got.value) == str(want.value)
    with pytest.raises(CatalogError, match="F needs one particle number per block"):
        block_ops.particle_number(np.append(ns, 3.0), "F")


def test_compiled_system_is_immutable_and_cached():
    from qmarginal.catalog import _linear_system

    system = _linear_system("F8_31", (("lam", 8),))
    assert system is _linear_system("F8_31", (("lam", 8),))
    assert system.A.shape == (31, 8)
    with pytest.raises(ValueError):
        system.A[0, 0] = 1.0


# ---------------------------------------------------------------------------
# One bundle on Python floats against the block path
#
# ``check_family`` and ``check_chsh`` evaluate one bundle without numpy.
# Their oracle is the block path on a block of that one bundle: the report
# below is the one ``check_block`` gives for a row, and the two must agree
# bit for bit, refusals included.

def _block_of_one(bundle):
    from qmarginal.catalog import SpectraBlock

    def rows(spec):
        if spec is None:
            return None
        return np.array(spec.as_floats(), dtype=float).reshape(1, len(spec))

    lam = bundle.one_body
    return SpectraBlock(
        sites=tuple(rows(s) for s in bundle.sites),
        joint=rows(bundle.joint),
        one_body=rows(lam),
        one_body_trace=None if lam is None else np.array([float(lam.trace_tag)]),
    )


def _block_report(check, row=0):
    """The report of one row of a ``catalog.BlockCheck``."""
    from qmarginal.records import CheckReport

    slacks = check.slacks[row]
    worst = float(check.worst()[row])
    notes = check.notes
    if check.renormalized is not None and check.renormalized[row]:
        notes = (f"renormalized one-body spectrum to trace {check.target}",) + notes
    return CheckReport(
        family_id=check.family_id,
        satisfied=worst >= -check.tolerance,
        worst_slack=worst,
        violated=tuple(lbl for s, lbl in zip(slacks, check.labels)
                       if s < -check.tolerance),
        n_inequalities=len(check.labels),
        tolerance=check.tolerance,
        notes=notes,
    )


def _outcome(check):
    """A report with its worst slack's repr (which tells -0.0 from 0.0), or
    the refusal's exception type and message."""
    try:
        rep = check()
    except ValueError as exc:
        return type(exc), str(exc)
    return rep, repr(rep.worst_slack)


# Bundles on the edges of the arithmetic: exact entries, slacks of exactly
# zero (BD6's equalities give -0.0, its inequality 0.0), a zero-sum spectrum
# that cannot be renormalized, a family with no inequality for r = 0, and
# refusals for the families ``_BAD_BUNDLES`` has none for.
_EDGE_BUNDLES = {
    "BD6": [SpectraBundle(one_body=spectrum([1, 1, 1, 0, 0, 0])),
            SpectraBundle(one_body=spectrum([0.5, 0.5, 0.5, 0.5, 0.5, 0.5], 3.0)),
            SpectraBundle(one_body=spectrum([0.0] * 6, 0.0))],
    "F7_BD": [SpectraBundle(one_body=spectrum([1, 1, 1, 0, 0, 0]))],
    "F7_LIST": [SpectraBundle(sites=(spectrum([1, 0]),))],
    "F84_14": [SpectraBundle(one_body=spectrum([1, 1, 1, 1, 0, 0, 0, 0, 0]))],
    "F84_ABS": [SpectraBundle(one_body=spectrum([1, 1, 1, 1, 0, 0, 0, 0]))],
    "PAULI": [SpectraBundle(one_body=spectrum([], 0))],
    "POLYGON": [SpectraBundle(sites=(spectrum([1, 0]), spectrum([1, 0])))],
    "TWO_PARTICLE_PURE": [SpectraBundle(one_body=spectrum([1, 1, 0, 0, 0]))],
    "W2H4_MIXED": [SpectraBundle(one_body=spectrum([0.0] * 4, 0.0),
                                 joint=spectrum([1, 0, 0, 0, 0, 0]))],
}


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_one_bundle_checks_equal_the_block_path_bitwise(family_id):
    from qmarginal.catalog import check_block
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(4242, stream=sorted(FAMILIES).index(family_id))
    bundles = (_bundles(family_id, rng, 240) + _BAD_BUNDLES.get(family_id, [])
               + _EDGE_BUNDLES.get(family_id, []))
    seen = set()
    for i, bundle in enumerate(bundles):
        tol = (1e-10, 0.0, 1e-3)[i % 3]
        got = _outcome(lambda: check_family(family_id, bundle, tol))
        want = _outcome(lambda: _block_report(
            check_block(family_id, _block_of_one(bundle), tol)))
        assert got == want, bundle
        seen.add("refused" if isinstance(got[0], type) else
                 "violated" if got[0].violated else "satisfied")
    assert "refused" in seen
    if family_id not in ("W2H5_META", "CHSH_16"):
        assert {"violated", "satisfied"} <= seen


def test_check_chsh_equals_the_block_path_bitwise():
    from qmarginal.catalog import BlockCheck, _linear_system
    from qmarginal.tensor import rng_from_seed

    rng = rng_from_seed(77)
    draws = [tuple(float(c) for c in rng.uniform(-1, 1, size=4)) for _ in range(200)]
    draws += [(1, 1, 1, -1), (1, 1, 1, 1), (0.5, 0.5, 0.5, -0.5)]
    system = _linear_system("CHSH_16", (("corr", 4),))
    for corr in draws:
        slacks = system.slacks({"corr": np.array([corr], dtype=float)})
        want = _block_report(BlockCheck("CHSH_16", slacks, system.labels, 1e-10))
        got = check_chsh(corr)
        assert (got, repr(got.worst_slack)) == (want, repr(want.worst_slack))
