"""Acceptance suite.

One test per acceptance criterion, each at its stated size and tolerance,
printing a PASS/FAIL line (run with ``pytest -s`` to see them inline).
Campaign sizes follow the stated budgets; everything is seeded.
"""

import math
import random
from collections import Counter
from itertools import permutations as iperm
from itertools import product

import pytest

from qmarginal.catalog import SpectraBundle, check_chsh, check_equivalence, check_family
from qmarginal.chambers import cubicle_arrangement, enumerate_chambers, extremal_edges
from qmarginal.harness import isospectrality_campaign, mc_verify, witness_search
from qmarginal.spectra import YoungDiagram, gale_ryser, spectrum
from qmarginal.tensor import rng_from_seed

SEED = 20260809


def report(criterion: str, ok: bool, detail: str):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Isospectrality

def test_criterion_01_isospectrality():
    rep = isospectrality_campaign(["2x2", "2x3", "3x3", "3x4"], 1000, SEED)
    report(
        "criterion 1", rep.max_discrepancy < 1e-10,
        f"isospectrality over 4 formats x 1000 Haar states, "
        f"max discrepancy {rep.max_discrepancy:.3e} < 1e-10",
    )


# ---------------------------------------------------------------------------
# 2. Edge counts

def test_criterion_02_edge_counts():
    import json
    import subprocess
    import sys

    counts = {}
    for n in (2, 3, 4):
        proc = subprocess.run(
            [sys.executable, "-m", "qmarginal.cli", "edges", "--system", f"qubits:{n}"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        counts[n] = json.loads(proc.stdout.splitlines()[-1])["count"]
    ok = counts == {2: 2, 3: 4, 4: 12}
    report("criterion 2", ok, f"edges command returns {counts} == {{2: 2, 3: 4, 4: 12}}")


def test_criterion_02_stretch_five_qubits():
    arr = cubicle_arrangement("qubits:5")
    count = len(extremal_edges(enumerate_chambers(arr)))
    report("criterion 2 (stretch)", count == 125, f"5-qubit edge count {count} == 125")


# ---------------------------------------------------------------------------
# 3. Identity coefficient over all small-system cubicles

def test_criterion_03_identity_coefficient():
    from qmarginal.schubert import coeff_two, identity_perm, sum_order

    checked = 0
    for fmt, (m, n) in (("2x2", (2, 2)), ("2x3", (2, 3))):
        arr = cubicle_arrangement(fmt)
        for chamber in enumerate_chambers(arr):
            a, b = arr.chart.to_test_spectra(chamber.barycenter())
            order = sum_order(a, b)
            value = coeff_two(
                identity_perm(m), identity_perm(n), identity_perm(m * n), order
            )
            assert value == 1
            checked += 1
    report(
        "criterion 3", checked == 7,
        f"identity coefficient = 1 on all {checked} cubicles of 2x2 and 2x3",
    )


# ---------------------------------------------------------------------------
# 4. Schubert engine soundness

def test_criterion_04_schubert_soundness():
    from qmarginal.schubert import apply_chain, divided_difference, length, schubert_poly
    from tests.test_schubert import (
        _all_reduced_words,
        _expand_in_schubert_pairs,
        _is_padded_identity,
        _monomial,
        _random_poly,
        perm_inverse,
        perm_mul,
    )

    rng = random.Random(SEED)
    for _ in range(100):
        p = _random_poly(rng)
        i = rng.randint(1, 4)
        assert divided_difference(i, divided_difference(i, p)) == {}
        lhs = divided_difference(i, divided_difference(i + 1, divided_difference(i, p)))
        rhs = divided_difference(i + 1, divided_difference(i, divided_difference(i + 1, p)))
        assert lhs == rhs

    for w in iperm((1, 2, 3, 4)):
        chain = perm_mul(perm_inverse(w), (4, 3, 2, 1))
        words = list(_all_reduced_words(chain))[:4]
        staircase = _monomial((3, 2, 1))
        outcomes = {frozenset(apply_chain(word, staircase).items()) for word in words}
        assert outcomes == {frozenset(schubert_poly(w).items())}

    from qmarginal.schubert import coeff_two, sum_order

    arr = cubicle_arrangement("2x2")
    triples = 0
    for chamber in enumerate_chambers(arr):
        a, b = arr.chart.to_test_spectra(chamber.barycenter())
        order = sum_order(a, b)
        for u in iperm((1, 2)):
            for v in iperm((1, 2)):
                lw = length(u) + length(v)
                if lw == 0:
                    continue
                for w in iperm((1, 2, 3, 4)):
                    if length(w) != lw:
                        continue
                    oracle = _expand_in_schubert_pairs(w, order, 2, 2)
                    expected = 0
                    for (ou, ov), val in oracle.items():
                        if ou[:2] == u and _is_padded_identity(ou, 2) and \
                           ov[:2] == v and _is_padded_identity(ov, 2):
                            expected = val
                    assert coeff_two(u, v, w, order) == expected
                    triples += 1
    report(
        "criterion 4", triples >= 10,
        f"nilpotence+braid on 100 random polynomials, reduced-word "
        f"independence on all of S4, oracle agreement on {triples} "
        f"non-identity triples",
    )


# ---------------------------------------------------------------------------
# 5. Catalog soundness by sampling (10^4 trials per family)

CAMPAIGNS = [
    ("POLYGON", "qubits:3:pure", 10000, None),
    ("POLYGON", "qubits:4:pure", 10000, None),
    ("FRANZ_3QUTRIT", "3x3x3:pure", 10000, None),
    ("BASIC", "2x2:mixed", 10000, None),
    ("BASIC", "2x2x2:mixed", 10000, None),
    ("THREE_QUBIT_MIXED", "2x2x2:mixed", 10000, None),
    ("BD6", "fermi:6:3:pure", 10000, None),
    ("F7_LIST", "fermi:7:3:pure", 10000, None),
    ("F8_31", "fermi:8:3:pure", 10000, None),
    ("F84_14", "fermi:8:4:pure", 10000, None),
    ("W2H4_MIXED", "fermi:4:2:mixed", 10000, None),
]

BRAVYI_SPECTRA = [
    (1.0, 0.0, 0.0, 0.0),
    (0.4, 0.3, 0.2, 0.1),
    (0.7, 0.3, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25),
]


@pytest.mark.parametrize("family,system,trials,nu", CAMPAIGNS,
                         ids=[f"{f}@{s}" for f, s, _, _ in CAMPAIGNS])
def test_criterion_05_campaigns(family, system, trials, nu):
    rep = mc_verify(family, system, trials=trials, seed=SEED, nu=nu)
    report(
        "criterion 5", rep.violations == 0 and rep.min_slack >= -1e-10,
        f"{family} on {system}, {trials} trials, min slack {rep.min_slack:+.3e}",
    )


def test_criterion_05_bravyi_five_spectra():
    worst = math.inf
    for k, nu_vals in enumerate(BRAVYI_SPECTRA):
        rep = mc_verify(
            "BRAVYI_2Q", "2x2:mixed", trials=2000, seed=SEED + k,
            nu=spectrum(nu_vals),
        )
        assert rep.violations == 0
        worst = min(worst, rep.min_slack)
    report(
        "criterion 5", worst >= -1e-10,
        f"BRAVYI_2Q on 5 distinct state spectra x 2000 trials, "
        f"min slack {worst:+.3e}",
    )


# ---------------------------------------------------------------------------
# 6. Cross-form equivalences (10^5 samples each)

def test_criterion_06_equivalence_f84():
    rep = check_equivalence("F84_14", "F84_ABS", 100000, SEED)
    report(
        "criterion 6", rep.disagreements == 0,
        f"F84_14 vs F84_ABS on {rep.samples} valid spectra, "
        f"{rep.disagreements} disagreements",
    )


def test_criterion_06_equivalence_f7():
    rep = check_equivalence("F7_BD", "F7_LIST", 100000, SEED)
    report(
        "criterion 6", rep.disagreements == 0,
        f"F7_BD vs F7_LIST on {rep.samples} valid spectra, "
        f"{rep.disagreements} disagreements",
    )


# ---------------------------------------------------------------------------
# 7. Pure-state degeneration of the two-qubit mixed solution

def test_criterion_07_bravyi_pure_degeneration():
    from qmarginal.tensor import haar_pure, pure_marginal, spectrum_of

    worst = 0.0
    for trial in range(1000):
        psi = haar_pure((2, 2), SEED, stream=trial)
        la = spectrum_of(pure_marginal(psi, [0])).as_floats()[1]
        lb = spectrum_of(pure_marginal(psi, [1])).as_floats()[1]
        worst = max(worst, abs(la - lb))
        bundle = SpectraBundle(
            sites=(
                spectrum_of(pure_marginal(psi, [0])),
                spectrum_of(pure_marginal(psi, [1])),
            ),
            joint=spectrum((1.0, 0.0, 0.0, 0.0)),
        )
        assert check_family("BRAVYI_2Q", bundle).satisfied
    report(
        "criterion 7", worst < 1e-10,
        f"|lambda_A - lambda_B| <= {worst:.3e} < 1e-10 on 1000 pure states "
        f"with nu = (1,0,0,0)",
    )


# ---------------------------------------------------------------------------
# 8. Plethysm structure

def test_criterion_08_plethysm():
    from qmarginal.plethysm import decompose
    from tests.test_plethysm import complement_weight, selfdual_check

    for r in (4, 5, 6):
        for m in (1, 2, 3, 4):
            dec = decompose(r, 2, m)  # dimension identity checked internally
            for weight, mult in dec.multiplicities:
                counts = Counter(x for x in weight if x)
                assert mult == 1 and all(c % 2 == 0 for c in counts.values())

    assert selfdual_check(6, 3, 1) and selfdual_check(6, 3, 2) and selfdual_check(6, 3, 3)

    for (r, n) in [(6, 3), (7, 3), (8, 4)]:
        for m in (1, 2):
            dec = dict(decompose(r, n, m).multiplicities)
            dual = dict(decompose(r, r - n, m).multiplicities)
            assert {complement_weight(w, r, m): c for w, c in dec.items()} == dual

    report(
        "criterion 8", True,
        "even-row theorem (wedge^2, r<=6, m<=4), exact dimension identity, "
        "(6,3) self-duality m<=3, particle-hole duality (6,3)/(7,3)/(8,4) m<=2",
    )


# ---------------------------------------------------------------------------
# 9. Occurring spectra pass their families; hull containment

def test_criterion_09_theorem4_consistency():
    from qmarginal.plethysm import inner_approximation, occurring_spectra

    cases = [
        (6, 3, 4, ("BD6", "PAULI")),
        (7, 3, 2, ("F7_BD", "F7_LIST", "PAULI")),
        (8, 3, 2, ("F8_31", "PAULI")),
        (8, 4, 2, ("F84_14", "F84_ABS", "PAULI")),
    ]
    total = 0
    for (r, n, m_max, fams) in cases:
        for point in occurring_spectra(r, n, m_max):
            lam = spectrum(point, n)
            for fid in fams:
                assert check_family(fid, SpectraBundle(one_body=lam)).satisfied
            total += 1

    inner = inner_approximation(6, 3, 4)
    for point in inner.points:
        assert check_family("BD6", SpectraBundle(one_body=spectrum(point, 3))).satisfied
    report(
        "criterion 9", total > 0,
        f"{total} occurring normalized spectra pass their catalog families; "
        f"(6,3,M=4) hull vertices lie in the printed polytope",
    )


# ---------------------------------------------------------------------------
# 10. Gale-Ryser against exhaustive enumeration

def test_criterion_10_gale_ryser():
    from tests.test_spectra import _feasible_margins_by_enumeration, _partitions

    feasible = _feasible_margins_by_enumeration(4)
    checked = 0
    for total in range(1, 17):
        for lam in _partitions(total, 4, 4):
            for mu in _partitions(total, 4, 4):
                expect = (lam, mu) in feasible
                assert gale_ryser(YoungDiagram(lam), YoungDiagram(mu)) == expect
                checked += 1
    report(
        "criterion 10", checked > 0,
        f"Gale-Ryser agrees with exhaustive 0/1-matrix enumeration on "
        f"{checked} margin pairs fitting 4x4",
    )


# ---------------------------------------------------------------------------
# 11. Correlation inequalities

def test_criterion_11_chsh():
    for a1, a2, b1, b2 in product((1, -1), repeat=4):
        corr = (a1 * b1, a1 * b2, a2 * b1, a2 * b2)
        rep = check_chsh(corr)
        assert rep.satisfied and rep.n_inequalities == 16
    s = 2 ** -0.5
    tsirelson = check_chsh((s, s, s, -s))
    report(
        "criterion 11", not tsirelson.satisfied,
        "all 16 local deterministic strategies satisfy all 16 inequalities; "
        f"the quantum point violates (worst slack {tsirelson.worst_slack:+.4f})",
    )


# ---------------------------------------------------------------------------
# 12. Witness search success rate

def test_criterion_12_witness_search():
    rng = rng_from_seed(SEED)
    successes = 0
    total = 50
    for k in range(total):
        while True:
            mins = rng.uniform(0, 0.5, size=3)
            if all(mins[i] <= mins.sum() - mins[i] for i in range(3)):
                break
        targets = [(1 - x, x) for x in mins]
        rep = witness_search(
            targets, "qubits:3", restarts=20, iters=200, seed=SEED + 1 + k
        )
        successes += rep.success
    report(
        "criterion 12", successes >= 45,
        f"witness search succeeded on {successes}/{total} feasible targets "
        f"(needs >= 45)",
    )


# ---------------------------------------------------------------------------
# 13. Determinism and worker independence

def test_criterion_13_determinism():
    a = mc_verify("BD6", "fermi:6:3:pure", trials=500, seed=SEED)
    b = mc_verify("BD6", "fermi:6:3:pure", trials=500, seed=SEED)
    assert (a.min_slack, a.violations) == (b.min_slack, b.violations)

    c = mc_verify("POLYGON", "qubits:3:pure", trials=256, seed=SEED, jobs=1)
    d = mc_verify("POLYGON", "qubits:3:pure", trials=256, seed=SEED, jobs=2)
    assert (c.min_slack, c.violations) == (d.min_slack, d.violations)

    e1 = check_equivalence("F7_BD", "F7_LIST", 1000, SEED)
    e2 = check_equivalence("F7_BD", "F7_LIST", 1000, SEED)
    assert e1 == e2

    w1 = witness_search([(0.5, 0.5)] * 3, "qubits:3", restarts=5, iters=100, seed=SEED)
    w2 = witness_search([(0.5, 0.5)] * 3, "qubits:3", restarts=5, iters=100, seed=SEED)
    assert w1.residual == w2.residual

    i1 = isospectrality_campaign(["2x2"], 100, SEED)
    i2 = isospectrality_campaign(["2x2"], 100, SEED)
    assert i1.max_discrepancy == i2.max_discrepancy

    report(
        "criterion 13", True,
        "campaigns, equivalence runs and witness search are bit-reproducible "
        "per seed and worker-count independent",
    )
