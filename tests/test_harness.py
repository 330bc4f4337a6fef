"""Verify harness: campaign determinism, worker independence, witness."""

import numpy as np
import pytest

from qmarginal.catalog import CatalogError
from qmarginal.harness import (
    isospectrality_campaign,
    mc_verify,
    witness_search,
)
from qmarginal.spectra import spectrum
from qmarginal.systems import parse_system
from qmarginal.tensor import haar_pure, pure_marginal, spectrum_of


def test_mc_verify_bd6_small():
    rep = mc_verify("BD6", "fermi:6:3:pure", trials=200, seed=7)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-10


def test_mc_verify_refuses_a_negative_trial_count():
    with pytest.raises(CatalogError, match="trials"):
        mc_verify("BD6", "fermi:6:3:pure", -4, 1)
    rep = mc_verify("BD6", "fermi:6:3:pure", 0, 1)
    assert rep.trials == 0 and rep.violations == 0 and rep.worst_trial is None


def test_isospectrality_campaign_refuses_a_negative_trial_count():
    with pytest.raises(CatalogError, match="trials"):
        isospectrality_campaign(["2x2"], -1, 1)
    rep = isospectrality_campaign(["2x2"], 0, 1)
    assert rep.trials == 0 and rep.max_discrepancy == 0.0


def test_isospectrality_campaign_refuses_mixed_formats():
    bare = isospectrality_campaign(["2x2", "2x3"], 40, 9)
    pure = isospectrality_campaign(["2x2:pure", "2x3:pure"], 40, 9)
    assert bare.max_discrepancy == pure.max_discrepancy
    with pytest.raises(ValueError, match="2x3:mixed"):
        isospectrality_campaign(["2x2", "2x3:mixed"], 40, 9)


def test_mc_verify_deterministic():
    a = mc_verify("POLYGON", "qubits:3:pure", trials=100, seed=5)
    b = mc_verify("POLYGON", "qubits:3:pure", trials=100, seed=5)
    assert a.min_slack == b.min_slack
    assert a.violations == b.violations
    c = mc_verify("POLYGON", "qubits:3:pure", trials=100, seed=6)
    assert c.min_slack != a.min_slack


def test_mc_verify_worker_count_independent():
    a = mc_verify("BD6", "fermi:6:3:pure", trials=64, seed=11, jobs=1)
    b = mc_verify("BD6", "fermi:6:3:pure", trials=64, seed=11, jobs=2)
    assert a.min_slack == b.min_slack
    assert a.violations == b.violations


def test_mc_verify_fixed_spectrum():
    nu = spectrum((0.5, 0.3, 0.15, 0.05))
    rep = mc_verify("BRAVYI_2Q", "2x2:mixed", trials=150, seed=13, nu=nu)
    assert rep.violations == 0


@pytest.mark.parametrize("system,nu", [
    ("2x2:mixed", (1.5, -0.5, 0.0, 0.0)),
    ("fermi:4:2:mixed", (1.5, -0.5, 0.0, 0.0, 0.0, 0.0)),
    ("2x2:mixed", (0.5, 0.5)),
    ("fermi:4:2:mixed", (0.5, 0.5)),
])
def test_mc_verify_refuses_a_state_spectrum_that_is_not_one(system, nu):
    """Tensor and fermionic campaigns check ``nu`` alike: its length, and
    nonnegative entries (a negative one is not clipped away)."""
    from qmarginal.tensor import StateError

    with pytest.raises(StateError):
        mc_verify("W2H4_MIXED" if system.startswith("fermi") else "BRAVYI_2Q", system,
                  trials=1, seed=0, nu=spectrum(nu, 1.0))


@pytest.mark.parametrize("family,system,fixed", [
    ("BD6", "fermi:6:3:mixed", "fermi:6:3:pure"),
    ("F84_14", "fermi:8:4:mixed", "fermi:8:4:pure"),
    ("FRANZ_3QUTRIT", "3x3x3:mixed", "3x3x3:pure"),
    # another system of the same kind, pure or mixed
    ("F84_14", "fermi:8:3:pure", "fermi:8:4:pure"),
    ("F8_31", "fermi:8:4:pure", "fermi:8:3:pure"),
    ("BD6", "fermi:7:3:pure", "fermi:6:3:pure"),
    ("W2H4_MIXED", "fermi:5:2:mixed", "fermi:4:2:mixed"),
    ("BRAVYI_2Q", "3x3:mixed", "2x2:mixed"),
    ("THREE_QUBIT_MIXED", "qubits:4:mixed", "2x2x2:mixed"),
    ("FRANZ_3QUTRIT", "2x2x2:pure", "3x3x3:pure"),
    # another kind
    ("BRAVYI_2Q", "fermi:4:2:mixed", "2x2:mixed"),
    ("W2H4_MIXED", "2x2:mixed", "fermi:4:2:mixed"),
])
def test_mc_verify_refuses_a_pure_family_on_mixed_states(monkeypatch, family, system, fixed):
    """A family of one fixed system runs only on its kind, dims and (r, n),
    and on a mixed system only if the family is mixed."""
    from qmarginal import harness
    from qmarginal.records import get_family

    assert not get_family(family).applies(parse_system(system))
    monkeypatch.setattr(harness, "_campaign_chunk", None)   # nothing is sampled
    with pytest.raises(CatalogError) as err:
        mc_verify(family, system, trials=3, seed=1)
    assert fixed in str(err.value) and system in str(err.value)


@pytest.mark.parametrize("tolerance", [-1, float("nan")])
def test_mc_verify_refuses_a_negative_or_nan_tolerance_before_sampling(monkeypatch,
                                                                        tolerance):
    from qmarginal import harness

    monkeypatch.setattr(harness, "_campaign_chunk", None)   # nothing is sampled
    with pytest.raises(CatalogError, match="tolerance"):
        mc_verify("BD6", "fermi:6:3:pure", trials=5, seed=1, tolerance=tolerance)


@pytest.mark.parametrize("family,system", [
    ("W2H4_MIXED", "fermi:4:2:pure"),
    ("BRAVYI_2Q", "qubits:2:mixed"),
    ("BRAVYI_2Q", "2x2:pure"),
    ("THREE_QUBIT_MIXED", "qubits:3:mixed"),
    ("BD6", "fermi:6:3"),
    ("BASIC", "2x2x2:mixed"),
    ("PAULI", "fermi:5:2:mixed"),
    ("POLYGON", "qubits:4"),
])
def test_mc_verify_runs_a_family_on_its_system(family, system):
    """A family runs where ``Family.applies`` says it holds: a mixed family
    of one system also on its pure states, a qubit array as its tensor
    format, and a matcher family where its matcher holds.  BASIC also runs
    site against rest on any tensor or qubit format."""
    report = mc_verify(family, system, trials=3, seed=1)
    assert report.trials == 3 and report.violations == 0


def _applicability_grid():
    """The criterion-5 campaign systems, the pure or mixed twin of each, and
    fermi:5:2, 3x3 and qubits:2 in both purities."""
    from tests.test_acceptance import CAMPAIGNS

    stems = [system.rsplit(":", 1)[0] for _, system, _, _ in CAMPAIGNS]
    return [f"{stem}:{purity}"
            for stem in dict.fromkeys(stems + ["fermi:5:2", "3x3", "qubits:2"])
            for purity in ("pure", "mixed")]


@pytest.mark.parametrize("system", _applicability_grid())
def test_mc_verify_refuses_exactly_the_families_that_do_not_apply(monkeypatch, system):
    """``verify`` and ``families`` read one rule: a campaign is refused
    before sampling exactly when the family is not listed for the system,
    or has no inequality list to check (W2H5_META).  BASIC on a tensor or
    qubit format is the one exception: its campaign checks each site
    against the rest of a mixed state."""
    from qmarginal import harness
    from qmarginal.records import applicable_families, family_ids

    monkeypatch.setattr(harness, "_sample_blocks", None)   # nothing is sampled
    listed = applicable_families(system)
    for family in family_ids():
        basic = family == "BASIC" and not system.startswith("fermi")
        runs = (family in listed or basic) and family != "W2H5_META"
        try:
            report = mc_verify(family, system, trials=0, seed=1)
        except CatalogError:
            assert not runs, (family, system)
        else:
            assert runs, (family, system)
            assert report.trials == 0 and report.worst_trial is None


@pytest.mark.parametrize("system", ["fermi:5:2:pure", "fermi:5:2:mixed"])
@pytest.mark.parametrize("trials", [0, 10])
def test_verify_refuses_a_family_without_a_list_before_sampling(monkeypatch, capsys,
                                                                 system, trials):
    """W2H5_META applies to fermi:5:2 but stores only its count: the campaign
    exits 2 with an error record and draws no state, with or without trials."""
    import json

    from qmarginal import harness
    from qmarginal.cli import main

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(harness, "_sample_blocks", no_sampling)
    code = main(["verify", "--family", "W2H5_META", "--system", system,
                 "--trials", str(trials), "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    (error,) = [json.loads(line) for line in err.splitlines()]
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert error["message"] == ("W2H5 is recorded as metadata only (460 independent "
                                "inequalities); the list is not reproduced")


@pytest.mark.parametrize("family,system", [
    ("POLYGON", "qubits:3:pure"),
    ("BD6", "fermi:6:3:pure"),
    ("W2H4_MIXED", "fermi:4:2:pure"),
    ("BASIC", "fermi:4:2:pure"),
])
def test_mc_verify_refuses_a_state_spectrum_for_pure_draws(monkeypatch, family, system):
    from qmarginal import harness

    nu = spectrum((1.0,) + (0.0,) * (parse_system(system).dim - 1), 1.0)
    monkeypatch.setattr(harness, "_campaign_chunk", None)
    with pytest.raises(ValueError, match="--nu"):
        mc_verify(family, system, trials=3, seed=1, nu=nu)


def test_basic_draws_mixed_states_with_nu_on_a_pure_format():
    nu = spectrum((0.4, 0.3, 0.2, 0.1), 1.0)
    pure = mc_verify("BASIC", "2x2:pure", trials=40, seed=3, nu=nu)
    mixed = mc_verify("BASIC", "2x2:mixed", trials=40, seed=3, nu=nu)
    assert (pure.min_slack, pure.worst_trial) == (mixed.min_slack, mixed.worst_trial)


@pytest.mark.parametrize("system", ["2x2:pure", "qubits:2", "2x3"])
def test_a_basic_campaign_on_a_pure_format_replays_from_its_report(system):
    """BASIC draws mixed states, so its report names the mixed twin, and
    the worst trial drawn alone on that system gives ``min_slack``."""
    from qmarginal.harness import sample_bundle
    from qmarginal.records import check_family

    report = mc_verify("BASIC", system, trials=300, seed=7)
    assert report.system == str(parse_system(f"{system.removesuffix(':pure')}:mixed"))
    bundle = sample_bundle(parse_system(report.system), 7, report.worst_trial)
    assert check_family("BASIC", bundle).worst_slack == report.min_slack


@pytest.mark.parametrize("system", ["qubits:2", "fermi:4:2"])
def test_sample_bundle_refuses_a_state_spectrum_for_pure_draws(system):
    from qmarginal.harness import sample_bundle

    desc = parse_system(system)
    nu = spectrum((0.4, 0.3, 0.2, 0.1) + (0.0,) * (desc.dim - 4), 1.0)
    with pytest.raises(ValueError, match="--nu"):
        sample_bundle(desc, 1, 0, nu=nu)
    mixed = sample_bundle(parse_system(f"{system}:mixed"), 1, 0, nu=nu)
    assert np.allclose(mixed.joint.as_floats(), nu.as_floats(), rtol=0, atol=1e-12)


def test_mc_verify_rejects_unknown_family():
    from qmarginal.catalog import CatalogError

    with pytest.raises(CatalogError):
        mc_verify("NOPE", "2x2:mixed", trials=1, seed=0)


def test_isospectrality_campaign():
    rep = isospectrality_campaign(["2x2", "2x3", "3x3", "3x4"], 50, 3)
    assert rep.max_discrepancy < 1e-10


def test_pauli_invariant_ten_thousand_samples():
    rep = mc_verify("PAULI", "fermi:6:3:pure", trials=10000, seed=31)
    assert rep.violations == 0
    assert rep.min_slack >= -1e-10


@pytest.mark.parametrize("r", [4, 5, 6])
def test_even_degeneracy_invariant_ten_thousand_samples(r):
    rep = mc_verify("TWO_PARTICLE_PURE", f"fermi:{r}:2:pure", trials=10000, seed=37)
    assert rep.violations == 0


def test_witness_self_consistency():
    psi = haar_pure((2, 2, 2), 42)
    targets = [spectrum_of(pure_marginal(psi, [i])).as_floats() for i in range(3)]
    rep = witness_search(targets, "qubits:3", restarts=20, iters=200, seed=1)
    assert rep.success
    assert rep.residual < 1e-3


def test_witness_ghz_point():
    rep = witness_search([(0.5, 0.5)] * 3, "qubits:3", restarts=10, iters=200, seed=2)
    assert rep.success


def test_witness_infeasible_target_reports_failure():
    rep = witness_search(
        [(0.6, 0.4), (0.9, 0.1), (0.9, 0.1)], "qubits:3",
        restarts=10, iters=200, seed=3,
    )
    assert not rep.success
    assert rep.residual > 0.01


def test_witness_validates_targets():
    with pytest.raises(ValueError):
        witness_search([(0.5, 0.5)], "qubits:3", seed=0)
    with pytest.raises(ValueError):
        witness_search([(0.5, 0.5), (1.0,), (0.5, 0.5)], "qubits:3", seed=0)


def test_witness_refuses_mixed_systems():
    with pytest.raises(ValueError, match="mixed format 2x2:mixed"):
        witness_search([(0.5, 0.5), (0.5, 0.5)], "2x2:mixed", seed=0)
    with pytest.raises(ValueError, match="mixed format"):
        witness_search([(0.5, 0.5), (0.5, 0.5)], parse_system("2x2:mixed"), seed=0)


def test_witness_amplitudes_realize_targets():
    psi = haar_pure((2, 2, 2), 99)
    targets = [spectrum_of(pure_marginal(psi, [i])).as_floats() for i in range(3)]
    rep = witness_search(targets, "qubits:3", restarts=20, iters=300, seed=4)
    assert rep.success
    amps = np.array([re + 1j * im for re, im in rep.amplitudes])
    from qmarginal.tensor import PureState

    found = PureState(amps, (2, 2, 2))
    for i in range(3):
        got = spectrum_of(pure_marginal(found, [i])).as_floats()
        assert max(abs(a - b) for a, b in zip(got, targets[i])) < 2e-3


# ---------------------------------------------------------------------------
# Blocks of trials: worker independence and replay of the worst trial

CRITERION_5_PAIRS = [
    ("POLYGON", "qubits:3:pure"),
    ("POLYGON", "qubits:4:pure"),
    ("FRANZ_3QUTRIT", "3x3x3:pure"),
    ("BASIC", "2x2:mixed"),
    ("BASIC", "2x2x2:mixed"),
    ("THREE_QUBIT_MIXED", "2x2x2:mixed"),
    ("BD6", "fermi:6:3:pure"),
    ("F7_LIST", "fermi:7:3:pure"),
    ("F8_31", "fermi:8:3:pure"),
    ("F84_14", "fermi:8:4:pure"),
    ("W2H4_MIXED", "fermi:4:2:mixed"),
]


def _budgeted_block(family, system):
    """Trials per block of the campaign of ``family`` on ``system``."""
    from dataclasses import replace

    from qmarginal.harness import _block_trials, _draws_basic

    desc = parse_system(system)
    if _draws_basic(family, desc):   # BASIC draws the mixed twin's states
        desc = replace(desc, pure=False)
    return _block_trials(desc, 10 ** 9)


def _replayed_slack(family, system, seed, trial):
    """Worst slack of one trial, rebuilt from the public per-trial samplers
    and reductions."""
    from qmarginal.catalog import SpectraBundle, check_family
    from qmarginal.fermion import fermion_basis, haar_fermion, one_rdm, one_rdm_mixed
    from qmarginal.spectra import Spectrum
    from qmarginal.systems import parse_system
    from qmarginal.tensor import (
        haar_unitary,
        partial_trace,
        random_density,
        rng_from_seed,
    )

    desc = parse_system(system)
    if desc.kind == "fermion" and desc.pure:
        psi = haar_fermion(desc.r, desc.n, seed, stream=trial)
        joint = Spectrum((1.0,) + (0.0,) * (psi.basis.dim - 1), 1.0)
        bundles = [SpectraBundle(one_body=spectrum_of(one_rdm(psi)), joint=joint)]
    elif desc.kind == "fermion":
        basis = fermion_basis(desc.r, desc.n)
        rng = rng_from_seed(seed, stream=trial)
        nu = spectrum(rng.dirichlet(np.ones(basis.dim)), 1.0)
        u = haar_unitary(basis.dim, rng)
        rho = (u * np.array(nu.as_floats())) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        bundles = [SpectraBundle(one_body=spectrum_of(one_rdm_mixed(rho, basis)),
                                 joint=nu)]
    elif desc.pure:
        psi = haar_pure(desc.dims, seed, stream=trial)
        sites = tuple(spectrum_of(pure_marginal(psi, [i])) for i in range(len(desc.dims)))
        bundles = [SpectraBundle(sites=sites)]
    else:
        rho = random_density(desc.dims, rng_from_seed(seed, stream=trial))
        nf = len(desc.dims)
        if family != "BASIC":
            splits = [[(i,) for i in range(nf)]]
        elif nf == 2:
            splits = [[(0,), (1,)]]
        else:
            splits = [[(i,), tuple(j for j in range(nf) if j != i)] for i in range(nf)]
        bundles = [
            SpectraBundle(sites=tuple(spectrum_of(partial_trace(rho, list(keep)))
                                      for keep in split),
                          joint=spectrum_of(rho))
            for split in splits
        ]
    return min(check_family(family, b).worst_slack for b in bundles)


@pytest.mark.parametrize("family,system", CRITERION_5_PAIRS,
                         ids=[f"{f}@{s}" for f, s in CRITERION_5_PAIRS])
def test_blocks_do_not_depend_on_worker_count(family, system):
    # three chunks of one budgeted block and 5 trials: each ends mid-block
    trials = 3 * (_budgeted_block(family, system) + 5)
    a = mc_verify(family, system, trials=trials, seed=23, jobs=1)
    b = mc_verify(family, system, trials=trials, seed=23, jobs=3)
    assert (a.min_slack, a.violations, a.worst_trial) == (
        b.min_slack, b.violations, b.worst_trial)
    assert 0 <= a.worst_trial < trials
    replayed = _replayed_slack(family, system, 23, a.worst_trial)
    assert abs(replayed - a.min_slack) <= 1e-12


@pytest.mark.parametrize("family,system", [p for p in CRITERION_5_PAIRS
                                            if p != ("BASIC", "2x2x2:mixed")],
                         ids=[f"{f}@{s}" for f, s in CRITERION_5_PAIRS
                              if (f, s) != ("BASIC", "2x2x2:mixed")])
def test_a_worst_trial_replays_through_the_one_bundle_path(family, system):
    """The worst trial of a campaign, drawn alone and checked on Python
    floats, gives the campaign's minimum slack exactly.  BASIC's
    site-versus-rest splits of three sites are no bundle of one check."""
    from qmarginal.harness import sample_bundle
    from qmarginal.records import check_family

    report = mc_verify(family, system, trials=750, seed=20260809)
    bundle = sample_bundle(parse_system(system), 20260809, report.worst_trial)
    assert check_family(family, bundle).worst_slack == report.min_slack


@pytest.mark.parametrize("jobs,cpus,workers", [(64, 2, 2), (3, 8, 3), (5, None, 1)])
def test_a_campaign_starts_at_most_one_worker_per_cpu(monkeypatch, jobs, cpus, workers):
    """``jobs`` chunks still split the trials, so the report is the same,
    but no more processes start than there are CPUs."""
    from qmarginal import harness

    pools = []

    class InProcessPool:
        """Records its worker count and chunks, and maps them in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            self.chunks = list(chunks)
            return map(fn, self.chunks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    got = mc_verify("BD6", "fermi:6:3:pure", trials=256, seed=11, jobs=jobs)
    (pool,) = pools
    assert pool.max_workers == workers
    assert len(pool.chunks) == jobs
    want = mc_verify("BD6", "fermi:6:3:pure", trials=256, seed=11)
    assert (got.min_slack, got.violations, got.worst_trial) == (
        want.min_slack, want.violations, want.worst_trial)


def _with_block_sizes(monkeypatch, run):
    """``run()`` with blocks of 1 and 32 trials and of the budgeted size."""
    from qmarginal import harness

    budgeted, results = harness._block_trials, []
    for size in (1, 32, None):
        monkeypatch.setattr(harness, "_block_trials", budgeted if size is None else
                            lambda system, chunk, size=size: min(chunk, size))
        results.append(run())
    return results


@pytest.mark.parametrize("family,system", CRITERION_5_PAIRS,
                         ids=[f"{f}@{s}" for f, s in CRITERION_5_PAIRS])
def test_campaign_reports_do_not_depend_on_the_block_size(monkeypatch, family, system):
    reports = _with_block_sizes(monkeypatch, lambda: mc_verify(family, system, 70, 29))
    assert len({(r.min_slack, r.worst_trial, r.violations) for r in reports}) == 1
    assert reports[0].worst_trial is not None


def test_isospectrality_does_not_depend_on_the_block_size(monkeypatch):
    reports = _with_block_sizes(monkeypatch, lambda: isospectrality_campaign(
        ["2x2", "2x3", "3x3", "3x4"], 70, 29))
    assert len({r.max_discrepancy for r in reports}) == 1
    assert reports[0].max_discrepancy > 0.0


@pytest.mark.parametrize("family,system", CRITERION_5_PAIRS,
                         ids=[f"{f}@{s}" for f, s in CRITERION_5_PAIRS])
def test_a_budgeted_block_peaks_below_the_budget(family, system):
    """One block holds what fits BLOCK_BYTES: its traced peak lies below the
    budget, and above half of it."""
    import tracemalloc

    from qmarginal.harness import BLOCK_BYTES, _campaign_chunk

    args = (family, system, 3, 0, _budgeted_block(family, system), None, 1e-10)
    _campaign_chunk(args)   # compiles the family and the basis maps first
    tracemalloc.start()
    try:
        _campaign_chunk(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert BLOCK_BYTES // 2 < peak < BLOCK_BYTES


def test_worst_trial_is_the_lowest_stream_reaching_the_minimum():
    rep = mc_verify("POLYGON", "qubits:3:pure", trials=40, seed=5)
    slacks = [_replayed_slack("POLYGON", "qubits:3:pure", 5, t) for t in range(40)]
    best = min(slacks)
    assert abs(rep.min_slack - best) <= 1e-12
    assert rep.worst_trial == min(
        t for t, s in enumerate(slacks) if abs(s - best) <= 1e-12)


def test_no_trials_have_no_worst_trial():
    rep = mc_verify("BD6", "fermi:6:3:pure", trials=0, seed=1)
    assert rep.worst_trial is None
    assert rep.min_slack == float("inf")


@pytest.mark.parametrize("system", ["qubits:3:pure", "2x2:mixed", "fermi:6:3:pure",
                                    "fermi:4:2:mixed"])
def test_sample_bundle_is_the_block_of_one(system):
    from qmarginal.harness import sample_bundle
    from qmarginal.systems import parse_system

    bundle = sample_bundle(parse_system(system), 17, 3)
    family = {"qubits:3:pure": "POLYGON", "2x2:mixed": "BRAVYI_2Q",
              "fermi:6:3:pure": "PAULI", "fermi:4:2:mixed": "W2H4_MIXED"}[system]
    from qmarginal.catalog import check_family

    got = check_family(family, bundle).worst_slack
    assert abs(got - _replayed_slack(family, system, 17, 3)) <= 1e-12


def test_block_checks_reject_a_non_hermitian_stack():
    from qmarginal.tensor import StateError, spectra_of_stack

    mats = np.tile(np.eye(2, dtype=complex) / 2, (3, 1, 1))
    mats[1, 0, 1] = 0.1
    with pytest.raises(StateError, match="not Hermitian"):
        spectra_of_stack(mats, 1.0)
    mats[1, 0, 1] = 0.0
    mats[2] = np.diag([1.2, -0.2])
    with pytest.raises(StateError, match="negative eigenvalue"):
        spectra_of_stack(mats, 1.0)
    mats[2] = np.diag([0.7, 0.5])
    with pytest.raises(StateError, match="trace"):
        spectra_of_stack(mats, 1.0)
    mats[2, 0, 0] = np.nan
    with pytest.raises(StateError, match="not finite"):
        spectra_of_stack(mats, 1.0)


def _seed_sequence_rng(seed, stream):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def _reference_blocks(system, seed, trials, nu=None, basic=False):
    """The per-trial sampler the block sampler replaced: a SeedSequence-keyed
    generator per trial, the real parts drawn before the imaginary parts by
    two calls, and the block stacked from per-trial arrays."""
    import math

    from qmarginal.catalog import SpectraBlock
    from qmarginal.fermion import fermion_basis, one_rdm_stack
    from qmarginal.harness import _bipartitions, _pure_joint
    from qmarginal.tensor import (
        fixed_spectrum_stack,
        fixed_spectrum_values,
        hilbert_schmidt_stack,
        partial_trace_stack,
        pure_marginal_stack,
        spectra_of_stack,
        spectra_rows,
        unitaries_from_gaussian,
    )

    def gaussian(shape, rng):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def haar_vectors(size):
        out = np.empty((len(trials), size), dtype=complex)
        for i, trial in enumerate(trials):
            vec = gaussian(size, _seed_sequence_rng(seed, trial))
            vec /= np.linalg.norm(vec)
            out[i] = vec
        return out

    if system.kind == "fermion":
        basis = fermion_basis(system.r, system.n)
        dim, n = basis.dim, system.n
        if system.pure:
            lam = spectra_of_stack(one_rdm_stack(basis, haar_vectors(dim)), float(n))
            return [SpectraBlock(one_body=lam, one_body_trace=np.full(len(lam), float(n)),
                                 joint=_pure_joint(len(lam), dim))]
        draws, gaussians = [], []
        for trial in trials:
            rng = _seed_sequence_rng(seed, trial)
            if nu is None:
                draws.append(rng.dirichlet(np.ones(dim)))
            gaussians.append(gaussian((dim, dim), rng))
        vals = (spectra_rows(np.array(draws), 1.0) if nu is None
                else np.tile(nu.as_floats(), (len(trials), 1)))
        rho = fixed_spectrum_stack(unitaries_from_gaussian(np.array(gaussians)), vals)
        trace = n * np.trace(rho, axis1=1, axis2=2).real
        return [SpectraBlock(one_body=spectra_of_stack(one_rdm_stack(basis, rho), trace),
                             one_body_trace=trace, joint=vals)]
    dims = system.dims
    size = math.prod(dims)
    if basic or not system.pure:
        gaussians = np.array([gaussian((size, size), _seed_sequence_rng(seed, trial))
                              for trial in trials])
        if nu is None:
            rho = hilbert_schmidt_stack(gaussians)
        else:
            rho = fixed_spectrum_stack(unitaries_from_gaussian(gaussians),
                                       fixed_spectrum_values(nu, size, dims))
        joint = spectra_of_stack(rho, 1.0)
        splits = _bipartitions(dims) if basic else [tuple((i,) for i in range(len(dims)))]
        return [SpectraBlock(sites=tuple(spectra_of_stack(partial_trace_stack(rho, dims, k),
                                                          1.0) for k in split),
                             joint=joint) for split in splits]
    amps = haar_vectors(size)
    sites = tuple(spectra_of_stack(pure_marginal_stack(amps, dims, [i]), 1.0)
                  for i in range(len(dims)))
    return [SpectraBlock(sites=sites, joint=_pure_joint(len(trials), size))]


NU4 = (0.4, 0.3, 0.2, 0.1)
NU6 = (0.3, 0.25, 0.2, 0.15, 0.1, 0.0)
BLOCK_CASES = [
    ("qubits:3:pure", None, False),
    ("3x3x3:pure", None, False),
    ("2x2:mixed", None, False),
    ("2x2x2:mixed", None, False),
    ("2x2:mixed", NU4, False),
    ("2x2:mixed", None, True),
    ("2x2x2:mixed", None, True),
    ("2x3:mixed", None, True),
    ("fermi:6:3:pure", None, False),
    ("fermi:4:2:mixed", None, False),
    ("fermi:4:2:mixed", NU6, False),
]


@pytest.mark.parametrize("first", [0, 37])
@pytest.mark.parametrize("system,nu,basic", BLOCK_CASES,
                         ids=[f"{s}{'+nu' if nu else ''}{'+basic' if b else ''}"
                              for s, nu, b in BLOCK_CASES])
def test_sample_blocks_equal_the_per_trial_reference_bitwise(system, nu, basic, first):
    from qmarginal.harness import _sample_blocks
    from qmarginal.systems import parse_system
    from qmarginal.tensor import PhiloxStreams

    desc = parse_system(system)
    nu = None if nu is None else spectrum(nu, 1.0)
    size = 32
    seed, trials = 20260809, range(first, first + size)
    got = _sample_blocks(desc, PhiloxStreams(seed, trials), nu, basic)
    want = _reference_blocks(desc, seed, trials, nu, basic)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("joint", "one_body", "one_body_trace"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), field
            assert x is None or np.array_equal(x, y), field
        assert len(a.sites) == len(b.sites)
        assert all(np.array_equal(x, y) for x, y in zip(a.sites, b.sites))


def test_a_campaign_builds_one_philox_per_chunk(monkeypatch):
    """Trials are re-keyed on one bit generator per block, not given one
    each; 96 BD6 trials are one block."""
    real, built = np.random.Philox, []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    rep = mc_verify("BD6", "fermi:6:3:pure", trials=96, seed=3)
    assert rep.trials == 96 and rep.worst_trial is not None
    assert len(built) <= 1


def test_a_campaign_keys_each_stream_once_a_block_at_a_time(monkeypatch):
    """Every ``philox_keys`` pass of a campaign covers one block, at most
    ``_block_trials`` streams, and no stream is keyed twice."""
    from qmarginal import tensor
    from qmarginal.harness import _block_trials

    real, keyed = tensor.philox_keys, []

    def counted(seed, streams):
        keyed.append(list(streams))
        return real(seed, streams)

    monkeypatch.setattr(tensor, "philox_keys", counted)
    rep = mc_verify("F84_14", "fermi:8:4:pure", trials=200, seed=1)
    assert rep.worst_trial is not None
    size = _block_trials(parse_system("fermi:8:4:pure"), 200)
    assert size < 200 and len(keyed) > 1
    assert all(0 < len(block) <= size for block in keyed)
    assert sorted(s for block in keyed for s in block) == list(range(200))
