"""Fermionic layer: sign bookkeeping, RDMs, energy reduction, sampling.

The oracles here are deliberately independent of the library's annihilation-map
reduction: explicit operator application by loops, embedding into the full
tensor power followed by a partial trace, and scipy CSR maps built from the
same loops and applied as sparse matrix products.
"""

import json
import math
import subprocess
import sys
from itertools import combinations, permutations

import numpy as np
import pytest

from qmarginal.fermion import (
    FermionError,
    FermionState,
    energy_from_two_rdm,
    fermion_basis,
    haar_fermion,
    one_rdm,
    one_rdm_mixed,
    one_rdm_stack,
    slater,
    two_rdm,
)
from qmarginal.harness import sample_bundle
from qmarginal.systems import parse_system
from qmarginal.tensor import (
    PureState,
    complex_gaussian,
    fixed_spectrum_stack,
    pure_marginal,
    rng_from_seed,
    spectrum_of,
    unitaries_from_gaussian,
)


# ---------------------------------------------------------------------------
# Independent oracles

def _ann(subset, orb):
    if orb not in subset:
        return None, 0
    pos = subset.index(orb)
    return subset[:pos] + subset[pos + 1:], (-1) ** pos


def _cre(subset, orb):
    if orb in subset:
        return None, 0
    pos = sum(1 for x in subset if x < orb)
    return tuple(sorted(subset + (orb,))), (-1) ** pos


def _embed_in_tensor_power(psi: FermionState) -> PureState:
    """Antisymmetric embedding into (C^r)^(tensor n)."""
    basis = psi.basis
    r, n = basis.r, basis.n
    tensor = np.zeros((r,) * n, dtype=complex)
    scale = 1 / math.sqrt(math.factorial(n))
    for idx, subset in enumerate(basis.subsets):
        c = psi.amplitudes[idx]
        if c == 0:
            continue
        for perm in permutations(range(n)):
            sign = _perm_sign(perm)
            pos = tuple(subset[perm[k]] - 1 for k in range(n))
            tensor[pos] += sign * c * scale
    return PureState(tensor.reshape(-1), (r,) * n)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _one_rdm_oracle(psi: FermionState) -> np.ndarray:
    """Chemist 1-RDM via the tensor-power embedding and a partial trace."""
    embedded = _embed_in_tensor_power(psi)
    rho = pure_marginal(embedded, [0])
    return psi.basis.n * rho.entries


def _full_hamiltonian(basis, h1, h12, pairs):
    """Explicit second-quantized Hamiltonian matrix on the n-sector."""
    dim, r = basis.dim, basis.r
    mat = np.zeros((dim, dim), dtype=complex)
    for si, subset in enumerate(basis.subsets):
        for q in subset:
            t, s1 = _ann(subset, q)
            for p in range(1, r + 1):
                u, s2 = _cre(t, p)
                if u is not None:
                    mat[basis.index[u], si] += h1[p - 1, q - 1] * s1 * s2
        for (k, l) in combinations(subset, 2):
            t1, sa = _ann(subset, k)
            t2, sb = _ann(t1, l)
            ki = pairs.index((k, l))
            for pi, (i, j) in enumerate(pairs):
                u1, sc = _cre(t2, j)
                if u1 is None:
                    continue
                u2, sd = _cre(u1, i)
                if u2 is None:
                    continue
                mat[basis.index[u2], si] += h12[pi, ki] * sa * sb * sc * sd
    return mat


def _csr_one_rdm_map(basis):
    """Sparse map vec(conj rho) -> gamma.flat, gamma[i, j] = <a_j^dag a_i>."""
    from scipy import sparse

    r, dim = basis.r, basis.dim
    rows, cols, vals = [], [], []
    for src, subset in enumerate(basis.subsets):
        for i in subset:
            t, s1 = _ann(subset, i)
            for j in range(1, r + 1):
                u, s2 = _cre(t, j)
                if u is not None:
                    rows.append((i - 1) * r + (j - 1))
                    cols.append(basis.index[u] * dim + src)
                    vals.append(s1 * s2)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(r * r, dim * dim))


def _csr_one_rdm(basis, rho_conj_flat):
    gamma = (_csr_one_rdm_map(basis) @ rho_conj_flat).reshape(basis.r, basis.r)
    return (gamma + gamma.conj().T) / 2


def _csr_two_rdm(psi):
    """2-RDM through a sparse map psi -> W.flat, column p of W being
    a_{p2} a_{p1} psi for the p-th orbital pair."""
    from scipy import sparse

    basis = psi.basis
    pairs = list(combinations(range(1, basis.r + 1), 2))
    sub = fermion_basis(basis.r, basis.n - 2)
    rows, cols, vals = [], [], []
    for src, subset in enumerate(basis.subsets):
        for p_idx, (pa, pb) in enumerate(pairs):
            t, s1 = _ann(subset, pa)
            if t is None:
                continue
            u, s2 = _ann(t, pb)
            if u is not None:
                rows.append(sub.index[u] * len(pairs) + p_idx)
                cols.append(src)
                vals.append(s1 * s2)
    pmap = sparse.csr_matrix((vals, (rows, cols)), shape=(sub.dim * len(pairs), basis.dim))
    w = (pmap @ psi.amplitudes).reshape(-1, len(pairs))
    g = (w.conj().T @ w).conj()
    return 2.0 * (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# Basis and Slater determinants

def test_basis_lexicographic():
    basis = fermion_basis(6, 3)
    assert basis.dim == 20
    assert basis.subsets[0] == (1, 2, 3)
    assert basis.subsets[-1] == (4, 5, 6)
    assert basis.index[(1, 2, 4)] == 1


def test_slater_positions():
    assert slater(6, 3, (1, 2, 3)).amplitudes[0] == 1.0
    assert slater(6, 3, (4, 5, 6)).amplitudes[-1] == 1.0


def test_slater_rejects_bad_subsets():
    with pytest.raises(FermionError):
        slater(6, 3, (1, 2))
    with pytest.raises(FermionError):
        slater(6, 3, (1, 2, 7))
    with pytest.raises(FermionError):
        slater(6, 3, (1, 1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_fermion_state_refuses_non_finite_amplitudes(bad):
    """A NaN norm fails no comparison, so the entries are checked first."""
    with pytest.raises(FermionError, match="not finite"):
        FermionState(fermion_basis(4, 2), [bad, 0, 0, 0, 0, 0])
    with pytest.raises(FermionError, match="not finite"):
        FermionState(fermion_basis(4, 2), [1, bad, 0, 0, 0, 0])


def test_slater_one_rdm_is_projector():
    for subset in ((1, 2, 3), (2, 4, 6), (4, 5, 6)):
        gamma = one_rdm(slater(6, 3, subset)).entries
        expect = np.diag([1.0 if i + 1 in subset else 0.0 for i in range(6)])
        assert np.allclose(gamma, expect, atol=1e-14)


def test_two_slater_superposition():
    basis = fermion_basis(6, 3)
    amps = np.zeros(basis.dim, dtype=complex)
    a, b = 0.3, 0.7
    amps[basis.index[(1, 2, 3)]] = math.sqrt(a)
    amps[basis.index[(4, 5, 6)]] = math.sqrt(b)
    gamma = one_rdm(FermionState(basis, amps)).entries
    assert np.allclose(np.diag(gamma), [a, a, a, b, b, b], atol=1e-12)
    assert np.max(np.abs(gamma - np.diag(np.diag(gamma)))) < 1e-12


# ---------------------------------------------------------------------------
# One-particle RDM against the embedding oracle

@pytest.mark.parametrize("r,n,seed", [(4, 2, 1), (5, 2, 2), (5, 3, 3), (6, 3, 4)])
def test_one_rdm_matches_embedding_oracle(r, n, seed):
    psi = haar_fermion(r, n, seed)
    gamma = one_rdm(psi).entries
    oracle = _one_rdm_oracle(psi)
    assert np.max(np.abs(gamma - oracle)) < 1e-12


def test_one_rdm_mixed_consistency():
    basis = fermion_basis(5, 2)
    psi = haar_fermion(5, 2, 9)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    gamma_pure = one_rdm(psi).entries
    gamma_mixed = one_rdm_mixed(rho, basis).entries
    assert np.max(np.abs(gamma_pure - gamma_mixed)) < 1e-12


# ---------------------------------------------------------------------------
# The index-array reductions against scipy CSR products

CSR_CASES = [(4, 2), (6, 3), (8, 4)]
# (4, 4) leaves every off-diagonal cell of gamma without a term; (3, 0) has
# no terms at all.
EMPTY_SEGMENT_CASES = [(4, 4), (3, 0)]


def _states(r, n):
    basis = fermion_basis(r, n)
    if basis.dim == 1:
        return [FermionState(basis, np.ones(1))]
    return [haar_fermion(r, n, 31, stream=t) for t in range(4)] + [
        slater(r, n, basis.subsets[-1])]


def _random_mixed(basis, seed, stream):
    """The mixed state the fermionic campaigns draw from (seed, stream)."""
    rng = rng_from_seed(seed, stream)
    vals = np.sort(rng.dirichlet(np.ones(basis.dim)))[::-1]
    u = unitaries_from_gaussian(complex_gaussian((basis.dim, basis.dim), rng)[None])
    return fixed_spectrum_stack(u, vals)[0]


@pytest.mark.parametrize("r,n", CSR_CASES + EMPTY_SEGMENT_CASES)
def test_one_rdm_matches_csr_product(r, n):
    for psi in _states(r, n):
        vec = np.outer(psi.amplitudes.conj(), psi.amplitudes).ravel()
        gamma = one_rdm(psi).entries
        assert np.max(np.abs(gamma - _csr_one_rdm(psi.basis, vec))) <= 1e-14


@pytest.mark.parametrize("r,n", CSR_CASES + EMPTY_SEGMENT_CASES)
def test_one_rdm_mixed_matches_csr_product(r, n):
    basis = fermion_basis(r, n)
    for stream in range(3):
        rho = _random_mixed(basis, 41, stream)
        gamma = one_rdm_mixed(rho, basis).entries
        assert np.max(np.abs(gamma - _csr_one_rdm(basis, rho.conj().ravel()))) <= 1e-14


# (5, 2): the second gather runs on the one-particle sector
@pytest.mark.parametrize("r,n", CSR_CASES + [(4, 4), (5, 2), (5, 4), (7, 3)])
def test_two_rdm_matches_csr_product(r, n):
    for psi in _states(r, n):
        assert np.max(np.abs(two_rdm(psi).matrix - _csr_two_rdm(psi))) <= 1e-14


def _csr_spectrum(gamma):
    return np.sort(np.linalg.eigvalsh(gamma))[::-1]


@pytest.mark.parametrize("r,n", CSR_CASES)
def test_sample_bundle_matches_csr_product(r, n):
    """sample_bundle's block reduction against the CSR product of the same
    samples, redrawn from their (seed, stream) pairs."""
    basis = fermion_basis(r, n)
    seed = 19
    for trial in range(3):
        pure = sample_bundle(parse_system(f"fermi:{r}:{n}:pure"), seed, trial).one_body
        amps = haar_fermion(r, n, seed, stream=trial).amplitudes
        vec = np.outer(amps.conj(), amps).ravel()
        oracle = _csr_spectrum(_csr_one_rdm(basis, vec))
        assert np.max(np.abs(np.array(pure.as_floats()) - oracle)) <= 1e-14

        mixed = sample_bundle(parse_system(f"fermi:{r}:{n}:mixed"), seed, trial).one_body
        rho = _random_mixed(basis, seed, trial)
        oracle = _csr_spectrum(_csr_one_rdm(basis, rho.conj().ravel()))
        assert np.max(np.abs(np.array(mixed.as_floats()) - oracle)) <= 1e-14


STACK_CASES = [(4, 2), (6, 3), (7, 3), (8, 3), (8, 4)]


@pytest.mark.parametrize("r,n", STACK_CASES)
def test_one_rdm_stack_matches_csr_product(r, n):
    """The block reduction of pure and mixed stacks, row by row against the
    CSR product."""
    basis = fermion_basis(r, n)
    amps = np.array([psi.amplitudes for psi in _states(r, n)])
    for a, gamma in zip(amps, one_rdm_stack(basis, amps)):
        vec = np.outer(a.conj(), a).ravel()
        assert np.max(np.abs(gamma - _csr_one_rdm(basis, vec))) <= 1e-14
    rho = np.array([_random_mixed(basis, 43, stream) for stream in range(3)])
    for m, gamma in zip(rho, one_rdm_stack(basis, rho)):
        assert np.max(np.abs(gamma - _csr_one_rdm(basis, m.conj().ravel()))) <= 1e-14


@pytest.mark.parametrize("system", [f"fermi:{r}:{n}:pure" for r, n in STACK_CASES]
                         + ["fermi:4:2:mixed", "fermi:6:3:mixed"])
def test_one_rdm_rows_do_not_depend_on_the_block(system):
    """Blocks of 1 and 32 trials and the budgeted block give bitwise the
    same rows, and so does the one-state reduction."""
    from qmarginal.harness import _block_trials
    from qmarginal.tensor import (
        PhiloxStreams,
        complex_gaussian_stack,
        haar_vectors,
        hilbert_schmidt_stack,
    )

    desc = parse_system(system)
    basis = fermion_basis(desc.r, desc.n)
    budgeted = _block_trials(desc, 10 ** 9)
    streams = PhiloxStreams(47, range(max(budgeted, 32) + 3))
    states = (haar_vectors(basis.dim, streams) if desc.pure else
              hilbert_schmidt_stack(complex_gaussian_stack((basis.dim,) * 2, streams)))
    rows = [np.concatenate([one_rdm_stack(basis, states[lo:lo + size])
                            for lo in range(0, len(states), size)])
            for size in (1, 32, budgeted)]
    assert all(np.array_equal(rows[0], other) for other in rows[1:])
    for t in (0, len(states) - 1):
        single = (one_rdm(FermionState(basis, states[t])) if desc.pure
                  else one_rdm_mixed(states[t], basis))
        assert np.array_equal(single.entries, rows[0][t])


def test_fermion_commands_never_import_scipy(tmp_path):
    """check, reduce on a fermion state, verify and isospec run without
    scipy; only the witness search needs it."""
    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "fermi:6:3",
        "amplitudes": [[float(a.real), float(a.imag)]
                       for a in haar_fermion(6, 3, 3).amplitudes],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    argvs = [
        ["check", "--family", "BD6", "--spectrum", "0.9,0.8,0.7,0.3,0.2,0.1"],
        ["reduce", "--state", str(path)],
        ["verify", "--family", "BD6", "--system", "fermi:6:3:pure",
         "--trials", "40", "--seed", "1"],
        ["isospec", "--formats", "2x2;2x3", "--trials", "5", "--seed", "1"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "import qmarginal\n"
        "from qmarginal.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_borland_dennis_structure():
    for seed in range(5):
        lam = spectrum_of(one_rdm(haar_fermion(6, 3, seed))).as_floats()
        for i in range(3):
            assert abs(lam[i] + lam[5 - i] - 1) < 1e-10
        assert lam[3] <= lam[4] + lam[5] + 1e-10


# ---------------------------------------------------------------------------
# Two-particle RDM

def test_two_rdm_slater_pair():
    rdm = two_rdm(slater(4, 2, (1, 2)))
    expect = np.zeros((6, 6))
    expect[0, 0] = 2.0
    assert np.allclose(rdm.matrix, expect, atol=1e-14)
    assert rdm.trace_convention == "n(n-1)"


def contract_two_rdm(rdm, r: int, n: int) -> np.ndarray:
    """Contract one particle index; returns (n-1) * gamma for a pure state."""
    pair_index = {p: k for k, p in enumerate(rdm.pairs)}
    out = np.zeros((r, r), dtype=complex)
    for i in range(1, r + 1):
        for k in range(1, r + 1):
            acc = 0.0 + 0.0j
            for j in range(1, r + 1):
                if j == i or j == k:
                    continue
                si = 1 if i < j else -1
                sk = 1 if k < j else -1
                p = pair_index[(min(i, j), max(i, j))]
                q = pair_index[(min(k, j), max(k, j))]
                acc += si * sk * rdm.matrix[p, q]
            out[i - 1, k - 1] = acc / 2.0
    return out


def test_two_rdm_trace_and_contraction():
    for (r, n, seed) in [(5, 2, 11), (6, 3, 12), (5, 3, 13)]:
        psi = haar_fermion(r, n, seed)
        rdm = two_rdm(psi)
        assert abs(np.trace(rdm.matrix).real - n * (n - 1)) < 1e-10
        contr = contract_two_rdm(rdm, r, n)
        gamma = one_rdm(psi).entries
        assert np.max(np.abs(contr - (n - 1) * gamma)) < 1e-10


def test_two_rdm_requires_two_particles():
    with pytest.raises(FermionError):
        two_rdm(haar_fermion(4, 1, 0))


def test_two_rdm_psd():
    psi = haar_fermion(6, 3, 21)
    eigs = np.linalg.eigvalsh(two_rdm(psi).matrix)
    assert eigs.min() > -1e-12


# ---------------------------------------------------------------------------
# Energy formula against the full-Hamiltonian oracle

def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def test_energy_two_particles_is_identity():
    rng = np.random.default_rng(0)
    r, n = 4, 2
    basis = fermion_basis(r, n)
    pairs = list(combinations(range(1, r + 1), 2))
    psi = haar_fermion(r, n, 100)
    h1 = _random_hermitian(rng, r)
    h12 = _random_hermitian(rng, len(pairs))
    full = _full_hamiltonian(basis, h1, h12, pairs)
    exact = np.vdot(psi.amplitudes, full @ psi.amplitudes).real
    assert abs(energy_from_two_rdm(h1, h12, psi) - exact) < 1e-10


def test_energy_one_body_only():
    rng = np.random.default_rng(1)
    r, n = 6, 3
    psi = haar_fermion(r, n, 101)
    h1 = _random_hermitian(rng, r)
    npairs = len(list(combinations(range(r), 2)))
    h12 = np.zeros((npairs, npairs))
    gamma = one_rdm(psi).entries
    expect = np.trace(h1 @ gamma).real
    assert abs(energy_from_two_rdm(h1, h12, psi) - expect) < 1e-10


def test_energy_full_oracle():
    rng = np.random.default_rng(2)
    r, n = 6, 3
    basis = fermion_basis(r, n)
    pairs = list(combinations(range(1, r + 1), 2))
    psi = haar_fermion(r, n, 102)
    h1 = _random_hermitian(rng, r)
    h12 = _random_hermitian(rng, len(pairs))
    full = _full_hamiltonian(basis, h1, h12, pairs)
    exact = np.vdot(psi.amplitudes, full @ psi.amplitudes).real
    assert abs(energy_from_two_rdm(h1, h12, psi) - exact) < 1e-10


# ---------------------------------------------------------------------------
# Sampling

def test_haar_fermion_determinism_and_norm():
    a = haar_fermion(6, 3, 7)
    b = haar_fermion(6, 3, 7)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1) < 1e-12
    with pytest.raises(FermionError):
        haar_fermion(3, 3, 0)


def test_pauli_bounds_sampled():
    for t in range(200):
        lam = spectrum_of(one_rdm(haar_fermion(6, 3, 777, stream=t))).as_floats()
        assert all(-1e-10 <= x <= 1 + 1e-10 for x in lam)
        assert abs(sum(lam) - 3) < 1e-10


@pytest.mark.parametrize("r", [4, 5, 6])
def test_two_particle_even_degeneracy(r):
    for t in range(200):
        lam = list(spectrum_of(one_rdm(haar_fermion(r, 2, 55, stream=t))).as_floats())
        if r % 2 == 1:
            tail = lam.pop()
            assert abs(tail) < 1e-8
        for i in range(0, len(lam), 2):
            assert abs(lam[i] - lam[i + 1]) < 1e-8
