"""Fermionic Fock-space layer for n particles in r orbitals.

Occupation-number basis of the antisymmetric space, Slater determinants,
one- and two-particle reduced density matrices with second-quantized sign
bookkeeping, the pair-Hamiltonian energy formula, and seeded sampling.

Basis order is lexicographic on sorted orbital subsets of {1..r}.  The
one-particle RDM uses the chemists' normalization Tr = n.  The two-particle
RDM is normalized to trace n(n-1); the binomial factor of the energy
formula is applied inside ``energy_from_two_rdm``.

The RDMs are products of annihilated states, gathered through one cached
index map of the basis, ``FermionBasis.annihilation_map``: gamma[i, j] =
<a_j psi | a_i psi>.  ``one_rdm_stack`` is the one 1-RDM reduction, for
pure or mixed states, one or a block; ``two_rdm`` applies the same gather
twice, to a_j a_i psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .tensor import DensityMatrix, _require_unit, haar_vectors, rng_from_seed


class FermionError(ValueError):
    """Raised for invalid fermionic systems, subsets or states."""


@lru_cache(maxsize=None)
def fermion_basis(r: int, n: int) -> "FermionBasis":
    return FermionBasis(r, n)


class FermionBasis:
    """Bijection between basis indices and sorted n-subsets of {1..r}."""

    def __init__(self, r: int, n: int):
        if not 0 <= n <= r or r <= 0:
            raise FermionError(f"invalid fermionic system r={r}, n={n}")
        self.r = r
        self.n = n
        self.subsets = tuple(combinations(range(1, r + 1), n))
        self.index = {s: i for i, s in enumerate(self.subsets)}
        self.dim = len(self.subsets)
        self._ann_map = None

    def __repr__(self):
        return f"FermionBasis(r={self.r}, n={self.n}, dim={self.dim})"

    def annihilation_map(self) -> tuple:
        """Read-only arrays (idx, sign), each of shape (r, dim of the
        (n-1)-sector): (a_i psi)[k] = sign[i-1, k] * psi_pad[idx[i-1, k]],
        where psi_pad is psi with one zero appended, and idx = dim points at
        it where orbital i is already in the k-th (n-1)-subset (sign 0).
        Cached."""
        if self._ann_map is not None:
            return self._ann_map
        subsets = fermion_basis(self.r, self.n - 1).subsets if self.n else ()
        idx = np.full((self.r, len(subsets)), self.dim, dtype=np.intp)
        sign = np.zeros(idx.shape)
        for k, t in enumerate(subsets):
            for i in range(1, self.r + 1):
                if i not in t:
                    pos = sum(1 for x in t if x < i)
                    idx[i - 1, k] = self.index[tuple(sorted(t + (i,)))]
                    sign[i - 1, k] = -1.0 if pos % 2 else 1.0
        idx.setflags(write=False)
        sign.setflags(write=False)
        self._ann_map = (idx, sign)
        return self._ann_map


@dataclass(frozen=True)
class FermionState:
    """Unit-norm amplitude vector on the n-particle sector."""

    basis: FermionBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.basis.dim:
            raise FermionError(
                f"amplitude count {amps.size} does not match basis dim {self.basis.dim}"
            )
        _require_unit(amps, FermionError)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def slater(r: int, n: int, subset) -> FermionState:
    """Slater determinant on the given orbital subset of {1..r}."""
    basis = fermion_basis(r, n)
    key = tuple(sorted(int(x) for x in subset))
    if len(key) != n or len(set(key)) != n:
        raise FermionError(f"subset {subset} is not an n-subset for n={n}")
    if key not in basis.index:
        raise FermionError(f"subset {subset} has orbitals outside 1..{r}")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index[key]] = 1.0
    return FermionState(basis, amps)


def _annihilated(basis: FermionBasis, states: np.ndarray) -> np.ndarray:
    """(T, r, D') stack Phi[t, i] = a_i psi_t of a (T, dim) stack of
    amplitude vectors, by one gather through ``annihilation_map``."""
    idx, sign = basis.annihilation_map()
    pad = np.zeros((len(states), basis.dim + 1), dtype=complex)
    pad[:, :-1] = states
    phi = pad[:, idx]
    phi *= sign
    return phi


def one_rdm_stack(basis: FermionBasis, states: np.ndarray) -> np.ndarray:
    """(T, r, r) Hermitian one-particle RDMs of a (T, dim) stack of
    amplitude vectors or a (T, dim, dim) stack of density matrices.

    With Phi[t, i] = a_i psi_t, gamma_t = Phi_t Phi_t^H for a pure state;
    a mixed one sums sign[i, k] sign[j, k] rho[idx[i, k], idx[j, k]] over
    the (n-1)-sector index k.  Each trial is reduced alone, so its RDM is
    bitwise the same whatever T is.
    """
    if states.ndim == 2:
        phi = _annihilated(basis, states)
        gamma = phi @ phi.conj().swapaxes(-1, -2)
    else:
        idx, sign = (m.T for m in basis.annihilation_map())
        pad = np.zeros((len(states), basis.dim + 1, basis.dim + 1), dtype=complex)
        pad[:, :-1, :-1] = states
        terms = pad[:, idx[:, :, None], idx[:, None, :]]
        terms *= sign[:, :, None] * sign[:, None, :]
        # added one k at a time: a reduction over an axis may change its
        # order with T, an elementwise add does not
        gamma = sum(terms.swapaxes(0, 1), np.zeros((len(states), basis.r, basis.r), complex))
    return (gamma + gamma.conj().swapaxes(-1, -2)) / 2


def one_rdm(psi: FermionState) -> DensityMatrix:
    """One-particle RDM gamma[i, j] = <psi| a_j^dag a_i |psi>, trace n."""
    basis = psi.basis
    return DensityMatrix(one_rdm_stack(basis, psi.amplitudes[None])[0], (basis.r,),
                         trace=float(basis.n))


def one_rdm_mixed(rho: np.ndarray, basis: FermionBasis) -> DensityMatrix:
    """One-particle RDM of a mixed state on the n-particle sector."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (basis.dim, basis.dim):
        raise FermionError(f"expected {basis.dim}x{basis.dim} matrix")
    tr = float(np.trace(mat).real)
    return DensityMatrix(one_rdm_stack(basis, mat[None])[0], (basis.r,),
                         trace=basis.n * tr)


@dataclass(frozen=True)
class TwoRDM:
    """Two-particle RDM on the C(r,2)-dimensional ordered-pair space.

    ``matrix[(ij), (kl)]`` corresponds to <a_k^dag a_l^dag a_j a_i>, scaled
    so the trace is n(n-1) (``trace_convention``).
    """

    matrix: np.ndarray
    pairs: tuple
    trace_convention: str = "n(n-1)"


def two_rdm(psi: FermionState) -> TwoRDM:
    """Two-particle RDM of a pure state, trace n(n-1): the Gram matrix of
    the states a_{p2} a_{p1} psi over orbital pairs p1 < p2, built by two
    gathers through ``annihilation_map`` (the n- then the (n-1)-sector's)."""
    basis = psi.basis
    if basis.n < 2:
        raise FermionError("two-particle RDM needs n >= 2")
    pairs = tuple(combinations(range(1, basis.r + 1), 2))
    # twice[i, j] = a_j a_i psi; the upper triangle lists the pairs i < j in
    # ``combinations`` order, so column p of w is a_{p2} a_{p1} psi
    once = _annihilated(basis, psi.amplitudes[None])[0]
    twice = _annihilated(fermion_basis(basis.r, basis.n - 1), once)
    w = twice[np.triu_indices(basis.r, 1)].T
    g = (w.conj().T @ w).conj()
    g = (g + g.conj().T) / 2
    return TwoRDM(2.0 * g, pairs)


def contract_two_rdm(rdm: TwoRDM, r: int, n: int) -> np.ndarray:
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


def embed_one_body_in_pairs(h1: np.ndarray, pairs) -> np.ndarray:
    """Differential action of a one-body operator on the antisymmetric pair
    space: X(e_k ^ e_l) = (X e_k) ^ e_l + e_k ^ (X e_l).
    """
    h = np.asarray(h1, dtype=complex)
    m = len(pairs)
    out = np.zeros((m, m), dtype=complex)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            val = 0.0 + 0.0j
            if j == l:
                val += h[i - 1, k - 1]
            if i == k:
                val += h[j - 1, l - 1]
            if i == l:
                val -= h[j - 1, k - 1]
            if j == k:
                val -= h[i - 1, l - 1]
            out[a, b] = val
    return out


def energy_from_two_rdm(h1: np.ndarray, h12: np.ndarray, psi: FermionState) -> float:
    """Energy <psi| sum_i h(i) + sum_{i<j} h12(i,j) |psi> from the 2-RDM.

    Equals binom(n, 2) * Tr(H2 rho2hat) for the reduced pair Hamiltonian
    H2 = (H_1 + H_2)/(n-1) + H_12 and the trace-1 normalized 2-RDM.
    """
    basis = psi.basis
    n = basis.n
    if n < 2:
        raise FermionError("energy reduction needs n >= 2")
    rdm = two_rdm(psi)
    npairs = len(rdm.pairs)
    h1 = np.asarray(h1, dtype=complex)
    if h1.shape != (basis.r, basis.r):
        raise FermionError(f"one-body term must be {basis.r}x{basis.r}")
    h12 = np.asarray(h12, dtype=complex)
    if h12.shape != (npairs, npairs):
        raise FermionError(f"pair term must be {npairs}x{npairs}")
    h2 = embed_one_body_in_pairs(h1, rdm.pairs) / (n - 1) + h12
    # two_rdm is scaled to trace n(n-1); the natural pair matrix is half that.
    return float(np.trace(h2 @ rdm.matrix).real) / 2.0


def haar_fermion(r: int, n: int, seed: int, stream: int = 0) -> FermionState:
    """Haar-random state on the n-particle sector, deterministic per seed."""
    if not 0 < n < r:
        raise FermionError(f"need 0 < n < r, got r={r}, n={n}")
    basis = fermion_basis(r, n)
    return FermionState(basis, haar_vectors(basis.dim, [rng_from_seed(seed, stream)])[0])
