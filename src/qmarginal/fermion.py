"""Fermionic Fock-space layer for n particles in r orbitals.

Occupation-number basis of the antisymmetric space, Slater determinants,
one- and two-particle reduced density matrices with second-quantized sign
bookkeeping, the pair-Hamiltonian energy formula, and seeded sampling.

Basis order is lexicographic on sorted orbital subsets of {1..r}.  The
one-particle RDM uses the chemists' normalization Tr = n.  The two-particle
RDM is normalized to trace n(n-1); the binomial factor of the energy
formula is applied inside ``energy_from_two_rdm``.

The RDMs are numpy index arithmetic over cached term arrays of the basis;
``one_rdm_block`` is the one 1-RDM reduction, for one state or a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .tensor import DensityMatrix, haar_vectors, rng_from_seed


class FermionError(ValueError):
    """Raised for invalid fermionic systems, subsets or states."""


@lru_cache(maxsize=None)
def fermion_basis(r: int, n: int) -> "FermionBasis":
    return FermionBasis(r, n)


class OneBodyTerms(NamedTuple):
    """Index arrays of the one-particle RDM, sorted by output cell then src:
    gamma.flat[cells[k]] sums sign * conj(rho[dst, src]) over the terms
    starts[k]:starts[k + 1].  Cells without terms are absent."""

    dst: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    cells: np.ndarray
    starts: np.ndarray


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
        self._one_map = None
        self._pair_map = None

    def __repr__(self):
        return f"FermionBasis(r={self.r}, n={self.n}, dim={self.dim})"

    def one_rdm_map(self) -> OneBodyTerms:
        """Read-only index arrays of gamma[i, j] = <a_j^dag a_i>; cached."""
        if self._one_map is not None:
            return self._one_map
        r = self.r
        terms = []
        for src, s in enumerate(self.subsets):
            for pos_i, i in enumerate(s):
                rest = s[:pos_i] + s[pos_i + 1:]
                sign_i = -1 if pos_i % 2 else 1
                for j in range(1, r + 1):
                    if j in rest:
                        continue
                    pos_j = sum(1 for x in rest if x < j)
                    sign = sign_i * (-1 if pos_j % 2 else 1)
                    dst = self.index[tuple(sorted(rest + (j,)))]
                    terms.append(((i - 1) * r + (j - 1), src, dst, sign))
        cell, src, dst, sign = np.array(sorted(terms), dtype=np.intp).reshape(-1, 4).T
        self._one_map = OneBodyTerms(dst, src, sign, *np.unique(cell, return_index=True))
        for arr in self._one_map:
            arr.setflags(write=False)
        return self._one_map

    def pair_annihilation_map(self) -> tuple:
        """Read-only index arrays (rows, src, sign) of psi -> W.flat, where
        column p of W is a_{p2} a_{p1} psi for the p-th orbital pair
        (p1 < p2), rows indexed by the (n-2)-sector: W.flat[rows] =
        sign * psi[src], and W is zero elsewhere.  Cached."""
        if self._pair_map is not None:
            return self._pair_map
        if self.n < 2:
            raise FermionError("pair annihilation needs n >= 2")
        pairs = tuple(combinations(range(1, self.r + 1), 2))
        sub = fermion_basis(self.r, self.n - 2)
        rows, cols, vals = [], [], []
        for src, s in enumerate(self.subsets):
            for (pa, pb) in combinations(s, 2):
                pos_a = s.index(pa)
                rest = s[:pos_a] + s[pos_a + 1:]
                sign = -1 if pos_a % 2 else 1
                pos_b = rest.index(pb)
                if pos_b % 2:
                    sign = -sign
                rest2 = rest[:pos_b] + rest[pos_b + 1:]
                p_idx = pairs.index((pa, pb))
                dst = sub.index[rest2]
                rows.append(dst * len(pairs) + p_idx)
                cols.append(src)
                vals.append(sign)
        self._pair_map = tuple(np.array(v, dtype=np.intp) for v in (rows, cols, vals))
        for arr in self._pair_map:
            arr.setflags(write=False)
        return self._pair_map


@dataclass(frozen=True)
class FermionState:
    """Unit-norm amplitude vector on the n-particle sector."""

    basis: FermionBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.basis.dim:
            raise FermionError(
                f"amplitude count {amps.size} does not match basis dim {self.basis.dim}"
            )
        finite = np.isfinite(amps)
        if not finite.all():
            raise FermionError(f"amplitude {amps[~finite][0]} is not finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise FermionError(f"state norm {norm}, expected 1")
        amps = amps.copy()
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


def one_rdm_block(basis: FermionBasis, entries: np.ndarray) -> np.ndarray:
    """(T, r, r) Hermitian one-particle RDMs from the (T, K) values
    conj(rho[dst, src]) of T states at the K terms of
    ``basis.one_rdm_map()``.  ``entries`` is overwritten: it is scaled by
    the signs in place, which is exact since each sign is +1 or -1.

    Each cell is one ``np.add.reduceat`` segment, so a state's RDM is summed
    in the same order whatever T is.
    """
    terms = basis.one_rdm_map()
    r = basis.r
    gamma = np.zeros((len(entries), r * r), dtype=complex)
    if len(terms.sign):
        entries *= terms.sign
        gamma[:, terms.cells] = np.add.reduceat(entries, terms.starts, axis=1)
    gamma = gamma.reshape(-1, r, r)
    return (gamma + gamma.conj().swapaxes(-1, -2)) / 2


def pure_one_rdm_entries(basis: FermionBasis, amps: np.ndarray) -> np.ndarray:
    """The ``one_rdm_block`` entries of a (T, dim) stack of amplitude
    vectors, formed per term, never as (T, dim, dim) outer products."""
    terms = basis.one_rdm_map()
    entries = amps[:, terms.dst]
    np.conjugate(entries, out=entries)
    entries *= amps[:, terms.src]
    return entries


def one_rdm(psi: FermionState) -> DensityMatrix:
    """One-particle RDM gamma[i, j] = <psi| a_j^dag a_i |psi>, trace n."""
    basis = psi.basis
    entries = pure_one_rdm_entries(basis, psi.amplitudes[None])
    return DensityMatrix(one_rdm_block(basis, entries)[0], (basis.r,),
                         trace=float(basis.n))


def one_rdm_mixed(rho: np.ndarray, basis: FermionBasis) -> DensityMatrix:
    """One-particle RDM of a mixed state on the n-particle sector."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (basis.dim, basis.dim):
        raise FermionError(f"expected {basis.dim}x{basis.dim} matrix")
    terms = basis.one_rdm_map()
    gamma = one_rdm_block(basis, mat[None, terms.dst, terms.src].conj())[0]
    tr = float(np.trace(mat).real)
    return DensityMatrix(gamma, (basis.r,), trace=basis.n * tr)


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
    """Two-particle RDM of a pure state, trace n(n-1)."""
    basis = psi.basis
    if basis.n < 2:
        raise FermionError("two-particle RDM needs n >= 2")
    pairs = tuple(combinations(range(1, basis.r + 1), 2))
    rows, src, sign = basis.pair_annihilation_map()
    w = np.zeros((fermion_basis(basis.r, basis.n - 2).dim, len(pairs)), dtype=complex)
    w.flat[rows] = sign * psi.amplitudes[src]
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
