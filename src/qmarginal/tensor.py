"""Dense complex linear algebra for multipartite states.

Marginals, spectra, Schmidt decomposition, purification, Gram matrices of
tensor slices, and seeded Haar sampling.  Index flattening is row-major
throughout: the first factor is the slowest index.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass

import numpy as np

from .spectra import SUM_TOL, Spectrum, SpectrumError

HERM_TOL = 1e-10
PSD_CLAMP = 1e-12


class StateError(ValueError):
    """Raised for states that violate their structural invariants."""


@dataclass(frozen=True)
class PureState:
    """Unit-norm amplitude vector over a tensor product of factors."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in dims):
            raise StateError(f"factor dimensions must be positive: {dims}")
        if math.prod(dims) != amps.size:
            raise StateError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        _require_unit(amps)
        amps = amps.reshape(-1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def density_matrix(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(rho, self.dims, trace=1.0)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix over a tensor product of factors.

    ``trace`` is the declared normalization (1 for states, n for the
    chemists' one-particle density matrix).
    """

    entries: np.ndarray
    dims: tuple
    trace: float = 1.0

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        size = math.prod(dims)
        if mat.shape != (size, size):
            raise StateError(f"matrix shape {mat.shape} does not match dims {dims}")
        mat = mat.copy()
        eigs = _checked_eigenvalues(mat[None], self.trace)[0]
        mat.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dims", dims)
        # Kept so that spectrum_of does not solve the same matrix twice.
        object.__setattr__(self, "_eigenvalues", eigs)


def _require_finite(values: np.ndarray, what: str, error=StateError):
    finite = np.isfinite(values)
    if not finite.all():
        bad = values[~finite].flat[0]
        raise error(f"{what} {bad} is not finite")


def _require_unit(amps: np.ndarray, error=StateError):
    """Every pure state's rule: finite amplitudes, squared norm 1 within 1e-12."""
    _require_finite(amps, "amplitude", error)
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise error(f"state norm^2 = {norm2}, expected 1")


def _checked_eigenvalues(mats: np.ndarray, trace) -> np.ndarray:
    """Ascending eigenvalues of a (T, d, d) stack of density matrices.

    Each matrix gets the checks of ``DensityMatrix``: finite entries,
    Hermitian residual at most HERM_TOL, no eigenvalue below -PSD_CLAMP
    (from the same eigensolve) and trace within HERM_TOL of ``trace``, a
    scalar or one value per matrix.  The comparisons are written so that a
    NaN fails them.
    """
    _require_finite(mats, "density matrix entry")
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(1, 2), initial=0.0)
    if not np.all(herm <= HERM_TOL):
        raise StateError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(mats)
    low = eigs[:, 0] if eigs.shape[1] else np.zeros(len(eigs))
    if not np.all(low >= -PSD_CLAMP):
        raise StateError(f"density matrix has negative eigenvalue {low.min()}")
    traces = np.trace(mats, axis1=1, axis2=2).real
    declared = np.broadcast_to(np.asarray(trace, dtype=float), traces.shape)
    off = ~(np.abs(traces - declared) <= HERM_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise StateError(f"trace {traces[i]} does not match declared {declared[i]}")
    return eigs


def spectra_rows(values: np.ndarray, trace) -> np.ndarray:
    """Rows of ``values`` sorted nonincreasing, each checked as ``Spectrum``
    checks its entries: finite, and summing to ``trace`` (a scalar or one
    value per row) within SUM_TOL."""
    rows = np.sort(values, axis=1)[:, ::-1]
    _require_finite(rows, "spectrum value", SpectrumError)
    sums = rows.sum(axis=1)
    declared = np.broadcast_to(np.asarray(trace, dtype=float), sums.shape)
    off = ~(np.abs(sums - declared) <= SUM_TOL)
    if off.any():
        i = int(np.argmax(off))
        raise SpectrumError(
            f"spectrum sum {sums[i]} does not match trace tag {declared[i]}"
        )
    return rows


def spectra_of_stack(mats: np.ndarray, trace) -> np.ndarray:
    """Nonincreasing eigenvalues of a (T, d, d) stack of density matrices,
    one row per matrix, with every check that ``DensityMatrix`` and
    ``spectrum_of`` make: one eigensolve per matrix, batched."""
    eigs = _clamp_negative_zero(_checked_eigenvalues(mats, trace)[:, ::-1])
    return spectra_rows(eigs, trace)


def _clamp_negative_zero(eigs: np.ndarray) -> np.ndarray:
    return np.where((eigs > -PSD_CLAMP) & (eigs < 0.0), 0.0, eigs)


def _split_factors(nf: int, keep) -> tuple:
    keep = sorted(set(int(k) for k in keep))
    if not keep or len(keep) >= nf:
        raise StateError(f"keep must be a nonempty proper subset, got {keep}")
    if keep[0] < 0 or keep[-1] >= nf:
        raise StateError(f"factor index out of range in {keep}")
    return keep, [i for i in range(nf) if i not in keep]


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    ``keep`` is a nonempty proper subset of factor indices (0-based).  The
    result satisfies Tr(rho_keep X) = Tr(rho (X tensor 1)) for observables X
    on the kept factors, and inherits the trace normalization.
    """
    keep, _ = _split_factors(len(rho.dims), keep)
    kept_dims = tuple(rho.dims[i] for i in keep)
    mat = partial_trace_stack(rho.entries[None], rho.dims, keep)[0]
    return DensityMatrix(mat, kept_dims, trace=rho.trace)


def partial_trace_stack(mats: np.ndarray, dims, keep) -> np.ndarray:
    """``partial_trace`` of each matrix of a (T, D, D) stack over ``dims``;
    unchecked, (T, K, K)."""
    dims = tuple(dims)
    keep, drop = _split_factors(len(dims), keep)
    tensor = mats.reshape((len(mats),) + dims + dims)
    # Contract dropped row indices against dropped column indices; axis 0
    # is the stack.
    for offset, i in enumerate(drop):
        axis = 1 + i - offset
        ncur = (tensor.ndim - 1) // 2
        tensor = np.trace(tensor, axis1=axis, axis2=axis + ncur)
    size = math.prod(dims[i] for i in keep)
    return tensor.reshape(len(mats), size, size)


def pure_marginal(psi: PureState, keep) -> DensityMatrix:
    """Marginal of a pure state without forming the full density matrix."""
    keep, _ = _split_factors(len(psi.dims), keep)
    rho = pure_marginal_stack(psi.amplitudes[None], psi.dims, keep)[0]
    return DensityMatrix(rho, tuple(psi.dims[i] for i in keep), trace=1.0)


def pure_marginal_stack(amps: np.ndarray, dims, keep) -> np.ndarray:
    """``pure_marginal`` of each row of a (T, D) stack of unit vectors over
    ``dims``; unchecked, (T, K, K)."""
    dims = tuple(dims)
    keep, drop = _split_factors(len(dims), keep)
    tensor = amps.reshape((len(amps),) + dims)
    kept_size = math.prod(dims[i] for i in keep)
    perm = [0] + [1 + i for i in keep + drop]
    mat = tensor.transpose(perm).reshape(len(amps), kept_size, -1)
    return mat @ mat.conj().swapaxes(-1, -2)


def spectrum_of(hermitian, trace_tag=None, tol: float = HERM_TOL) -> Spectrum:
    """Nonincreasing eigenvalues of a Hermitian matrix as a Spectrum.

    Eigenvalues in (-PSD_CLAMP, 0) are clamped to zero before validation.
    A ``DensityMatrix`` reuses the eigenvalues its constructor computed.
    """
    eigs = None
    if isinstance(hermitian, DensityMatrix):
        if trace_tag is None:
            trace_tag = hermitian.trace
        eigs = hermitian._eigenvalues
        hermitian = hermitian.entries
    mat = np.asarray(hermitian, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StateError(f"expected square matrix, got shape {mat.shape}")
    _require_finite(mat, "matrix entry")
    if np.max(np.abs(mat - mat.conj().T)) > tol:
        raise StateError("matrix is not Hermitian")
    if eigs is None:
        eigs = np.linalg.eigvalsh(mat)
    eigs = _clamp_negative_zero(eigs[::-1])
    if trace_tag is None:
        trace_tag = float(np.trace(mat).real)
    return Spectrum(tuple(float(e) for e in eigs), float(trace_tag))


def _canonical_phase(vectors: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Fix each column's phase so its first significant entry is real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.argmax(np.abs(col) > tol)
        pivot = col[idx]
        if abs(pivot) > tol:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def schmidt(psi: PureState):
    """Schmidt decomposition of a bipartite pure state.

    Returns (coefficients, left_basis, right_basis) with nonincreasing
    nonnegative coefficients whose squares sum to 1; the bases are
    orthonormal columns and sum_i c_i (left_i tensor right_i) reconstructs
    the state.
    """
    if psi.nfactors != 2:
        raise StateError(f"Schmidt decomposition needs two factors, got {psi.nfactors}")
    da, db = psi.dims
    mat = psi.amplitudes.reshape(da, db)
    u, s, vh = np.linalg.svd(mat)
    k = min(da, db)
    left = _canonical_phase(u[:, :k])
    # Keep the reconstruction exact under the phase change of the left basis.
    phases = np.array(
        [np.vdot(left[:, i], u[:, i]) for i in range(k)], dtype=complex
    )
    right = vh[:k, :].T * phases
    return s[:k].copy(), left, right


def purify(rho: DensityMatrix) -> PureState:
    """Two-factor pure state whose first marginal is ``rho``.

    The second factor has dimension rank(rho).
    """
    if abs(rho.trace - 1.0) > HERM_TOL:
        raise StateError("purification requires a trace-1 state")
    eigs, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(eigs)[::-1]
    eigs, vecs = eigs[order], vecs[:, order]
    rank = int(np.sum(eigs > PSD_CLAMP))
    rank = max(rank, 1)
    d = rho.entries.shape[0]
    amps = np.zeros((d, rank), dtype=complex)
    for i in range(rank):
        amps[:, i] = math.sqrt(max(float(eigs[i]), 0.0)) * vecs[:, i]
    amps /= np.linalg.norm(amps)
    return PureState(amps.reshape(-1), (d, rank))


def gram_of_slices(array, axis: int) -> np.ndarray:
    """Gram matrix of parallel slices of a three-index array.

    Entry (s, t) is the Hermitian inner product of slices s and t taken
    along ``axis`` (1-based, in {1, 2, 3}).  For a unit-norm array this is
    the corresponding one-factor marginal of the flattened pure state.
    """
    arr = np.asarray(array, dtype=complex)
    if arr.ndim != 3:
        raise StateError(f"expected a three-index array, got ndim={arr.ndim}")
    if axis not in (1, 2, 3):
        raise StateError(f"axis must be 1, 2 or 3, got {axis}")
    if 0 in arr.shape:
        raise StateError(f"axis lengths must be positive: {arr.shape}")
    return pure_marginal_stack(arr.reshape(1, -1), arr.shape, [axis - 1])[0]


# numpy's SeedSequence pool hash (NEP 19 keeps it stable): pool size, the
# hashmix and generate_state constants, and the mix multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int, what: str) -> list:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence
    splits its entropy; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_steps(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hash steps: the constant c
    and c * mult mod 2^32, which is the next step's constant."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _step_columns(steps, count: int):
    """The next ``count`` pairs of ``steps`` as two (count, 1) uint32 columns."""
    pairs = np.array([next(steps) for _ in range(count)], dtype=np.uint32)
    return pairs[:, :1], pairs[:, 1:]


def _hash(values, xor, mult):
    """SeedSequence's hashmix and output step, mod 2^32: v ^ xor, times mult,
    xor its high half.  Works on Python ints and on uint32 arrays."""
    values = (values ^ xor) * mult & _MASK32
    return values ^ values >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word, mod 2^32."""
    values = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return values ^ values >> 16


def _seed_pool(seed: int):
    """The SeedSequence pool after the seed's words, and the hash constant
    of the next word: the part of ``philox_keys`` that all streams share."""
    entropy = _uint32_words(seed, "seed")
    entropy += [0] * (_POOL_SIZE - len(entropy))
    # The hash constant advances once per hashed word, whatever its value.
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(steps)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(steps)))
    return pool, next(steps)[0]


def _stream_keys(pool, const: int, streams) -> np.ndarray:
    """(T, 2) uint64 keys of ``streams`` from a seed's ``_seed_pool``."""
    rest = np.array(streams, dtype=object).reshape(-1)
    if (rest < 0).any():
        raise ValueError(f"stream must be a non-negative integer, got {rest[rest < 0][0]}")
    steps = _hash_steps(const, _MULT_A)
    # One step of the (4, T) pool per stream word position; a stream whose
    # words have run out keeps its pool.
    pool = np.array(pool, dtype=np.uint32)[:, None].repeat(len(rest), axis=1)
    live = np.ones(len(rest), dtype=bool)
    while live.any():
        word = (rest & _MASK32).astype(np.uint32)
        pool = np.where(live, _mix(pool, _hash(word, *_step_columns(steps, _POOL_SIZE))),
                        pool)
        rest = rest >> 32
        live = rest != 0
    words = _hash(pool, *_step_columns(_hash_steps(_INIT_B, _MULT_B), _POOL_SIZE))
    words = words.astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


def philox_keys(seed: int, streams) -> np.ndarray:
    """(T, 2) uint64 Philox keys of the streams of one seed.

    Row i is the key that ``np.random.Philox`` takes from
    ``np.random.SeedSequence(entropy=seed, spawn_key=(streams[i],))``: the
    seed's 32-bit words, zero-padded to the pool size, then the stream's
    words are hashed into a 4-word pool, which ``generate_state(2, uint64)``
    expands.  The seed-only part is hashed once; each stream word position
    is mixed in for all streams at once.  Seeds and streams of any size are
    accepted; a negative one is a ``ValueError``.
    """
    return _stream_keys(*_seed_pool(seed), streams)


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by a seed of any size.

    ``stream`` selects an independent substream; identical (seed, stream)
    pairs reproduce identical output on any platform.  One stream keys its
    Philox from ``SeedSequence(entropy=seed, spawn_key=(stream,))`` directly:
    numpy's C hash, the key ``philox_keys`` derives for many streams at once.
    """
    ss = np.random.SeedSequence(entropy=operator.index(seed),
                                spawn_key=(operator.index(stream),))
    return np.random.Generator(np.random.Philox(ss))


class PhiloxStreams:
    """Generators of the streams of one seed, keyed a window at a time.

    The seed's part of the key hash (``philox_keys``) is done once.  The
    keys of a window of ``KEY_WINDOW`` consecutive streams are derived in one
    pass when the first of them is drawn, so memory stays bounded however
    many streams there are.  One Philox bit generator is then set to the
    start of each stream in turn, so it draws exactly what
    ``rng_from_seed(seed, stream)`` draws.  Iterating yields that one
    Generator once per stream: make a stream's draws before taking the next.
    ``streams`` is a sequence (a range or a list); a negative stream is a
    ``ValueError`` when its window is keyed.  A slice is the streams of a
    sub-range, sharing the generator and the keyed window.
    """

    # 16 KB of keys; a 750-trial campaign chunk is keyed in one pass.
    KEY_WINDOW = 1024

    def __init__(self, seed: int, streams):
        self._pool = _seed_pool(seed)
        self._streams = streams
        self._lo, self._hi = 0, len(streams)
        # (first stream index, keys) of the keyed window, shared by slices.
        self._window = [None, None]
        bitgen = np.random.Philox(key=0)
        # The state at the start of a stream; only the key is replaced.
        self._start = bitgen.state
        self._rng = np.random.Generator(bitgen)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index: slice) -> "PhiloxStreams":
        sub = range(self._lo, self._hi)[index]
        if sub.step != 1:
            raise ValueError("PhiloxStreams slices must be contiguous")
        part = copy.copy(self)
        part._lo, part._hi = sub.start, sub.start + len(sub)
        return part

    def _keys(self, first: int) -> np.ndarray:
        """The keys of the window of streams that starts at index ``first``."""
        if self._window[0] != first:
            self._window[:] = first, _stream_keys(
                *self._pool, self._streams[first:first + self.KEY_WINDOW])
        return self._window[1]

    def __iter__(self):
        bitgen = self._rng.bit_generator
        for first in range(self._lo - self._lo % self.KEY_WINDOW, self._hi, self.KEY_WINDOW):
            for key in self._keys(first)[max(self._lo - first, 0):self._hi - first]:
                self._start["state"]["key"] = key
                bitgen.state = self._start
                yield self._rng


def complex_gaussian_stack(shape: tuple, rngs) -> np.ndarray:
    """(T, *shape) i.i.d. standard complex Gaussians, row i drawn from the
    i-th generator of ``rngs`` by one ``standard_normal`` call: the real
    parts first, then the imaginary parts.  Every Haar sampler here draws
    through it."""
    pairs = np.empty((len(rngs), 2, *shape))
    for pair, rng in zip(pairs, rngs):
        rng.standard_normal(out=pair)
    return pairs[:, 0] + 1j * pairs[:, 1]


def complex_gaussian(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. standard complex Gaussians from one generator."""
    return complex_gaussian_stack(shape, [rng])[0]


def flat_dirichlet(rng: np.random.Generator, k: int):
    """A Dirichlet(1, ..., 1) draw of length k as its k exponential variates
    and the inverse of their sum: the point ``[x * inv for x in xs]`` is bit
    for bit ``rng.dirichlet(np.ones(k))``, from the same generator words.

    numpy draws gamma(1) variates as standard exponentials, sums them left
    to right and scales them by 1 / sum; one ``standard_exponential`` call
    skips ``dirichlet``'s argument checks, most of its cost on short vectors.
    The sum is a plain loop: ``sum`` compensates its rounding from Python
    3.12 on.
    """
    xs = rng.standard_exponential(k).tolist()
    acc = 0.0
    for x in xs:
        acc += x
    return xs, 1.0 / acc


def haar_vectors(size: int, rngs) -> np.ndarray:
    """(T, size) Haar-random unit vectors, row i drawn from the i-th
    generator of ``rngs``: normalized i.i.d. standard complex Gaussians.
    Each norm is ``np.linalg.norm``'s re.re + im.im, batched: bitwise per row."""
    out = complex_gaussian_stack((size,), rngs)
    re, im = out.real[:, None, :], out.imag[:, None, :]
    out /= np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, :, 0])
    return out


def haar_pure(dims, seed: int, stream: int = 0) -> PureState:
    """Haar-random pure state: normalized i.i.d. standard complex Gaussians."""
    dims = tuple(int(d) for d in dims)
    return PureState(haar_vectors(math.prod(dims), [rng_from_seed(seed, stream)])[0], dims)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    return unitaries_from_gaussian(complex_gaussian((dim, dim), rng)[None])[0]


def unitaries_from_gaussian(z: np.ndarray) -> np.ndarray:
    """QR with phase correction of each matrix of a (T, d, d) stack of
    complex Gaussians: Haar unitaries, as ``haar_unitary`` makes them."""
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def fixed_spectrum_values(nu: Spectrum, size: int, dims) -> np.ndarray:
    """The spectrum of ``random_mixed_with_spectrum`` as floats, checked."""
    vals = np.array(nu.as_floats())
    if len(vals) != size:
        raise StateError(f"spectrum length {len(vals)} does not match dims {dims}")
    if vals.min() < -1e-12 or abs(vals.sum() - 1.0) > 1e-10:
        raise StateError("spectrum must be nonnegative with unit sum")
    return vals


def fixed_spectrum_stack(u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """u diag(vals) u^dag, symmetrized, for a (T, d, d) stack of unitaries;
    ``vals`` is one spectrum or one per unitary.  Negative entries are
    clamped to zero.  Unchecked."""
    vals = np.broadcast_to(np.clip(vals, 0.0, None), u.shape[:2])
    rho = (u * vals[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def random_mixed_with_spectrum(nu: Spectrum, dims, seed: int, stream: int = 0) -> DensityMatrix:
    """Density matrix with exactly the given spectrum, Haar-random basis."""
    dims = tuple(int(d) for d in dims)
    vals = fixed_spectrum_values(nu, math.prod(dims), dims)
    u = haar_unitary(len(vals), rng_from_seed(seed, stream))
    return DensityMatrix(fixed_spectrum_stack(u[None], vals)[0], dims, trace=1.0)


def random_density(dims, rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random density matrix (GG*/Tr normalization)."""
    dims = tuple(int(d) for d in dims)
    size = math.prod(dims)
    g = complex_gaussian((size, size), rng)
    return DensityMatrix(hilbert_schmidt_stack(g[None])[0], dims, trace=1.0)


def hilbert_schmidt_stack(g: np.ndarray) -> np.ndarray:
    """G G^dag / Tr for each matrix of a (T, d, d) stack; unchecked."""
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho
