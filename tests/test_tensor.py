"""Tensor core: marginals, spectra, Schmidt, purification, sampling."""

import math

import numpy as np
import pytest

from qmarginal.tensor import (
    DensityMatrix,
    PhiloxStreams,
    PureState,
    StateError,
    complex_gaussian,
    complex_gaussian_stack,
    flat_dirichlet_rows,
    gram_of_slices,
    haar_pure,
    haar_vectors,
    partial_trace,
    philox_keys,
    pure_marginal,
    purify,
    random_density,
    random_mixed_with_spectrum,
    rng_from_seed,
    schmidt,
    spectrum_of,
)
from qmarginal.spectra import spectrum

BELL = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))


def test_pure_state_validation():
    with pytest.raises(StateError):
        PureState(np.array([1.0, 0.0]), (2, 2))
    with pytest.raises(StateError):
        PureState(np.array([1.0, 1.0]), (2,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_states_reject_non_finite_entries(bad):
    with pytest.raises(StateError, match="not finite"):
        PureState(np.array([bad, 1.0]), (2,))
    with pytest.raises(StateError, match="not finite"):
        DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]), (2,))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectrum_of_refuses_non_finite_entries_without_a_warning(bad):
    """A NaN passes the Hermitian test, as a NaN comparison is false; the
    entries are checked first, and no subtraction runs on them."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="not finite"):
            spectrum_of(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_pure_and_fermion_states_share_one_unit_vector_rule():
    """A norm of 1 + 6e-13 is a squared norm of about 1 + 1.2e-12."""
    from qmarginal.fermion import FermionError, FermionState, fermion_basis

    amps = np.zeros(6, dtype=complex)
    amps[0] = 1 + 6e-13
    with pytest.raises(StateError, match="norm"):
        PureState(amps, (2, 3))
    with pytest.raises(FermionError, match="norm"):
        FermionState(fermion_basis(4, 2), amps)


def test_spectrum_of_reuses_the_constructor_eigenvalues(monkeypatch):
    rho = random_density((2, 3), rng_from_seed(3))
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    spec = spectrum_of(rho)
    assert calls == []
    assert spec == spectrum_of(rho.entries, trace_tag=1.0)
    assert calls == [1]


def test_partial_trace_bell():
    rho = partial_trace(BELL.density_matrix(), [0])
    assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    plus = np.array([1, 1]) / math.sqrt(2)
    psi = PureState(np.kron([1, 0], plus), (2, 2))
    rho = partial_trace(psi.density_matrix(), [0])
    assert np.allclose(rho.entries, np.diag([1, 0]), atol=1e-14)


def test_partial_trace_observable_compatibility():
    rng = rng_from_seed(3)
    rho = random_density((2, 3), rng)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = x + x.conj().T
    lhs = np.trace(partial_trace(rho, [0]).entries @ x)
    rhs = np.trace(rho.entries @ np.kron(x, np.eye(3)))
    assert abs(lhs - rhs) < 1e-12


def test_partial_trace_preserves_trace_and_positivity():
    rng = rng_from_seed(44)
    for trial in range(50):
        rho = random_density((2, 3, 2), rng)
        for keep in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
            red = partial_trace(rho, keep)  # constructor enforces PSD
            assert abs(np.trace(red.entries).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red.entries).min() > -1e-12


def test_partial_trace_rejects_bad_subsets():
    rho = BELL.density_matrix()
    with pytest.raises(StateError):
        partial_trace(rho, [])
    with pytest.raises(StateError):
        partial_trace(rho, [0, 1])
    with pytest.raises(StateError):
        partial_trace(rho, [5])


def test_isospectrality_random_3x4():
    psi = haar_pure((3, 4), 123)
    sa = spectrum_of(pure_marginal(psi, [0])).as_floats()
    sb = spectrum_of(pure_marginal(psi, [1])).as_floats()
    assert max(abs(a - b) for a, b in zip(sa, sb[:3])) < 1e-10
    assert all(abs(x) < 1e-10 for x in sb[3:])


def test_spectrum_trivial_cases():
    assert spectrum_of(np.eye(2) / 2).as_floats() == (0.5, 0.5)
    assert spectrum_of(np.diag([0.1, 0.7, 0.2])).as_floats() == (0.7, 0.2, 0.1)


def test_spectrum_rejects_non_hermitian():
    with pytest.raises(StateError):
        spectrum_of(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _char_poly_roots_by_bisection(h, tol=1e-12):
    """Independent eigenvalue oracle: sign changes of det(H - xI) + bisection."""
    n = h.shape[0]
    radius = max(
        abs(h[i, i].real) + sum(abs(h[i, j]) for j in range(n) if j != i)
        for i in range(n)
    )
    lo, hi = -radius - 1, radius + 1
    grid = np.linspace(lo, hi, 20001)
    dets = [np.linalg.det(h - x * np.eye(n)).real for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], dets, dets[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            x0, x1 = a, b
            f0 = fa
            while x1 - x0 > tol:
                mid = (x0 + x1) / 2
                fm = np.linalg.det(h - mid * np.eye(n)).real
                if f0 * fm <= 0:
                    x1 = mid
                else:
                    x0, f0 = mid, fm
            roots.append((x0 + x1) / 2)
    return sorted(roots, reverse=True)


def test_spectrum_matches_char_poly_bisection_oracle():
    rng = rng_from_seed(17)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + h.conj().T) / 2
    roots = _char_poly_roots_by_bisection(h)
    got = spectrum_of(h).as_floats()
    assert len(roots) == 5
    assert max(abs(a - b) for a, b in zip(got, roots)) < 1e-8


def test_schmidt_rank_one():
    psi = PureState(np.array([1, 0, 0, 0]), (2, 2))
    coeffs, _, _ = schmidt(psi)
    assert abs(coeffs[0] - 1) < 1e-14 and abs(coeffs[1]) < 1e-14


def test_schmidt_bell():
    coeffs, _, _ = schmidt(BELL)
    assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-14)


def test_schmidt_reconstruction_and_marginal():
    psi = haar_pure((3, 5), 55)
    coeffs, left, right = schmidt(psi)
    rebuilt = np.zeros((3, 5), dtype=complex)
    for k in range(3):
        rebuilt += coeffs[k] * np.outer(left[:, k], right[:, k])
    assert np.max(np.abs(rebuilt.reshape(-1) - psi.amplitudes)) < 1e-10
    # orthonormal bases
    assert np.allclose(left.conj().T @ left, np.eye(3), atol=1e-10)
    assert np.allclose(right.conj().T @ right, np.eye(3), atol=1e-10)
    # squared coefficients = marginal spectrum
    sa = spectrum_of(pure_marginal(psi, [0])).as_floats()
    assert max(abs(c * c - s) for c, s in zip(coeffs, sa)) < 1e-10


def test_schmidt_rejects_non_bipartite():
    with pytest.raises(StateError):
        schmidt(haar_pure((2, 2, 2), 1))


def test_purify_diagonal():
    psi = purify(DensityMatrix(np.diag([1.0, 0.0]), (2,)))
    assert psi.dims[1] == 1


def test_purify_maximally_mixed():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    psi = purify(rho)
    back = pure_marginal(psi, [0])
    assert np.allclose(back.entries, rho.entries, atol=1e-14)


def test_purify_round_trip_random():
    rng = rng_from_seed(8)
    rho = random_density((4,), rng)
    psi = purify(rho)
    back = pure_marginal(psi, [0])
    assert np.max(np.abs(back.entries - rho.entries)) < 1e-12


def test_purify_rejects_non_psd():
    bad = np.diag([1.5, -0.5])
    with pytest.raises(StateError):
        purify(DensityMatrix(bad, (2,)))


def test_gram_single_entry():
    arr = np.zeros((2, 3, 4), dtype=complex)
    arr[1, 2, 3] = 1.0
    for axis in (1, 2, 3):
        g = gram_of_slices(arr, axis)
        assert abs(np.trace(g) - 1) < 1e-14
        assert np.linalg.matrix_rank(g) == 1


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_gram_refuses_an_empty_axis(axis):
    with pytest.raises(StateError, match="positive"):
        gram_of_slices(np.zeros((2, 0, 3)), axis)


def test_gram_ghz():
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = arr[1, 1, 1] = 1 / math.sqrt(2)
    g = gram_of_slices(arr, 1)
    assert np.allclose(g, np.eye(2) / 2, atol=1e-14)


def test_gram_matches_partial_trace_oracle():
    rng = rng_from_seed(21)
    arr = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    arr /= np.linalg.norm(arr)
    psi = PureState(arr.reshape(-1), (2, 3, 4))
    traces = []
    for axis in (1, 2, 3):
        g = gram_of_slices(arr, axis)
        rho = partial_trace(psi.density_matrix(), [axis - 1])
        assert np.max(np.abs(g - rho.entries)) < 1e-12
        traces.append(np.trace(g).real)
    assert max(abs(t - traces[0]) for t in traces) < 1e-12


def test_haar_determinism():
    a = haar_pure((3, 3), 999)
    b = haar_pure((3, 3), 999)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = haar_pure((3, 3), 1000)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


@pytest.mark.parametrize("size", [8, 16, 20, 27, 35, 56, 70])
def test_haar_vectors_match_the_per_row_norm_bitwise(size):
    """The batched norm divides each row by bitwise the value
    ``np.linalg.norm`` gives that row alone."""
    streams = PhiloxStreams(20260809, range(3000))
    z = complex_gaussian_stack((size,), streams)
    expected = np.array([vec / np.linalg.norm(vec) for vec in z])
    assert np.array_equal(haar_vectors(size, streams), expected)


def test_random_mixed_spectrum_exact():
    nu = spectrum((0.4, 0.3, 0.2, 0.1))
    rho = random_mixed_with_spectrum(nu, (2, 2), 5)
    got = spectrum_of(rho).as_floats()
    assert max(abs(a - b) for a, b in zip(got, nu.as_floats())) < 1e-12
    rank1 = random_mixed_with_spectrum(spectrum((1, 0, 0, 0)), (2, 2), 6)
    eigs = spectrum_of(rank1).as_floats()
    assert abs(eigs[0] - 1) < 1e-12 and max(abs(x) for x in eigs[1:]) < 1e-12


def test_random_mixed_rejects_bad_spectrum():
    with pytest.raises(StateError):
        random_mixed_with_spectrum(spectrum((0.5, 0.5)), (2, 2), 1)


def test_haar_moment_oracle():
    # mean of |psi><psi| over Haar samples approaches I/d within 3 std errors
    d = 4
    trials = 10000
    acc = np.zeros((d, d), dtype=complex)
    for t in range(trials):
        psi = haar_pure((2, 2), 31415, stream=t).amplitudes
        acc += np.outer(psi, psi.conj())
    acc /= trials
    # entry variance of a Haar projector is O(1/d^2) per trial
    stderr = 3.0 / math.sqrt(trials)
    assert np.max(np.abs(acc - np.eye(d) / d)) < stderr


# The seeds and streams of the key oracle: word boundaries on both sides.
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 20260809]
KEY_STREAMS = list(range(1000)) + [2**32 - 1, 2**32, 2**40]


def _seed_sequence_rng(seed, stream):
    """The reference generator of (seed, stream): Philox from SeedSequence."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def _seed_sequence_key(seed, stream):
    return _seed_sequence_rng(seed, stream).bit_generator.state["state"]["key"]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_philox_keys_match_seed_sequence(seed):
    keys = philox_keys(seed, KEY_STREAMS)
    assert keys.dtype == np.uint64 and keys.shape == (len(KEY_STREAMS), 2)
    assert np.array_equal(keys, [_seed_sequence_key(seed, s) for s in KEY_STREAMS])


def test_philox_keys_of_unsorted_mixed_width_streams():
    """Streams of one, two and three words in one call, and no streams."""
    seed, streams = 2**100 + 7, [2**40, 0, 2**70 + 1, 5, 2**32]
    assert np.array_equal(philox_keys(seed, streams),
                          [_seed_sequence_key(seed, s) for s in streams])
    assert philox_keys(seed, []).shape == (0, 2)


@pytest.mark.parametrize("seed,streams", [(-1, [0]), (-2**64, [0]), (3, [-1]),
                                          (3, [0, 2**40, -2**40])])
def test_philox_keys_refuse_negative_inputs(seed, streams):
    with pytest.raises(ValueError, match="non-negative"):
        philox_keys(seed, streams)


def test_rng_from_seed_draws_what_seed_sequence_draws():
    for seed, stream in [(0, 0), (7, 3), (2**64, 2**32), (20260809, 999)]:
        got, want = rng_from_seed(seed, stream), _seed_sequence_rng(seed, stream)
        key = got.bit_generator.state["state"]["key"]
        assert np.array_equal(key, philox_keys(seed, [stream])[0])
        assert np.array_equal(key, _seed_sequence_key(seed, stream))
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
        assert np.array_equal(got.dirichlet(np.ones(5)), want.dirichlet(np.ones(5)))
    with pytest.raises(ValueError, match="non-negative"):
        rng_from_seed(-1)


def test_philox_streams_start_every_stream_afresh():
    """PhiloxStreams draws each stream from its start, whatever the previous
    stream left behind (a part-used Philox block and a buffered 32-bit half
    word), and again on a second pass."""
    streams = PhiloxStreams(11, range(8, 25))
    assert len(streams) == 17
    for _ in range(2):
        for i, rng in enumerate(streams):
            want = _seed_sequence_rng(11, 8 + i)
            assert np.array_equal(rng.standard_normal(i), want.standard_normal(i))
            assert np.array_equal(rng.integers(0, 7, size=3, dtype=np.int32),
                                  want.integers(0, 7, size=3, dtype=np.int32))
    with pytest.raises(ValueError, match="non-negative"):
        PhiloxStreams(7, [3, -1])


def test_flat_dirichlet_is_numpys_dirichlet_of_ones():
    """One 200-row block of exponentials is 200 successive draws of
    ``rng.dirichlet(np.ones(k))``, bit for bit, and uses the same words."""
    for k in range(1, 21):
        got, want = rng_from_seed(k, 1), rng_from_seed(k, 1)
        block = flat_dirichlet_rows(got.standard_exponential((200, k)))
        assert np.array_equal(block, [want.dirichlet(np.ones(k)) for _ in range(200)])
        assert got.standard_normal() == want.standard_normal()


def test_complex_gaussian_draws_real_then_imaginary_parts():
    want = _seed_sequence_rng(5, 2)
    re, im = want.standard_normal((3, 4)), want.standard_normal((3, 4))
    assert np.array_equal(complex_gaussian((3, 4), rng_from_seed(5, 2)), re + 1j * im)
