"""Float64 checks of the printed spectral-constraint families, a block of
bundles at a time.

The families themselves, their exact ``Fraction`` records and where they
apply, are registered in ``records``, together with each family's
canonicalizer and the check of one bundle on Python floats
(``check_family``, ``check_chsh``; re-exported here).  ``check_block``
runs the same canonicalizers on (T, k) float64 arrays, through the numpy
row operations below: they re-sort and re-normalize the input as the family
declares, recording that they did, into the slots its records name.  It
then evaluates the float64 linear system compiled from the records on
first use, over the whole block at once.  Campaigns and equivalence runs
take this path.  Every family is linear in its canonical slots: the
absolute-value form of (8, 4) and the even-degeneracy criterion included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The families' exact data, canonicalizers and one-bundle checks live in
# the numpy-free records module; catalog re-exports them, so
# catalog.check_family is the same function.
from .records import (  # noqa: F401
    CANONICALIZERS,
    F84_ABS_PATTERNS,
    PAIR_TOL,
    CatalogError,
    CheckReport,
    InequalityRecord,
    RowOps,
    SpectraBlock,
    SpectraBundle,
    _canonicalize,
    _check_tolerance,
    _particle_number,
    check_chsh,
    check_family,
    get_family,
)
from .spectra import SpectrumError, sequential_sum

# Samples per block in equivalence runs, which hold r <= 8 floats a sample.
EQUIV_BLOCK = 256


# ---------------------------------------------------------------------------
# Row operations on a block: a slot is a (T, k) array, a column a (T,) one

def _renormalize(lam, traces, n):
    """Rescale the rows whose declared trace is not ``n`` to sum to ``n``,
    each summed left to right as one bundle's row is; returns the rows and
    which of them were rescaled."""
    off = np.abs(traces - n) > 1e-10
    if off.any():
        total = sequential_sum(lam[off].T)
        if np.any(total == 0.0):
            raise SpectrumError("cannot renormalize a zero-sum spectrum")
        lam = lam.copy()
        lam[off] = lam[off] * (float(n) / total)[:, None]
    return lam, off


def _block_particle_number(traces, family_id):
    """The particle number of every row; the first trace off an integer is
    refused as one bundle's trace is."""
    ns = np.rint(traces)
    n = _particle_number(float(traces[np.argmax(np.abs(traces - ns) > 1e-10)]), family_id)
    if np.any(ns != n):
        raise CatalogError(f"{family_id} needs one particle number per block")
    return n


_ARRAY_ROWS = RowOps(
    width=lambda x: x.shape[1],
    desc=lambda x: np.sort(x, axis=1)[:, ::-1],
    sort=lambda x: np.sort(x, axis=1),
    reverse=lambda x: x[:, ::-1],
    column=lambda x, j: x[:, j],
    stack=np.column_stack,
    row_min=lambda x: x.min(axis=1),
    row_max=lambda x: x.max(axis=1),
    renormalize=_renormalize,
    particle_number=_block_particle_number,
)


# ---------------------------------------------------------------------------
# Evaluation

def _combine(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x (T, k) times a (m, k) transposed, each product sum taken over k in
    order.  Every row of the result is then bitwise the same whatever else
    the block holds, which a BLAS product does not promise."""
    if a.shape[1] == 0:
        return np.zeros((len(x), len(a)))
    out = x[:, :1] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += x[:, j:j + 1] * a[:, j]
    return out


@dataclass(frozen=True)
class LinearSystem:
    """Inequality records compiled to float64 over a fixed slot layout.

    Row i reads A[i] . x <= b[i], or A[i] . x == b[i] where ``eq[i]``;
    ``slots`` gives each slot's name and column range in term order.
    """

    slots: tuple
    A: np.ndarray
    b: np.ndarray
    eq: np.ndarray
    labels: tuple

    def slacks(self, values: dict) -> np.ndarray:
        """(T, m) slacks b - A x, or -|A x - b| for equalities.

        As in ``InequalityRecord.lhs``, each slot's terms are summed in
        order and the slot sums are added in order.
        """
        lhs = None
        for name, lo, hi in self.slots:
            part = _combine(values[name], self.A[:, lo:hi])
            lhs = part if lhs is None else lhs + part
        if lhs is None:   # no records: one empty row per bundle
            lhs = np.zeros((len(next(iter(values.values()))), 0))
        return np.where(self.eq, -np.abs(lhs - self.b), self.b - lhs)


@lru_cache(maxsize=None)
def _linear_system(family_id: str, widths: tuple) -> LinearSystem:
    """The compiled form of a family's records; ``widths`` are the slot
    widths, which fix the records of the size-dependent families."""
    fam = get_family(family_id)
    records = fam.records if fam.generate is None else fam.generate(dict(widths))
    slots, col = [], 0
    for name, coeffs in records[0].terms if records else ():
        slots.append((name, col, col + len(coeffs)))
        col += len(coeffs)
    layout = [name for name, _, _ in slots]
    A = np.zeros((len(records), col))
    for i, rec in enumerate(records):
        if [name for name, _ in rec.terms] != layout:
            raise CatalogError(f"{family_id} records do not share one slot layout")
        A[i] = [float(c) for _, coeffs in rec.terms for c in coeffs]
    b = np.array([float(rec.bound) for rec in records])
    eq = np.array([rec.relation != "<=" for rec in records], dtype=bool)
    for arr in (A, b, eq):
        arr.setflags(write=False)
    labels = tuple(rec.label or f"#{i}" for i, rec in enumerate(records))
    return LinearSystem(tuple(slots), A, b, eq, labels)


@dataclass(frozen=True)
class BlockCheck:
    """One family's slacks on a block of T bundles, one row per bundle."""

    family_id: str
    slacks: np.ndarray
    labels: tuple
    tolerance: float
    notes: tuple = ()
    renormalized: np.ndarray = None
    target: object = None

    def worst(self) -> np.ndarray:
        """(T,) worst slack per bundle; 0 for a family without inequalities."""
        if not self.labels:
            return np.zeros(len(self.slacks))
        return self.slacks.min(axis=1)

    def satisfied(self) -> np.ndarray:
        return self.worst() >= -self.tolerance


def check_block(family_id: str, block: SpectraBlock,
                tolerance: float = 1e-10) -> BlockCheck:
    """Evaluate every inequality of a family on each bundle of a block."""
    canon = _canonicalize(family_id, block, _ARRAY_ROWS, tolerance)
    widths = tuple((name, x.shape[1]) for name, x in canon.values.items())
    system = _linear_system(family_id, widths)
    return BlockCheck(family_id, system.slacks(canon.values), system.labels,
                      canon.tolerance, canon.notes, canon.renormalized, canon.target)


@dataclass(frozen=True)
class EquivalenceReport:
    family_a: str
    family_b: str
    samples: int
    disagreements: int
    first_disagreement: tuple = None


def _dirichlet_proposals(rng, r, n):
    """k -> the next k rows of ``rng.dirichlet(np.ones(r)) * n``, bit for
    bit."""
    from .tensor import flat_dirichlet_rows

    def propose(k):
        return flat_dirichlet_rows(rng.standard_exponential((k, r))) * n
    return propose


def _perturbed_proposals(rng, r, n):
    """k -> the next k rows of ``|n/r + 0.3 z|``, z standard normal, each
    scaled by n over numpy's own sum of the row, which adds 8 or more
    entries pairwise."""
    def propose(k):
        vals = np.abs(n / r + 0.3 * rng.standard_normal((k, r)))
        return vals * (n / np.add.reduce(vals, axis=1))[:, None]
    return propose


class _AcceptedRows:
    """The proposals of one stream that lie in the Pauli box [0, 1]^r, in
    draw order.

    ``propose(k)`` returns the stream's next k proposals as a (k, r) array;
    a k-row draw equals k one-row draws, so the accepted rows do not depend
    on how the draws are chunked.  A chunk holds as many proposals as the
    acceptance rate so far says the wanted rows need, and at most
    ``PATIENCE``; rows accepted beyond the wanted ones wait for the next
    ``take``.  A row is refused after ``PATIENCE`` consecutive rejected
    proposals, as a one-try-at-a-time loop would refuse it.
    """

    PATIENCE = 10000

    def __init__(self, propose, r, n):
        self._propose = propose
        self._r, self._n = r, n
        self._ready = np.empty((0, r))
        self._tries = self._hits = 0
        self._misses = 0  # proposals rejected since the last accepted one

    def take(self, k: int) -> np.ndarray:
        """The next k accepted rows, as a (k, r) array."""
        while len(self._ready) < k:
            if self._misses >= self.PATIENCE:
                raise CatalogError(f"could not sample a valid occupation spectrum "
                                   f"for ({self._r}, {self._n})")
            want = k - len(self._ready)
            chunk = (want * (self._tries + 1) + self._hits) // (self._hits + 1)
            rows = self._propose(min(chunk, self.PATIENCE))
            hits = np.flatnonzero(rows.max(axis=1) <= 1.0)
            # rejections before each accepted row, the first run continuing
            # the previous chunk's
            gaps = np.diff(hits, prepend=-1 - self._misses) - 1
            refused = np.flatnonzero(gaps >= self.PATIENCE)
            if len(refused):
                hits = hits[:refused[0]]
                self._misses = self.PATIENCE
            elif len(hits):
                self._misses = len(rows) - 1 - int(hits[-1])
            else:
                self._misses += len(rows)
            self._ready = np.concatenate([self._ready, rows[hits]])
            self._tries += len(rows)
            self._hits += len(hits)
        out, self._ready = self._ready[:k], self._ready[k:]
        return out


class _ValidOccupations:
    """Trace-n vectors inside the Pauli box [0, 1]^r for equivalence runs,
    by rejection from two proposal streams of one seed: sample t is the next
    accepted Dirichlet(1, ..., 1) row times n of stream 0 if t is even, the
    next accepted ``|n/r + 0.3 z|`` rescaled to trace n of stream 1 if t is
    odd."""

    def __init__(self, seed: int, r: int, n: int):
        from .tensor import rng_from_seed

        self._r = r
        self._kinds = (
            _AcceptedRows(_dirichlet_proposals(rng_from_seed(seed, 0), r, n), r, n),
            _AcceptedRows(_perturbed_proposals(rng_from_seed(seed, 1), r, n), r, n),
        )

    def rows(self, trials: range) -> np.ndarray:
        """One row per trial of the consecutive ``trials``, in order."""
        out = np.empty((len(trials), self._r))
        for kind, stream in enumerate(self._kinds):
            first = (kind - trials.start) % 2
            out[first::2] = stream.take(len(range(first, len(trials), 2)))
        return out


def _check_count(name, value):
    """Refuse a negative trial or sample count; zero is valid."""
    if value < 0:
        raise CatalogError(f"{name} must be >= 0, got {value}")


def check_equivalence(family_a: str, family_b: str, samples: int, seed: int,
                      tolerance: float = 1e-10) -> EquivalenceReport:
    """Compare two families of the same system on random sorted, correctly
    normalized valid spectra (a mix of simplex-like and perturbed points,
    all inside the Pauli box).

    Even samples come from stream 0 of the seed and odd ones from stream 1
    (``_ValidOccupations``); they are checked in blocks of ``EQUIV_BLOCK``.
    A sample's values and slacks do not depend on its block, and the first
    disagreement is the first in sample order.  Both families must apply to
    pure fermi:r:n states, since only the one-body spectrum is sampled.
    """
    from .tensor import spectra_rows

    fa, fb = get_family(family_a), get_family(family_b)
    if any(fam.fixed is None or fam.fixed.kind != "fermion" for fam in (fa, fb)):
        raise CatalogError(
            f"{family_a} and {family_b}: equivalence sampling needs families "
            f"with a fixed fermionic system (r, n)"
        )
    r, n = fa.fixed.r, fa.fixed.n
    if (fb.fixed.r, fb.fixed.n) != (r, n):
        raise CatalogError(f"{family_a} and {family_b} apply to different systems")
    for fam in (fa, fb):
        if not fam.fixed.pure:
            raise CatalogError(
                f"{fam.family_id} applies to {fam.system} states, whose checks need "
                f"more than the one-body spectrum; equivalence sampling draws only "
                f"one-body spectra of pure fermi:{r}:{n} states"
            )
    _check_count("samples", samples)
    _check_tolerance(tolerance)
    sampler = _ValidOccupations(seed, r, n)
    disagreements = 0
    first = None
    for lo in range(0, samples, EQUIV_BLOCK):
        lam = spectra_rows(sampler.rows(range(lo, min(lo + EQUIV_BLOCK, samples))), float(n))
        block = SpectraBlock(one_body=lam, one_body_trace=np.full(len(lam), float(n)))
        differ = np.flatnonzero(check_block(family_a, block, tolerance).satisfied()
                                != check_block(family_b, block, tolerance).satisfied())
        disagreements += len(differ)
        if first is None and len(differ):
            first = tuple(float(v) for v in lam[differ[0]])
    return EquivalenceReport(family_a, family_b, samples, disagreements, first)
