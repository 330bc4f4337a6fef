"""Float64 checks of the printed spectral-constraint families, a block of
bundles at a time.

The families themselves, their exact ``Fraction`` records and where they
apply, are registered in ``records``, which also checks one bundle on
Python floats (``check_family``, ``check_chsh``; re-exported here).  Each
family carries its own ordering and normalization convention;
``check_block`` canonicalizes the input (re-sorting and re-normalizing as
declared, recording that it did) into the slots its records name, then
evaluates the float64 linear system compiled from the records on first use,
over a block of bundles at once.  Campaigns and equivalence runs take this
path.  Every family is linear in its canonical slots: the absolute-value
form of (8, 4) and the even-degeneracy criterion included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# The families' exact data and the one-bundle checks live in the numpy-free
# records module; catalog re-exports them, so catalog.check_family is the
# same function.
from .records import (  # noqa: F401
    F84_ABS_PATTERNS,
    PAIR_TOL,
    CatalogError,
    CheckReport,
    InequalityRecord,
    SpectraBundle,
    _check_tolerance,
    check_chsh,
    check_family,
    get_family,
)
from .spectra import SpectrumError


# ---------------------------------------------------------------------------
# Blocks of bundles
#
# A check canonicalizes the bundle's slot arrays as the family declares
# (sorting, renormalizing, gap sorting, minimum entries, absolute values of
# sign-pattern sums, a pairing defect) and then evaluates every inequality
# at once, as a float64 system compiled from the family's records.
# Campaigns and equivalence runs pass blocks of trials; ``check_family``
# takes the same steps, in the same order, on one bundle of Python floats.

# Samples per block in equivalence runs, which hold r <= 8 floats a sample.
EQUIV_BLOCK = 256


@dataclass(frozen=True)
class SpectraBlock:
    """T spectra bundles stacked slot by slot, one row per bundle.

    ``sites`` holds one (T, d) array per site, ``joint`` a (T, D) array and
    ``one_body`` a (T, r) array with ``one_body_trace`` its (T,) declared
    traces.  Rows may be in any order; each family canonicalizes them.
    """

    sites: tuple = ()
    joint: np.ndarray = None
    one_body: np.ndarray = None
    one_body_trace: np.ndarray = None


@dataclass(frozen=True)
class _Canonical:
    """Canonical slot arrays of a block; ``renormalized`` marks the rows
    whose one-body spectrum was rescaled to trace ``target``.  A family
    whose slots carry their own tolerance fixes the check's ``tolerance``."""

    values: dict
    notes: tuple = ()
    renormalized: np.ndarray = None
    target: object = None
    tolerance: float = None


def _desc(rows: np.ndarray) -> np.ndarray:
    return np.sort(rows, axis=1)[:, ::-1]


def _sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as Python's ``sum`` adds a tuple."""
    total = np.zeros(len(rows))
    for j in range(rows.shape[1]):
        total = total + rows[:, j]
    return total


def _need_sites(block, fam):
    dims = fam.fixed.dims
    if len(block.sites) != len(dims):
        raise CatalogError(f"{fam.family_id} needs {len(dims)} site spectra")
    for s, size in zip(block.sites, dims):
        if s.shape[1] != size:
            raise CatalogError(f"{fam.family_id} needs site spectra of length {size}")
    return [_desc(s) for s in block.sites]


def _need_joint(block, size, family_id):
    if block.joint is None or block.joint.shape[1] != size:
        raise CatalogError(f"{family_id} needs a joint spectrum of length {size}")
    return _desc(block.joint)


def _one_body(block, family_id, r=None):
    lam = block.one_body
    if lam is None or (r is not None and lam.shape[1] != r):
        length = "" if r is None else f" of length {r}"
        raise CatalogError(f"{family_id} needs a one-body spectrum{length}")
    return _desc(lam)


def _renormalize(block, lam, n):
    """Rescale the rows whose declared trace is not ``n`` to sum to ``n``,
    as ``spectra.renormalize`` does."""
    off = np.abs(block.one_body_trace - n) > 1e-10
    if off.any():
        total = _sequential_sum(lam[off])
        if np.any(total == 0.0):
            raise SpectrumError("cannot renormalize a zero-sum spectrum")
        lam = lam.copy()
        lam[off] = lam[off] * (float(n) / total)[:, None]
    return lam, off


def _fermi_slots(fam, block):
    r, n = fam.fixed.r, fam.fixed.n
    lam, off = _renormalize(block, _one_body(block, fam.family_id, r), n)
    return _Canonical({"lam": lam}, renormalized=off, target=n)


def _f84_abs_slots(fam, block):
    canon = _fermi_slots(fam, block)
    x = _combine(canon.values["lam"], np.array(F84_ABS_PATTERNS, dtype=float))
    return replace(canon, values={"abs": np.abs(x)})


def _polygon_slots(fam, block):
    if len(block.sites) < 2:
        raise CatalogError("POLYGON needs at least two site spectra")
    if any(s.shape[1] != 2 for s in block.sites):
        raise CatalogError("POLYGON applies to qubit marginals")
    return _Canonical({"mins": np.column_stack([s.min(axis=1) for s in block.sites])})


def _bravyi_slots(fam, block):
    sites = _need_sites(block, fam)
    joint = _need_joint(block, fam.fixed.dim, fam.family_id)
    return _Canonical({"mins": np.column_stack([sites[0][:, 1], sites[1][:, 1]]),
                       "joint": joint})


def _franz_slots(fam, block):
    sites = _need_sites(block, fam)
    return _Canonical({f"site{i}": s[:, ::-1] for i, s in enumerate(sites)},
                      notes=("sites sorted increasing",))


def _basic_slots(fam, block):
    if len(block.sites) != 2:
        raise CatalogError("BASIC needs two site spectra")
    a, b = _desc(block.sites[0]), _desc(block.sites[1])
    joint = _need_joint(block, a.shape[1] * b.shape[1], fam.family_id)
    return _Canonical({"a": a, "b": b, "joint": joint})


def _three_qubit_slots(fam, block):
    sites = _need_sites(block, fam)
    joint = _need_joint(block, fam.fixed.dim, fam.family_id)
    gaps = np.sort(np.column_stack([s[:, 0] - s[:, 1] for s in sites]), axis=1)
    return _Canonical({"delta": gaps, "joint": joint},
                      notes=("gaps sorted increasing",))


def _pauli_slots(fam, block):
    # The occupation-box criterion applies to the spectrum as given; the
    # chemist normalization (trace n) is the caller's contract.
    return _Canonical({"lam": _one_body(block, fam.family_id)})


def _pairing_defect_slots(fam, block):
    lam = _one_body(block, fam.family_id)
    # The system is taken from the bundle: r entries, n the trace, which
    # must be an integer (so nothing is renormalized).
    traces = block.one_body_trace
    ns = np.rint(traces)
    off = np.abs(traces - ns) > 1e-10
    if off.any():
        raise CatalogError(
            f"{fam.family_id} needs an integer particle number, got trace "
            f"{float(traces[np.argmax(off)])!r}"
        )
    r, n = lam.shape[1], int(ns[0])
    if np.any(ns != n):
        raise CatalogError(f"{fam.family_id} needs one particle number per block")
    if n not in (2, r - 2):
        raise CatalogError(
            f"even-degeneracy criterion applies to two particles or two "
            f"holes, not (r={r}, n={n})"
        )
    parts = [np.zeros((len(lam), 1))]
    if r % 2 == 1:
        if n == 2:
            parts.append(np.abs(lam[:, -1:]))       # the odd eigenvalue must be 0
            lam = lam[:, :-1]
        else:
            parts.append(np.abs(lam[:, :1] - 1))    # holes: the odd eigenvalue is 1
            lam = lam[:, 1:]
    parts.append(np.abs(lam[:, 0::2] - lam[:, 1::2]))
    # the defect is compared with PAIR_TOL itself, so no tolerance is added
    return _Canonical({"defect": np.hstack(parts).max(axis=1, keepdims=True)},
                      notes=(f"pairing tolerance {PAIR_TOL}",), tolerance=0.0)


def _w2h4_slots(fam, block):
    lam, off = _renormalize(block, _one_body(block, fam.family_id, fam.fixed.r), 1)
    nu = _need_joint(block, fam.fixed.dim, fam.family_id)
    return _Canonical({"lam": lam, "nu": nu}, renormalized=off, target=1)


def _chsh_slots(fam, block):
    raise CatalogError("use check_chsh for correlation data")


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


# ---------------------------------------------------------------------------
# Each family's canonicalizer: a block to the canonical slot arrays its
# records read.  A family without an inequality list (W2H5_META) has none.

CANONICALIZERS = {
    "POLYGON": _polygon_slots,
    "BRAVYI_2Q": _bravyi_slots,
    "FRANZ_3QUTRIT": _franz_slots,
    "BASIC": _basic_slots,
    "THREE_QUBIT_MIXED": _three_qubit_slots,
    "PAULI": _pauli_slots,
    "TWO_PARTICLE_PURE": _pairing_defect_slots,
    "BD6": _fermi_slots,
    "F7_BD": _fermi_slots,
    "F7_LIST": _fermi_slots,
    "F8_31": _fermi_slots,
    "F84_14": _fermi_slots,
    "F84_ABS": _f84_abs_slots,
    "W2H4_MIXED": _w2h4_slots,
    "CHSH_16": _chsh_slots,
}


def check_block(family_id: str, block: SpectraBlock,
                tolerance: float = 1e-10) -> BlockCheck:
    """Evaluate every inequality of a family on each bundle of a block."""
    _check_tolerance(tolerance)
    fam = get_family(family_id)
    fam.require_list()
    canon = CANONICALIZERS[family_id](fam, block)
    widths = tuple((name, x.shape[1]) for name, x in canon.values.items())
    system = _linear_system(family_id, widths)
    if canon.tolerance is not None:
        tolerance = canon.tolerance
    return BlockCheck(family_id, system.slacks(canon.values), system.labels, tolerance,
                      canon.notes, canon.renormalized, canon.target)


@dataclass(frozen=True)
class EquivalenceReport:
    family_a: str
    family_b: str
    samples: int
    disagreements: int
    first_disagreement: tuple = None


def _dirichlet_proposals(rng, r, n):
    """k -> the next k rows of ``rng.dirichlet(np.ones(r)) * n``, bit for
    bit: numpy draws gamma(1) variates as standard exponentials, adds each
    row left to right and scales it by the inverse of its sum."""
    def propose(k):
        xs = rng.standard_exponential((k, r))
        return xs * (1.0 / np.add.accumulate(xs, axis=1)[:, -1:]) * n
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
