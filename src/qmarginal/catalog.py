"""Float64 checks of the printed spectral-constraint families.

The families themselves, their exact ``Fraction`` records and where they
apply, are registered in ``records``.  Each family carries its own ordering
and normalization convention; ``check_block`` canonicalizes the input
(re-sorting and re-normalizing as declared, recording that it did) into the
slots its records name, then evaluates the float64 linear system compiled
from the records on first use, over a block of bundles at once.  Every
family takes this one path: the absolute-value form of (8, 4) and the
even-degeneracy criterion are linear in their canonical slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# The families' exact data lives in the numpy-free records module; catalog
# re-exports InequalityRecord and CatalogError, so catalog.InequalityRecord
# is the same class.
from .records import (  # noqa: F401
    F84_ABS_PATTERNS,
    PAIR_TOL,
    CatalogError,
    InequalityRecord,
    get_family,
)
from .spectra import Spectrum, SpectrumError


@dataclass(frozen=True)
class SpectraBundle:
    """Marginal data handed to a family check.

    ``sites`` are per-subsystem spectra, ``joint`` the global state
    spectrum, ``one_body`` the fermionic one-particle spectrum.
    """

    sites: tuple = ()
    joint: Spectrum = None
    one_body: Spectrum = None


@dataclass(frozen=True)
class CheckReport:
    family_id: str
    satisfied: bool
    worst_slack: float
    violated: tuple
    n_inequalities: int
    tolerance: float
    notes: tuple = ()


# ---------------------------------------------------------------------------
# Blocks of bundles
#
# A check canonicalizes the bundle's slot arrays as the family declares
# (sorting, renormalizing, gap sorting, minimum entries, absolute values of
# sign-pattern sums, a pairing defect) and then evaluates every inequality
# at once, as a float64 system compiled from the family's records.
# Campaigns pass blocks of trials through the same code; ``check_family``
# passes a block of one.

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


def _rows(spec: Spectrum):
    if spec is None:
        return None
    return np.array(spec.as_floats(), dtype=float).reshape(1, len(spec))


def _block_of_one(bundle: SpectraBundle) -> SpectraBlock:
    lam = bundle.one_body
    return SpectraBlock(
        sites=tuple(_rows(s) for s in bundle.sites),
        joint=_rows(bundle.joint),
        one_body=_rows(lam),
        one_body_trace=None if lam is None else np.array([float(lam.trace_tag)]),
    )


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

    def report(self, row: int) -> CheckReport:
        slacks = self.slacks[row]
        worst = float(self.worst()[row])
        notes = self.notes
        if self.renormalized is not None and self.renormalized[row]:
            notes = (f"renormalized one-body spectrum to trace {self.target}",) + notes
        return CheckReport(
            family_id=self.family_id,
            satisfied=worst >= -self.tolerance,
            worst_slack=worst,
            violated=tuple(lbl for s, lbl in zip(slacks, self.labels)
                           if s < -self.tolerance),
            n_inequalities=len(self.labels),
            tolerance=self.tolerance,
            notes=notes,
        )


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
    fam = get_family(family_id)
    fam.require_list()
    canon = CANONICALIZERS[family_id](fam, block)
    widths = tuple((name, x.shape[1]) for name, x in canon.values.items())
    system = _linear_system(family_id, widths)
    if canon.tolerance is not None:
        tolerance = canon.tolerance
    return BlockCheck(family_id, system.slacks(canon.values), system.labels, tolerance,
                      canon.notes, canon.renormalized, canon.target)


def check_family(family_id: str, bundle: SpectraBundle, tolerance: float = 1e-10) -> CheckReport:
    """Evaluate every inequality of a family on a spectra bundle.

    Input spectra are canonicalized per the family's declared conventions
    (re-sorted, re-normalized); equalities are checked two-sided.  The
    bundle runs as a block of one through ``check_block``.
    """
    return check_block(family_id, _block_of_one(bundle), tolerance).report(0)


def check_chsh(correlations, tolerance: float = 1e-10) -> CheckReport:
    """Evaluate all sixteen correlation inequalities.

    ``correlations`` is (c11, c12, c21, c22) with entries in [-1, 1], where
    c_ij is the expectation of the product of the i-th A-site and j-th
    B-site measurements.
    """
    corr = tuple(float(c) for c in correlations)
    if len(corr) != 4:
        raise CatalogError("expected four correlation values")
    for c in corr:
        if abs(c) > 1 + 1e-12:
            raise CatalogError(f"correlation {c} outside [-1, 1]")
    system = _linear_system("CHSH_16", (("corr", 4),))
    slacks = system.slacks({"corr": np.array([corr])})
    return BlockCheck("CHSH_16", slacks, system.labels, tolerance).report(0)


@dataclass(frozen=True)
class EquivalenceReport:
    family_a: str
    family_b: str
    samples: int
    disagreements: int
    first_disagreement: tuple = None


def _valid_occupations(rng, r, n, trials) -> list:
    """One trace-n vector inside the Pauli box [0, 1]^r per trial, by
    rejection: Dirichlet(1, ..., 1) times n on even trials, |n/r + 0.3 z|
    rescaled to trace n on odd ones.

    A try is one draw call and scalar arithmetic, with the values and
    generator words of ``rng.dirichlet(np.ones(r)) * n`` and of
    ``np.abs(n / r + 0.3 * rng.standard_normal(r))`` scaled by
    ``n / vals.sum()``.  Rounding a product by a positive scale is monotone,
    so a try is accepted on its largest entry alone, and its row is built
    only then.
    """
    from .tensor import flat_dirichlet

    base = n / r
    rows = []
    for trial in trials:
        for _ in range(10000):
            if trial % 2:
                vals = [abs(base + 0.3 * z) for z in rng.standard_normal(r).tolist()]
                # numpy's own sum: it adds 8 or more entries pairwise
                scale = n / float(np.add.reduce(vals))
                if max(vals) * scale <= 1.0:
                    rows.append([v * scale for v in vals])
                    break
            else:
                xs, inv = flat_dirichlet(rng, r)
                if max(xs) * inv * n <= 1.0:
                    rows.append([x * inv * n for x in xs])
                    break
        else:
            raise CatalogError(f"could not sample a valid occupation spectrum for ({r}, {n})")
    return rows


def _check_count(name, value):
    """Refuse a negative trial or sample count; zero is valid."""
    if value < 0:
        raise CatalogError(f"{name} must be >= 0, got {value}")


def check_equivalence(family_a: str, family_b: str, samples: int, seed: int,
                      tolerance: float = 1e-10) -> EquivalenceReport:
    """Compare two families of the same system on random sorted, correctly
    normalized valid spectra (a mix of simplex-like and perturbed points,
    all inside the Pauli box).

    The samples are drawn one after another from one generator and checked
    in blocks of ``EQUIV_BLOCK``; a sample's slacks do not depend on its
    block, and the first disagreement is the first in sample order.  Both
    families must apply to pure fermi:r:n states, since only the one-body
    spectrum is sampled.
    """
    from .tensor import rng_from_seed, spectra_rows

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
    rng = rng_from_seed(seed)
    disagreements = 0
    first = None
    for lo in range(0, samples, EQUIV_BLOCK):
        lam = spectra_rows(np.array(_valid_occupations(
            rng, r, n, range(lo, min(lo + EQUIV_BLOCK, samples)))), float(n))
        block = SpectraBlock(one_body=lam, one_body_trace=np.full(len(lam), float(n)))
        differ = np.flatnonzero(check_block(family_a, block, tolerance).satisfied()
                                != check_block(family_b, block, tolerance).satisfied())
        disagreements += len(differ)
        if first is None and len(differ):
            first = tuple(float(v) for v in lam[differ[0]])
    return EquivalenceReport(family_a, family_b, samples, disagreements, first)
