"""Registry of the printed spectral-constraint families.

Each family carries its own ordering and normalization convention;
``check_family`` canonicalizes the input bundle (re-sorting and
re-normalizing as declared, recording that it did) before evaluating.
The exact ``Fraction`` records are the source of truth; checks evaluate a
float64 linear system compiled from them on first use, over a block of
bundles at once.  Family ids are stable strings and part of the CLI
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# InequalityRecord and CatalogError live in the numpy-free records module;
# catalog re-exports them, so catalog.InequalityRecord is the same class.
from .records import CatalogError, InequalityRecord, _rec  # noqa: F401
from .spectra import Spectrum, SpectrumError
from .systems import SystemDescriptor, parse_system


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
# Static family data

# Borland-Dennis system (three particles, six orbitals), chemist trace 3.
BD6_RECORDS = (
    _rec((("lam", (1, 0, 0, 0, 0, 1)),), 1, "=", "l1+l6=1"),
    _rec((("lam", (0, 1, 0, 0, 1, 0)),), 1, "=", "l2+l5=1"),
    _rec((("lam", (0, 0, 1, 1, 0, 0)),), 1, "=", "l3+l4=1"),
    _rec((("lam", (0, 0, 0, 1, -1, -1)),), 0, "<=", "l4<=l5+l6"),
)

# Seven-orbital three-particle system: conjectured-by-experiment form
# (sums of three occupations bounded below by 1).
F7_BD_TRIPLES = ((1, 6, 7), (2, 5, 7), (3, 4, 7), (3, 5, 6))
F7_BD_RECORDS = tuple(
    _rec(
        (("lam", tuple(-1 if i + 1 in t else 0 for i in range(7))),),
        -1,
        "<=",
        f"l{t[0]}+l{t[1]}+l{t[2]}>=1",
    )
    for t in F7_BD_TRIPLES
)

# The same system in zero-sum test-spectrum form with coefficients 3/-4.
# The third row is printed with a sign typo in the source; the coefficient
# of l5 must be +3 for the row to be a permuted zero-sum test spectrum.
F7_LIST_ROWS = (
    (-4, 3, 3, 3, 3, -4, -4),
    (3, -4, 3, 3, -4, 3, -4),
    (3, 3, -4, -4, 3, 3, -4),
    (3, 3, -4, 3, -4, -4, 3),
)
F7_LIST_RECORDS = tuple(
    _rec((("lam", row),), 2, "<=", f"row{i+1}") for i, row in enumerate(F7_LIST_ROWS)
)

# Eight-orbital three-particle system: 31 inequalities grouped by extremal
# edge, group sizes 1, 4, 5, 2, 3, 2, 6, 4, 4.
F8_31_GROUPS = (
    (1, ((3, -1, -1, -1, -1, -1, -1, 3),)),
    (1, (
        (-1, 1, 1, 1, 1, -1, -1, -1),
        (1, 1, -1, -1, 1, 1, -1, -1),
        (1, 1, -1, 1, -1, -1, 1, -1),
        (1, -1, 1, 1, -1, 1, -1, -1),
    )),
    (1, (
        (2, 1, -2, -1, 0, -1, 0, 1),
        (2, -1, 0, -1, 0, 1, -2, 1),
        (0, 0, 1, 2, -2, -1, -1, 1),
        (1, 2, -2, 0, -1, -1, 0, 1),
        (2, -1, 0, 1, -2, -1, 0, 1),
    )),
    (3, (
        (5, 5, -7, -3, -3, 1, 1, 1),
        (5, -3, -3, 1, 1, 5, -7, 1),
    )),
    (3, (
        (5, 1, -3, 1, -3, 1, -3, 1),
        (1, 1, 1, 5, -3, -3, -3, 1),
        (1, 5, -3, 1, 1, -3, -3, 1),
    )),
    (3, (
        (9, 1, -7, -7, -7, 1, 1, 9),
        (9, -7, -7, 1, 1, 1, -7, 9),
    )),
    (5, (
        (7, -1, -1, -1, -1, 7, -9, -1),
        (7, -1, -1, 7, -9, -1, -1, -1),
        (7, 7, -9, -1, -1, -1, -1, -1),
        (-1, -1, 7, 7, -1, -1, -9, -1),
        (-1, 7, -1, 7, -1, -9, -1, -1),
        (-1, 7, -1, -1, 7, -1, -9, -1),
    )),
    (7, (
        (-3, 5, 5, 13, -11, -3, -11, 5),
        (5, 13, -11, 5, -11, -3, -3, 5),
        (5, -3, 5, 13, -11, -11, -3, 5),
        (5, 13, -11, -3, 5, -11, -3, 5),
    )),
    (9, (
        (19, 11, -21, -13, -5, -5, 3, 11),
        (19, -13, -5, -5, 3, 11, -21, 11),
        (11, 19, -21, -5, -13, -5, 3, 11),
        (-5, 3, 11, 19, -21, -13, -5, 11),
    )),
)
F8_31_RECORDS = tuple(
    _rec((("lam", row),), bound, "<=", f"g{gi+1}r{ri+1}")
    for gi, (bound, rows) in enumerate(F8_31_GROUPS)
    for ri, row in enumerate(rows)
)

# Eight-orbital four-particle system: 14 inequalities, two edge groups.
F84_14_GROUPS = (
    (4, (
        (5, 1, 1, -3, 1, -3, -3, 1),
        (1, 1, 5, -3, 1, 1, -3, -3),
        (1, 1, 1, 1, 5, -3, -3, -3),
        (1, 5, 1, -3, 1, -3, 1, -3),
        (5, -3, 1, 1, 1, 1, -3, -3),
        (5, 1, 1, -3, -3, 1, 1, -3),
        (5, 1, -3, 1, 1, -3, 1, -3),
    )),
    (4, (
        (-1, 3, 3, -1, 3, -1, -1, -5),
        (3, 3, -1, -1, 3, -5, -1, -1),
        (3, 3, 3, -5, -1, -1, -1, -1),
        (3, -1, 3, -1, 3, -1, -5, -1),
        (3, 3, -1, -1, -1, -1, 3, -5),
        (3, -1, -1, 3, 3, -1, -1, -5),
        (3, -1, 3, -1, -1, 3, -1, -5),
    )),
)
F84_14_RECORDS = tuple(
    _rec((("lam", row),), bound, "<=", f"g{gi+1}r{ri+1}")
    for gi, (bound, rows) in enumerate(F84_14_GROUPS)
    for ri, row in enumerate(rows)
)

# Absolute-value form of the same system: |x_1| + ... + |x_7| <= 4 with the
# seven printed sign patterns (rows are coefficients of lambda_1..lambda_8).
F84_ABS_PATTERNS = (
    (1, 1, 1, 1, -1, -1, -1, -1),
    (1, 1, -1, -1, 1, 1, -1, -1),
    (1, -1, 1, -1, 1, -1, 1, -1),
    (1, -1, -1, 1, -1, 1, 1, -1),
    (-1, 1, 1, -1, -1, 1, 1, -1),
    (-1, 1, -1, 1, 1, -1, 1, -1),
    (-1, -1, 1, 1, 1, 1, -1, -1),
)

# Two-particle four-orbital mixed system; both spectra normalized to the
# same trace (canonicalized to 1 here), written in decreasing order.
W2H4_ROWS = (
    ((2, 0, 0, 0), (-1, -1, -1, 0, 0, 0), "2l1<=n1+n2+n3"),
    ((0, 0, 0, -2), (0, 0, 0, 1, 1, 1), "2l4>=n4+n5+n6"),
    ((2, 0, 0, -2), (-1, -1, 0, 0, 1, 1), "2(l1-l4)<=n1+n2-n5-n6"),
    ((1, 1, -1, -1), (-1, 0, 0, 0, 0, 1), "l1+l2-l3-l4<=n1-n6"),
    ((1, -1, 1, -1), (-1, 0, 0, 0, 1, 0), "alt<=n1-n5"),
    ((1, -1, 1, -1), (0, -1, 0, 0, 0, 1), "alt<=n2-n6"),
    ((1, -1, -1, 1), (-1, 0, 0, 1, 0, 0), "abs+<=n1-n4"),
    ((1, -1, -1, 1), (0, -1, 0, 0, 1, 0), "abs+<=n2-n5"),
    ((1, -1, -1, 1), (0, 0, -1, 0, 0, 1), "abs+<=n3-n6"),
    ((-1, 1, 1, -1), (-1, 0, 0, 1, 0, 0), "abs-<=n1-n4"),
    ((-1, 1, 1, -1), (0, -1, 0, 0, 1, 0), "abs-<=n2-n5"),
    ((-1, 1, 1, -1), (0, 0, -1, 0, 0, 1), "abs-<=n3-n6"),
    ((2, 0, -2, 0), (-1, 0, -1, 0, 1, 1), "2(l1-l3)<=n1+n3-n5-n6"),
    ((2, 0, -2, 0), (-1, -1, 0, 1, 0, 1), "2(l1-l3)<=n1+n2-n4-n6"),
    ((0, 2, 0, -2), (-1, 0, -1, 0, 1, 1), "2(l2-l4)<=n1+n3-n5-n6"),
    ((0, 2, 0, -2), (-1, -1, 0, 1, 0, 1), "2(l2-l4)<=n1+n2-n4-n6"),
    ((2, -2, 0, 0), (-1, 0, -1, 1, 0, 1), "2(l1-l2)<=n1+n3-n4-n6"),
    ((2, -2, 0, 0), (0, -1, -1, 0, 1, 1), "2(l1-l2)<=n2+n3-n5-n6"),
    ((2, -2, 0, 0), (-1, -1, 0, 1, 1, 0), "2(l1-l2)<=n1+n2-n4-n5"),
    ((0, 0, 2, -2), (-1, 0, -1, 1, 0, 1), "2(l3-l4)<=n1+n3-n4-n6"),
    ((0, 0, 2, -2), (0, -1, -1, 0, 1, 1), "2(l3-l4)<=n2+n3-n5-n6"),
    ((0, 0, 2, -2), (-1, -1, 0, 1, 1, 0), "2(l3-l4)<=n1+n2-n4-n5"),
)
W2H4_RECORDS = tuple(
    _rec((("lam", lam), ("nu", nu)), 0, "<=", label) for lam, nu, label in W2H4_ROWS
)

# Three-qubit mixed system: ten inequalities grouped by extremal edge; the
# site gaps Delta_i are expected sorted increasing.
THREE_QUBIT_ROWS = (
    ((0, 0, 1), (1, 1, 1, 1, -1, -1, -1, -1)),
    ((0, 1, 1), (2, 2, 0, 0, 0, 0, -2, -2)),
    ((1, 1, 1), (3, 1, 1, 1, -1, -1, -1, -3)),
    ((-1, 1, 1), (1, 3, 1, 1, -1, -1, -1, -3)),
    ((-1, 1, 1), (3, 1, 1, 1, -1, -1, -3, -1)),
    ((1, 1, 2), (4, 2, 2, 0, 0, -2, -2, -4)),
    ((-1, 1, 2), (2, 4, 2, 0, 0, -2, -2, -4)),
    ((-1, 1, 2), (4, 2, 0, 2, 0, -2, -2, -4)),
    ((-1, 1, 2), (4, 2, 2, 0, -2, 0, -2, -4)),
    ((-1, 1, 2), (4, 2, 2, 0, 0, -2, -4, -2)),
)
THREE_QUBIT_RECORDS = tuple(
    _rec(
        (("delta", d), ("joint", tuple(-c for c in rhs))),
        0,
        "<=",
        f"edge{d}#{i+1}",
    )
    for i, (d, rhs) in enumerate(THREE_QUBIT_ROWS)
)

# Franz / Higuchi three-qutrit system: seven base rows per site permutation,
# marginal spectra in increasing order; duplicates removed exactly.
_FRANZ_BASE = (
    ((1, 1, 0), (1, 1, 0), (1, 1, 0)),
    ((1, 0, 1), (1, 1, 0), (1, 0, 1)),
    ((0, 1, 1), (1, 1, 0), (0, 1, 1)),
    ((1, 2, 0), (1, 2, 0), (1, 2, 0)),
    ((2, 1, 0), (1, 2, 0), (2, 1, 0)),
    ((0, 2, 1), (1, 2, 0), (0, 2, 1)),
    ((0, 2, 1), (2, 1, 0), (0, 1, 2)),
)


def _franz_records():
    from itertools import permutations

    records = []
    for row_i, (ca, cb, cc) in enumerate(_FRANZ_BASE):
        for sites in permutations((0, 1, 2)):
            coeffs = [(0, 0, 0)] * 3
            coeffs[sites[0]] = ca
            coeffs[sites[1]] = tuple(-x for x in cb)
            coeffs[sites[2]] = tuple(-x for x in cc)
            records.append(
                _rec(
                    (
                        ("site0", coeffs[0]),
                        ("site1", coeffs[1]),
                        ("site2", coeffs[2]),
                    ),
                    0,
                    "<=",
                    f"row{row_i+1}({sites})",
                )
            )
    return tuple(dict.fromkeys(records))


FRANZ_RECORDS = _franz_records()

# Bravyi two-qubit mixed system: seven inequalities on the minimal marginal
# eigenvalues and the global spectrum.
BRAVYI_ROWS = (
    ((-1, 0), (0, 0, 1, 1), "lA>=l3+l4"),
    ((0, -1), (0, 0, 1, 1), "lB>=l3+l4"),
    ((-1, -1), (0, 1, 1, 2), "lA+lB>=l2+l3+2l4"),
    ((1, -1), (-1, 0, 1, 0), "lA-lB<=l1-l3"),
    ((-1, 1), (-1, 0, 1, 0), "lB-lA<=l1-l3"),
    ((1, -1), (0, -1, 0, 1), "lA-lB<=l2-l4"),
    ((-1, 1), (0, -1, 0, 1), "lB-lA<=l2-l4"),
)
BRAVYI_RECORDS = tuple(
    _rec((("mins", m), ("joint", j)), 0, "<=", label) for m, j, label in BRAVYI_ROWS
)


def _chsh_records_full():
    base = ((-1, 1), (-1, -1))
    out = []
    for transpose in (False, True):
        for swap_a in (False, True):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    mat = [[0, 0], [0, 0]]
                    eps = (e1, e2)
                    for i in range(2):
                        row = 1 - i if swap_a else i
                        for j in range(2):
                            mat[row][j] += eps[i] * base[i][j]
                    if transpose:
                        mat = [[mat[0][0], mat[1][0]], [mat[0][1], mat[1][1]]]
                    out.append(
                        _rec(
                            (("corr", (mat[0][0], mat[0][1], mat[1][0], mat[1][1])),),
                            2,
                            "<=",
                            f"t={int(transpose)} s={int(swap_a)} e=({e1},{e2})",
                        )
                    )
    return tuple(out)


CHSH_RECORDS = _chsh_records_full()


# ---------------------------------------------------------------------------
# Blocks of bundles
#
# A check canonicalizes the bundle's slot arrays as the family declares
# (sorting, renormalizing, gap sorting, minimum entries) and then evaluates
# every inequality at once.  Linear families evaluate a float64 system
# compiled from their records; F84_ABS and TWO_PARTICLE_PURE are nonlinear
# and have evaluators of their own.  Campaigns pass blocks of trials through
# the same code; ``check_family`` passes a block of one.

# Trials per block in campaigns.  The largest block array of the catalogued
# systems, the entries of fermi:8:4 that the 1-RDM map reads (1190 complex
# numbers per trial), takes 0.6 MB.
BLOCK_TRIALS = 32
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
    whose one-body spectrum was rescaled to trace ``target``."""

    values: dict
    notes: tuple = ()
    renormalized: np.ndarray = None
    target: object = None


def _desc(rows: np.ndarray) -> np.ndarray:
    return np.sort(rows, axis=1)[:, ::-1]


def _sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as Python's ``sum`` adds a tuple."""
    total = np.zeros(len(rows))
    for j in range(rows.shape[1]):
        total = total + rows[:, j]
    return total


def _need_sites(block, count, size, family_id):
    if len(block.sites) != count:
        raise CatalogError(f"{family_id} needs {count} site spectra")
    for s in block.sites:
        if s.shape[1] != size:
            raise CatalogError(f"{family_id} needs site spectra of length {size}")
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
    r, n = fam.meta["r"], fam.meta["n"]
    lam, off = _renormalize(block, _one_body(block, fam.family_id, r), n)
    return _Canonical({"lam": lam}, renormalized=off, target=n)


def _polygon_slots(fam, block):
    if len(block.sites) < 2:
        raise CatalogError("POLYGON needs at least two site spectra")
    if any(s.shape[1] != 2 for s in block.sites):
        raise CatalogError("POLYGON applies to qubit marginals")
    return _Canonical({"mins": np.column_stack([s.min(axis=1) for s in block.sites])})


def _bravyi_slots(fam, block):
    sites = _need_sites(block, 2, 2, fam.family_id)
    joint = _need_joint(block, 4, fam.family_id)
    return _Canonical({"mins": np.column_stack([sites[0][:, 1], sites[1][:, 1]]),
                       "joint": joint})


def _franz_slots(fam, block):
    sites = _need_sites(block, 3, 3, fam.family_id)
    return _Canonical({f"site{i}": s[:, ::-1] for i, s in enumerate(sites)},
                      notes=("sites sorted increasing",))


def _basic_slots(fam, block):
    if len(block.sites) != 2:
        raise CatalogError("BASIC needs two site spectra")
    a, b = _desc(block.sites[0]), _desc(block.sites[1])
    joint = _need_joint(block, a.shape[1] * b.shape[1], fam.family_id)
    return _Canonical({"a": a, "b": b, "joint": joint})


def _three_qubit_slots(fam, block):
    sites = _need_sites(block, 3, 2, fam.family_id)
    joint = _need_joint(block, 8, fam.family_id)
    gaps = np.sort(np.column_stack([s[:, 0] - s[:, 1] for s in sites]), axis=1)
    return _Canonical({"delta": gaps, "joint": joint},
                      notes=("gaps sorted increasing",))


def _pauli_slots(fam, block):
    # The occupation-box criterion applies to the spectrum as given; the
    # chemist normalization (trace n) is the caller's contract.
    return _Canonical({"lam": _one_body(block, fam.family_id)})


PAIR_TOL = 1e-8


def _even_degeneracy_slots(fam, block):
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
    return _Canonical({"lam": lam}, notes=(f"pairing tolerance {PAIR_TOL}",),
                      target=n)


def _w2h4_slots(fam, block):
    lam, off = _renormalize(block, _one_body(block, fam.family_id, 4), 1)
    nu = _need_joint(block, 6, fam.family_id)
    return _Canonical({"lam": lam, "nu": nu}, renormalized=off, target=1)


def _w2h5_slots(fam, block):
    raise CatalogError(
        "W2H5 is recorded as metadata only (460 independent inequalities); "
        "the list is not reproduced"
    )


def _chsh_slots(fam, block):
    raise CatalogError("use check_chsh for correlation data")


# Records of the families whose inequalities depend on the system size.

def _polygon_records(widths):
    k = widths["mins"]
    return tuple(
        _rec((("mins", tuple(1 if j == i else -1 for j in range(k))),), 0, "<=",
             f"site{i}")
        for i in range(k)
    )


def _basic_records(widths):
    m, n = widths["a"], widths["b"]

    def first(count, size):
        return tuple(1 if i < count else 0 for i in range(size))

    rows = [(first(k, m), first(0, n), k * n, f"A{k}") for k in range(1, m + 1)]
    rows += [(first(0, m), first(l, n), m * l, f"B{l}") for l in range(1, n + 1)]
    return tuple(
        _rec((("a", a), ("b", b), ("joint", tuple(-c for c in first(cut, m * n)))),
             0, "<=", label)
        for a, b, cut, label in rows
    )


def _pauli_records(widths):
    r = widths["lam"]
    out = []
    for i in range(r):
        unit = tuple(int(j == i) for j in range(r))
        out.append(_rec((("lam", tuple(-c for c in unit)),), 0, "<=", f"l{i+1}>=0"))
        out.append(_rec((("lam", unit),), 1, "<=", f"l{i+1}<=1"))
    return tuple(out)


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


def _linear(fam, canon, tolerance):
    widths = tuple((name, x.shape[1]) for name, x in canon.values.items())
    system = _linear_system(fam.family_id, widths)
    return system.slacks(canon.values), system.labels, tolerance


def _abs_sum(fam, canon, tolerance):
    patterns = np.array(F84_ABS_PATTERNS, dtype=float)
    total = np.zeros(len(canon.values["lam"]))
    for col in _combine(canon.values["lam"], patterns).T:
        total = total + np.abs(col)
    return (4.0 - total)[:, None], ("sum|x|<=4",), tolerance


def _even_degeneracy(fam, canon, tolerance):
    lam, n = canon.values["lam"], canon.target
    parts = [np.zeros((len(lam), 1))]
    if lam.shape[1] % 2 == 1:
        if n == 2:
            parts.append(np.abs(lam[:, -1:]))       # the odd eigenvalue must be 0
            lam = lam[:, :-1]
        else:
            parts.append(np.abs(lam[:, :1] - 1))    # holes: the odd eigenvalue is 1
            lam = lam[:, 1:]
    parts.append(np.abs(lam[:, 0::2] - lam[:, 1::2]))
    defect = np.hstack(parts).max(axis=1)
    return (PAIR_TOL - defect)[:, None], ("even-degeneracy defect",), 0.0


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
# Registry

@dataclass(frozen=True)
class Family:
    """A registered family: ``canonicalize`` maps a block to canonical slot
    arrays, ``evaluate`` maps those to slacks (the compiled records by
    default), and ``generate`` makes the records of a family whose
    inequalities depend on the slot widths."""

    family_id: str
    system: str
    conventions: str
    declared_count: int
    records: tuple
    canonicalize: object = field(compare=False)
    matcher: object = field(compare=False)
    meta: dict = field(default=None, compare=False)
    evaluate: object = field(default=_linear, compare=False)
    generate: object = field(default=None, compare=False)


def _m_polygon(d: SystemDescriptor):
    return d.pure and d.kind in ("tensor", "qubits") and len(d.dims) >= 2 and all(
        x == 2 for x in d.dims
    )


def _m_fermi(r, n, pure):
    def match(d: SystemDescriptor):
        return d.kind == "fermion" and d.r == r and d.n == n and d.pure == pure
    return match


FAMILIES = {}


def _add(family):
    FAMILIES[family.family_id] = family


_add(Family(
    "POLYGON", "qubit arrays, pure",
    "minimal marginal eigenvalues; each bounded by the sum of the others",
    0, (), _polygon_slots, _m_polygon, {}, generate=_polygon_records,
))
_add(Family(
    "BRAVYI_2Q", "2x2 mixed",
    "minimal marginal eigenvalues and the global spectrum sorted decreasing",
    7, BRAVYI_RECORDS, _bravyi_slots,
    lambda d: (not d.pure) and d.kind in ("tensor", "qubits") and d.dims == (2, 2),
    {},
))
_add(Family(
    "FRANZ_3QUTRIT", "3x3x3 pure",
    "marginal spectra sorted increasing; all site permutations, deduplicated",
    36, FRANZ_RECORDS, _franz_slots,
    lambda d: d.pure and d.kind == "tensor" and d.dims == (3, 3, 3),
    {},
))
_add(Family(
    "BASIC", "bipartite m x n mixed",
    "partial sums of marginal spectra bounded by partial sums of the joint",
    0, (), _basic_slots,
    lambda d: (not d.pure) and d.kind in ("tensor", "qubits") and len(d.dims) == 2,
    {}, generate=_basic_records,
))
_add(Family(
    "THREE_QUBIT_MIXED", "2x2x2 mixed",
    "site gaps sorted increasing, joint spectrum decreasing; as printed",
    10, THREE_QUBIT_RECORDS, _three_qubit_slots,
    lambda d: (not d.pure) and d.kind in ("tensor", "qubits") and d.dims == (2, 2, 2),
    {},
))
_add(Family(
    "PAULI", "fermionic (r, n)",
    "occupation numbers in [0, 1], chemist trace n",
    0, (), _pauli_slots,
    lambda d: d.kind == "fermion", {"r": None, "n": None}, generate=_pauli_records,
))
_add(Family(
    "TWO_PARTICLE_PURE", "fermionic (r, 2) or (r, r-2) pure",
    "even degeneracy of occupation numbers; odd leftover 0 (particles) or 1 (holes)",
    1, (), _even_degeneracy_slots,
    lambda d: d.kind == "fermion" and d.pure and (d.n == 2 or d.n == d.r - 2),
    {"r": None, "n": None}, evaluate=_even_degeneracy,
))
_add(Family(
    "BD6", "fermionic (6, 3) pure",
    "three pair equalities and l4 <= l5 + l6, chemist trace 3",
    4, BD6_RECORDS, _fermi_slots, _m_fermi(6, 3, True), {"r": 6, "n": 3},
))
_add(Family(
    "F7_BD", "fermionic (7, 3) pure",
    "four triple sums bounded below by 1, chemist trace 3",
    4, F7_BD_RECORDS, _fermi_slots, _m_fermi(7, 3, True), {"r": 7, "n": 3},
))
_add(Family(
    "F7_LIST", "fermionic (7, 3) pure",
    "zero-sum test-spectrum form, coefficients 3 / -4, bound 2",
    4, F7_LIST_RECORDS, _fermi_slots, _m_fermi(7, 3, True), {"r": 7, "n": 3},
))
_add(Family(
    "F8_31", "fermionic (8, 3) pure",
    "31 inequalities grouped by extremal edge, chemist trace 3",
    31, F8_31_RECORDS, _fermi_slots, _m_fermi(8, 3, True), {"r": 8, "n": 3},
))
_add(Family(
    "F84_14", "fermionic (8, 4) pure",
    "14 inequalities in two edge groups, chemist trace 4",
    14, F84_14_RECORDS, _fermi_slots, _m_fermi(8, 4, True), {"r": 8, "n": 4},
))
_add(Family(
    "F84_ABS", "fermionic (8, 4) pure",
    "absolute-value form sum_i |x_i| <= 4 over seven sign patterns",
    1, (), _fermi_slots, _m_fermi(8, 4, True), {"r": 8, "n": 4},
    evaluate=_abs_sum,
))
_add(Family(
    "W2H4_MIXED", "fermionic (4, 2) mixed",
    "both spectra normalized to equal trace (canonical 1), decreasing order",
    22, W2H4_RECORDS, _w2h4_slots, _m_fermi(4, 2, False), {"r": 4, "n": 2},
))
_add(Family(
    "W2H5_META", "fermionic (5, 2) mixed",
    "460 independent inequalities recorded as metadata; list not reproduced",
    460, (), _w2h5_slots, _m_fermi(5, 2, False), {"r": 5, "n": 2},
))
_add(Family(
    "CHSH_16", "two-qubit correlations, two settings per site",
    "sixteen sign/swap images of the base correlation inequality",
    16, CHSH_RECORDS, _chsh_slots, lambda d: False, {},
))


def get_family(family_id: str) -> Family:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise CatalogError(f"unknown family {family_id!r}") from None


def family_ids():
    return tuple(sorted(FAMILIES))


def applicable_families(system) -> tuple:
    """All registry entries matching a system descriptor."""
    if isinstance(system, str):
        system = parse_system(system)
    out = []
    for fid in sorted(FAMILIES):
        fam = FAMILIES[fid]
        try:
            if fam.matcher(system):
                out.append(fid)
        except AttributeError:
            continue
    return tuple(out)


def check_block(family_id: str, block: SpectraBlock,
                tolerance: float = 1e-10) -> BlockCheck:
    """Evaluate every inequality of a family on each bundle of a block."""
    fam = get_family(family_id)
    canon = fam.canonicalize(fam, block)
    slacks, labels, tolerance = fam.evaluate(fam, canon, tolerance)
    return BlockCheck(family_id, slacks, labels, tolerance, canon.notes,
                      canon.renormalized, canon.target)


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
    sizes = [((fam.meta or {}).get("r"), (fam.meta or {}).get("n")) for fam in (fa, fb)]
    if None in sizes[0] + sizes[1]:
        raise CatalogError(
            f"{family_a} and {family_b}: equivalence sampling needs families "
            f"with a fixed fermionic system (r, n)"
        )
    if sizes[0] != sizes[1]:
        raise CatalogError(f"{family_a} and {family_b} apply to different systems")
    r, n = sizes[0]
    pure = SystemDescriptor("fermion", r=r, n=n, pure=True)
    for fam in (fa, fb):
        if not fam.matcher(pure):
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
