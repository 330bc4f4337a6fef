"""The printed constraint families, exactly, and the check of one bundle.

``InequalityRecord`` is one linear constraint over named spectrum slots:
the output of the exact side (Schubert generation) and the form of every
printed family.  The family registry lives here too: each family's exact
records, the system it applies to and its declared count.

Each family's canonicalizer, which turns its spectra into the slots its
records read, is written once here (``CANONICALIZERS``), over a
``SpectraBlock`` and a table of row operations (``RowOps``).  On Python
floats (``_FLOAT_ROWS``) it serves ``check_family`` and ``check_chsh``,
which check one bundle; ``catalog.check_block`` runs it on float64 blocks
through a numpy table.  Both tables act on each bundle's row alone, in the
same order, so a one-bundle report equals a block of one bit for bit.
This module imports neither numpy nor ``catalog``, so the exact commands
(``hull``, ``families``) and the one-bundle commands (``check``, ``chsh``)
run without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations

from .spectra import Spectrum, SpectrumError, sequential_sum
from .systems import SystemDescriptor, parse_system


class CatalogError(ValueError):
    """Raised for unknown families, rank mismatches or unavailable lists."""


@dataclass(frozen=True)
class InequalityRecord:
    """One linear constraint over named spectrum slots.

    ``terms`` maps slot names to coefficient tuples; the constraint is
    sum(coeffs . values) <= bound (or == for equalities).
    """

    terms: tuple
    relation: str = "<="
    bound: object = 0
    label: str = field(default="", compare=False)
    meta: object = field(default=None, compare=False, hash=False)

    def lhs(self, values: dict) -> float:
        """Each slot's products summed in term order, then the slot sums in
        order, as ``catalog.LinearSystem.slacks`` adds them."""
        total = 0.0
        for slot, coeffs in self.terms:
            vec = values[slot]
            if len(vec) != len(coeffs):
                raise CatalogError(
                    f"slot {slot!r} expects {len(coeffs)} entries, got {len(vec)}"
                )
            total += sequential_sum(float(c) * float(v) for c, v in zip(coeffs, vec))
        return total

    def slack(self, values: dict) -> float:
        lhs = self.lhs(values)
        if self.relation == "<=":
            return float(self.bound) - lhs
        return -abs(lhs - float(self.bound))


def _rec(slot_coeffs, bound, relation="<=", label=""):
    terms = tuple((slot, tuple(Fraction(c) for c in coeffs)) for slot, coeffs in slot_coeffs)
    return InequalityRecord(terms, relation, Fraction(bound), label)


# ---------------------------------------------------------------------------
# Printed family data

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
# The seven values |x_i| are the canonical slot ``abs`` (``catalog`` forms
# them), so the system is one linear record.
F84_ABS_RECORDS = (_rec((("abs", (1,) * 7),), 4, "<=", "sum|x|<=4"),)

# Two particles or two holes: the occupation numbers pair up, with an odd
# leftover 0 (particles) or 1 (holes).  ``catalog`` forms the pairing
# defect, the largest deviation from that, as the canonical slot ``defect``.
PAIR_TOL = 1e-8
TWO_PARTICLE_RECORDS = (
    _rec((("defect", (1,)),), PAIR_TOL, "<=", "even-degeneracy defect"),
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


def _chsh_records():
    """The 16 facets of the local correlation polytope: the eight sign and
    swap images of the base CHSH inequality, then the bounds +-c_ij <= 1."""
    base = ((-1, 1), (-1, -1))
    out = []
    for swap_a in (False, True):
        for e1 in (1, -1):
            for e2 in (1, -1):
                rows = [tuple(e * c for c in row) for e, row in zip((e1, e2), base)]
                if swap_a:
                    rows.reverse()
                out.append(_rec((("corr", rows[0] + rows[1]),), 2, "<=",
                                f"t=0 s={int(swap_a)} e=({e1},{e2})"))
    for k, name in enumerate(("c11", "c12", "c21", "c22")):
        for sign, prefix in ((1, ""), (-1, "-")):
            out.append(_rec((("corr", tuple(sign * (j == k) for j in range(4))),), 1,
                            "<=", f"{prefix}{name}<=1"))
    return tuple(out)


CHSH_RECORDS = _chsh_records()


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
# Registry

@dataclass(frozen=True)
class Family:
    """A registered family and where it applies.

    A family of one system declares that system's descriptor as ``fixed``;
    a family fixed to a mixed system also holds for its pure states.
    An open-ended family declares a ``matcher`` on descriptors instead, and
    its ``scope`` in words.  ``generate`` makes the records of a family
    whose inequalities depend on the slot widths.
    """

    family_id: str
    conventions: str
    declared_count: int
    records: tuple = ()
    fixed: SystemDescriptor = None
    matcher: object = field(default=None, compare=False)
    scope: str = ""
    generate: object = field(default=None, compare=False)

    @property
    def system(self) -> str:
        """Where the family applies, in words."""
        d = self.fixed
        if d is None:
            return self.scope
        purity = "pure" if d.pure else "mixed"
        if d.kind == "fermion":
            return f"fermionic ({d.r}, {d.n}) {purity}"
        return "x".join(map(str, d.dims)) + f" {purity}"

    def applies(self, system: SystemDescriptor) -> bool:
        if self.matcher is not None:
            return self.matcher(system)
        if system.kind == "qubits":   # a qubit array is a tensor format
            system = replace(system, kind="tensor")
        return system == self.fixed or (
            system.pure and replace(system, pure=False) == self.fixed)

    def require_list(self) -> None:
        """Refuse a family whose inequalities are only counted: it stores no
        records and generates none, so nothing can be checked."""
        if not self.records and self.generate is None:
            raise CatalogError(
                f"{self.family_id.removesuffix('_META')} is recorded as metadata only "
                f"({self.declared_count} independent inequalities); the list is not "
                f"reproduced"
            )


def _tensor(d: SystemDescriptor) -> bool:
    return d.kind in ("tensor", "qubits")


FAMILIES = {}


def _add(family_id, conventions, declared_count, records=(), fixed=None, **kwargs):
    """Register a family; ``fixed`` is the descriptor string of its system."""
    FAMILIES[family_id] = Family(family_id, conventions, declared_count, records,
                                 fixed and parse_system(fixed), **kwargs)


_add("POLYGON", "minimal marginal eigenvalues; each bounded by the sum of the others",
     0, scope="qubit arrays, pure", generate=_polygon_records,
     matcher=lambda d: d.pure and _tensor(d) and len(d.dims) >= 2
     and all(x == 2 for x in d.dims))
_add("BRAVYI_2Q", "minimal marginal eigenvalues and the global spectrum sorted decreasing",
     7, BRAVYI_RECORDS, fixed="2x2:mixed")
_add("FRANZ_3QUTRIT", "marginal spectra sorted increasing; all site permutations, "
     "deduplicated", 36, FRANZ_RECORDS, fixed="3x3x3:pure")
_add("BASIC", "partial sums of marginal spectra bounded by partial sums of the joint",
     0, scope="bipartite m x n mixed", generate=_basic_records,
     matcher=lambda d: not d.pure and _tensor(d) and len(d.dims) == 2)
_add("THREE_QUBIT_MIXED", "site gaps sorted increasing, joint spectrum decreasing; "
     "as printed", 10, THREE_QUBIT_RECORDS, fixed="2x2x2:mixed")
_add("PAULI", "occupation numbers in [0, 1], chemist trace n", 0,
     scope="fermionic (r, n)", generate=_pauli_records,
     matcher=lambda d: d.kind == "fermion")
_add("TWO_PARTICLE_PURE", "even degeneracy of occupation numbers; odd leftover 0 "
     "(particles) or 1 (holes)", 1, TWO_PARTICLE_RECORDS,
     scope="fermionic (r, 2) or (r, r-2) pure",
     matcher=lambda d: d.kind == "fermion" and d.pure and d.n in (2, d.r - 2))
_add("BD6", "three pair equalities and l4 <= l5 + l6, chemist trace 3",
     4, BD6_RECORDS, fixed="fermi:6:3:pure")
_add("F7_BD", "four triple sums bounded below by 1, chemist trace 3",
     4, F7_BD_RECORDS, fixed="fermi:7:3:pure")
_add("F7_LIST", "zero-sum test-spectrum form, coefficients 3 / -4, bound 2",
     4, F7_LIST_RECORDS, fixed="fermi:7:3:pure")
_add("F8_31", "31 inequalities grouped by extremal edge, chemist trace 3",
     31, F8_31_RECORDS, fixed="fermi:8:3:pure")
_add("F84_14", "14 inequalities in two edge groups, chemist trace 4",
     14, F84_14_RECORDS, fixed="fermi:8:4:pure")
_add("F84_ABS", "absolute-value form sum_i |x_i| <= 4 over seven sign patterns",
     1, F84_ABS_RECORDS, fixed="fermi:8:4:pure")
_add("W2H4_MIXED", "both spectra normalized to equal trace (canonical 1), decreasing order",
     22, W2H4_RECORDS, fixed="fermi:4:2:mixed")
_add("W2H5_META", "460 independent inequalities recorded as metadata; list not reproduced",
     460, fixed="fermi:5:2:mixed")
_add("CHSH_16", "eight sign/swap images of the base correlation inequality "
     "and the bounds |c_ij| <= 1",
     16, CHSH_RECORDS, scope="two-qubit correlations, two settings per site")


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
    return tuple(fid for fid in sorted(FAMILIES) if FAMILIES[fid].applies(system))


# ---------------------------------------------------------------------------
# Checks of one bundle, on Python floats
#
# A check canonicalizes the bundle's spectra as the family declares
# (sorting, renormalizing, gap sorting, minimum entries, absolute values of
# sign-pattern sums, a pairing defect) into the slots its records name, and
# evaluates each record with ``InequalityRecord.slack``.  Each family's
# canonicalizer is written once, over a ``SpectraBlock`` and a table of row
# operations for its kind of slot: ``_FLOAT_ROWS`` below for one bundle of
# Python floats, ``catalog``'s numpy table for the (T, k) arrays of a
# block, the path campaigns take.  Every operation acts on each bundle's
# row alone, in the same order on both kinds, so a one-bundle report is the
# block path's bit for bit.

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


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance that is negative or NaN: it would report a
    satisfied inequality as violated, or compare nothing."""
    if not tolerance >= 0:
        raise CatalogError(f"tolerance must be >= 0, got {tolerance}")


@dataclass(frozen=True)
class SpectraBlock:
    """Spectra bundles stacked slot by slot, one row per bundle.

    In a block of T bundles, ``sites`` holds one (T, d) array per site,
    ``joint`` a (T, D) array and ``one_body`` a (T, r) array with
    ``one_body_trace`` its (T,) declared traces.  A block of one bundle
    holds lists of floats and one float trace instead.  Rows may be in any
    order; each family canonicalizes them.
    """

    sites: tuple = ()
    joint: object = None
    one_body: object = None
    one_body_trace: object = None


@dataclass(frozen=True)
class RowOps:
    """The operations a canonicalizer reads a slot with.  A slot holds one
    row per bundle; a column holds one entry per bundle (a float, or a
    (T,) array)."""

    width: object            # slot -> entries per row
    desc: object             # slot -> rows sorted decreasing
    sort: object             # slot -> rows sorted increasing
    reverse: object          # slot -> rows in reverse order
    column: object           # (slot, j) -> column j
    stack: object            # columns -> the slot they make
    row_min: object          # slot -> column of row minima
    row_max: object          # slot -> column of row maxima
    renormalize: object      # (slot, traces, n) -> (rows rescaled to sum n
                             # where the trace is not n, which rows were)
    particle_number: object  # (traces, family_id) -> the integer trace of all rows


@dataclass(frozen=True)
class _Canonical:
    """A block's canonical slot values.  ``renormalized`` marks the rows
    whose one-body spectrum was rescaled to trace ``target``; a family
    whose slots carry their own tolerance fixes the check's ``tolerance``."""

    values: dict
    notes: tuple = ()
    renormalized: object = None
    target: object = None
    tolerance: float = None


def _need_sites(block, fam, rows):
    dims = fam.fixed.dims
    if len(block.sites) != len(dims):
        raise CatalogError(f"{fam.family_id} needs {len(dims)} site spectra")
    for s, size in zip(block.sites, dims):
        if rows.width(s) != size:
            raise CatalogError(f"{fam.family_id} needs site spectra of length {size}")
    return [rows.desc(s) for s in block.sites]


def _need_joint(block, size, fam, rows):
    if block.joint is None or rows.width(block.joint) != size:
        raise CatalogError(f"{fam.family_id} needs a joint spectrum of length {size}")
    return rows.desc(block.joint)


def _one_body(block, fam, rows, r=None):
    lam = block.one_body
    if lam is None or (r is not None and rows.width(lam) != r):
        length = "" if r is None else f" of length {r}"
        raise CatalogError(f"{fam.family_id} needs a one-body spectrum{length}")
    return rows.desc(lam)


def _fermi_slots(fam, block, rows):
    r, n = fam.fixed.r, fam.fixed.n
    lam, off = rows.renormalize(_one_body(block, fam, rows, r), block.one_body_trace, n)
    return _Canonical({"lam": lam}, renormalized=off, target=n)


def _f84_abs_slots(fam, block, rows):
    canon = _fermi_slots(fam, block, rows)
    lam = canon.values["lam"]
    cols = [rows.column(lam, j) for j in range(rows.width(lam))]
    # each pattern's products summed in term order
    sums = [sequential_sum((c * x for c, x in zip(pattern[1:], cols[1:])),
                           pattern[0] * cols[0]) for pattern in F84_ABS_PATTERNS]
    return replace(canon, values={"abs": rows.stack([abs(x) for x in sums])})


def _polygon_slots(fam, block, rows):
    if len(block.sites) < 2:
        raise CatalogError("POLYGON needs at least two site spectra")
    if any(rows.width(s) != 2 for s in block.sites):
        raise CatalogError("POLYGON applies to qubit marginals")
    return _Canonical({"mins": rows.stack([rows.row_min(s) for s in block.sites])})


def _bravyi_slots(fam, block, rows):
    sites = _need_sites(block, fam, rows)
    joint = _need_joint(block, fam.fixed.dim, fam, rows)
    return _Canonical({"mins": rows.stack([rows.column(s, 1) for s in sites]),
                       "joint": joint})


def _franz_slots(fam, block, rows):
    sites = _need_sites(block, fam, rows)
    return _Canonical({f"site{i}": rows.reverse(s) for i, s in enumerate(sites)},
                      notes=("sites sorted increasing",))


def _basic_slots(fam, block, rows):
    if len(block.sites) != 2:
        raise CatalogError("BASIC needs two site spectra")
    a, b = (rows.desc(s) for s in block.sites)
    joint = _need_joint(block, rows.width(a) * rows.width(b), fam, rows)
    return _Canonical({"a": a, "b": b, "joint": joint})


def _three_qubit_slots(fam, block, rows):
    sites = _need_sites(block, fam, rows)
    joint = _need_joint(block, fam.fixed.dim, fam, rows)
    gaps = rows.stack([rows.column(s, 0) - rows.column(s, 1) for s in sites])
    return _Canonical({"delta": rows.sort(gaps), "joint": joint},
                      notes=("gaps sorted increasing",))


def _pauli_slots(fam, block, rows):
    # The occupation-box criterion applies to the spectrum as given; the
    # chemist normalization (trace n) is the caller's contract.
    return _Canonical({"lam": _one_body(block, fam, rows)})


def _pairing_defect_slots(fam, block, rows):
    lam = _one_body(block, fam, rows)
    # The system is taken from the bundle: r entries, n the trace, which
    # must be an integer (so nothing is renormalized).
    n = rows.particle_number(block.one_body_trace, fam.family_id)
    r = rows.width(lam)
    if n not in (2, r - 2):
        raise CatalogError(
            f"even-degeneracy criterion applies to two particles or two "
            f"holes, not (r={r}, n={n})"
        )
    cols = [rows.column(lam, j) for j in range(r)]
    parts = []
    if r % 2 == 1:
        if n == 2:
            parts.append(abs(cols.pop()))        # the odd eigenvalue must be 0
        else:
            parts.append(abs(cols.pop(0) - 1))   # holes: the odd eigenvalue is 1
    parts += [abs(a - b) for a, b in zip(cols[0::2], cols[1::2])]
    # the defect is compared with PAIR_TOL itself, so no tolerance is added
    return _Canonical({"defect": rows.stack([rows.row_max(rows.stack(parts))])},
                      notes=(f"pairing tolerance {PAIR_TOL}",), tolerance=0.0)


def _w2h4_slots(fam, block, rows):
    lam, off = rows.renormalize(_one_body(block, fam, rows, fam.fixed.r),
                                block.one_body_trace, 1)
    nu = _need_joint(block, fam.fixed.dim, fam, rows)
    return _Canonical({"lam": lam, "nu": nu}, renormalized=off, target=1)


def _chsh_slots(fam, block, rows):
    raise CatalogError("use check_chsh for correlation data")


# Each family's canonicalizer: (family, block, row operations) to the slot
# values its records read.  A family without an inequality list (W2H5_META)
# has none.
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


def _renormalize(lam, trace, n):
    """``lam`` rescaled to sum to ``n`` if ``trace`` is not ``n``, and
    whether it was.  The sorted entries are summed left to right."""
    off = abs(trace - n) > 1e-10
    if not off:
        return lam, off
    total = sequential_sum(lam)
    if total == 0.0:
        raise SpectrumError("cannot renormalize a zero-sum spectrum")
    scale = float(n) / total
    return [v * scale for v in lam], off


def _particle_number(trace, family_id):
    n = round(trace)
    if abs(trace - n) > 1e-10:
        raise CatalogError(
            f"{family_id} needs an integer particle number, got trace {trace!r}")
    return n


# Row operations on one bundle: a slot is a list of floats, a column a float.
_FLOAT_ROWS = RowOps(
    width=len,
    desc=lambda x: sorted(x, reverse=True),
    sort=sorted,
    reverse=lambda x: x[::-1],
    column=lambda x, j: x[j],
    stack=list,
    row_min=min,
    row_max=max,
    renormalize=_renormalize,
    particle_number=_particle_number,
)


def _canonicalize(family_id: str, block: SpectraBlock, rows: RowOps,
                  tolerance: float) -> _Canonical:
    """A block's canonical slots, with the tolerance its check compares
    slacks with; refuses a bad tolerance and a family without a list."""
    _check_tolerance(tolerance)
    fam = get_family(family_id)
    fam.require_list()
    canon = CANONICALIZERS[family_id](fam, block, rows)
    return canon if canon.tolerance is not None else replace(canon, tolerance=tolerance)


def _report(family_id, records, values, tolerance, notes=()) -> CheckReport:
    slacks = [rec.slack(values) for rec in records]
    # Only an equality's slack can be -0.0.  numpy's minimum of a short row
    # keeps the later of two equal values, and so does min() from the end.
    worst = min(reversed(slacks)) if slacks else 0.0
    return CheckReport(
        family_id=family_id,
        satisfied=worst >= -tolerance,
        worst_slack=worst,
        violated=tuple(rec.label or f"#{i}" for i, (rec, s) in enumerate(zip(records, slacks))
                       if s < -tolerance),
        n_inequalities=len(records),
        tolerance=tolerance,
        notes=notes,
    )


def check_family(family_id: str, bundle: SpectraBundle, tolerance: float = 1e-10) -> CheckReport:
    """Evaluate every inequality of a family on a spectra bundle.

    Input spectra are canonicalized per the family's declared conventions
    (re-sorted, re-normalized); equalities are checked two-sided.  The
    report equals that of ``catalog.check_block`` on a block of this one
    bundle, bit for bit.
    """
    def row(spec):
        return None if spec is None else list(spec.as_floats())

    lam = bundle.one_body
    block = SpectraBlock(tuple(row(s) for s in bundle.sites), row(bundle.joint), row(lam),
                         None if lam is None else float(lam.trace_tag))
    canon = _canonicalize(family_id, block, _FLOAT_ROWS, tolerance)
    fam = get_family(family_id)
    records = fam.records
    if fam.generate is not None:
        records = fam.generate({name: len(v) for name, v in canon.values.items()})
    notes = canon.notes
    if canon.renormalized:
        notes = (f"renormalized one-body spectrum to trace {canon.target}",) + notes
    return _report(family_id, records, canon.values, canon.tolerance, notes)


def check_chsh(correlations, tolerance: float = 1e-10) -> CheckReport:
    """Evaluate the sixteen facets of the local correlation polytope.

    ``correlations`` is (c11, c12, c21, c22) with entries in [-1, 1], where
    c_ij is the expectation of the product of the i-th A-site and j-th
    B-site measurements.
    """
    _check_tolerance(tolerance)
    corr = tuple(float(c) for c in correlations)
    if len(corr) != 4:
        raise CatalogError("expected four correlation values")
    for c in corr:
        if not abs(c) <= 1 + 1e-12:   # NaN fails this too
            raise CatalogError(f"correlation {c} outside [-1, 1]")
    return _report("CHSH_16", CHSH_RECORDS, {"corr": corr}, tolerance)
