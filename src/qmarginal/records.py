"""The printed constraint families, exactly.

``InequalityRecord`` is one linear constraint over named spectrum slots:
the output of the exact side (Schubert generation) and the form of every
printed family.  The family registry lives here too: each family's exact
records, the system it applies to and its declared count.  The float64
evaluation of the families is ``catalog``'s.  This module imports neither
numpy nor ``catalog``, so the exact commands (``hull``, ``families``) read
the registry without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations

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
        total = 0.0
        for slot, coeffs in self.terms:
            vec = values[slot]
            if len(vec) != len(coeffs):
                raise CatalogError(
                    f"slot {slot!r} expects {len(coeffs)} entries, got {len(vec)}"
                )
            total += sum(float(c) * float(v) for c, v in zip(coeffs, vec))
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
_add("CHSH_16", "sixteen sign/swap images of the base correlation inequality",
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
