"""Exact linear constraints over named spectrum slots.

``InequalityRecord`` is the output of the exact side (Schubert generation,
the printed families) and the input the catalog compiles its float checks
from.  This module imports nothing beyond ``dataclasses`` and
``fractions``, so the exact commands can build records without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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
