"""Spectrum and Young-diagram combinatorics.

Majorization, diagram transposition, the Gale-Ryser feasibility test for
0/1-matrix margins, particle-hole duality of fermionic occupation spectra,
and trace renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SUM_TOL = 1e-10
SORT_TOL = 1e-12


class SpectrumError(ValueError):
    """Raised for malformed spectra or incompatible spectrum pairs."""


@dataclass(frozen=True)
class Spectrum:
    """Nonincreasing real vector tagged with its normalization.

    ``trace_tag`` records the declared trace (1 for states, n for the
    chemists' one-particle density matrix).  Entries may be floats or exact
    rationals; the sum must match the tag within ``SUM_TOL``.
    """

    values: tuple
    trace_tag: object

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        try:
            total = sum(vals, Fraction(0) if _all_exact(vals) else 0.0)
            float(total)
            for v in vals + (self.trace_tag,):
                if not math.isfinite(float(v)):
                    raise SpectrumError(f"spectrum value {v} is not finite")
        except OverflowError:
            # an exact entry, trace or sum that no float holds
            raise SpectrumError("spectrum too large for a float") from None
        for a, b in zip(vals, vals[1:]):
            if float(a) < float(b) - SORT_TOL:
                raise SpectrumError(f"spectrum not nonincreasing: {a} < {b}")
        if abs(float(total) - float(self.trace_tag)) > SUM_TOL:
            raise SpectrumError(
                f"spectrum sum {float(total)} does not match trace tag {self.trace_tag}"
            )

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_floats(self) -> tuple:
        return tuple(float(v) for v in self.values)


def _all_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def spectrum(values, trace_tag=None) -> Spectrum:
    """Sort ``values`` nonincreasing and wrap them as a Spectrum.

    If ``trace_tag`` is omitted the actual sum is used as the tag.
    """
    vals = sorted(values, key=float, reverse=True)
    if trace_tag is None:
        trace_tag = sum(vals, Fraction(0) if _all_exact(vals) else 0.0)
    return Spectrum(tuple(vals), trace_tag)


def majorizes(nu: Spectrum, lam: Spectrum, tol: float = SUM_TOL) -> bool:
    """True iff ``lam`` is majorized by ``nu`` (every partial sum of lam
    is bounded by the matching partial sum of nu).

    The shorter vector is padded with zeros; total sums must agree within
    ``tol``.
    """
    a = list(lam.as_floats())
    b = list(nu.as_floats())
    size = max(len(a), len(b))
    a += [0.0] * (size - len(a))
    b += [0.0] * (size - len(b))
    if abs(sum(a) - sum(b)) > tol:
        raise SpectrumError("majorization requires equal sums")
    pa = pb = 0.0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa > pb + tol:
            return False
    return True


@dataclass(frozen=True)
class YoungDiagram:
    """Partition with strictly positive nonincreasing rows."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows if int(r) != 0)
        if any(r < 0 for r in rows):
            raise SpectrumError("diagram rows must be nonnegative")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise SpectrumError(f"diagram rows must be nonincreasing: {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def __len__(self):
        return len(self.rows)


def transpose(lam: YoungDiagram) -> YoungDiagram:
    """Column lengths of the diagram.  An involution."""
    if not lam.rows:
        return YoungDiagram(())
    cols = [0] * lam.rows[0]
    for r in lam.rows:
        for i in range(r):
            cols[i] += 1
    return YoungDiagram(tuple(cols))


def gale_ryser(lam: YoungDiagram, mu: YoungDiagram) -> bool:
    """Feasibility of a 0/1 matrix with row sums ``lam`` and column sums
    ``mu``: true iff lam is majorized by the transpose of mu.

    Exact integer arithmetic; no tolerances.
    """
    if lam.size != mu.size:
        raise SpectrumError("margins must have equal total size")
    mut = transpose(mu).rows
    size = max(len(lam.rows), len(mut))
    a = list(lam.rows) + [0] * (size - len(lam.rows))
    b = list(mut) + [0] * (size - len(mut))
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa > pb:
            return False
    return True


def particle_hole(lam: Spectrum, r: int) -> Spectrum:
    """Map occupation spectrum of an n-particle system on r orbitals to the
    (r-n)-hole spectrum: entry i becomes 1 - lam[r+1-i].
    """
    if len(lam) != r:
        raise SpectrumError(f"expected {r} entries, got {len(lam)}")
    for v in lam.values:
        if float(v) < -SUM_TOL or float(v) > 1 + SUM_TOL:
            raise SpectrumError(f"occupation number {v} outside [0, 1]")
    if _all_exact(lam.values):
        vals = tuple(1 - v for v in reversed(lam.values))
        tag = r - lam.trace_tag
    else:
        vals = tuple(1.0 - float(v) for v in reversed(lam.values))
        tag = r - float(lam.trace_tag)
    return Spectrum(vals, tag)


def renormalize(lam: Spectrum, target) -> Spectrum:
    """Scaled copy of the spectrum with a new declared trace."""
    current = sum(lam.values, Fraction(0) if _all_exact(lam.values) else 0.0)
    if float(current) == 0.0:
        raise SpectrumError("cannot renormalize a zero-sum spectrum")
    if _all_exact(lam.values) and isinstance(target, (int, Fraction)):
        scale = Fraction(target) / Fraction(current)
    else:
        scale = float(target) / float(current)
    return Spectrum(tuple(v * scale for v in lam.values), target)
