"""Spectrum and Young-diagram combinatorics.

Partial-sum dominance, majorization, diagram transposition, the Gale-Ryser
feasibility test for 0/1-matrix margins, particle-hole duality of fermionic
occupation spectra, and trace renormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add, ge

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
            total = _total(vals)
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


def _total(values):
    """The values added in order, exactly if every one is exact."""
    return sequential_sum(values, Fraction(0) if _all_exact(values) else 0.0)


def spectrum(values, trace_tag=None) -> Spectrum:
    """Sort ``values`` nonincreasing and wrap them as a Spectrum.

    If ``trace_tag`` is omitted the actual sum, taken in order, is used as
    the tag.
    """
    try:
        vals = sorted(values, key=float, reverse=True)
    except OverflowError:
        raise SpectrumError("spectrum too large for a float") from None
    if trace_tag is None:
        trace_tag = _total(vals)
    return Spectrum(tuple(vals), trace_tag)


def dominates(a, b, tol=0) -> bool:
    """Every partial sum of ``a`` plus ``tol`` reaches the matching partial
    sum of ``b``, the shorter vector padded with zeros: the order majorization,
    Gale-Ryser and nonzero Kostka numbers read.  ``accumulate`` adds in order;
    ``sum`` compensates its rounding of floats from Python 3.12 on."""
    extra = len(b) - len(a)
    if extra > 0:
        a = chain(a, repeat(0, extra))
    elif extra:
        b = chain(b, repeat(0, -extra))
    sums = accumulate(a)
    if tol:
        sums = map(add, sums, repeat(tol))
    return all(map(ge, sums, accumulate(b)))


def majorizes(nu: Spectrum, lam: Spectrum, tol: float = SUM_TOL) -> bool:
    """True iff ``lam`` is majorized by ``nu`` (every partial sum of lam
    is bounded by the matching partial sum of nu, within ``tol``).

    The shorter vector is padded with zeros; total sums must agree within
    ``tol``.
    """
    lam_vals, nu_vals = lam.as_floats(), nu.as_floats()
    if abs(sequential_sum(lam_vals) - sequential_sum(nu_vals)) > tol:
        raise SpectrumError("majorization requires equal sums")
    return dominates(nu_vals, lam_vals, tol)


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
    return dominates(transpose(mu).rows, lam.rows)


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


def sequential_sum(values, start=0.0):
    """``start`` plus the values, added left to right.  A plain loop:
    ``sum`` compensates its rounding of floats from Python 3.12 on."""
    total = start
    for v in values:
        total += v
    return total


def renormalize(lam: Spectrum, target) -> Spectrum:
    """Scaled copy of the spectrum with a new declared trace; a float sum is
    taken in order."""
    current = _total(lam.values)
    if float(current) == 0.0:
        raise SpectrumError("cannot renormalize a zero-sum spectrum")
    if _all_exact(lam.values) and isinstance(target, (int, Fraction)):
        scale = Fraction(target) / Fraction(current)
    else:
        scale = float(target) / float(current)
    return Spectrum(tuple(v * scale for v in lam.values), target)
