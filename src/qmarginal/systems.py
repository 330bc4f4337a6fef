"""System descriptors shared by the catalog, geometry and CLI layers.

A descriptor names either a tensor format ("2x2x3"), an array of qubits
("qubits:3") or a fermionic system ("fermi:6:3" for n=3 particles in r=6
orbitals), optionally suffixed with ":pure" or ":mixed".
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SystemError(ValueError):
    """Raised for unknown or malformed system descriptors."""


@dataclass(frozen=True)
class SystemDescriptor:
    kind: str          # "tensor" | "qubits" | "fermion"
    dims: tuple = ()   # tensor factor dimensions
    r: int = 0         # fermionic orbital count
    n: int = 0         # fermionic particle count
    pure: bool = True

    @property
    def dim(self) -> int:
        """Dimension of the state space: C(r, n) or the product of dims."""
        return math.comb(self.r, self.n) if self.kind == "fermion" else math.prod(self.dims)

    def __str__(self):
        purity = "pure" if self.pure else "mixed"
        if self.kind == "tensor":
            return "x".join(str(d) for d in self.dims) + f":{purity}"
        if self.kind == "qubits":
            return f"qubits:{len(self.dims)}:{purity}"
        return f"fermi:{self.r}:{self.n}:{purity}"


def _integers(fields, form: str, text: str) -> tuple:
    """The integer fields of ``text``, one per ``<field>`` of ``form``."""
    try:
        if len(fields) == form.count(":"):
            return tuple(int(f) for f in fields)
    except ValueError:
        pass
    raise SystemError(f"expected {form} (integer fields), got {text!r}")


def parse_system(text: str) -> SystemDescriptor:
    """Parse a descriptor string; see the module docstring for the grammar."""
    parts = text.strip().lower().split(":")
    pure = True
    if parts and parts[-1] in ("pure", "mixed"):
        pure = parts.pop() == "pure"
    if not parts:
        raise SystemError(f"empty system descriptor: {text!r}")
    head = parts[0]
    if head == "qubits":
        (count,) = _integers(parts[1:], "qubits:<count>", text)
        if count < 1:
            raise SystemError(f"qubit count must be positive, got {count}")
        return SystemDescriptor("qubits", dims=(2,) * count, pure=pure)
    if head == "fermi":
        r, n = _integers(parts[1:], "fermi:<r>:<n>", text)
        if not 0 < n < r:
            raise SystemError(f"need 0 < n < r, got r={r}, n={n}")
        return SystemDescriptor("fermion", r=r, n=n, pure=pure)
    if len(parts) != 1:
        raise SystemError(f"unknown system descriptor: {text!r}")
    try:
        dims = tuple(int(d) for d in head.split("x"))
    except ValueError as exc:
        raise SystemError(f"unknown system descriptor: {text!r}") from exc
    if len(dims) < 2 or any(d < 2 for d in dims):
        raise SystemError(f"tensor format needs >= 2 factors of dim >= 2: {text!r}")
    return SystemDescriptor("tensor", dims=dims, pure=pure)
