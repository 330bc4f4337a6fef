"""Spectral compatibility constraints for quantum marginals and
one-particle N-representability.

Library layout:

- ``tensor``: dense multipartite states, marginals, Schmidt, purification,
  Haar sampling
- ``spectra``: majorization, Young diagrams, Gale-Ryser, particle-hole
- ``fermion``: occupation-number basis, 1- and 2-particle RDMs, energy
- ``catalog``: float64 checks of the printed inequality families on blocks
  of bundles (campaigns), and cross-family equivalence sampling
- ``schubert``: divided differences, Schubert polynomials, structure
  coefficients, inequality generation
- ``chambers``: exact rational cubicle arrangements, extremal edges,
  convex hulls, redundancy filtering
- ``rational``: exact linear algebra on one fraction-free echelon kernel
- ``plethysm``: symmetric-power decompositions and the inner approximation
- ``harness``: seeded Monte-Carlo campaigns and witness search
- ``records``: ``InequalityRecord`` and the family registry: each printed
  family's exact records and the system it applies to, and the check of
  one spectra bundle on Python floats (no numpy)
- ``cli``: the ``qmarginal`` command

The names in ``__all__`` load on first access: ``import qmarginal`` imports
no submodule, and ``qmarginal.spectrum_of`` imports ``tensor`` (and with it
numpy) only when it is first read.  ``qmarginal.check_family`` needs no
numpy.
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported on
# first access (PEP 562), so ``import qmarginal`` imports no submodule and
# the exact commands never pull in numpy through the package namespace.
_SOURCE_OF = {
    "check_equivalence": "catalog",
    **dict.fromkeys(("FermionState", "energy_from_two_rdm", "fermion_basis",
                     "haar_fermion", "one_rdm", "one_rdm_mixed", "slater",
                     "two_rdm"), "fermion"),
    **dict.fromkeys(("CheckReport", "InequalityRecord", "SpectraBundle",
                     "applicable_families", "check_chsh", "check_family",
                     "family_ids"), "records"),
    **dict.fromkeys(("Spectrum", "YoungDiagram", "gale_ryser", "majorizes",
                     "particle_hole", "renormalize", "spectrum", "transpose"),
                    "spectra"),
    **dict.fromkeys(("SystemDescriptor", "parse_system"), "systems"),
    **dict.fromkeys(("DensityMatrix", "PureState", "gram_of_slices", "haar_pure",
                     "partial_trace", "pure_marginal", "purify",
                     "random_mixed_with_spectrum", "schmidt", "spectrum_of"),
                    "tensor"),
}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE_OF)


def __getattr__(name):
    module = _SOURCE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
