"""The benchmark's tracer names only functions the library still has.

``perfbench/tracing.py`` wraps the functions listed in ``SPANNED`` and
``COUNTED`` by name; a renamed or deleted function breaks ``--trace 1``.
The file is loaded read-only, without being imported as a module of the
suite.  A wrapped function must also still be the one the layer calls: the
Schubert scan calls ``schubert_poly`` once per polynomial.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed_names():
    tracing = _tracing()
    return [(mod, name) for table in (tracing.SPANNED, tracing.COUNTED)
            for mod, names in table.items() for name in names]


def test_traced_names_resolve_to_library_attributes():
    names = _listed_names()
    assert len(names) > 40
    missing = []
    for mod, name in names:
        target = importlib.import_module(f"qmarginal.{mod}")
        for part in name.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{mod}.{name}")
    assert missing == []


def test_scan_calls_schubert_poly_once_per_substituted_w(monkeypatch):
    """``schubert.schubert_poly.calls`` counts polynomials, not recursion
    steps: the memoized recursion runs behind a private helper, and S_w
    needs no divided-difference chain."""
    import qmarginal.schubert as schubert
    from tests.test_schubert import _degree

    calls = Counter()

    def counted(name):
        original = getattr(schubert, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(schubert, name, wrapper)

    counted("schubert_poly")
    counted("apply_chain")
    schubert.enumerate_inequalities((3, -3), (8, 1, -3, -6), max_length=3)
    assert calls["schubert_poly"] == 111   # every w in S_8 with l(w) <= 3
    calls.clear()
    assert _degree(schubert.schubert_poly((5, 3, 8, 1, 2, 7, 4, 6))) == 13
    assert calls == Counter(schubert_poly=1)
