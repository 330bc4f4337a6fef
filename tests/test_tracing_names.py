"""The benchmark's tracer names only functions the library still has.

``perfbench/tracing.py`` wraps the functions listed in ``SPANNED`` and
``COUNTED`` by name; a renamed or deleted function breaks ``--trace 1``.
The file is loaded read-only, without being imported as a module of the
suite.
"""

import importlib
import importlib.util
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
