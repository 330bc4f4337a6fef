"""The package namespace and the import boundary of the exact side.

``qmarginal`` resolves its public names lazily, and the exact commands
(``edges``, ``generate``, ``coeff``, ``plethysm``, ``hull``, ``families``)
and the one-bundle checks (``check``, ``chsh``) run without numpy.
"""

import ast
import json
import subprocess
import sys

import pytest

import qmarginal
from qmarginal import catalog, records


def test_every_public_name_resolves():
    for name in qmarginal.__all__:
        assert getattr(qmarginal, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qmarginal import *", namespace)
    assert set(qmarginal.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(qmarginal.__all__) <= set(dir(qmarginal))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmarginal.no_such_name


def test_catalog_reexports_the_record_types():
    assert catalog.InequalityRecord is records.InequalityRecord
    assert catalog.CatalogError is records.CatalogError
    assert qmarginal.InequalityRecord is records.InequalityRecord


@pytest.mark.parametrize("name", ["CheckReport", "SpectraBundle", "check_chsh",
                                  "check_family", "_check_tolerance"])
def test_catalog_reexports_the_one_bundle_checks(name):
    assert getattr(catalog, name) is getattr(records, name)
    if not name.startswith("_"):
        assert getattr(qmarginal, name) is getattr(records, name)


def test_exact_commands_never_import_numpy():
    """The exact modules and commands use integers and Fractions only, so
    none of them may load numpy, directly or through the package."""
    argvs = [
        ["edges", "--system", "qubits:3"],
        ["generate", "--system", "qubits:3", "--edge", "1,1,2"],
        ["coeff", "--u", "1,2", "--v", "1,2", "--w", "1,2,3,4",
         "--a", "1,-1", "--b", "2,-2"],
        ["plethysm", "-r", "4", "-n", "2", "-m", "2"],
        ["hull", "-r", "4", "-n", "2", "-M", "2"],
        ["families", "--system", "fermi:6:3:pure"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "import qmarginal\n"
        "import qmarginal.rational, qmarginal.systems, qmarginal.chambers\n"
        "import qmarginal.schubert, qmarginal.plethysm, qmarginal.records\n"
        "from qmarginal.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# One bundle per family with an inequality list, as ``reduce`` prints
# spectra: (slot, values, trace).  BD6's declares trace 1.5, so it is
# renormalized; PAULI's has an entry outside [0, 1].
ONE_BUNDLE_SPECTRA = {
    "POLYGON": [("site0", [0.6, 0.4], None), ("site1", [0.7, 0.3], None),
                ("site2", [0.8, 0.2], None)],
    "BRAVYI_2Q": [("site0", [0.6, 0.4], None), ("site1", [0.7, 0.3], None),
                  ("joint", [0.4, 0.3, 0.2, 0.1], None)],
    "FRANZ_3QUTRIT": [(f"site{i}", [0.5, 0.3, 0.2], None) for i in range(3)],
    "BASIC": [("site0", [0.6, 0.4], None), ("site1", [0.5, 0.3, 0.2], None),
              ("joint", [0.3, 0.2, 0.2, 0.1, 0.1, 0.1], None)],
    "THREE_QUBIT_MIXED": [(f"site{i}", [0.6, 0.4], None) for i in range(3)]
    + [("joint", [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05], None)],
    "PAULI": [("one_body", [1.1, 1, 0.5, 0.4, 0, 0], 3)],
    "TWO_PARTICLE_PURE": [("one_body", [0.5, 0.5, 0.5, 0.5, 0, 0], 2)],
    "BD6": [("one_body", [0.5, 0.5, 0.5, 0, 0, 0], 1.5)],
    "F7_BD": [("one_body", [1, 1, 0.5, 0.5, 0, 0, 0], 3)],
    "F7_LIST": [("one_body", [1, 1, 0.5, 0.5, 0, 0, 0], 3)],
    "F8_31": [("one_body", [0.9, 0.85, 0.8, 0.2, 0.1, 0.08, 0.05, 0.02], 3)],
    "F84_14": [("one_body", [1, 1, 0.5, 0.5, 0.5, 0.5, 0, 0], 4)],
    "F84_ABS": [("one_body", [1, 1, 0.5, 0.5, 0.5, 0.5, 0, 0], 4)],
    "W2H4_MIXED": [("one_body", [0.5, 0.5, 0.5, 0.5], 2),
                   ("joint", [0.5, 0.2, 0.1, 0.1, 0.05, 0.05], None)],
}


def test_one_bundle_commands_never_import_numpy():
    """``check`` of every family with an inequality list, read through
    ``--bundle -``, and ``chsh`` evaluate on Python floats: neither they nor
    the package's one-bundle names load numpy."""
    listed = sorted(fid for fid, fam in records.FAMILIES.items()
                    if fid != "CHSH_16" and (fam.records or fam.generate is not None))
    assert sorted(ONE_BUNDLE_SPECTRA) == listed
    bundles = {
        fid: "".join(json.dumps({"record": "spectrum", "slot": slot, "values": values,
                                 **({} if trace is None else {"trace": trace})}) + "\n"
                     for slot, values, trace in spectra)
        for fid, spectra in ONE_BUNDLE_SPECTRA.items()
    }
    script = (
        "import contextlib, io, sys\n"
        "import qmarginal\n"
        "qmarginal.check_family, qmarginal.check_chsh, qmarginal.SpectraBundle\n"
        "from qmarginal.cli import main\n"
        "codes = {}\n"
        f"for fid, text in {bundles!r}.items():\n"
        "    sys.stdin = io.StringIO(text)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes[fid] = main(['check', '--family', fid, '--bundle', '-'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes['chsh'] = main(['chsh', '--correlations', '0.5,0.5,0.5,-0.5'])\n"
        "print(codes)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.splitlines()
    codes = ast.literal_eval(codes)
    assert set(codes.values()) == {0, 1}, codes   # every check ran to a report
    assert codes["PAULI"] == 1 and codes["chsh"] == 0
    assert loaded == "[]"


EXACT_MODULES = ("chambers", "schubert", "rational", "plethysm", "systems")
# Modules the exact side may not import, at the top or inside a function.
FLOAT_SIDE = ("numpy", "scipy", "catalog", "tensor", "fermion", "harness")


def _imported_modules(tree):
    """(line, name) of each module an import statement names: the top-level
    package, or the submodule of ``qmarginal`` (relative imports included)."""
    import ast

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level:
                base = ["qmarginal"] + base
            # from package import name: the name may be a submodule
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        for path in paths:
            inside = path[0] == "qmarginal" and len(path) > 1
            found.append((node.lineno, path[1] if inside else path[0]))
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES + ("records",))
def test_exact_modules_import_nothing_of_the_float_side(module):
    """The registry and the exact modules load without numpy: none imports
    numpy, scipy, ``catalog``, ``tensor``, ``fermion`` or ``harness``, at
    the top or lazily inside a function."""
    import ast
    from pathlib import Path

    path = Path(qmarginal.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(), str(path))
    assert [(line, name) for line, name in _imported_modules(tree)
            if name in FLOAT_SIDE] == []


def test_import_scan_sees_every_form_of_import():
    import ast

    source = ("import numpy as np\nimport qmarginal.catalog\n"
              "from .catalog import FAMILIES\nfrom . import tensor, records\n"
              "from qmarginal.harness import mc_verify\nfrom scipy.optimize import x\n"
              "def f():\n    from .fermion import one_rdm\n")
    assert [name for _, name in _imported_modules(ast.parse(source))] == [
        "numpy", "catalog", "catalog", "records", "tensor", "harness", "scipy", "fermion"]


def _float_uses(tree):
    """(line, what) for each float literal, float() call or numpy import."""
    import ast

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append((node.lineno, f"from {node.module} import"))
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_stay_exact(module):
    """The exact modules compute with integers and Fractions only: no float
    literal, no float() call and no numpy import anywhere in their source."""
    import ast
    from pathlib import Path

    path = Path(qmarginal.__file__).with_name(f"{module}.py")
    assert _float_uses(ast.parse(path.read_text(), str(path))) == []


def test_float_scan_flags_each_kind_of_float_use():
    import ast

    source = ("x = 0.5\ny = float(x)\nimport numpy as np\n"
              "from numpy.linalg import eigvalsh\nz = 2j\nok = 1 / 3\n")
    assert [line for line, _ in _float_uses(ast.parse(source))] == [1, 2, 3, 4, 5]


# Uncalled on purpose: the fermionic family generator of ROADMAP item 1
# replaces it.  Drop the entry when that lands.
UNCALLED_ALLOWED = ("schubert.generate_fermi_inequality",)


def _uncalled_definitions(sources):
    """"module.name" of each public module-level function or class of the
    {module: source} map that no other top-level statement of any module
    names (as a variable, an attribute or an imported name)."""
    defined, named_by = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = (module, getattr(stmt, "name", None))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_":
                defined.append(owner)
            for node in ast.walk(stmt):
                names = ([node.id] if isinstance(node, ast.Name) else
                         [node.attr] if isinstance(node, ast.Attribute) else
                         [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                         else [])
                for name in names:
                    named_by.setdefault(name, set()).add(owner)
    return [f"{module}.{name}" for module, name in defined
            if not named_by.get(name, set()) - {(module, name)}]


def test_uncalled_scan_skips_self_and_private_references():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    return h\n\n"
                    "def _p():\n    pass\n\nclass C:\n    pass\n",
               "b": "from .a import C\n\ndef h():\n    return 1\n"}
    assert _uncalled_definitions(sources) == ["a.f", "a.g"]


def test_library_keeps_only_code_its_callers_run():
    """Every public function or class of ``src/qmarginal`` is called by the
    library, exported in ``qmarginal.__all__`` or traced by name by the
    benchmark; a helper that only tests call lives beside those tests."""
    from pathlib import Path

    from tests.test_tracing_names import _listed_names

    package = Path(qmarginal.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    traced = {f"{mod}.{name}" for mod, name in _listed_names()}
    uncalled = [name for name in _uncalled_definitions(sources)
                if name not in traced and name.split(".")[1] not in qmarginal.__all__]
    assert uncalled == list(UNCALLED_ALLOWED)
