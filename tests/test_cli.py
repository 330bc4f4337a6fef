"""CLI contract: subcommands, exit codes, record schema, round trips."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmarginal.cli import build_parser, main


def run_cli(args, stdin_text=None, tmp_path=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "qmarginal.cli", *args],
        capture_output=True, text=True, input=stdin_text,
        env=None if env is None else {**os.environ, **env},
    )
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    errors = [json.loads(line) for line in proc.stderr.splitlines() if line.strip()]
    return proc.returncode, records, errors


def test_edges_three_qubits():
    code, records, _ = run_cli(["edges", "--system", "qubits:3"])
    assert code == 0
    summary = records[-1]
    assert summary["record"] == "edge_summary"
    assert summary["count"] == 4
    assert all(r["schema"] == "qmarginal/1" for r in records)


def test_edges_over_the_dimension_cap_is_an_error_record():
    code, records, errors = run_cli(["edges", "--system", "fermi:8:4", "--dim-cap", "3"])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["kind"] == "GeometryError" and "cap 3" in error["message"]


def test_edges_without_a_dimension_cap_uses_the_library_cap(capsys):
    from qmarginal.chambers import DIM_CAP

    code, records, errors = _main_records(capsys, ["edges", "--system", "fermi:9:2"])
    assert code == 2 and records == []
    (error,) = errors
    assert error["kind"] == "GeometryError"
    assert f"dimension 8 exceeds the cap {DIM_CAP}" in error["message"]


def test_check_violated_exits_one():
    code, records, _ = run_cli(
        ["check", "--family", "BD6", "--spectrum", "1,1,0.5,0.5,0,0"]
    )
    assert code == 1
    assert records[-1]["satisfied"] is False
    assert records[-1]["violated"] == ["l4<=l5+l6"]


def test_check_satisfied_exits_zero():
    code, records, _ = run_cli(
        ["check", "--family", "BD6", "--spectrum", "1,1,1,0,0,0"]
    )
    assert code == 0
    assert records[-1]["satisfied"] is True


def test_check_autosorts_with_warning():
    code, records, _ = run_cli(
        ["check", "--family", "BD6", "--spectrum", "0,0,1,1,1,0"]
    )
    assert code == 0
    assert any(r["record"] == "warning" for r in records)


def test_plethysm_4_2_2():
    code, records, _ = run_cli(["plethysm", "-r", "4", "-n", "2", "-m", "2"])
    assert code == 0
    comps = [r for r in records if r["record"] == "component"]
    assert len(comps) == 2
    assert all(r["multiplicity"] == 1 for r in comps)
    assert records[-1]["total_dimension"] == 21


def test_coeff_two_sided():
    code, records, _ = run_cli([
        "coeff", "--u", "1,2", "--v", "1,2", "--w", "1,2,3,4",
        "--a", "1,-1", "--b", "2,-2",
    ])
    assert code == 0
    assert records[0]["value"] == 1


def test_coeff_tie_is_error():
    code, _, errors = run_cli([
        "coeff", "--u", "1,2", "--v", "1,2", "--w", "1,2,3,4",
        "--a", "1,-1", "--b", "1,-1",
    ])
    assert code == 2
    assert errors and errors[0]["record"] == "error"


def test_usage_error_emits_record_and_exit_two():
    code, _, errors = run_cli(["check"])
    assert code == 2
    assert errors and errors[0]["kind"] == "usage"


def test_generate_qubit_group():
    code, records, _ = run_cli(
        ["generate", "--system", "qubits:3", "--edge", "0,1,1"]
    )
    assert code == 0
    assert records[-1]["count"] == 1
    ineq = records[0]
    assert ineq["terms"]["delta"] == ["0", "1", "1"]


@pytest.mark.parametrize("system,edge,kind,message", [
    ("qubits:3", "1,1,0", "SchubertError", "qubit edge (1,1,0) must be sorted increasing"),
    ("qubits:3", "0,1,0", "SchubertError", "qubit edge (0,1,0) must be sorted increasing"),
    ("qubits:3", "0,0,0", "SchubertError", "qubit edge (0,0,0) is zero"),
    ("2x2", "0,0", "usage", "--edge is zero"),
    ("2x3", "0,0,0", "usage", "--edge is zero"),
    ("2x2", "-1,1", "usage", "--edge coordinate 1 is -1"),
    ("2x2", "1,-1", "usage", "--edge coordinate 2 is -1"),
    ("2x3", "1,-2,1", "usage", "--edge coordinate 2 is -2"),
])
def test_generate_refuses_an_edge_outside_its_chart_cone(capsys, system, edge, kind,
                                                          message):
    """An unsorted qubit edge would print another edge's weaker record under
    its own label, a zero edge the vacuous record 0 <= 0, and a tensor edge
    with a negative difference a test spectrum that is not sorted."""
    code, records, errors = _main_records(
        capsys, ["generate", "--system", system, "--edge", edge])
    assert code == 2 and records == []
    (error,) = errors
    assert error["kind"] == kind and message in error["message"]


def test_generate_reads_a_float_tensor_edge_exactly(capsys):
    code, records, errors = _main_records(
        capsys, ["generate", "--system", "2x3", "--edge", "0.5,1,1"])
    assert code == 0 and errors == []
    assert records == [
        {"record": "inequality", "relation": "<=", "bound": "0",
         "terms": {"A": ["1/4", "-1/4"], "B": ["1", "0", "-1"],
                   "AB": ["-5/4", "-3/4", "-1/4", "1/4", "3/4", "5/4"]},
         "label": "edge a=(1/4,-1/4) b=(1,0,-1) u=(1, 2) v=(1, 2, 3) "
                  "w=(1, 2, 3, 4, 5, 6) c=1", "schema": "qmarginal/1"},
        {"record": "generate_summary", "system": "2x3", "edge": ["1/2", "1", "1"],
         "count": 1, "schema": "qmarginal/1"},
    ]


def test_reduce_pure_state_and_check_round_trip(tmp_path):
    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / math.sqrt(2)  # GHZ
    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "2x2x2",
        "amplitudes": [[float(x), 0.0] for x in psi],
    }
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(state))
    code, records, _ = run_cli(["reduce", "--state", str(path)])
    assert code == 0
    sites = [r for r in records if r["slot"].startswith("site")]
    assert len(sites) == 3
    for site in sites:
        assert site["values"] == pytest.approx([0.5, 0.5])
    # pipe the reduce output into check as a bundle
    bundle_text = "\n".join(json.dumps(r) for r in records)
    code, records2, _ = run_cli(
        ["check", "--family", "POLYGON", "--bundle", "-"], stdin_text=bundle_text
    )
    assert code == 0
    assert records2[-1]["satisfied"] is True


def test_state_and_bundle_files_are_closed(tmp_path, capsys):
    """``reduce --state`` and ``check --bundle`` close the files they read:
    no ResourceWarning is left when the file objects are collected."""
    import gc
    import warnings

    state = tmp_path / "state.json"
    state.write_text(json.dumps({"format_version": 1, "kind": "pure", "system": "2x2",
                                 "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["reduce", "--state", str(state)]) == 0
        bundle = tmp_path / "bundle.jsonl"
        bundle.write_text(capsys.readouterr().out)
        assert main(["check", "--family", "BRAVYI_2Q", "--bundle", str(bundle)]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_reduce_fermion_state(tmp_path):
    from qmarginal.fermion import fermion_basis

    basis = fermion_basis(6, 3)
    amps = [[0.0, 0.0] for _ in range(basis.dim)]
    amps[0] = [1.0, 0.0]
    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "fermi:6:3",
        "amplitudes": amps,
    }
    path = tmp_path / "slater.json"
    path.write_text(json.dumps(state))
    code, records, _ = run_cli(["reduce", "--state", str(path)])
    assert code == 0
    one_body = next(r for r in records if r["slot"] == "one_body")
    assert one_body["values"] == pytest.approx([1, 1, 1, 0, 0, 0], abs=1e-12)
    assert one_body["trace"] == pytest.approx(3.0)


def test_round_trip_matches_in_process(tmp_path):
    """reduce | check reproduces the library result exactly."""
    from qmarginal.catalog import SpectraBundle, check_family
    from qmarginal.fermion import haar_fermion, one_rdm
    from qmarginal.tensor import spectrum_of

    psi = haar_fermion(6, 3, 2024)
    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "fermi:6:3",
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, records, _ = run_cli(["reduce", "--state", str(path)])
    bundle_text = "\n".join(json.dumps(r) for r in records)
    code, out, _ = run_cli(
        ["check", "--family", "BD6", "--bundle", "-"], stdin_text=bundle_text
    )
    assert code == 0
    in_process = check_family(
        "BD6", SpectraBundle(one_body=spectrum_of(one_rdm(psi)))
    )
    # 17 significant digits round-trip losslessly through the text format
    assert out[-1]["worst_slack"] == pytest.approx(in_process.worst_slack, abs=1e-15)
    assert out[-1]["satisfied"] == in_process.satisfied


def test_reduce_mixed_fermion_state_pipes_into_check(tmp_path):
    from qmarginal.fermion import fermion_basis
    from qmarginal.tensor import haar_unitary, rng_from_seed

    basis = fermion_basis(4, 2)
    nu = np.array([0.35, 0.25, 0.2, 0.1, 0.06, 0.04])
    u = haar_unitary(basis.dim, rng_from_seed(5))
    rho = (u * nu) @ u.conj().T
    state = {
        "format_version": 1,
        "kind": "mixed",
        "system": "fermi:4:2",
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(state))
    code, records, _ = run_cli(["reduce", "--state", str(path)])
    assert code == 0
    slots = {r["slot"] for r in records}
    assert {"one_body", "joint"} <= slots
    bundle_text = "\n".join(json.dumps(r) for r in records)
    code, out, _ = run_cli(
        ["check", "--family", "W2H4_MIXED", "--bundle", "-"], stdin_text=bundle_text
    )
    assert code == 0
    assert out[-1]["satisfied"] is True


def test_witness_infeasible_exits_one():
    code, records, _ = run_cli([
        "witness", "--system", "qubits:3",
        "--targets", "0.6,0.4;0.9,0.1;0.9,0.1",
        "--restarts", "5", "--seed", "13",
    ])
    assert code == 1
    assert records[-1]["success"] is False
    assert "state" not in records[-1]


def test_console_entry_point():
    # Runs the [project.scripts] declaration of this checkout the way the
    # script an install generates does, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qmarginal"]
    module, _, attr = spec.partition(":")
    wrapper = (
        f"import sys; from {module} import {attr.split('.')[0]}; "
        f"sys.argv[0] = 'qmarginal'; sys.exit({attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "families", "--system", "2x2:mixed"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["families"] == ["BASIC", "BRAVYI_2Q"]


@pytest.mark.skipif(shutil.which("qmarginal") is None,
                    reason="qmarginal console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["qmarginal", "families", "--system", "2x2:mixed"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["families"] == ["BASIC", "BRAVYI_2Q"]


def test_chsh_command():
    code, records, _ = run_cli(["chsh", "--correlations", "1,1,1,1"])
    assert code == 0
    s = 2 ** -0.5
    code, records, _ = run_cli(["chsh", "--correlations", f"{s},{s},{s},{-s}"])
    assert code == 1


def test_verify_command():
    code, records, _ = run_cli([
        "verify", "--family", "BD6", "--system", "fermi:6:3:pure",
        "--trials", "50", "--seed", "9",
    ])
    assert code == 0
    assert records[-1]["violations"] == 0


def _strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


def test_verify_zero_trials_emits_null_min_slack():
    proc = subprocess.run(
        [sys.executable, "-m", "qmarginal.cli", "verify", "--family", "BD6",
         "--system", "fermi:6:3:pure", "--trials", "0", "--seed", "9"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (record,) = [_strict_json(line) for line in proc.stdout.splitlines()]
    assert record["trials"] == 0
    assert record["min_slack"] is None


def test_non_finite_output_is_an_exit_two_error():
    # -1e400 is -inf as a float: refused before any report would carry a NaN slack
    proc = subprocess.run(
        [sys.executable, "-m", "qmarginal.cli", "check", "--family", "BD6",
         "--spectrum", "1,1,0.5,0.5,0,-1e400"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    for line in proc.stdout.splitlines():
        _strict_json(line)
    errors = [_strict_json(line) for line in proc.stderr.splitlines()]
    assert errors[-1]["record"] == "error"


@pytest.mark.parametrize("token", ["-1e400", "nan", "inf"])
def test_non_finite_spectrum_entry_is_named(token):
    values = f"1,1,{token},0.5,0,0"
    proc = subprocess.run(
        [sys.executable, "-m", "qmarginal.cli", "check", "--family", "BD6",
         "--spectrum", values],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (error,) = [_strict_json(line) for line in proc.stderr.splitlines()]
    assert error["record"] == "error"
    assert repr(token) in error["message"]


def test_verify_names_the_worst_trial():
    args = ["verify", "--family", "BD6", "--system", "fermi:6:3:pure",
            "--trials", "50", "--seed", "9"]
    code, records, _ = run_cli(args)
    assert code == 0
    worst = records[-1]["worst_trial"]
    assert isinstance(worst, int) and 0 <= worst < 50
    code, again, _ = run_cli(args + ["--jobs", "2"])
    assert again[-1]["worst_trial"] == worst
    code, records, _ = run_cli(args[:-4] + ["--trials", "0", "--seed", "9"])
    assert records[-1]["worst_trial"] is None


@pytest.mark.parametrize("state", [
    {"format_version": 1, "kind": "pure", "system": "2x2"},
    {"format_version": 1, "system": "2x2"},
    {"format_version": 1, "kind": "mixed", "system": "2x2"},
    {"format_version": 1, "kind": "pure", "amplitudes": [[1.0, 0.0]] * 4},
    [1, 2],
    {"format_version": 1, "kind": "pure", "system": "2x2", "amplitudes": [1, 0, 0, 0]},
    {"format_version": 1, "kind": "pure", "system": "2x2", "amplitudes": [["a", "b"]] * 4},
    {"format_version": 1, "kind": "pure", "system": "2x2",
     "amplitudes": [[1.0, 0.0], None, [0.0, 0.0], [0.0, 0.0]]},
    {"format_version": 1, "kind": "pure", "system": "2x2",
     "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    {"format_version": 1, "kind": "pure", "system": "2x2",
     "amplitudes": [[True, False], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    {"format_version": 1, "kind": "pure", "system": "2x2", "amplitudes": [[1.0, 0.0]]},
    {"format_version": 1, "kind": "pure", "system": "fermi:4:2",
     "amplitudes": [[10 ** 400, 0]] + [[0, 0]] * 5},
    {"format_version": 1, "kind": "weird", "system": "2x2",
     "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]},
    {"format_version": 1, "kind": "mixed", "system": "2x2",
     "matrix": [[[0.25, 0.0]] * 4] * 3},
    {"format_version": 1, "kind": "mixed", "system": "fermi:4:2",
     "matrix": [[[0.25, 0.0]] * 4] * 4},
    {"format_version": 1, "kind": "mixed", "system": "2x2",
     "matrix": [[[0.25, 0.0]] * 4] * 3 + [[[0.25, 0.0]] * 3]},
])
def test_reduce_malformed_state_exits_two(tmp_path, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, records, errors = run_cli(["reduce", "--state", str(path)])
    assert code == 2
    assert records == []
    assert errors[-1]["record"] == "error"


def _diagonal_state(system, diagonal, entry=None):
    """A mixed state file with a diagonal matrix, but for ``entry``, an
    ((i, j), [re, im]) pair that overwrites one entry."""
    size = len(diagonal)
    matrix = [[[float(diagonal[i]) if i == j else 0.0, 0.0] for j in range(size)]
              for i in range(size)]
    if entry is not None:
        (i, j), value = entry
        matrix[i][j] = value
    return {"format_version": 1, "kind": "mixed", "system": system, "matrix": matrix}


@pytest.mark.parametrize("state,message", [
    # eigenvalue -0.5 with every occupation in [0, 1.5]: the one-body
    # spectrum alone does not show it
    (_diagonal_state("fermi:4:2", [1.0, 0.5, 0.0, -0.5, 0.0, 0.0]), "negative eigenvalue"),
    (_diagonal_state("fermi:4:2", [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), "trace 2.0"),
    (_diagonal_state("fermi:4:2", [0.5, 0.5, 0.0, 0.0, 0.0, 0.0], ((0, 1), [0.1, 0.0])),
     "not Hermitian"),
    (_diagonal_state("fermi:4:2", [0.5, 0.5, 0.0, 0.0, 0.0, 0.0], ((0, 0), [float("nan"), 0.0])),
     "finite"),
    (_diagonal_state("2x2", [1.0, 0.5, 0.0, -0.5]), "negative eigenvalue"),
    (_diagonal_state("2x2", [1.0, 1.0, 0.0, 0.0]), "trace 2.0"),
])
def test_reduce_refuses_mixed_states_that_are_not_density_matrices(tmp_path, capsys,
                                                                   state, message):
    """Fermionic and tensor mixed state files get the same density-matrix
    checks: Hermitian, PSD, finite, trace 1."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert main(["reduce", "--state", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (error,) = [json.loads(line) for line in err.splitlines()]
    assert error["record"] == "error" and message in error["message"]


def test_verify_requires_seed():
    code, _, errors = run_cli([
        "verify", "--family", "BD6", "--system", "fermi:6:3:pure",
        "--trials", "10",
    ])
    assert code == 2


def test_equiv_command():
    code, records, _ = run_cli([
        "equiv", "--family-a", "F7_BD", "--family-b", "F7_LIST",
        "--samples", "500", "--seed", "4",
    ])
    assert code == 0
    assert records[-1]["disagreements"] == 0


def test_witness_command_emits_loadable_state(tmp_path):
    code, records, _ = run_cli([
        "witness", "--system", "qubits:3",
        "--targets", "0.5,0.5;0.5,0.5;0.5,0.5",
        "--restarts", "10", "--seed", "12",
    ])
    assert code == 0
    rec = records[-1]
    assert rec["success"] is True
    # the embedded state file round-trips through reduce
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(rec["state"]))
    code, reduced, _ = run_cli(["reduce", "--state", str(path)])
    assert code == 0
    sites = [r for r in reduced if r["slot"].startswith("site")]
    for site in sites:
        assert site["values"] == pytest.approx([0.5, 0.5], abs=2e-3)


def test_isospec_command():
    code, records, _ = run_cli([
        "isospec", "--formats", "2x2;2x3", "--trials", "25", "--seed", "8",
    ])
    assert code == 0
    assert records[-1]["max_discrepancy"] < 1e-10


@pytest.mark.parametrize("fmt", ["2x2x2", "fermi:6:3"])
def test_isospec_refuses_formats_without_two_factors(fmt):
    code, records, errors = run_cli([
        "isospec", "--formats", f"2x2;{fmt}", "--trials", "2", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "ValueError"
    assert fmt in error["message"]


def _reduce_slots(tmp_path, state, *extra):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, records, errors = run_cli(["reduce", "--state", str(path), *extra])
    assert code == 0, errors
    return {r["slot"]: r["values"] for r in records}


def test_reduce_mixed_tensor_state_with_and_without_keep(tmp_path):
    from qmarginal.tensor import partial_trace, random_density, rng_from_seed, spectrum_of

    rho = random_density((2, 2, 2), rng_from_seed(17))
    state = {
        "format_version": 1,
        "kind": "mixed",
        "system": "2x2x2",
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.entries],
    }
    slots = _reduce_slots(tmp_path, state)
    assert sorted(slots) == ["joint", "site0", "site1", "site2"]
    for i in range(3):
        expect = spectrum_of(partial_trace(rho, [i])).as_floats()
        assert slots[f"site{i}"] == pytest.approx(expect, abs=1e-15)
    assert slots["joint"] == pytest.approx(spectrum_of(rho).as_floats(), abs=1e-15)
    slots = _reduce_slots(tmp_path, state, "--keep", "0,1")
    assert list(slots) == ["keep[0, 1]"]
    expect = spectrum_of(partial_trace(rho, [0, 1])).as_floats()
    assert slots["keep[0, 1]"] == pytest.approx(expect, abs=1e-15)


def test_reduce_pure_tensor_state_with_keep(tmp_path):
    from qmarginal.tensor import haar_pure, pure_marginal, spectrum_of

    psi = haar_pure((2, 3, 2), 23)
    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "2x3x2",
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    slots = _reduce_slots(tmp_path, state, "--keep", "0,2")
    assert list(slots) == ["keep[0, 2]"]
    expect = spectrum_of(pure_marginal(psi, [0, 2])).as_floats()
    assert slots["keep[0, 2]"] == pytest.approx(expect, abs=1e-15)


def test_reduce_refuses_keep_on_fermion_state(tmp_path):
    from qmarginal.fermion import slater

    state = {
        "format_version": 1,
        "kind": "pure",
        "system": "fermi:4:2",
        "amplitudes": [[float(a.real), float(a.imag)]
                       for a in slater(4, 2, (1, 2)).amplitudes],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, records, errors = run_cli(["reduce", "--state", str(path), "--keep", "7"])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--keep" in error["message"]


def _pure_state_file(tmp_path, dims):
    from qmarginal.tensor import haar_pure

    psi = haar_pure(dims, 5)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "pure", "system": "x".join(map(str, dims)),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }))
    return path


@pytest.mark.parametrize("keep", ["0,0", "1,0,1", "x", "", ",", "0.5"])
def test_reduce_keep_must_be_distinct_integers(tmp_path, capsys, keep):
    path = _pure_state_file(tmp_path, (2, 3))
    assert main(["reduce", "--state", str(path), "--keep", keep]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (error,) = [json.loads(line) for line in err.splitlines()]
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--keep" in error["message"]


@pytest.mark.parametrize("blank,plain", [(",1", "1"), ("0,,1", "0,1"), ("2, ", "2")])
def test_reduce_keep_skips_blank_entries_as_every_list_flag_does(tmp_path, blank, plain):
    path = str(_pure_state_file(tmp_path, (2, 3, 2)))
    code, records, errors = run_cli(["reduce", "--state", path, "--keep", blank])
    assert (code, errors) == (0, [])
    assert records == run_cli(["reduce", "--state", path, "--keep", plain])[1]


def test_families_command():
    code, records, _ = run_cli(["families", "--system", "fermi:6:3:pure"])
    assert code == 0
    assert records[-1]["families"] == ["BD6", "PAULI"]


def _main_records(capsys, args):
    """Exit code, stdout records and stderr records of an in-process run."""
    code = main(args)
    out, err = capsys.readouterr()
    return (code, [json.loads(line) for line in out.splitlines()],
            [json.loads(line) for line in err.splitlines()])


@pytest.mark.parametrize("fermi_n", ["-1", "0", "4", "7"])
def test_coeff_fermi_n_outside_zero_and_r_is_a_usage_error(capsys, fermi_n):
    code, records, errors = _main_records(capsys, [
        "coeff", "--v", "1,2,3,4", "--w", "1,2,3,4,5,6", "--a", "5,1,-2,-4",
        "--fermi-n", fermi_n,
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--fermi-n" in error["message"] and "0 < n < r" in error["message"]


def test_coeff_fermi_n_inside_the_range_still_runs(capsys):
    code, records, _ = _main_records(capsys, [
        "coeff", "--v", "1,2,3,4", "--w", "1,2,3,4,5,6", "--a", "5,1,-2,-4",
        "--fermi-n", "2",
    ])
    assert code == 0
    assert records[-1]["record"] == "coefficient"


@pytest.mark.parametrize("args,perm_flag,spectrum_flag", [
    (["--u", "1,2,3", "--v", "2,1", "--w", "1,2,3,4,6,5", "--a", "1,-1",
      "--b", "5,1,-6"], "--u", "--a"),
    (["--u", "1,2,3", "--v", "1,2", "--w", "1,2,3,4,5,6", "--a", "1,-1",
      "--b", "5,1,-6"], "--u", "--a"),
    (["--u", "1,2", "--v", "1,2", "--w", "1,2,3,4", "--a", "1,-1",
      "--b", "5,1,-6"], "--v", "--b"),
    (["--v", "2,1,3", "--w", "2,1", "--a", "1,-1", "--fermi-n", "1"], "--v", "--a"),
])
def test_coeff_permutation_lengths_must_fit_the_spectra(capsys, args, perm_flag,
                                                        spectrum_flag):
    code, records, errors = _main_records(capsys, ["coeff"] + args)
    assert code == 2 and records == []
    (error,) = errors
    assert error["kind"] == "usage"
    assert perm_flag in error["message"] and spectrum_flag in error["message"]


@pytest.mark.parametrize("flag,bad", [("--u", "1,2.5"), ("--v", "1,x"), ("--w", "1,2,3,x")])
def test_coeff_permutation_tokens_are_usage_errors_naming_the_flag(capsys, flag, bad):
    argv = {"--u": "1,2", "--v": "1,2", "--w": "1,2,3,4", "--a": "1,-1", "--b": "2,-2"}
    argv[flag] = bad
    code, records, errors = _main_records(
        capsys, ["coeff"] + [tok for pair in argv.items() for tok in pair])
    assert code == 2 and records == []
    (error,) = errors
    assert error["kind"] == "usage" and f"argument {flag}" in error["message"]


@pytest.mark.parametrize("formats,bad", [
    ("2x2:mixed", "2x2:mixed"),
    ("2x2;3x3:MIXED", "3x3:MIXED"),
])
def test_isospec_refuses_mixed_formats(capsys, formats, bad):
    code, records, errors = _main_records(capsys, [
        "isospec", "--formats", formats, "--trials", "3", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "ValueError"
    assert bad in error["message"]


@pytest.mark.parametrize("formats", ["", ";", " ; ;", "   "])
def test_isospec_refuses_an_empty_format_list(capsys, formats):
    code, records, errors = _main_records(capsys, [
        "isospec", "--formats", formats, "--trials", "3", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--formats" in error["message"]


def test_verify_refuses_a_pure_family_on_a_mixed_system(capsys):
    code, records, errors = _main_records(capsys, [
        "verify", "--family", "BD6", "--system", "fermi:6:3:mixed",
        "--trials", "3", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert "fermi:6:3:pure" in error["message"] and "fermi:6:3:mixed" in error["message"]


def test_verify_refuses_a_family_on_another_system_with_the_same_widths(capsys):
    """F84_14's records on fermi:8:3 would renormalize trace 3 to 4 and
    report false violations; the campaign is refused before it samples."""
    code, records, errors = _main_records(capsys, [
        "verify", "--family", "F84_14", "--system", "fermi:8:3",
        "--trials", "200", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert "fermi:8:4:pure" in error["message"] and "fermi:8:3:pure" in error["message"]


@pytest.mark.parametrize("family,system,scope", [
    ("TWO_PARTICLE_PURE", "fermi:4:2:mixed", "fermionic (r, 2) or (r, r-2) pure"),
    ("POLYGON", "qubits:3:mixed", "qubit arrays, pure"),
])
def test_verify_refuses_a_matcher_family_outside_its_scope(capsys, family, system, scope):
    """TWO_PARTICLE_PURE's pairing fails on mixed states (false violations)
    and POLYGON's check passes vacuously; both are refused before sampling."""
    code, records, errors = _main_records(capsys, [
        "verify", "--family", family, "--system", system,
        "--trials", "300", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert scope in error["message"] and system in error["message"]


def test_families_lists_a_mixed_family_on_its_pure_states(capsys):
    code, records, errors = _main_records(capsys, ["families", "--system", "fermi:4:2:pure"])
    assert code == 0 and errors == []
    assert records[-1]["families"] == ["PAULI", "TWO_PARTICLE_PURE", "W2H4_MIXED"]


@pytest.mark.parametrize("family,system,nu", [
    ("POLYGON", "qubits:2", "0.4,0.3,0.2,0.1"),
    ("BD6", "fermi:6:3:pure", ",".join(["0.05"] * 20)),
])
def test_verify_refuses_nu_on_pure_draws(capsys, family, system, nu):
    code, records, errors = _main_records(capsys, [
        "verify", "--family", family, "--system", system, "--nu", nu,
        "--trials", "3", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "ValueError"
    assert "--nu" in error["message"]


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("r,n,M", [(7, 3, 4), (8, 4, 4)])
def test_hull_records_match_the_pinned_benchmark_output(capsys, r, n, M):
    pinned = json.loads(PINNED.read_text())["outputs"][f"hull {r},{n},{M}"]
    code, records, errors = _main_records(
        capsys, ["hull", "-r", str(r), "-n", str(n), "-M", str(M)])
    assert code == 0 and errors == []
    assert sorted(json.dumps(rec, sort_keys=True) for rec in records) == pinned


@pytest.mark.parametrize("edge", ["0,0,1", "0,1,1", "1,1,1", "1,1,2"])
def test_generate_records_match_the_pinned_benchmark_output(capsys, edge):
    """These jobs run the exact redundancy filter on each qubit group."""
    pinned = json.loads(PINNED.read_text())["outputs"][f"generate qubits:3 {edge}"]
    code, records, errors = _main_records(
        capsys, ["generate", "--system", "qubits:3", "--edge", edge])
    assert code == 0 and errors == []
    assert sorted(json.dumps(rec, sort_keys=True) for rec in records) == pinned


@pytest.mark.parametrize("system", ["qubits:4", "qubits:5", "fermi:6:3", "3x4"])
def test_edges_records_match_the_pinned_benchmark_output(capsys, system):
    """Every edge record carries its test spectra, read through the chart."""
    pinned = json.loads(PINNED.read_text())["outputs"][f"edges {system}"]
    code, records, errors = _main_records(capsys, ["edges", "--system", system])
    assert code == 0 and errors == []
    assert sorted(json.dumps(rec, sort_keys=True) for rec in records) == pinned


def test_schubert_scan_matches_the_pinned_benchmark_output():
    """The benchmark's one library job: a 2x4 cubicle scan, 218 records,
    each written as its exact terms, relation, bound and label."""
    from fractions import Fraction

    from qmarginal.schubert import enumerate_inequalities

    pinned = json.loads(PINNED.read_text())["outputs"][
        "schubert (3, -3) (8, 1, -3, -6) max_length=3"]
    records = enumerate_inequalities(a=(3, -3), b=(8, 1, -3, -6), max_length=3)
    got = [{"terms": [[slot, [str(Fraction(c)) for c in coeffs]]
                      for slot, coeffs in rec.terms],
            "relation": rec.relation, "bound": str(Fraction(rec.bound)),
            "label": rec.label} for rec in records]
    assert sorted(json.dumps(rec, sort_keys=True) for rec in got) == pinned


PINNED_CAMPAIGNS = sorted(json.loads(PINNED.read_text())["min_slack"])


@pytest.mark.parametrize("job", PINNED_CAMPAIGNS,
                         ids=[job.removeprefix("verify ") for job in PINNED_CAMPAIGNS])
def test_campaign_min_slack_matches_the_pinned_benchmark_output(capsys, job):
    """The benchmark's campaigns at its seed and trial count reach the
    pinned minimum slack within its tolerance of 1e-9."""
    family, system = job.removeprefix("verify ").split("@")
    pinned = json.loads(PINNED.read_text())["min_slack"][job]
    code, records, errors = _main_records(capsys, [
        "verify", "--family", family, "--system", system,
        "--trials", "750", "--seed", "20260809", "--jobs", "1"])
    assert code == 0 and errors == []
    (report,) = records
    assert report["system"] == system and report["violations"] == 0
    assert abs(report["min_slack"] - pinned) <= 1e-9


def test_main_callable_in_process(capsys):
    assert main(["families", "--system", "2x2:mixed"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["families"] == ["BASIC", "BRAVYI_2Q"]


@pytest.mark.parametrize("family", ["POLYGON", "PAULI"])
def test_equiv_without_fixed_system_is_an_exit_two_error(family):
    code, records, errors = run_cli([
        "equiv", "--family-a", family, "--family-b", family,
        "--samples", "10", "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error"
    assert error["kind"] == "CatalogError"
    assert family in error["message"]


@pytest.mark.parametrize("samples", ["50", "0"])
def test_equiv_on_a_mixed_family_is_an_exit_two_error(capsys, samples):
    code, records, errors = _main_records(capsys, [
        "equiv", "--family-a", "W2H4_MIXED", "--family-b", "W2H4_MIXED",
        "--samples", samples, "--seed", "1",
    ])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert "W2H4_MIXED" in error["message"]
    assert "one-body spectra of pure fermi:4:2 states" in error["message"]


VERIFY_BD6 = ["verify", "--family", "BD6", "--system", "fermi:6:3:pure",
              "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("flag,args", [
    ("--trials", ["verify", "--family", "BD6", "--system", "fermi:6:3:pure",
                  "--seed", "1", "--trials", "-5"]),
    ("--trials", ["isospec", "--formats", "2x2", "--seed", "1", "--trials", "-3"]),
    ("--samples", ["equiv", "--family-a", "F7_BD", "--family-b", "F7_LIST",
                   "--seed", "1", "--samples", "-5"]),
    ("--restarts", ["witness", "--system", "qubits:2", "--targets", "0.5,0.5;0.5,0.5",
                    "--seed", "1", "--restarts", "-1"]),
    ("--restarts", ["witness", "--system", "qubits:2", "--targets", "0.5,0.5;0.5,0.5",
                    "--seed", "1", "--restarts", "0"]),
    ("--iters", ["witness", "--system", "qubits:2", "--targets", "0.5,0.5;0.5,0.5",
                 "--seed", "1", "--iters", "-1"]),
    ("--jobs", VERIFY_BD6 + ["--jobs", "0"]),
    ("--jobs", VERIFY_BD6 + ["--jobs", "-3"]),
])
def test_negative_counts_are_usage_errors(flag, args):
    code, records, errors = run_cli(args)
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert flag in error["message"]


CHECK_BD6 = ["check", "--family", "BD6", "--spectrum", "1,1,1,0,0,0"]


@pytest.mark.parametrize("args", [
    CHECK_BD6 + ["--tolerance", "nan"],
    CHECK_BD6 + ["--tolerance", "-inf"],
    CHECK_BD6 + ["--tolerance", "x"],
    VERIFY_BD6 + ["--tolerance", "inf"],
])
def test_non_finite_tolerance_is_a_usage_error(args):
    code, records, errors = run_cli(args)
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--tolerance" in error["message"]


@pytest.mark.parametrize("args", [
    ["verify", "--family", "BD6", "--system", "fermi:6:3:pure", "--trials", "2"],
    ["equiv", "--family-a", "F7_BD", "--family-b", "F7_LIST", "--samples", "2"],
    ["isospec", "--formats", "2x2", "--trials", "2"],
    ["witness", "--system", "qubits:2", "--targets", "0.5,0.5;0.5,0.5"],
])
@pytest.mark.parametrize("seed", ["-1", "-18446744073709551616", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(capsys, args, seed):
    code, records, errors = _main_records(capsys, args + ["--seed", seed])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert "--seed" in error["message"]


def test_seed_above_64_bits_keys_its_streams(capsys):
    """A seed of any size is valid, and its streams are keyed as
    SeedSequence keys them."""
    from qmarginal.tensor import rng_from_seed

    seed = 2 ** 64
    code, records, _ = _main_records(capsys, [
        "verify", "--family", "BD6", "--system", "fermi:6:3:pure", "--trials", "2",
        "--seed", str(seed)])
    assert code == 0 and records[-1]["seed"] == seed
    oracle = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    assert np.array_equal(rng_from_seed(seed, 1).bit_generator.state["state"]["key"],
                          oracle.state["state"]["key"])


@pytest.mark.parametrize("args,count_key", [
    (["isospec", "--formats", "2x2", "--seed", "1", "--trials", "0"], "trials"),
    (["equiv", "--family-a", "F7_BD", "--family-b", "F7_LIST",
      "--seed", "1", "--samples", "0"], "samples"),
])
def test_zero_counts_stay_valid(args, count_key):
    code, records, errors = run_cli(args)
    assert code == 0, errors
    assert records[-1][count_key] == 0


def test_jobs_from_environment():
    """Only --jobs sets the worker count: QMARGINAL_JOBS, which once did,
    changes nothing, not even when it is malformed."""
    code, records, errors = run_cli(VERIFY_BD6, env={"QMARGINAL_JOBS": "x"})
    assert code == 0, errors
    _, plain, _ = run_cli(VERIFY_BD6)
    assert [dict(r, wall_time=None) for r in records] == [
        dict(r, wall_time=None) for r in plain]


def test_two_particle_pure_non_integer_trace_is_an_error():
    code, records, errors = run_cli(
        ["check", "--family", "TWO_PARTICLE_PURE", "--spectrum", "0.8,0.8,0.4,0.4"])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "CatalogError"
    assert "integer particle number" in error["message"]


SITE = {"record": "spectrum", "slot": "site0", "values": [0.5, 0.5], "trace": 1.0}


@pytest.mark.parametrize("bad", [
    [1, 2],
    "site0",
    {"record": "spectrum", "values": [0.5, 0.5]},
    {"record": "spectrum", "slot": "site1"},
    {"record": "spectrum", "slot": 1, "values": [0.5, 0.5]},
    {"record": "spectrum", "slot": "site1", "values": [0.5, None]},
    {"record": "spectrum", "slot": "site1", "values": ["0.5", 0.5]},
    {"record": "spectrum", "slot": "site1", "values": [0.5, [0.5]]},
    {"record": "spectrum", "slot": "site1", "values": [0.5, True]},
    {"record": "spectrum", "slot": "site1", "values": [1.0, float("nan")]},
    {"record": "spectrum", "slot": "site1", "values": [0.5, 10 ** 400]},
    {"record": "spectrum", "slot": "site1", "values": 0.5},
    {"record": "spectrum", "slot": "site1", "values": [0.5, 0.5], "trace": [1]},
    {"record": "spectrum", "slot": "site1", "values": [0.5, 0.5], "trace": "1"},
])
def test_check_bundle_refuses_malformed_records_by_line(tmp_path, capsys, bad):
    path = tmp_path / "bundle.jsonl"
    path.write_text("\n".join([json.dumps(SITE), "", json.dumps(bad)]))
    code, records, errors = _main_records(capsys, ["check", "--family", "POLYGON",
                                                    "--bundle", str(path)])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and "bundle line 3" in error["message"]


def test_check_bundle_names_the_line_that_is_not_json(tmp_path, capsys):
    """The json module counts lines within the one line it parses; the error
    names the line of the bundle instead."""
    path = tmp_path / "bundle.jsonl"
    path.write_text("\n".join([json.dumps(SITE)] * 3 + ["[1,"]))
    code, records, errors = _main_records(capsys, ["check", "--family", "POLYGON",
                                                    "--bundle", str(path)])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["kind"] == "usage" and "bundle line 4" in error["message"]
    assert "line 1" not in error["message"]


def test_main_calls_share_the_parser_but_no_arguments(tmp_path, capsys):
    """main builds its parser once; no call sees another call's --site
    appends or bundle sites."""
    assert build_parser() is build_parser()
    sites = ["--site", "0.5,0.5", "--site", "0.75,0.25", "--site", "0.9,0.1"]
    path = tmp_path / "bundle.jsonl"
    path.write_text("\n".join(json.dumps(dict(SITE, slot=f"site{i}")) for i in range(4)))
    first = _main_records(capsys, ["check", "--family", "POLYGON", *sites])
    bundle = _main_records(capsys, ["check", "--family", "POLYGON", "--bundle", str(path)])
    again = _main_records(capsys, ["check", "--family", "POLYGON", *sites])
    assert first == again
    assert first[0] == 1 and first[1][-1]["n_inequalities"] == 3
    assert bundle[0] == 0 and bundle[1][-1]["n_inequalities"] == 4


@pytest.mark.parametrize("system,targets,words", [
    ("fermi:4:2", "0.5,0.5", "tensor or qubit system"),
    ("qubits:2", "1,1;1,1", "not a spectrum"),
    ("qubits:2", "1.5,-0.5;0.7,0.3", "not a spectrum"),
    ("qubits:2", "0.5,0.5;0.5,0.6", "not a spectrum"),
    ("2x2:mixed", "0.5,0.5;0.5,0.5", "mixed format 2x2:mixed"),
    ("qubits:2:MIXED", "0.5,0.5;0.5,0.5", "mixed format qubits:2:MIXED"),
])
def test_witness_refuses_inputs_it_cannot_search(capsys, monkeypatch, system, targets,
                                                 words):
    """A fermionic or mixed system, or a target that is not a spectrum of
    its site's dimension, is an exit-2 error before any minimization
    starts."""
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("minimize ran")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    code, records, errors = _main_records(capsys, [
        "witness", "--system", system, "--targets", targets, "--seed", "1"])
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and words in error["message"]


def test_witness_length_error_prints_plain_floats(capsys):
    code, records, errors = _main_records(capsys, [
        "witness", "--system", "qubits:2", "--targets", "0.5,0.5;1", "--seed", "1"])
    assert code == 2 and records == []
    (error,) = errors
    assert "target (1.0,) does not match site dimension 2" in error["message"]
    assert "np.float64" not in error["message"]


@pytest.mark.parametrize("flag,args", [
    ("--u", ["coeff", "--u", "1,2", "--v", "1,2,3,4", "--w", "1,2,3,4,5,6",
             "--a", "5,1,-2,-4", "--fermi-n", "2"]),
    ("--fermi-n", ["coeff", "--u", "1,2", "--v", "1,2", "--w", "1,2,3,4",
                   "--a", "1,-1", "--b", "2,-2", "--fermi-n", "1"]),
    ("--raw", ["generate", "--system", "2x2", "--edge", "1,1", "--raw"]),
    ("--trace", ["check", "--family", "POLYGON", "--site", "0.6,0.4", "--site", "0.7,0.3",
                 "--site", "0.8,0.2", "--trace", "5"]),
])
def test_flags_the_command_would_ignore_are_usage_errors(capsys, flag, args):
    code, records, errors = _main_records(capsys, args)
    assert code == 2
    assert records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert flag in error["message"]
    if flag == "--trace":
        assert "--spectrum" in error["message"]
    # without the flag the same command runs
    i = args.index(flag)
    rest = args[:i] + args[i + (1 if flag == "--raw" else 2):]
    assert _main_records(capsys, rest)[0] == 0


COEFF_TWO = ["coeff", "--u", "1,2", "--v", "1,2", "--w", "1,2,3,4", "--a", "1,-1",
             "--b", "2,-2"]
WITNESS = ["witness", "--system", "qubits:2", "--targets", "0.5,0.5;0.5,0.5",
           "--seed", "1"]


@pytest.mark.parametrize("flag,token,argv", [
    ("--keep", "x", ["reduce", "--state", "-"]),
    ("--spectrum", "x", ["check", "--family", "BD6"]),
    ("--trace", "3/0", CHECK_BD6),
    ("--site", "nan", ["check", "--family", "POLYGON", "--site", "0.5,0.5"]),
    ("--joint", "1e400", ["check", "--family", "BRAVYI_2Q", "--site", "0.5,0.5",
                          "--site", "0.5,0.5"]),
    ("--tolerance", "-1", CHECK_BD6),
    ("--correlations", "y", ["chsh"]),
    ("--u", "y", COEFF_TWO),
    ("--v", "y", COEFF_TWO),
    ("--w", "y", COEFF_TWO),
    ("--a", "x", COEFF_TWO),
    ("--b", "1/0", COEFF_TWO),
    ("--fermi-n", "two", ["coeff", "--v", "1,2", "--w", "1,2", "--a", "1,-1"]),
    ("--dim-cap", "x", ["edges", "--system", "qubits:3"]),
    ("--edge", "inf", ["generate", "--system", "qubits:2"]),
    ("-r", "x", ["plethysm", "-n", "2", "-m", "2"]),
    ("-n", "x", ["plethysm", "-r", "4", "-m", "2"]),
    ("-m", "x", ["plethysm", "-r", "4", "-n", "2"]),
    ("-M", "x", ["hull", "-r", "4", "-n", "2"]),
    ("--trials", "x", VERIFY_BD6),
    ("--seed", "x", VERIFY_BD6),
    ("--nu", "x", ["verify", "--family", "BRAVYI_2Q", "--system", "2x2:mixed",
                   "--trials", "2", "--seed", "1"]),
    ("--tolerance", "-1", VERIFY_BD6),
    ("--jobs", "x", VERIFY_BD6),
    ("--samples", "x", ["equiv", "--family-a", "F7_BD", "--family-b", "F7_LIST",
                        "--seed", "1"]),
    ("--targets", "x", WITNESS),
    ("--targets", ";", WITNESS),
    ("--restarts", "x", WITNESS),
    ("--iters", "x", WITNESS),
    ("--formats", ";", ["isospec", "--trials", "2", "--seed", "1"]),
    ("--trials", "x", ["isospec", "--formats", "2x2", "--seed", "1"]),
    ("--tolerance", "-1e-300", CHECK_BD6),
])
def test_a_malformed_value_is_refused_by_its_flag(capsys, flag, token, argv):
    """Every typed value flag refuses a malformed token at parse time, as an
    exit-2 usage error that names the flag and the token."""
    # a list flag names the entry it refuses
    value = {"--keep": "0,", "--site": "0.5,", "--joint": "0,0,0,", "--a": "1,", "--u": "1,",
             "--v": "1,", "--w": "1,2,3,", "--correlations": "0,0,0,"}.get(flag, "") + token
    code, records, errors = _main_records(capsys, argv + [flag, value])
    assert code == 2 and records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "usage"
    assert error["message"].startswith(f"argument {flag}:")
    assert token in error["message"]


@pytest.mark.parametrize("flag,value,argv", [
    ("--a", "-1,1", ["coeff", "--v", "1,2", "--w", "1,2", "--fermi-n", "1"]),
    ("--site", "-0.1,1.1", ["check", "--family", "POLYGON", "--site", "0.5,0.5"]),
    ("--spectrum", "-.5,1,2.5", ["check", "--family", "PAULI"]),
    ("--nu", "-1e-3,1.001,0,0", ["verify", "--family", "BRAVYI_2Q",
                                 "--system", "2x2:mixed", "--trials", "2", "--seed", "1"]),
])
def test_a_value_with_a_leading_minus_reaches_its_flag(capsys, flag, value, argv):
    """A list with a negative first entry, or a negative number in exponent
    form, is a value whichever way it is attached to its flag."""
    split = _main_records(capsys, argv + [flag, value])
    joined = _main_records(capsys, argv + [f"{flag}={value}"])
    for rec in split[1] + joined[1]:
        rec.pop("wall_time", None)
    assert split == joined
    assert not any("expected one argument" in e["message"] for e in split[2])


@pytest.mark.parametrize("value", ["-x", "-inf", "-.x", "--"])
def test_an_option_like_value_is_still_refused(capsys, value):
    code, records, errors = _main_records(capsys, COEFF_TWO[:-2] + ["--b", value])
    assert code == 2 and records == []
    assert errors[0]["message"] == "argument --b: expected one argument"


@pytest.mark.parametrize("system,form", [
    ("qubits:x", "qubits:<count>"),
    ("qubits:3.0", "qubits:<count>"),
    ("fermi:6:x", "fermi:<r>:<n>"),
])
def test_families_names_a_malformed_system(capsys, system, form):
    code, records, errors = _main_records(capsys, ["families", "--system", system])
    assert code == 2 and records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "SystemError"
    assert repr(system) in error["message"] and form in error["message"]


def test_memory_error_is_an_exit_two_error(capsys, monkeypatch):
    """An allocation that fails is an exit-2 error record, not a traceback
    with the violation exit code; a stub raises it, since a real oversized
    allocation may succeed lazily or take the machine's memory."""
    import qmarginal.harness

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(qmarginal.harness, "mc_verify", refuse)
    code, records, errors = _main_records(capsys, [
        "verify", "--family", "POLYGON", "--system", "qubits:40:pure", "--trials", "1",
        "--seed", "1"])
    assert code == 2 and records == []
    (error,) = errors
    assert error["record"] == "error" and error["kind"] == "MemoryError"
    assert "16.0 TiB" in error["message"]
