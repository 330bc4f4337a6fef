"""Command-line frontend.

Subcommands: reduce, check, chsh, coeff, edges, generate, plethysm, hull,
verify, equiv, witness, isospec, families.  Output is line-structured JSON
records with a stable schema version; a real prints as the shortest
decimal that reads back as the same double, a rational as p/q.
Exit codes: 0 success/satisfied, 1 violation/failure found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count

SCHEMA = "qmarginal/1"


class UsageError(Exception):
    """An exit-2 refusal that no flag's argparse type can make: a rule across
    flags, or malformed content of a state or bundle file."""


def emit(record: dict, stream=None):
    """Print one record as a JSON line; a non-finite float raises ValueError
    (an exit-2 error) instead of printing invalid JSON."""
    out = dict(record)
    out["schema"] = SCHEMA
    print(json.dumps(out, default=_json_default, allow_nan=False),
          file=stream or sys.stdout)


def _json_default(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return [value.real, value.imag]
    # numpy is imported only here, once a value of another type shows up:
    # the exact commands emit ints, strings and Fractions and never get here
    import numpy as np

    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value)}")


def _number(text: str):
    """An int, a p/q rational or a finite float; argparse names the flag and
    the token on a refusal."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if not any(c in text for c in ".eE"):
            try:
                return int(text)
            except ValueError:
                pass  # "nan", "inf": named below
        value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _real(text: str):
    """A number as ``_number`` reads it, for a flag read as a float: a value
    too large for a float is refused.  An exact value stays exact."""
    value = _number(text)
    try:
        float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"too large for a float: {text.strip()!r}") from None
    return value


def _float(text: str) -> float:
    return float(_real(text))


def _tolerance(text: str) -> float:
    """A finite number >= 0: a negative one would report slack 0 violated."""
    value = _float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")
    return value


def _listed(item, sep: str = ","):
    """The argparse type of a ``sep``-separated list of ``item`` values, as a
    tuple; blank entries are skipped and a list with none is refused."""
    def parse(text: str) -> tuple:
        values = tuple(item(t) for t in text.split(sep) if t.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"no value in {text!r}")
        return values
    return parse


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _count(text: str, minimum: int = 0) -> int:
    """An integer of at least ``minimum`` (a count or a seed); argparse
    names the flag on a refusal."""
    value = _integer(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
    return value


def _positive_count(text: str) -> int:
    return _count(text, minimum=1)


def _factor_indices(text: str) -> list:
    """Distinct integer factor indices, a list as ``_listed`` reads one;
    argparse names the flag on a refusal."""
    keep = list(_listed(_integer)(text))
    if len(set(keep)) != len(keep):
        raise argparse.ArgumentTypeError(f"repeated factor index in {text!r}")
    return keep


def _finite_number(value) -> bool:
    """A JSON number, not a boolean, of finite float value."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _sorted_spectrum(values, trace=None, warn_slot=None):
    from .spectra import spectrum

    vals = list(values)
    resorted = sorted(vals, key=float, reverse=True) != [float(v) for v in vals]
    if resorted and warn_slot is not None:
        emit({"record": "warning", "slot": warn_slot,
              "message": "input spectrum auto-sorted nonincreasing"})
    return spectrum(vals, trace)


class Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that starts -<digit> or -.<digit> is a value for the flag's
        # type to read, as -1,1 or -1e-300; argparse itself lets only plain
        # negative numbers through.  No option name looks like one.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        emit({"record": "error", "kind": "usage", "message": message},
             stream=sys.stderr)
        raise SystemExit(2)


@lru_cache(maxsize=None)
def build_parser() -> Parser:
    """The parser of every subcommand, built once: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    p = Parser(prog="qmarginal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", help="state file -> marginal spectra")
    sp.add_argument("--state", required=True, help="JSON state file, or - for stdin")
    sp.add_argument("--keep", type=_factor_indices, default=None,
                    help="comma-separated factor indices for one marginal")

    sp = sub.add_parser("check", help="spectra + family -> report")
    sp.add_argument("--family", required=True)
    sp.add_argument("--spectrum", type=_listed(_real), default=None,
                    help="one-body spectrum for fermionic families")
    sp.add_argument("--trace", type=_real, default=None,
                    help="declared trace of --spectrum")
    sp.add_argument("--site", type=_listed(_real), action="append", default=[],
                    help="site marginal spectrum (repeatable)")
    sp.add_argument("--joint", type=_listed(_real), default=None,
                    help="joint/state spectrum")
    sp.add_argument("--bundle", default=None,
                    help="read reduce-format records from file, or - for stdin")
    sp.add_argument("--tolerance", type=_tolerance, default=1e-10)

    sp = sub.add_parser("chsh", help="check correlation data")
    sp.add_argument("--correlations", type=_listed(_float), required=True,
                    help="c11,c12,c21,c22 in [-1,1]")

    sp = sub.add_parser("coeff", help="structure coefficient for (u, v, w)")
    # permutations in one-line notation, which ``check_perm`` then checks
    perm_word = _listed(_positive_count)
    sp.add_argument("--u", type=perm_word, default=None)
    sp.add_argument("--v", type=perm_word, required=True)
    sp.add_argument("--w", type=perm_word, required=True)
    sp.add_argument("--a", type=_listed(_number), required=True,
                    help="test spectrum, rationals allowed")
    sp.add_argument("--b", type=_listed(_number), default=None,
                    help="second test spectrum (two-sided)")
    sp.add_argument("--fermi-n", type=int, default=None,
                    help="subset size for the fermionic coefficient")

    sp = sub.add_parser("edges", help="extremal edges of a system")
    sp.add_argument("--system", required=True)
    sp.add_argument("--dim-cap", type=int, default=None)

    sp = sub.add_parser("generate", help="inequalities from an extremal edge")
    sp.add_argument("--system", required=True)
    sp.add_argument("--edge", type=_listed(_number), required=True,
                    help="per-site values or coordinates")
    sp.add_argument("--raw", action="store_true",
                    help="skip the in-group redundancy filter")

    sp = sub.add_parser("plethysm", help="decompose S^m(wedge^n C^r)")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)

    sp = sub.add_parser("hull", help="inner approximation of occurring spectra")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-M", type=int, required=True)

    sp = sub.add_parser("verify", help="Monte-Carlo campaign")
    sp.add_argument("--family", required=True)
    sp.add_argument("--system", required=True)
    sp.add_argument("--trials", type=_count, required=True)
    sp.add_argument("--seed", type=_count, required=True)
    sp.add_argument("--nu", type=_listed(_float), default=None,
                    help="fixed state spectrum")
    sp.add_argument("--tolerance", type=_tolerance, default=1e-10)
    sp.add_argument("--jobs", type=_positive_count, default=1)

    sp = sub.add_parser("equiv", help="cross-family equivalence campaign")
    sp.add_argument("--family-a", required=True)
    sp.add_argument("--family-b", required=True)
    sp.add_argument("--samples", type=_count, required=True)
    sp.add_argument("--seed", type=_count, required=True)

    sp = sub.add_parser("witness", help="search for a state with target marginals")
    sp.add_argument("--system", required=True)
    sp.add_argument("--targets", type=_listed(_listed(_float), ";"), required=True,
                    help="semicolon-separated site spectra, e.g. '0.7,0.3;0.6,0.4'")
    sp.add_argument("--restarts", type=_positive_count, default=20)
    sp.add_argument("--iters", type=_count, default=200)
    sp.add_argument("--seed", type=_count, required=True)

    sp = sub.add_parser("isospec", help="isospectrality campaign")
    sp.add_argument("--formats", type=_listed(str, ";"), required=True,
                    help="e.g. '2x2;2x3;3x3'")
    sp.add_argument("--trials", type=_count, required=True)
    sp.add_argument("--seed", type=_count, required=True)

    sp = sub.add_parser("families", help="list families applicable to a system")
    sp.add_argument("--system", required=True)
    return p


# ---------------------------------------------------------------------------
# State files

def _complex_array(entries, shape: tuple, what: str):
    """Nested lists of ``shape`` whose last axis holds [re, im] pairs of
    finite numbers, as nested lists of complex numbers."""
    if not isinstance(entries, list) or len(entries) != shape[0]:
        raise UsageError(f"{what}: expected a list of length {shape[0]}, got {entries!r:.60}")
    if len(shape) > 1:
        return [_complex_array(entry, shape[1:], what) for entry in entries]
    if not all(map(_finite_number, entries)):
        raise UsageError(f"{what}: {entries!r} is not a pair of finite numbers")
    return complex(*entries)


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def load_state(path: str):
    """(system, states): a state file as a stack of one, a (1, D) unit vector
    checked by ``PureState`` or ``FermionState``, or a (1, D, D) matrix that
    the reduction checks as a density matrix when it solves it."""
    import numpy as np

    from .fermion import FermionState, fermion_basis
    from .systems import parse_system
    from .tensor import PureState

    state = json.loads(_read_text(path))
    if not isinstance(state, dict) or state.get("format_version") != 1:
        raise UsageError("unsupported state file format_version")
    if not isinstance(state.get("system"), str):
        raise UsageError("state file lacks a 'system' string")
    kind = state.get("kind", "pure")
    if kind not in ("pure", "mixed"):
        raise UsageError(f"state kind must be 'pure' or 'mixed', got {kind!r}")
    system = parse_system(state["system"])
    key = "amplitudes" if kind == "pure" else "matrix"
    shape = (system.dim, 2) if kind == "pure" else (system.dim, system.dim, 2)
    states = np.array(_complex_array(state.get(key), shape, key))
    if kind == "pure" and system.kind == "fermion":
        states = FermionState(fermion_basis(system.r, system.n), states).amplitudes
    elif kind == "pure":
        states = PureState(states, system.dims).amplitudes
    return system, states[None]


def cmd_reduce(args) -> int:
    from .harness import reduce_states

    system, states = load_state(args.state)
    if system.kind == "fermion" and args.keep:
        raise UsageError("--keep names tensor factors; a fermionic state has none")
    block = reduce_states(system, states, [args.keep] if args.keep else None)
    slots = [(f"keep{args.keep}" if args.keep else f"site{i}", rows, 1.0)
             for i, rows in enumerate(block.sites)]
    if block.one_body is not None:
        slots.append(("one_body", block.one_body, block.one_body_trace[0]))
    if not args.keep:
        slots.append(("joint", block.joint, 1.0))
    for slot, rows, trace in slots:
        emit({
            "record": "spectrum",
            "slot": slot,
            "values": [float(v) for v in rows[0]],
            "trace": float(trace),
        })
    return 0


# ---------------------------------------------------------------------------
# Checks

def _bundle_from_args(args):
    from .records import SpectraBundle

    sites = []
    joint = None
    one_body = None
    if args.bundle:
        for number, line in enumerate(_read_text(args.bundle).splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise UsageError(f"bundle line {number} is not JSON: {exc.msg} "
                                 f"at column {exc.colno}") from None
            if not isinstance(rec, dict):
                raise UsageError(f"bundle line {number} is not a JSON object")
            if rec.get("record") != "spectrum":
                continue
            slot, values, trace = rec.get("slot"), rec.get("values"), rec.get("trace")
            if not (isinstance(slot, str) and isinstance(values, list)
                    and all(map(_finite_number, values))
                    and (trace is None or _finite_number(trace))):
                raise UsageError(f"bundle line {number}: a spectrum record needs a 'slot' "
                                 "string, a list of finite 'values' and, if any, a finite "
                                 "'trace'")
            spec = _sorted_spectrum(values, trace, slot)
            if slot.startswith("site"):
                sites.append(spec)
            elif slot == "joint":
                joint = spec
            elif slot == "one_body":
                one_body = spec
    if args.spectrum:
        one_body = _sorted_spectrum(args.spectrum, args.trace, "one_body")
    elif args.trace is not None:
        raise UsageError("--trace declares the trace of --spectrum, which is not given")
    for values in args.site:
        sites.append(_sorted_spectrum(values, None, "site"))
    if args.joint:
        joint = _sorted_spectrum(args.joint, None, "joint")
    return SpectraBundle(sites=tuple(sites), joint=joint, one_body=one_body)


def _emit_check_report(report) -> int:
    emit({
        "record": "check_report",
        "family": report.family_id,
        "satisfied": report.satisfied,
        "worst_slack": float(report.worst_slack),
        "violated": list(report.violated),
        "n_inequalities": report.n_inequalities,
        "tolerance": report.tolerance,
        "notes": list(report.notes),
    })
    return 0 if report.satisfied else 1


def cmd_check(args) -> int:
    from .records import check_family

    bundle = _bundle_from_args(args)
    report = check_family(args.family, bundle, args.tolerance)
    return _emit_check_report(report)


def cmd_chsh(args) -> int:
    from .records import check_chsh

    return _emit_check_report(check_chsh(args.correlations))


def _refuse_length_mismatch(perm_flag: str, perm, spectrum_flag: str, values) -> None:
    if len(perm) != len(values):
        raise UsageError(f"{perm_flag} permutes the {len(values)} entries of "
                         f"{spectrum_flag}, but has {len(perm)}")


def cmd_coeff(args) -> int:
    from .schubert import coeff_fermi, coeff_two, fermi_sum_order, sum_order

    if args.b is not None:
        if args.u is None:
            raise UsageError("two-sided coefficient needs --u")
        if args.fermi_n is not None:
            raise UsageError("--fermi-n sets the fermionic coefficient; "
                             "the two-sided one (--b) takes no --fermi-n")
        _refuse_length_mismatch("--u", args.u, "--a", args.a)
        _refuse_length_mismatch("--v", args.v, "--b", args.b)
        value = coeff_two(args.u, args.v, args.w, sum_order(args.a, args.b))
    else:
        if args.u is not None:
            raise UsageError("--u belongs to the two-sided coefficient, which needs --b")
        if args.fermi_n is None:
            raise UsageError("fermionic coefficient needs --fermi-n")
        _refuse_length_mismatch("--v", args.v, "--a", args.a)
        if not 0 < args.fermi_n < len(args.a):
            raise UsageError(
                f"--fermi-n needs 0 < n < r = {len(args.a)} (the length of --a), "
                f"got {args.fermi_n}")
        value = coeff_fermi(args.v, args.w, fermi_sum_order(args.a, args.fermi_n))
    emit({"record": "coefficient", "value": value})
    return 0


def cmd_edges(args) -> int:
    from .chambers import cubicle_arrangement, enumerate_chambers, extremal_edges

    arrangement = cubicle_arrangement(args.system)
    if args.dim_cap is None:
        chambers = enumerate_chambers(arrangement)
    else:
        chambers = enumerate_chambers(arrangement, dim_cap=args.dim_cap)
    # chambers stream into the edge union; zip draws one tally per chamber
    tally = count()
    edges = extremal_edges(ch for ch, _ in zip(chambers, tally))
    for ray in edges:
        spectra = arrangement.chart.to_test_spectra(ray)
        emit({
            "record": "edge",
            "coordinates": list(ray),
            "test_spectra": [[str(Fraction(x)) for x in s] for s in spectra],
        })
    emit({
        "record": "edge_summary",
        "system": args.system,
        "hyperplanes": len(arrangement.hyperplanes),
        "chambers": next(tally),
        "count": len(edges),
    })
    return 0


def _record_to_json(rec):
    return {
        "terms": {slot: [str(Fraction(c)) for c in coeffs] for slot, coeffs in rec.terms},
        "relation": rec.relation,
        "bound": str(Fraction(rec.bound)),
        "label": rec.label,
    }


def cmd_generate(args) -> int:
    from .schubert import generate_inequality, generate_qubit_array, identity_perm
    from .systems import parse_system

    system = parse_system(args.system)
    if system.kind == "qubits":
        if len(args.edge) != len(system.dims):
            raise UsageError(
                f"edge needs {len(system.dims)} per-site values, got {len(args.edge)}"
            )
        group = generate_qubit_array(args.edge, irredundant=not args.raw)
        records = group.records
    elif system.kind == "tensor" and len(system.dims) == 2:
        # edge given in arrangement coordinates; emits the basic inequality
        from .chambers import cubicle_arrangement
        from .rational import dot

        if args.raw:
            raise UsageError("--raw applies to qubit arrays; a two-sided tensor "
                             "format emits one basic inequality, with no filter")
        m, n = system.dims
        arr = cubicle_arrangement(args.system)
        if len(args.edge) != arr.dim:
            raise UsageError(f"edge needs {arr.dim} coordinates, got {len(args.edge)}")
        if not any(args.edge):
            raise UsageError("--edge is zero: its record 0 <= 0 bounds nothing")
        # the cone is the positive orthant: inequality k reads coordinate k
        for k, h in enumerate(arr.cone.ineqs):
            if dot(h, args.edge) < 0:
                raise UsageError(
                    f"--edge coordinate {k + 1} is {Fraction(args.edge[k])}: "
                    f"the {args.system} cone needs every coordinate >= 0")
        a, b = arr.chart.to_test_spectra(args.edge)
        records = (
            generate_inequality(a, b, identity_perm(m), identity_perm(n),
                                identity_perm(m * n)),
        )
    else:
        raise UsageError("generate supports qubit arrays and two-sided tensor formats")
    for rec in records:
        emit({"record": "inequality", **_record_to_json(rec)})
    emit({"record": "generate_summary", "system": args.system,
          "edge": [str(Fraction(x)) for x in args.edge], "count": len(records)})
    return 0


def cmd_plethysm(args) -> int:
    from .plethysm import decompose, weyl_dimension

    dec = decompose(args.r, args.n, args.m)
    for weight, mult in dec.multiplicities:
        emit({
            "record": "component",
            "diagram": list(weight),
            "multiplicity": mult,
            "dimension": weyl_dimension(weight, args.r),
        })
    emit({
        "record": "plethysm_summary",
        "r": args.r, "n": args.n, "m": args.m,
        "components": len(dec.multiplicities),
        "total_dimension": dec.total_dimension,
    })
    return 0


def cmd_hull(args) -> int:
    from .plethysm import inner_approximation

    inner = inner_approximation(args.r, args.n, args.M)
    for (normal, rhs), matches in zip(inner.hull.facets, inner.facet_matches):
        emit({
            "record": "facet",
            "normal": [str(Fraction(c)) for c in normal],
            "bound": str(Fraction(rhs)),
            "catalog_matches": list(matches),
        })
    for normal, rhs in inner.hull.equalities:
        emit({
            "record": "hull_equality",
            "normal": [str(Fraction(c)) for c in normal],
            "value": str(Fraction(rhs)),
        })
    emit({
        "record": "hull_summary",
        "r": args.r, "n": args.n, "M": args.M,
        "points": len(inner.points),
        "dim": inner.hull.dim,
        "facets": len(inner.hull.facets),
        "facets_matching_catalog": sum(1 for m in inner.facet_matches if m),
    })
    return 0


def cmd_verify(args) -> int:
    from .harness import mc_verify

    nu = _sorted_spectrum(args.nu, 1.0, "nu") if args.nu else None
    report = mc_verify(
        args.family, args.system, args.trials, args.seed,
        tolerance=args.tolerance, nu=nu, jobs=args.jobs,
    )
    emit({
        "record": "campaign",
        "family": report.family_id,
        "system": report.system,
        "trials": report.trials,
        "seed": report.seed,
        # no trials leave the minimum slack at +inf, which JSON cannot hold
        "min_slack": (float(report.min_slack)
                      if math.isfinite(report.min_slack) else None),
        "worst_trial": report.worst_trial,
        "violations": report.violations,
        "wall_time": float(report.wall_time),
        "tolerance": report.tolerance,
    })
    return 0 if report.violations == 0 else 1


def cmd_equiv(args) -> int:
    from .catalog import check_equivalence

    report = check_equivalence(args.family_a, args.family_b, args.samples, args.seed)
    emit({
        "record": "equivalence",
        "family_a": report.family_a,
        "family_b": report.family_b,
        "samples": report.samples,
        "disagreements": report.disagreements,
        "first_disagreement": report.first_disagreement,
    })
    return 0 if report.disagreements == 0 else 1


def cmd_witness(args) -> int:
    from .harness import witness_search

    report = witness_search(
        args.targets, args.system, restarts=args.restarts, iters=args.iters,
        seed=args.seed,
    )
    record = {
        "record": "witness",
        "success": report.success,
        "residual": float(report.residual),
        "targets": [list(t) for t in report.targets],
        "restarts": report.restarts,
    }
    if report.success and report.amplitudes is not None:
        record["state"] = {
            "format_version": 1,
            "kind": "pure",
            "system": args.system.split(":pure")[0],
            "amplitudes": [[float(re), float(im)]
                           for re, im in report.amplitudes],
        }
    emit(record)
    return 0 if report.success else 1


def cmd_isospec(args) -> int:
    from .harness import isospectrality_campaign

    report = isospectrality_campaign(args.formats, args.trials, args.seed)
    emit({
        "record": "isospectrality",
        "formats": list(report.formats),
        "trials": report.trials,
        "seed": report.seed,
        "max_discrepancy": float(report.max_discrepancy),
        "wall_time": float(report.wall_time),
    })
    return 0 if report.max_discrepancy < 1e-10 else 1


def cmd_families(args) -> int:
    from .records import applicable_families

    families = applicable_families(args.system)
    emit({"record": "families", "system": args.system, "families": list(families)})
    return 0


COMMANDS = {
    "reduce": cmd_reduce,
    "check": cmd_check,
    "chsh": cmd_chsh,
    "coeff": cmd_coeff,
    "edges": cmd_edges,
    "generate": cmd_generate,
    "plethysm": cmd_plethysm,
    "hull": cmd_hull,
    "verify": cmd_verify,
    "equiv": cmd_equiv,
    "witness": cmd_witness,
    "isospec": cmd_isospec,
    "families": cmd_families,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        emit({"record": "error", "kind": "usage", "message": str(exc)},
             stream=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        emit({"record": "error", "kind": type(exc).__name__, "message": str(exc)},
             stream=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
