"""Job lists of the benchmark workloads, their probes, and the output checks.

Every job goes through a public entry point: ``qmarginal.cli.main(argv)``
with stdout captured, or, for the Schubert scan that has no CLI command,
``qmarginal.schubert.enumerate_inequalities``.  Exact jobs are checked
against outputs pinned in ``expected.json`` (see ``pin.py``); campaign jobs
are checked for zero violations and disagreements, and for the default
seed also against pinned minimum slacks.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Seed of the pinned campaign minimum slacks (the acceptance suite's seed).
DEFAULT_SEED = 20260809

# One shared trial count for the campaign pairs and one sample count for the
# equivalence pairs; together they make a pass of 5 to 6 s on a 2-core
# x86-64 host, so a run holds seven to ten passes.
CAMPAIGN_TRIALS = 750
EQUIV_SAMPLES = 3000
MIN_SLACK_TOL = 1e-9

# The (family, system) pairs of acceptance criterion 5.
CAMPAIGN_PAIRS = (
    ("POLYGON", "qubits:3:pure"),
    ("POLYGON", "qubits:4:pure"),
    ("FRANZ_3QUTRIT", "3x3x3:pure"),
    ("BASIC", "2x2:mixed"),
    ("BASIC", "2x2x2:mixed"),
    ("THREE_QUBIT_MIXED", "2x2x2:mixed"),
    ("BD6", "fermi:6:3:pure"),
    ("F7_LIST", "fermi:7:3:pure"),
    ("F8_31", "fermi:8:3:pure"),
    ("F84_14", "fermi:8:4:pure"),
    ("W2H4_MIXED", "fermi:4:2:mixed"),
)
EQUIV_PAIRS = (("F84_14", "F84_ABS"), ("F7_BD", "F7_LIST"))

EDGE_SYSTEMS = ("qubits:4", "qubits:5", "fermi:6:3", "3x4")
# Edge counts stated in the paper; the full edge lists are pinned as well.
PAPER_EDGE_COUNTS = {"qubits:4": 12, "qubits:5": 125}

QUBIT3_EDGES = ("0,0,1", "0,1,1", "1,1,1", "1,1,2")
# A 2x4 cubicle scans 8! permutations, so Schubert arithmetic, not the
# permutation scan, takes most of its time.
SCHUBERT_CASE = ((3, -3), (8, 1, -3, -6), 3)   # a, b, max_length
HULL_CASES = ((7, 3, 4), (8, 4, 4))            # r, n, M

WORKLOADS = ("campaign", "exact")


@dataclass(frozen=True)
class Job:
    """One unit of work; ``name`` is its id and the key of its pinned output."""

    name: str
    kind: str
    argv: tuple = ()


# A one-body spectrum that satisfies F8_31 with slack 0.356.
F8_31_SPECTRUM = "0.646,0.588,0.504,0.396,0.329,0.227,0.192,0.118"

PROBES = {
    "campaign": Job("probe check F8_31", "check",
                    ("check", "--family", "F8_31", "--spectrum", F8_31_SPECTRUM)),
    "exact": Job("probe edges qubits:3", "exact",
                 ("edges", "--system", "qubits:3")),
}


def jobs(workload: str, seed: int) -> list:
    """The workload's job list; only the campaign jobs depend on the seed."""
    if workload == "campaign":
        out = [
            Job(f"verify {family}@{system}", "verify",
                ("verify", "--family", family, "--system", system,
                 "--trials", str(CAMPAIGN_TRIALS), "--seed", str(seed),
                 "--jobs", "1"))
            for family, system in CAMPAIGN_PAIRS
        ]
        out += [
            Job(f"equiv {a}/{b}", "equiv",
                ("equiv", "--family-a", a, "--family-b", b,
                 "--samples", str(EQUIV_SAMPLES), "--seed", str(seed)))
            for a, b in EQUIV_PAIRS
        ]
        return out
    if workload == "exact":
        out = [Job(f"edges {s}", "exact", ("edges", "--system", s))
               for s in EDGE_SYSTEMS]
        out += [Job(f"generate qubits:3 {e}", "exact",
                    ("generate", "--system", "qubits:3", "--edge", e))
                for e in QUBIT3_EDGES]
        a, b, max_length = SCHUBERT_CASE
        out.append(Job(f"schubert {a} {b} max_length={max_length}", "schubert"))
        out += [Job(f"hull {r},{n},{m}", "exact",
                    ("hull", "-r", str(r), "-n", str(n), "-M", str(m)))
                for r, n, m in HULL_CASES]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def run_job(job: Job) -> tuple:
    """Run one job in this process; returns (exit code, output records)."""
    import qmarginal.cli
    import qmarginal.schubert

    if job.kind == "schubert":
        a, b, max_length = SCHUBERT_CASE
        records = qmarginal.schubert.enumerate_inequalities(
            a=a, b=b, max_length=max_length)
        return 0, [_inequality_record(rec) for rec in records]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmarginal.cli.main(list(job.argv))
    records = [json.loads(line) for line in out.getvalue().splitlines() if line]
    records += [{"stderr": line} for line in err.getvalue().splitlines() if line]
    return code, records


def _inequality_record(rec) -> dict:
    return {
        "terms": [[slot, [str(Fraction(c)) for c in coeffs]]
                  for slot, coeffs in rec.terms],
        "relation": rec.relation,
        "bound": str(Fraction(rec.bound)),
        "label": rec.label,
    }


def canonical(records) -> list:
    """Order-free canonical text of a record list."""
    return sorted(json.dumps(r, sort_keys=True) for r in records)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(job: Job, code: int, records: list, seed: int, expected: dict) -> list:
    """Problems with one job's output; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}: {records[-3:]}"]
    if job.kind == "check":
        return _check_probe_check(records)
    if job.kind == "verify":
        return _check_verify(job, records, seed, expected)
    if job.kind == "equiv":
        return _check_equiv(records)
    return _check_exact(job, records, expected)


def _single(records, kind) -> tuple:
    found = [r for r in records if r.get("record") == kind]
    if len(found) != 1 or len(records) != 1:
        return None, [f"expected one {kind!r} record, got {records[:3]}"]
    return found[0], []


def _check_probe_check(records) -> list:
    rec, problems = _single(records, "check_report")
    if rec is not None and not (rec["satisfied"] and rec["family"] == "F8_31"):
        problems.append(f"probe spectrum not satisfied: {rec}")
    return problems


def _check_verify(job, records, seed, expected) -> list:
    rec, problems = _single(records, "campaign")
    if rec is None:
        return problems
    if rec["violations"] != 0:
        problems.append(f"{rec['violations']} violations")
    if rec["trials"] != CAMPAIGN_TRIALS or rec["seed"] != seed:
        problems.append(f"wrong trials or seed in {rec}")
    if seed == DEFAULT_SEED:
        pinned = expected["min_slack"][job.name]
        if not abs(rec["min_slack"] - pinned) <= MIN_SLACK_TOL:
            problems.append(f"min_slack {rec['min_slack']!r} != pinned {pinned!r}")
    return problems


def _check_equiv(records) -> list:
    rec, problems = _single(records, "equivalence")
    if rec is None:
        return problems
    if rec["disagreements"] != 0:
        problems.append(f"{rec['disagreements']} disagreements")
    if rec["samples"] != EQUIV_SAMPLES:
        problems.append(f"samples {rec['samples']} != {EQUIV_SAMPLES}")
    return problems


def _check_exact(job, records, expected) -> list:
    got = canonical(records)
    want = expected["outputs"][job.name]
    problems = []
    if got != want:
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        problems.append(
            f"output differs from pinned: {missing} records missing, "
            f"{extra} unexpected, {len(got)} vs {len(want)} lines")
    if job.argv[:1] == ("edges",):
        system = job.argv[2]
        summary = [r for r in records if r.get("record") == "edge_summary"]
        edges = [r for r in records if r.get("record") == "edge"]
        paper = PAPER_EDGE_COUNTS.get(system)
        if paper is not None and not (
            len(edges) == paper and summary and summary[0]["count"] == paper
        ):
            problems.append(f"{system}: {len(edges)} edges, the paper has {paper}")
    return problems
