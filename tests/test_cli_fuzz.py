"""CLI fuzz: random argument lists never end in a traceback.

Each example calls ``cli.main`` in-process with a drawn argument list that
mixes valid and malformed tokens.  The contract: no exception escapes, the
exit code is 0, 1 or 2, stdout holds JSON lines only, an exit 2 comes with
exactly one ``error`` record on stderr, and an exit 1 comes with a report of
a failed check.  The sampling commands draw at most 4 trials or samples
(``witness`` at most 2 restarts of 5 iterations) and run fewer examples.
State files for ``reduce`` and bundles for ``check`` are drawn as JSON too:
valid ones, and ones with a malformed kind, system, shape or entry.  The examples are derandomized, so the test is a pure
function of the code.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import comb, sqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmarginal.cli import main

NONNEG = ["0", "1", "2", "1/2", "1/3", "0.5", "0.25"]
CORRELATIONS = ["0", "1", "-1", "1/2", "-1/2", "0.5", "0.9", "-0.9"]
BAD = ["3/0", "1e400", "nan", "inf", "-inf", "x", "", " ", "1,,5", "-x"]
SYSTEMS = ["qubits:2", "qubits:3", "qubits:4", "2x2", "2x3", "3x3", "2x2:mixed",
           "fermi:4:2", "fermi:5:2", "fermi:6:3:pure", "2x2x2", "qubits:0",
           "fermi:3:3", "fermi:x:1", "bogus"]
# family -> (one-body spectrum sizes, site count, joint spectrum sizes)
FAMILIES = {
    "POLYGON": ((), 3, ()), "BRAVYI_2Q": ((), 2, (4,)), "BASIC": ((), 2, (4, 6)),
    "THREE_QUBIT_MIXED": ((), 3, (8,)), "PAULI": ((4, 5), 0, ()),
    "TWO_PARTICLE_PURE": ((4, 6), 0, ()), "BD6": ((6,), 0, ()),
    "F7_BD": ((7,), 0, ()), "W2H4_MIXED": ((4,), 0, (6,)), "NOPE": ((3,), 1, (2,)),
}


def _vector(tokens, sizes):
    return st.sampled_from(sizes).flatmap(
        lambda k: st.lists(st.sampled_from(tokens), min_size=k, max_size=k)
    ).map(",".join)


def _ints(lo, hi, size):
    return st.lists(st.integers(lo, hi).map(str), min_size=size,
                    max_size=size).map(",".join)


@st.composite
def _test_spectrum(draw, size):
    """A nonincreasing zero-sum rational vector, sometimes left unsorted."""
    xs = [draw(st.integers(-3, 3)) for _ in range(size)]
    if draw(st.booleans()):
        xs.sort(reverse=True)
    mean = Fraction(sum(xs), size)
    return ",".join(str(x - mean) for x in xs)


def _perm(size):
    """A permutation of 1..size, often the identity."""
    return st.one_of(st.just(tuple(range(1, size + 1))),
                     st.permutations(range(1, size + 1))).map(
        lambda word: ",".join(map(str, word)))


def _length(draw, size, mismatched):
    """``size``, or another length of 1..size + 2 if ``mismatched``."""
    if mismatched:
        return draw(st.integers(1, size + 2).filter(lambda k: k != size))
    return size


@st.composite
def _coeff(draw, mismatch=st.sampled_from([False, False, True])):
    """Coefficient flags; with a drawn ``mismatch``, --u or --v (or both) is
    a permutation of a length other than its test spectrum's, and --w fits
    the permutations rather than the spectra."""
    mismatched = draw(mismatch)
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        side = draw(st.sampled_from(["u", "v", "both"]))
        pu = _length(draw, m, mismatched and side != "v")
        pv = _length(draw, n, mismatched and side != "u")
        return {"--u": draw(_perm(pu)), "--v": draw(_perm(pv)),
                "--w": draw(_perm(pu * pv)), "--a": draw(_test_spectrum(m)),
                "--b": draw(_test_spectrum(n))}
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, r - 1))
    return {"--v": draw(_perm(_length(draw, r, mismatched))),
            "--w": draw(_perm(comb(r, k))),
            "--a": draw(_test_spectrum(r)), "--fermi-n": str(draw(st.integers(0, r)))}


@st.composite
def _check(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    one_body, sites, joint = FAMILIES[family]
    flags = {"--family": family}
    if one_body:
        flags["--spectrum"] = draw(_vector(NONNEG, one_body))
    if joint:
        flags["--joint"] = draw(_vector(NONNEG, joint))
    sites = draw(st.lists(_vector(NONNEG, [2]), min_size=sites, max_size=sites))
    return flags, [("--site", site) for site in sites]


# system -> edge length for generate
EDGES = {"qubits:2": 2, "qubits:3": 3, "2x2": 2, "2x3": 3, "3x3": 4, "2x2:mixed": 2,
         "fermi:4:2": 3, "2x2x2": 3, "qubits:0": 0, "bogus": 1}


@st.composite
def _generate(draw):
    system = draw(st.sampled_from(sorted(EDGES)))
    flags = {"--system": system, "--edge": draw(_ints(0, 3, EDGES[system]))}
    return flags, [("--raw", None)] if draw(st.booleans()) else []


@st.composite
def _rnm(draw, last, top):
    """-r, -n and the power flag of plethysm or hull, mostly in range."""
    r = draw(st.integers(2, 5))
    return {"-r": str(r), "-n": str(draw(st.integers(1, min(r - 1, 2)))),
            last: str(draw(st.integers(1, top)))}


FLAGS = {
    "check": _check(),
    "chsh": _vector(CORRELATIONS, [4, 4, 3]).map(lambda c: {"--correlations": c}),
    "coeff": _coeff(),
    "generate": _generate(),
    "families": st.sampled_from(SYSTEMS).map(lambda s: {"--system": s}),
    "plethysm": _rnm("-m", 3),
    "hull": _rnm("-M", 2),
    "edges": st.tuples(st.sampled_from(SYSTEMS), st.sampled_from(["7", "2"])).map(
        lambda t: {"--system": t[0], "--dim-cap": t[1]}),
    "reduce": st.integers(1, 3).flatmap(lambda k: _ints(-1, 3, k)).map(
        lambda keep: {"--state": "STATE", "--keep": keep}),
}


@st.composite
def _argv(draw, command):
    """``command`` with its drawn flags as --flag=value tokens; half the time
    one value is replaced by a malformed token or one flag is left out."""
    flags = draw({**FLAGS, **SAMPLING_FLAGS}[command])
    flags, extra = flags if isinstance(flags, tuple) else (flags, [])
    flags = dict(flags)
    action = draw(st.sampled_from(["keep", "keep", "keep", "corrupt", "drop"]))
    if action != "keep" and flags:
        flag = draw(st.sampled_from(sorted(flags)))
        if action == "corrupt":
            flags[flag] = draw(st.sampled_from(BAD))
        else:
            del flags[flag]
    pairs = list(flags.items()) + extra
    return [command] + [f if v is None else f"{f}={v}" for f, v in pairs]


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    from qmarginal.tensor import haar_pure

    psi = haar_pure((2, 3, 2), 3)
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "pure", "system": "2x3x2",
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }))
    return str(path)

TRIALS = st.integers(0, 4).map(str)
SEEDS = st.integers(-1, 2**70).map(str)
EQUIV_FAMILIES = ["F7_BD", "F7_LIST", "F84_14", "F84_ABS", "BD6", "PAULI",
                  "W2H4_MIXED", "POLYGON", "NOPE"]
FORMATS = ["2x2", "2x3", "3x3", "2x2:mixed", "2x2x2", "qubits:2", "fermi:4:2", "bogus"]


@st.composite
def _verify(draw):
    flags = {"--family": draw(st.sampled_from(sorted(FAMILIES))),
             "--system": draw(st.sampled_from(SYSTEMS)),
             "--trials": draw(TRIALS), "--seed": draw(SEEDS)}
    if draw(st.booleans()):
        flags["--nu"] = draw(_vector(NONNEG, [2, 4, 6]))
    if draw(st.booleans()):
        # fewer than 4 trials per worker never start a process pool
        flags["--jobs"] = draw(st.sampled_from(["1", "2"]))
    return flags


# witness targets by length: spectra (drawn three times as often), and
# vectors that are not (sum 2, a negative entry, a sum below 1)
TARGETS = {2: ["0.5,0.5", "1,0", "0.75,0.25"] * 3 + ["1,1", "1.5,-0.5", "0.6,0.3"],
           3: ["1/3,1/3,1/3", "1,0,0", "0.5,0.25,0.25"] * 3 + ["0.5,0.6,-0.1",
                                                              "0.2,0.2,0.2"]}
# system -> its site dimensions
SITES = {"qubits:2": (2, 2), "qubits:3": (2, 2, 2), "qubits:4": (2, 2, 2, 2),
         "2x2": (2, 2), "2x3": (2, 3), "3x3": (3, 3), "2x2:mixed": (2, 2),
         "2x2x2": (2, 2, 2)}


@st.composite
def _witness(draw):
    """Targets that fit the system's sites, or a drawn list of 1 to 3 that
    may not; at most 2 restarts of at most 5 iterations each."""
    system = draw(st.sampled_from(SYSTEMS))
    sites = SITES.get(system)
    if sites is None or draw(st.booleans()):
        sites = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3))
    return {"--system": system,
            "--targets": ";".join(draw(st.sampled_from(TARGETS[d])) for d in sites),
            "--restarts": draw(st.integers(1, 2).map(str)),
            "--iters": draw(st.integers(0, 5).map(str)), "--seed": draw(SEEDS)}


SAMPLING_FLAGS = {
    "verify": _verify(),
    "equiv": st.fixed_dictionaries({
        "--family-a": st.sampled_from(EQUIV_FAMILIES),
        "--family-b": st.sampled_from(EQUIV_FAMILIES),
        "--samples": TRIALS, "--seed": SEEDS}),
    "isospec": st.fixed_dictionaries({
        "--formats": st.lists(st.sampled_from(FORMATS), min_size=1, max_size=3).map(";".join),
        "--trials": TRIALS, "--seed": SEEDS}),
    "witness": _witness(),
}
# What an exit 1 reports, by record kind.
FAILED = {
    "check_report": lambda r: r["satisfied"] is False,
    "campaign": lambda r: r["violations"] > 0,
    "equivalence": lambda r: r["disagreements"] > 0,
    "isospectrality": lambda r: r["max_discrepancy"] >= 1e-10,
    "witness": lambda r: r["success"] is False,
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    errors = [json.loads(line) for line in err.getvalue().splitlines()]
    return code, records, errors


def _holds_the_contract(argv):
    code, records, errors = _run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert len(errors) == 1, (argv, errors)
        assert errors[0]["record"] == "error", argv
    else:
        assert errors == [], argv
        assert records and all(r["schema"] == "qmarginal/1" for r in records)
    if code == 1:
        assert FAILED[records[-1]["record"]](records[-1]), argv
    return code, records


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_never_raises(command, state_path, data):
    argv = data.draw(_argv(command), label="argv")
    _holds_the_contract([tok.replace("STATE", state_path) for tok in argv])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(flags=_coeff(mismatch=st.just(True)))
def test_coeff_refuses_permutations_that_do_not_fit_their_spectra(flags):
    """A --u or --v whose length is not its test spectrum's is a usage error
    naming both flags, never a coefficient or a traceback."""
    code, records, errors = _run(["coeff"] + [f"{f}={v}" for f, v in flags.items()])
    assert code == 2 and records == [], flags
    (error,) = errors
    assert error["kind"] == "usage", flags
    pairs = {"--u": "--a", "--v": "--b" if "--b" in flags else "--a"}
    assert any(p in error["message"] and s in error["message"]
               for p, s in pairs.items()), error


@pytest.mark.parametrize("command", sorted(SAMPLING_FLAGS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sampling_cli_never_raises(command, data):
    _holds_the_contract(data.draw(_argv(command), label="argv"))


# JSON values that are not a finite number or not a [re, im] pair
MALFORMED = [None, "0.5", "x", True, [], [0.5], [0.5, 0.0, 0.0], [[0.5, 0.0]], {},
             float("nan"), float("inf"), -float("inf"), 10 ** 400]
# system -> the size of its amplitude vector
STATE_SYSTEMS = {"2x2": 4, "qubits:2": 4, "2x3": 6, "2x2x2": 8, "fermi:4:2": 6,
                 "fermi:5:2": 10, "fermi:3:3": 1, "bogus": 4, 7: 4}
SPECTRA = [[0.5, 0.5], [0.75, 0.25], [1.0, 0.0], [0.25] * 4, [0.4, 0.3, 0.2, 0.1],
           [1, 1, 1, 0, 0, 0], [0.5, 1, 0.5, 1, 0, 1]]


def _corrupted(draw, node):
    """``node`` (nested lists) with one element at a drawn depth replaced by
    a malformed value or shortened by one."""
    if isinstance(node, list) and node and draw(st.booleans()):
        i = draw(st.integers(0, len(node) - 1))
        return node[:i] + [_corrupted(draw, node[i])] + node[i + 1:]
    bad = draw(st.sampled_from(MALFORMED + ["shorten"]))
    if bad != "shorten":
        return bad
    return node[:-1] if isinstance(node, list) else []


@st.composite
def _state_file(draw):
    """A state file of a drawn system, size, kind and diagonal weights:
    valid when they fit, else malformed in one place or another."""
    system = draw(st.sampled_from(list(STATE_SYSTEMS)))
    size = STATE_SYSTEMS[system] + draw(st.sampled_from([0, 0, 0, 1, -1]))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, -0.5]),
                            min_size=size, max_size=size))
    kind = draw(st.sampled_from(["pure", "mixed", "mixed", "weird", None]))
    if kind in ("pure", None):
        norm = sqrt(sum(w * w for w in weights)) or 1.0
        key, entries = "amplitudes", [[w / norm, 0.0] for w in weights]
    else:
        total = sum(weights) or 1.0
        key, entries = "matrix", [[[w / total if i == j else 0.0, 0.0] for j in range(size)]
                                  for i, w in enumerate(weights)]
        if size > 1 and draw(st.booleans()):
            # a Hermitian pair, or half of one
            entries[0][1] = [0.25, 0.125]
            if draw(st.booleans()):
                entries[1][0] = [0.25, -0.125]
    if draw(st.booleans()):
        entries = _corrupted(draw, entries)
    state = {"format_version": draw(st.sampled_from([1] * 5 + [2])), "system": system,
             key: entries}
    if kind is not None:
        state["kind"] = kind
    return state


@st.composite
def _bundle_line(draw):
    """One bundle line: a spectrum record with at most one fault, another
    record, a JSON value that is no object, or no JSON at all."""
    shape = draw(st.sampled_from(["spectrum"] * 8 + ["other", "value", "text"]))
    if shape == "other":
        return json.dumps({"record": "warning", "slot": "site0"})
    if shape == "value":
        return json.dumps(draw(st.sampled_from(MALFORMED[:-1] + [[1, 2], 3])))
    if shape == "text":
        return draw(st.sampled_from(["{", "x", "[1,"]))
    values = list(draw(st.sampled_from(SPECTRA)))
    rec = {"record": "spectrum", "values": values, "slot": draw(st.sampled_from(
        ["site0", "site1", "site2", "joint", "one_body", "keep[0]"]))}
    fault = draw(st.sampled_from([None] * 8 + ["value", "values", "slot", "trace",
                                               "no slot", "no values"]))
    if fault == "value":
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(MALFORMED))
    elif fault in ("values", "slot", "trace"):
        rec[fault] = draw(st.sampled_from(MALFORMED + [1.0, 2.0]))
    elif fault is not None:
        del rec[fault[3:]]
    return json.dumps(rec)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(state=_state_file(), keep=st.sampled_from([None, "0", "1", "0,1"]))
def test_state_files_never_raise(fuzz_dir, state, keep):
    """``reduce`` on drawn state files holds the contract, and what it
    prints is a bundle that ``check`` reads."""
    path = fuzz_dir / "state.json"
    path.write_text(json.dumps(state))
    argv = ["reduce", "--state", str(path)] + ([] if keep is None else ["--keep", keep])
    code, records = _holds_the_contract(argv)
    if code == 0:
        bundle = fuzz_dir / "reduced.jsonl"
        bundle.write_text("\n".join(json.dumps(r) for r in records))
        for family in ("POLYGON", "BD6", "W2H4_MIXED"):
            _holds_the_contract(["check", "--family", family, "--bundle", str(bundle)])


def _spectrum_line(slot, values, trace=1.0):
    return json.dumps({"record": "spectrum", "slot": slot, "values": values, "trace": trace})


# family -> a bundle it accepts
BUNDLES = {
    "POLYGON": [_spectrum_line(f"site{i}", [0.5, 0.5]) for i in range(3)],
    "BRAVYI_2Q": [_spectrum_line("site0", [0.5, 0.5]), _spectrum_line("site1", [0.5, 0.5]),
                  _spectrum_line("joint", [1.0, 0.0, 0.0, 0.0])],
    "BD6": [_spectrum_line("one_body", [1, 1, 1, 0, 0, 0], 3.0)],
    "W2H4_MIXED": [_spectrum_line("one_body", [0.5, 0.5, 0.5, 0.5], 2.0),
                   _spectrum_line("joint", [0.25, 0.25, 0.25, 0.25, 0.0, 0.0])],
}


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(sorted(BUNDLES)),
       lines=st.lists(_bundle_line(), max_size=3), at=st.integers(0, 3))
def test_bundles_never_raise(fuzz_dir, family, lines, at):
    """``check`` on a family's valid bundle with drawn lines put in."""
    path = fuzz_dir / "bundle.jsonl"
    base = BUNDLES[family]
    path.write_text("\n".join(base[:at] + lines + base[at:]))
    _holds_the_contract(["check", "--family", family, "--bundle", str(path)])


def test_fuzz_reaches_every_exit_code(state_path):
    """The fixed corpus below exercises each outcome the fuzz asserts on."""
    cases = {
        0: ["families", "--system", "2x2"],
        1: ["check", "--family", "BD6", "--spectrum", "1,1,0.5,0.5,0,0"],
        2: ["reduce", "--state", state_path, "--keep", "1,1"],
    }
    for want, argv in cases.items():
        assert _run(argv)[0] == want, argv


# A 401-digit integer, which no float holds, and an integer that a float
# holds but twice of which it does not.
HUGE = "1" + "0" * 400
BIG = str(int(1.5e308))


@pytest.mark.parametrize("argv", [
    ["check", "--family", "BD6", "--spectrum", f"{HUGE},1,1,0,0,0"],
    ["check", "--family", "BD6", "--spectrum", "1,1,1,0,0,0", "--trace", HUGE],
    ["check", "--family", "POLYGON", "--site", f"{HUGE},0", "--site", "0.5,0.5"],
    ["check", "--family", "BRAVYI_2Q", "--site", "0.5,0.5", "--site", "0.5,0.5",
     "--joint", f"{HUGE},0,0,0"],
    ["check", "--family", "BD6", "--spectrum", "1,1,1,0,0,0", "--tolerance", HUGE],
    ["check", "--family", "POLYGON", "--site", f"{BIG},{BIG}", "--site", "0.5,0.5"],
    ["chsh", "--correlations", f"{HUGE},0,0,0"],
    ["verify", "--family", "BRAVYI_2Q", "--system", "2x2:mixed", "--trials", "2",
     "--seed", "1", "--nu", f"{HUGE},0,0,0"],
    ["verify", "--family", "BRAVYI_2Q", "--system", "2x2:mixed", "--trials", "2",
     "--seed", "1", "--tolerance", HUGE],
    ["witness", "--system", "2x2", "--targets", f"{HUGE},0;0.5,0.5", "--seed", "1"],
])
def test_numbers_too_large_for_a_float_are_exit_two_errors(argv):
    code, records = _holds_the_contract(argv)
    assert code == 2 and records == [], argv


def test_exact_commands_read_integers_too_large_for_a_float_exactly():
    """``coeff`` and ``generate`` compute in rationals: a sum order does not
    change when the test spectrum is scaled, and the edge prints as given."""
    coeff = ["coeff", "--v", "1,2", "--w", "1,2", "--fermi-n", "1"]
    code, records = _holds_the_contract(coeff + ["--a", f"{HUGE},-{HUGE}"])
    assert code == 0
    assert records == _holds_the_contract(coeff + ["--a", "1,-1"])[1]
    code, records = _holds_the_contract(["generate", "--system", "qubits:2",
                                         "--edge", f"0,{HUGE}"])
    assert code == 0 and records[-1]["edge"] == ["0", HUGE]
