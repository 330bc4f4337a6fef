"""qmarginal benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload {campaign,exact} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.

--trace 0 measures, with tracing off,
  setup_s      median wall time of fresh ``python -m qmarginal.cli <probe>``
               runs (one untimed run first warms the file cache);
  wall_s       median, over fresh worker processes, of the time one cold
               pass takes to run the whole job list after import;
  peak_rss_mb  median peak RSS of those worker processes.
Probes alternate with passes while the next pass is predicted to be at
least half done at S seconds; more probes then fill what is left of them.

--trace 1 runs one untraced and one traced pass and three
``-X importtime`` probes, and reports the per-layer metrics of tracing.py.

Every job's output is checked; the last stdout line is the JSON result.
The lines before it give failed_frac, the host-drift probe (information
only, never used to rescale) and the environment of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5     # fewest setup samples in a run
IMPORTTIME_RUNS = 3
DEADLINE_S = 170   # every subprocess ends within this many seconds of start
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("QMARGINAL_JOBS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # No bytecode is written: every run compiles qmarginal from source and
    # nothing is written outside the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Run:
    """Subprocesses of one benchmark run, all bounded by one deadline."""

    def __init__(self, seed: int):
        self.seed = seed
        self.env = pinned_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = {}   # job name -> problems found

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _run(self, cmd):
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)

    def probe(self, job, importtime=False):
        """One fresh CLI run of a probe; returns (seconds, stderr text)."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += ["-m", "qmarginal.cli", *job.argv]
        start = time.perf_counter()
        proc = self._run(cmd)
        seconds = time.perf_counter() - start
        self.attempted += 1
        try:
            records = [json.loads(line) for line in proc.stdout.splitlines() if line]
            problems = workloads.check(job, proc.returncode, records, self.seed,
                                       workloads.load_expected())
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.failures[job.name] = problems
        return seconds, proc.stderr

    def worker_pass(self, workload, spans=None):
        """One cold pass in a fresh worker; returns its result or None."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        njobs = len(workloads.jobs(workload, self.seed))
        try:
            proc = self._run(cmd)
            result = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            self.attempted += njobs
            self.failed += njobs
            self.failures[f"{workload} pass"] = [f"worker died: {exc!r}"]
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.update(result["failures"])
        return result


def measure(run: Run, workload: str, seconds: float) -> tuple:
    probe = workloads.PROBES[workload]
    run.probe(probe)   # warms the file cache
    # Probes alternate with passes, so both sample the whole run, and then
    # fill the time left; host load drifts within a run.
    setup, passes, pass_s = [], [], 0.0
    while True:
        setup.append(run.probe(probe)[0])
        # A pass that would straddle the end runs when more than half of it
        # fits, so a run of long passes still measures about S seconds.
        if passes and run.elapsed() + pass_s / 2 > seconds:
            break
        pass_start = time.perf_counter()
        result = run.worker_pass(workload)
        if result is None:
            break
        passes.append(result)
        pass_s = time.perf_counter() - pass_start
    while len(setup) < SETUP_RUNS or run.elapsed() + setup[-1] <= seconds:
        setup.append(run.probe(probe)[0])
    metrics = {"setup_s": statistics.median(setup)}
    if passes:
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in passes)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    detail = {
        "setup_samples_s": setup,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "pass_import_s": [p["import_s"] for p in passes],
        "job_median_s": job_medians(run, workload, passes),
    }
    return metrics, detail, passes


def job_medians(run: Run, workload: str, passes: list) -> dict:
    """Median time of each job over the passes; information only."""
    names = [job.name for job in workloads.jobs(workload, run.seed)]
    return {name: statistics.median(p["job_s"][i] for p in passes)
            for i, name in enumerate(names)} if passes else {}


def measure_traced(run: Run, workload: str) -> tuple:
    probe = workloads.PROBES[workload]
    run.probe(probe)   # warms the file cache
    imports = [tracing.import_times(run.probe(probe, importtime=True)[1])
               for _ in range(IMPORTTIME_RUNS)]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}.npz"
    plain = run.worker_pass(workload)
    traced = run.worker_pass(workload, spans=spans)
    passes = [p for p in (plain, traced) if p is not None]
    if len(passes) < 2:
        return {}, {}, passes
    metrics = dict(traced["layers"])
    for key in imports[0]:
        metrics[key] = statistics.median(sample[key] for sample in imports)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail, passes


def drift_probe() -> float:
    """Seconds a fixed pure-Python loop takes; shows how busy the host is."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def revision() -> dict:
    try:
        git = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git": rev, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmarginal" / "cli.py").is_file():
        print(f"no qmarginal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.seed)
    drift_before = drift_probe()
    if args.trace:
        metrics, detail, passes = measure_traced(run, args.workload)
        specs = [(name, unit) for name, unit, _ in tracing.metric_specs()]
    else:
        metrics, detail, passes = measure(run, args.workload, args.seconds)
        specs = list(UNITS.items())
    drift_after = drift_probe()

    failed_frac = run.failed / run.attempted
    if not args.trace:
        for name, unit in specs:
            if name in metrics:
                print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed_frac:.6g} "
          f"({run.failed} of {run.attempted} jobs)")
    for name, problems in run.failures.items():
        print(f"FAILED {name}: {'; '.join(problems)}")
    versions = passes[0]["versions"] if passes else {}
    info = {
        "record": "perfbench_info", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "failed_frac": failed_frac, "passes": len(passes),
        "drift_probe_s": [drift_before, drift_after],
        "nproc": len(os.sched_getaffinity(0)), **versions, **revision(), **detail,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run.failures and all(name in metrics for name, _ in specs),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in specs if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
