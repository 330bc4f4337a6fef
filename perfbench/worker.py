"""One cold pass of a workload in a fresh interpreter.

Imports every qmarginal module, then runs the workload's job list once and
times it, with no warm-up: the lru_caches of fermion_basis, kostka and
schubert_poly start empty, as they do for every CLI call.  Outputs are
checked after the timed region.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload exact --seed 1 [--spans out.npz]

With ``--spans`` the pass is traced (see tracing.py) and the spans are
written to that file.  Run through run.py, which pins the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import qmarginal

    for mod in pkgutil.iter_modules(qmarginal.__path__):
        importlib.import_module(f"qmarginal.{mod.name}")
    import_s = time.perf_counter() - start
    package_dir = Path(qmarginal.__file__).resolve().parent
    if package_dir != ROOT / "src" / "qmarginal":
        print(f"qmarginal imported from {package_dir}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = workloads.jobs(args.workload, args.seed)
    expected = workloads.load_expected()

    results, job_s = [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        job_start = time.perf_counter()
        try:
            results.append(workloads.run_job(job))
        except Exception as exc:  # a raising job is a failed job; keep going
            results.append(exc)
        job_s.append(time.perf_counter() - job_start)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = {}
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = workloads.check(job, *result, args.seed, expected)
        if problems:
            failures[job.name] = problems

    import numpy
    import scipy

    out = {
        "wall_s": wall_s,
        "job_s": job_s,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.save(args.spans, [job.name for job in jobs])
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
