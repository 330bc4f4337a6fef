"""Write expected.json: the pinned outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every exact job and probe once and stores its canonical output, and
runs the campaign at the default seed and stores each minimum slack.  Run
it only when an output is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    outputs, min_slack = {}, {}
    exact = [workloads.PROBES["exact"]]
    exact += workloads.jobs("exact", workloads.DEFAULT_SEED)
    for job in exact:
        code, records = workloads.run_job(job)
        if code != 0:
            raise SystemExit(f"{job.name} exited with {code}: {records[-3:]}")
        outputs[job.name] = workloads.canonical(records)
    for job in workloads.jobs("campaign", workloads.DEFAULT_SEED):
        if job.kind == "verify":
            code, records = workloads.run_job(job)
            if code != 0:
                raise SystemExit(f"{job.name} exited with {code}: {records[-3:]}")
            min_slack[job.name] = records[0]["min_slack"]
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump({"min_slack": min_slack, "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
