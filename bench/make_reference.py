"""Record the reference values that every benchmark run checks against.

    python3 bench/make_reference.py

For each workload, invokes the CLI once at DEFAULT_SEED and once at each
calibration seed 1..CALIBRATION_SEEDS, and writes ``bench/reference.json``:
every summary value at DEFAULT_SEED together with its seed-to-seed standard
deviation over the calibration seeds.  Gate failures at any seed are printed, never
skipped: a seed at which the program fails its own checks is a finding.
Run it from the root of a checkout of the commit the references describe.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile

import run
import workloads

CALIBRATION_SEEDS = 12


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    reference = {}
    failures = 0
    try:
        for wl in workloads.WORKLOADS.values():
            summaries = {}
            for seed in (workloads.DEFAULT_SEED, *range(1, CALIBRATION_SEEDS + 1)):
                sample = run.invoke(wl, seed, work)
                for problem in sample["problems"]:
                    print(f"{wl.name} seed {seed}: {problem}")
                failures += bool(sample["problems"])
                if sample["report"] is not None:
                    summaries[seed] = workloads.summary(sample["report"])
                    print(f"{wl.name} seed {seed}: {sample.get('wall_s', 0.0):.2f} s", flush=True)
            at_default = summaries[workloads.DEFAULT_SEED]
            calibration = [s for seed, s in summaries.items() if seed != workloads.DEFAULT_SEED]
            reference[wl.name] = {
                key: {
                    "value": value,
                    "seed_sd": statistics.stdev(s[key][0] for s in calibration),
                }
                for key, (value, _) in at_default.items()
            }
    finally:
        shutil.rmtree(work)
        if not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}; {failures} gate failures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
