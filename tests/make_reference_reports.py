"""Regenerate the reference reports in tests/reference/.

test_reference_reports.py compares the pipelines' reports against these
files.  Each case is a small run of one command: simulate on both presets
(20 paths, T = 1, with each series' first, middle and last rows),
backward-map on example-6.1 (50 paths, T_list [0.25, 0.5]), structure on
both presets and verify at size 0.  wall_clock_s is left out.  Regenerate
only when a change to the reports is intended, from the repository root:

    PYTHONPATH=src python tests/make_reference_reports.py
"""

import json
import os

from filterlab.config import _apply_overrides, model_for_sweep_value, preset_config
from filterlab.pipeline import run_backward_map, run_simulate, run_structure
from filterlab.verify import run_verify

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
PRESETS = ("example-6.1", "example-6.2")


def _simulate(preset):
    report, sweep_series = run_simulate(_apply_overrides(preset_config(preset), {"n_paths": 20, "T": 1.0}, preset))
    report["series"] = {}
    for name, s in zip(report["artifacts"], sweep_series):
        columns = [s.times, s.chi2_mean, s.chi2_se, s.kl_mean, s.kl_se, s.tv_mean, s.tv_se]
        report["series"][name] = [[float(c[i]) for c in columns] for i in (0, len(s.times) // 2, -1)]
    return report


def _backward_map():
    preset = "example-6.1"
    return run_backward_map(_apply_overrides(preset_config(preset), {"n_paths": 50, "T_list": [0.25, 0.5]}, preset))


CASES = {
    **{f"simulate_{p}": (lambda p=p: _simulate(p)) for p in PRESETS},
    "backward-map_example-6.1": _backward_map,
    **{f"structure_{p}": (lambda p=p: run_structure(model_for_sweep_value(preset_config(p), None))) for p in PRESETS},
    "verify_size-0": lambda: run_verify(0, 0),
}
FORKING = ("simulate_example-6.1", "simulate_example-6.2", "backward-map_example-6.1")  # cases that may fork


def report_of(case: str) -> dict:
    """The case's report as JSON text reads it back, without wall_clock_s."""
    report = CASES[case]()
    report.pop("wall_clock_s")
    return json.loads(json.dumps(report))


def reference_path(case: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{case}.json")


if __name__ == "__main__":
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for case in CASES:
        with open(reference_path(case), "w") as fh:
            json.dump(report_of(case), fh, indent=1)
            fh.write("\n")
        print(reference_path(case))
