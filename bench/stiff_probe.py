"""Ungated probe of the Euler filter step on stiff settings.

    python3 stiff_probe.py SEED

Runs ``run_divergence_ensemble`` with 200 paths at dt = 1e-3 on the cycle
at sigma2 = 1e-3 and on the blocks at k = 10 and k = 30, and prints one JSON
line with how many were attempted, how many raised, and what they raised.
The Euler step plus clipping is known to break absolute continuity there;
the probe keeps that defect visible without letting it fail a gated run.
"""

import json
import sys

CASES = (("example-6.1", 1e-3), ("example-6.2", 10.0), ("example-6.2", 30.0))
N_PATHS = 200
T = 1.0
DT = 1e-3


def main() -> int:
    from filterlab.config import model_for_sweep_value, preset_config
    from filterlab.ensemble import run_divergence_ensemble
    from filterlab.errors import FilterLabError

    seed = int(sys.argv[1])
    errors = {}
    for preset, value in CASES:
        cfg = preset_config(preset)
        model = model_for_sweep_value(cfg, value)
        try:
            run_divergence_ensemble(model, cfg.mu, cfg.nu, N_PATHS, T, DT, seed)
        except FilterLabError as exc:
            errors[f"{preset}@{value:g}"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"attempted": len(CASES), "failed": len(errors), "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
