"""Command-line entry point.

Subcommands
-----------
simulate      divergence ensembles, rate fits, and decay envelopes over a sweep
structure     ergodicity / observability / Poincare report for a model
backward-map  dual decay diagnostics and backward-map estimators
verify        built-in deterministic and statistical check suites

The pipelines compute and return; this module writes every report and
series CSV into the output directory.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    PRESET_NAMES,
    _apply_overrides,
    load_config,
    load_model,
    model_for_sweep_value,
    preset_config,
)
from .divergence import write_series_csv
from .errors import ConfigError, FilterLabError
from .pipeline import (
    resolve_out_dir,
    run_backward_map,
    run_simulate,
    run_structure,
    write_report,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="JSON experiment configuration")
    source.add_argument(
        "--preset", choices=PRESET_NAMES, help="built-in experiment configuration"
    )
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="output directory (default: config, then $FILTERLAB_OUT, then cwd)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="filterlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_sim = sub.add_parser("simulate", help="run the divergence sweep pipeline")
    _add_experiment_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_struct = sub.add_parser("structure", help="report structural diagnostics")
    source = p_struct.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="PATH", help="model JSON file")
    source.add_argument(
        "--preset", choices=PRESET_NAMES, help="use a preset's base model"
    )
    p_struct.add_argument("--out", metavar="DIR", default=None)
    p_struct.set_defaults(func=_cmd_structure)

    p_dual = sub.add_parser(
        "backward-map", help="dual variance-decay diagnostics and estimators"
    )
    _add_experiment_flags(p_dual)
    p_dual.set_defaults(func=_cmd_backward_map)

    p_ver = sub.add_parser("verify", help="run the built-in verification suites")
    p_ver.add_argument("--seed", type=int, default=0, help="master seed")
    p_ver.add_argument(
        "--size",
        type=int,
        default=100,
        help="ensemble size for statistical checks (0 = deterministic only; a size below the suite's minimum is rejected)",
    )
    p_ver.add_argument("--out", metavar="DIR", default=None)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _load_experiment(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config is not None else preset_config(args.preset)
    if args.seed is not None:
        cfg = _apply_overrides(cfg, {"master_seed": args.seed}, "--seed")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_experiment(args)
    out = resolve_out_dir(args.out, cfg.out_dir)
    report, sweep_series = run_simulate(cfg)
    for name, series in zip(report["artifacts"], sweep_series):
        write_series_csv(os.path.join(out, name), series)
    path = write_report(report, out, "report_simulate.json")
    for entry in report["sweep"]:
        fit = entry["rate_fit"]
        if fit is not None:
            rate_txt = f"rate {fit['rate']:.4f} +- {fit['stderr']:.4f}"
        else:
            rate_txt = entry["note"]
        print(
            f"[{entry['tag']}] chi2(0) = {entry['chi2_initial']:.6f}, "
            f"chi2(T) = {entry['chi2_terminal_mean']:.4e}; {rate_txt}"
        )
    failed = sorted(k for k, v in report["checks"].items() if not v)
    for name in failed:
        print(f"consistency check failed: {name}", file=sys.stderr)
    print(f"report: {path}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_structure(args) -> int:
    if args.model is not None:
        model = load_model(args.model)
    else:
        model = model_for_sweep_value(preset_config(args.preset), None)
    out = resolve_out_dir(args.out)
    report = run_structure(model)
    path = write_report(report, out, "report_structure.json")
    payload = report["structure"]
    print(f"ergodic: {payload['ergodic']}")
    print(f"observable dimension: {payload['observable_dim']} of {payload['d']}")
    mu_txt = ", ".join(f"{v:.6f}" for v in payload["invariant_measure"])
    note = payload["invariant_note"]
    print(f"invariant measure: ({mu_txt}){' [' + note + ']' if note else ''}")
    pi = payload["classical_pi"]
    if "constant" in pi:
        print(f"classical Poincare constant: {pi['constant']:.8f}")
    else:
        print(f"classical Poincare constant skipped: {pi['skipped']}")
    print(f"report: {path}")
    return EXIT_OK


def _cmd_backward_map(args) -> int:
    cfg = _load_experiment(args)
    out = resolve_out_dir(args.out, cfg.out_dir)
    report = run_backward_map(cfg)
    path = write_report(report, out, "report_backward_map.json")
    for entry in report["diagnostics"]:
        r_txt = "n/a" if entry["r_T"] is None else f"{entry['r_T']:.4f}"
        print(
            f"[T = {entry['T']:g}] var_nu(y0) = {entry['var_nu_y0']:.4e} "
            f"+- {entry['var_nu_y0_se']:.1e}, R_T = {r_txt} "
            f"(a_lower = {entry['a_lower']:.4f})"
        )
    for kind, est in report["estimates"].items():
        print(
            f"{kind}: nu(y0) = {est['nu_mean']:.5f} +- {est['nu_mean_se']:.5f} "
            f"at T = {est['T']:g}"
        )
    print(f"report: {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verify

    out = resolve_out_dir(args.out)
    report = run_verify(master_seed=args.seed, size=args.size)
    path = write_report(report, out, "report_verify.json")
    for check in report["checks"]:
        mark = "ok  " if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(
        f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} checks passed "
        f"in {report['wall_clock_s']:.1f} s"
    )
    print(f"report: {path}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FilterLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
