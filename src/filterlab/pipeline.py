"""End-to-end experiment pipelines behind the command-line interface.

Each pipeline takes a validated ExperimentConfig, runs ensembles with
per-path random streams, and produces a JSON-ready report plus optional CSV
artifacts.  Everything in a report is derived from (config, master_seed)
through per-path arrays reduced in path order, so reruns are bit-identical;
wall-clock timing lives under the separate key "wall_clock_s" that
determinism comparisons drop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict

import numpy as np

from .config import ExperimentConfig, _grid_check, config_to_dict, model_for_sweep_value
from .divergence import (
    DivergenceSeries,
    chi2,
    fit_exponential_rate,
    kl,
    tv,
    write_series_csv,
)
from .dual import backward_map_study, theorem2_envelope, write_backward_map_csv
from .ensemble import run_divergence_ensemble
from .errors import (
    AssumptionA1Violated,
    ConfigError,
    DegenerateVarianceForm,
    FilterLabError,
    NonPositiveSeries,
    NonUniqueInvariantMeasure,
    WindowTooShort,
)
from .model import (
    HmmModel,
    _write_table,
    as_simplex,
    invariant_measure,
    is_ergodic,
    nonergodic_limit_bounds,
    observable_space,
    rate_bounds,
)
from .poincare import classical_pi_constant, trajectory_pi_infimum

__all__ = [
    "run_simulate",
    "run_structure",
    "run_backward_map",
    "resolve_out_dir",
    "write_report",
]

OUT_DIR_ENV = "FILTERLAB_OUT"
PI_TRAJECTORY_PATHS = 8
PI_TRAJECTORY_STRIDE = 500
ENVELOPE_TAU = 1.0


def resolve_out_dir(explicit: str | None, cfg_out: str | None = None) -> str:
    """Output directory: explicit flag, then config, then environment, then cwd."""
    out = explicit or cfg_out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def write_report(report: dict, out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _json_float(v: float) -> float | None:
    """Finite float or None, keeping reports strictly JSON-portable."""
    return float(v) if np.isfinite(v) else None


def _json_fields(entry) -> dict:
    """A dataclass's fields in order, with non-finite floats as None."""
    return {k: _json_float(v) if isinstance(v, float) else v for k, v in asdict(entry).items()}


def _sweep_tag(cfg: ExperimentConfig, value: float | None) -> str:
    if value is None:
        return "base"
    kind = "sigma2" if cfg.sweep_kind == "sigma2" else "k"
    return f"{kind}={value:g}"


def _fit_payload(series: DivergenceSeries, window) -> tuple[dict | None, str]:
    try:
        fit = fit_exponential_rate(series.times, series.chi2_mean, window=window)
    except (NonPositiveSeries, WindowTooShort) as exc:
        return None, f"rate fit skipped: {exc}"
    return _json_fields(fit), ""


def run_simulate(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    plot_data: bool = False,
) -> dict:
    """Full divergence pipeline over the configured sweep.

    Per sweep value, one lockstep filter pass: the ensemble under the mu
    path law, filtered from mu and nu on shared observations, plus
    PI_TRAJECTORY_PATHS paths sampled under nu on the streams after it,
    whose nu-filters give the conditional-PI infimum.  Then the divergence
    series with a chi-square rate fit, and the multiplicative decay
    envelope driven by that infimum.  Writes one series CSV per sweep value
    (plus the (t, log mean chi2) fit points when plot_data is set) when
    out_dir is given.
    """
    t_start = time.perf_counter()
    values: list[float | None] = (
        list(cfg.sweep_values) if cfg.sweep_kind is not None else [None]
    )
    sweep_reports = []
    artifacts: list[str] = []
    checks: dict[str, bool] = {}
    prior_divergences = {
        "chi2": chi2(cfg.mu, cfg.nu),
        "kl": kl(cfg.mu, cfg.nu),
        "tv": tv(cfg.mu, cfg.nu),
    }
    for value in values:
        model = model_for_sweep_value(cfg, value)
        ens = run_divergence_ensemble(
            model, cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed, nu_paths=PI_TRAJECTORY_PATHS
        )
        series = ens.series
        fit_payload, fit_note = _fit_payload(series, cfg.rate_window)

        c_inf, c_where = trajectory_pi_infimum(model.A, ens.nu_filters, cfg.dt, stride=PI_TRAJECTORY_STRIDE)
        c_path, c_time = c_where if c_where is not None else (None, None)

        c_env = max(c_inf, 0.0) if np.isfinite(c_inf) else 0.0
        envelope_payload = None
        try:
            report = theorem2_envelope(
                model, cfg.mu, cfg.nu, series, c_env, ENVELOPE_TAU
            )
            envelope_payload = {
                "c_estimate": report.c_estimate,
                "tau": report.tau,
                "a_lower": report.a_lower,
                "n_violations": report.n_violations,
                "first_violation_time": report.first_violation_time,
            }
        except AssumptionA1Violated as exc:
            envelope_payload = {"skipped": str(exc)}

        tag = _sweep_tag(cfg, value)
        entry = {
            "value": value,
            "tag": tag,
            "noiseless": model.noiseless,
            "rate_fit": fit_payload,
            "note": fit_note,
            "chi2_initial": float(series.chi2_mean[0]),
            "chi2_terminal_mean": float(series.chi2_mean[-1]),
            "chi2_terminal_se": _json_float(series.chi2_se[-1]),
            "conditional_pi_infimum": {
                "constant": c_inf if np.isfinite(c_inf) else None,
                "path": c_path,
                "time": c_time,
            },
            "envelope": envelope_payload,
        }
        checks[f"initial_divergence_matches_priors[{tag}]"] = bool(
            abs(series.chi2_mean[0] - prior_divergences["chi2"]) <= 1e-10
        )
        if ens.terminal_pis is not None:
            sums = ens.terminal_pis.sum(axis=-1)
            checks[f"terminal_simplex[{tag}]"] = bool(
                np.all(np.abs(sums - 1.0) <= 1e-9) and np.all(ens.terminal_pis >= -1e-12)
            )
        if out_dir is not None:
            series_path = os.path.join(out_dir, f"series_{tag}.csv")
            write_series_csv(series_path, series)
            artifacts.append(series_path)
            if plot_data and fit_payload is not None:
                lo, hi = fit_payload["window"]
                mask = (series.times >= lo) & (series.times <= hi)
                plot_path = os.path.join(out_dir, f"plotdata_{tag}.csv")
                _write_table(
                    plot_path,
                    ["t", "log_chi2_mean"],
                    [series.times[mask], np.log(series.chi2_mean[mask])],
                )
                artifacts.append(plot_path)
        sweep_reports.append(entry)

    report = {
        "command": "simulate",
        "config": config_to_dict(cfg),
        "prior_divergences": prior_divergences,
        "sweep": sweep_reports,
        "structure": _structure_payload(model_for_sweep_value(cfg, None)),
        "checks": checks,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "wall_clock_s": time.perf_counter() - t_start,
    }
    if out_dir is not None:
        write_report(report, out_dir, "report_simulate.json")
    return report


def _structure_payload(model: HmmModel) -> dict:
    ergodic = is_ergodic(model.A)
    payload: dict = {
        "d": model.d,
        "m": model.m,
        "r": model.r,
        "noiseless": model.noiseless,
        "ergodic": ergodic,
    }
    basis = observable_space(model.A, model.H)
    payload["observable_dim"] = basis.dim
    payload["observable"] = basis.dim == model.d
    payload["observable_basis"] = [[float(v) for v in col] for col in basis.vectors.T]
    try:
        mu_bar = invariant_measure(model.A)
        payload["invariant_measure"] = [float(v) for v in mu_bar]
        payload["invariant_note"] = ""
    except NonUniqueInvariantMeasure as exc:
        mu_bar = invariant_measure(model.A, allow_nonunique=True)
        payload["invariant_measure"] = [float(v) for v in mu_bar]
        payload["invariant_note"] = f"not unique ({exc}); nonnegative representative shown"
    try:
        pi_res = classical_pi_constant(model.A, mu_bar)
        payload["classical_pi"] = {
            "constant": pi_res.constant,
            "minimizer": [float(v) for v in pi_res.minimizer],
        }
    except DegenerateVarianceForm as exc:
        payload["classical_pi"] = {"skipped": str(exc)}
    b1, b2, b3 = rate_bounds(model.A, mu_bar)
    payload["rate_bounds"] = {"b1": b1, "b2": b2, "b3": b3}
    u1, u2 = nonergodic_limit_bounds(model.A, model.H, mu_bar)
    payload["small_noise_bounds"] = {"u1": u1, "u2": u2}
    return payload


def run_structure(model: HmmModel, out_dir: str | None = None) -> dict:
    """Structural report: ergodicity, observability, invariant measure,
    the classical Poincare constant, and the rate-bound table."""
    t_start = time.perf_counter()
    report = {
        "command": "structure",
        "structure": _structure_payload(model),
        "wall_clock_s": time.perf_counter() - t_start,
    }
    if out_dir is not None:
        write_report(report, out_dir, "report_structure.json")
    return report


def run_backward_map(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Backward-map and variance-decay pipeline at the base model.

    Decay diagnostics over cfg.T_list and both backward-map estimators at
    the largest horizon, from one dual.backward_map_study pass.  Dumps each
    estimator as CSV.  Raises ConfigError for fewer than two paths per
    state, which leave every standard error undefined, and for a horizon
    that dt does not divide.
    """
    t_start = time.perf_counter()
    if cfg.n_paths < 2:
        raise ConfigError(f"n_paths: backward-map needs at least 2 paths per state, got {cfg.n_paths}")
    for T in cfg.T_list:
        _grid_check(T, cfg.dt, "T_list")
    model = model_for_sweep_value(cfg, None)
    if model.noiseless:
        raise FilterLabError(
            "backward-map diagnostics need a noisy observation model (r > 0)"
        )
    nu = as_simplex(cfg.nu, d=model.d)
    diags, plain, rb = backward_map_study(
        model, cfg.mu, cfg.nu, cfg.T_list, cfg.n_paths, cfg.master_seed, cfg.dt
    )
    artifacts = []
    estimates = {}
    for est in (plain, rb):
        nu_mean = float(nu @ est.y0)
        nu_mean_se = float(np.sqrt(nu**2 @ est.stderr**2))
        estimates[est.estimator_kind] = {
            "T": est.T,
            "n_paths_per_state": est.n_paths,
            "y0": [float(v) for v in est.y0],
            "stderr": [float(v) for v in est.stderr],
            "nu_mean": nu_mean,
            "nu_mean_se": nu_mean_se,
            "skipped_states": list(est.skipped_states),
        }
        if out_dir is not None:
            path = os.path.join(out_dir, f"backward_map_{est.estimator_kind}.csv")
            write_backward_map_csv(path, est)
            artifacts.append(path)
    report = {
        "command": "backward-map",
        "config": config_to_dict(cfg),
        "diagnostics": [_json_fields(dg) for dg in diags],
        "estimates": estimates,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "wall_clock_s": time.perf_counter() - t_start,
    }
    if out_dir is not None:
        write_report(report, out_dir, "report_backward_map.json")
    return report
