"""End-to-end experiment pipelines behind the command-line interface.

Each pipeline takes a validated ExperimentConfig, runs ensembles with
per-path random streams, and returns a JSON-ready report; it writes
nothing, and the command-line interface writes every report and series CSV
through write_report and write_series_csv.  Everything in a report is
derived from (config, master_seed) through per-path values reduced in path
order (the ensemble's series are reduced at its report times, a block at a
time, as the filters run), so reruns are bit-identical; wall-clock timing
lives under the separate key "wall_clock_s" that determinism comparisons drop.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import asdict

import numpy as np

from .config import ExperimentConfig, _grid_check, config_to_dict, model_for_sweep_value
from .divergence import DivergenceSeries, chi2, fit_exponential_rate, kl, tv
from .dual import ENVELOPE_TAU, _nu_mean, backward_map_study, theorem2_envelope
from .ensemble import REPORT_STEPS, run_divergence_sweep
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
    _same_level,
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
PI_TRAJECTORY_STRIDE = 500  # steps between the states the infimum reads, on the report grid
assert PI_TRAJECTORY_STRIDE % REPORT_STEPS == 0


def resolve_out_dir(explicit: str | None, cfg_out: str | None = None) -> str:
    """Output directory: explicit flag, then config, then environment, then cwd."""
    out = explicit or cfg_out or os.environ.get(OUT_DIR_ENV) or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r} cannot be created: {exc}") from exc
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
    return "base" if value is None else f"{cfg.sweep_kind}={value:g}"


def _fit_payload(series: DivergenceSeries, window) -> tuple[dict | None, str]:
    try:
        fit = fit_exponential_rate(series.times, series.chi2_mean, window=window)
    except (NonPositiveSeries, WindowTooShort) as exc:
        return None, f"rate fit skipped: {exc}"
    return _json_fields(fit), ""


def run_simulate(cfg: ExperimentConfig) -> tuple[dict, list[DivergenceSeries]]:
    """Full divergence pipeline over the configured sweep.

    The sweep draws its paths and unit noise once; every value sees the
    same paths.  Per value, one lockstep filter pass: the ensemble under
    the mu path law, filtered from mu and nu on shared observations, plus
    PI_TRAJECTORY_PATHS paths sampled under nu on the streams after it,
    whose nu-filters at every PI_TRAJECTORY_STRIDE-th step give the
    conditional-PI infimum.  Then the divergence series at the report times
    with a chi-square rate fit, and the decay envelope driven by that
    infimum.  Returns the report and the series in sweep order;
    report["artifacts"] names each series' CSV file.
    """
    t_start = time.perf_counter()
    values: list[float | None] = list(cfg.sweep_values) if cfg.sweep_kind is not None else [None]
    tags = [_sweep_tag(cfg, value) for value in values]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"{cfg.sweep_kind}_list: two values share an output tag, among {tags}")
    sweep_reports = []
    sweep_series: list[DivergenceSeries] = []
    checks: dict[str, bool] = {}
    # the filters start from the priors as simplex points; so do the checks
    mu, nu = as_simplex(cfg.mu, d=cfg.d), as_simplex(cfg.nu, d=cfg.d)
    prior_divergences = {"chi2": chi2(mu, nu), "kl": kl(mu, nu), "tv": tv(mu, nu)}
    models = [model_for_sweep_value(cfg, value) for value in values]
    # closing reaps a forked half of the sweep at once if a value's post-processing raises
    with contextlib.closing(run_divergence_sweep(
        models, cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed, nu_paths=PI_TRAJECTORY_PATHS
    )) as ensembles:
        for value, model, tag in zip(values, models, tags):
            ens = next(ensembles)
            series = ens.series
            fit_payload, fit_note = _fit_payload(series, cfg.rate_window)

            at = np.arange(0, round(cfg.T / cfg.dt) + 1, PI_TRAJECTORY_STRIDE) // REPORT_STEPS  # report points
            c_inf, c_where = trajectory_pi_infimum(model.A, ens.nu_filters[:, at], series.times[at])
            c_path, c_time = c_where if c_where is not None else (None, None)

            c_env = max(c_inf, 0.0) if np.isfinite(c_inf) else 0.0
            try:
                report = theorem2_envelope(model, cfg.mu, cfg.nu, series, c_env)
                envelope_payload = {
                    "c_estimate": report.c_estimate,
                    "tau": ENVELOPE_TAU,
                    "a_lower": report.a_lower,
                    "n_violations": report.n_violations,
                    "first_violation_time": report.first_violation_time,
                }
            except AssumptionA1Violated as exc:
                envelope_payload = {"skipped": str(exc)}

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
                np.all(np.abs(ens.initial_chi2 - _initial_chi2(model, mu, nu, ens.initial_states)) <= 1e-10)
                if model.noiseless
                else abs(series.chi2_mean[0] - prior_divergences["chi2"]) <= 1e-10
            )
            sums = ens.terminal_pis.sum(axis=-1)
            checks[f"terminal_simplex[{tag}]"] = bool(
                np.all(np.abs(sums - 1.0) <= 1e-9) and np.all(ens.terminal_pis >= -1e-12)
            )
            sweep_reports.append(entry)
            sweep_series.append(series)
            # drop this value's ensemble before the next one allocates its arrays
            del ens, series

    report = {
        "command": "simulate",
        "config": config_to_dict(cfg),
        "prior_divergences": prior_divergences,
        "sweep": sweep_reports,
        "structure": _structure_payload(model_for_sweep_value(cfg, None)),
        "checks": checks,
        "artifacts": [f"series_{tag}.csv" for tag in tags],
        "wall_clock_s": time.perf_counter() - t_start,
    }
    return report, sweep_series


def _initial_chi2(model: HmmModel, mu, nu, initial_states: np.ndarray) -> np.ndarray:
    """Per noiseless path, chi2 at t = 0: mu and nu conditioned on the level that Y_0 = h(X_0) shows."""
    states, index = np.unique(initial_states, return_inverse=True)
    levels = _same_level(model.H)[states]
    return np.array([chi2(mu * lv / (mu @ lv), nu * lv / (nu @ lv)) for lv in levels])[index]


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
    payload["observable_dim"] = len(basis)
    payload["observable"] = len(basis) == model.d
    payload["observable_basis"] = [[float(v) for v in col] for col in basis.T]
    try:
        mu_bar = invariant_measure(model.A)
        payload["invariant_measure"] = [float(v) for v in mu_bar]
        payload["invariant_note"] = ""
    except NonUniqueInvariantMeasure as exc:
        mu_bar = invariant_measure(model.A, allow_nonunique=True)
        payload["invariant_measure"] = [float(v) for v in mu_bar]
        payload["invariant_note"] = f"not unique ({exc}); minimum-norm mixture of the closed classes shown"
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


def run_structure(model: HmmModel) -> dict:
    """Structural report: ergodicity, observability, invariant measure,
    the classical Poincare constant, and the rate-bound table."""
    t_start = time.perf_counter()
    return {
        "command": "structure",
        "structure": _structure_payload(model),
        "wall_clock_s": time.perf_counter() - t_start,
    }


def run_backward_map(cfg: ExperimentConfig) -> dict:
    """Backward-map and variance-decay pipeline at the base model.

    Decay diagnostics over cfg.T_list and both backward-map estimators at
    the largest horizon, from one dual.backward_map_study pass.  Raises
    ConfigError for fewer than two paths per state, which leave every
    standard error undefined, and for a horizon that dt does not divide or
    that shares its grid step with another.
    """
    t_start = time.perf_counter()
    if cfg.n_paths < 2:
        raise ConfigError(f"n_paths: backward-map needs at least 2 paths per state, got {cfg.n_paths}")
    steps = [_grid_check(T, cfg.dt, "T_list") for T in cfg.T_list]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ConfigError(f"T_list: horizons {list(cfg.T_list)} must fall on distinct grid steps of dt = {cfg.dt}")
    model = model_for_sweep_value(cfg, None)
    if model.noiseless:
        raise FilterLabError(
            "backward-map diagnostics need a noisy observation model (r > 0)"
        )
    diags, plain, rb = backward_map_study(
        model, cfg.mu, cfg.nu, cfg.T_list, cfg.n_paths, cfg.master_seed, cfg.dt
    )
    estimates = {}
    for est in (plain, rb):
        nu_mean, nu_mean_se = _nu_mean(est, cfg.nu)
        estimates[est.estimator_kind] = {
            "T": est.T,
            "n_paths_per_state": est.n_paths,
            "y0": [float(v) for v in est.y0],
            "stderr": [float(v) for v in est.stderr],
            "nu_mean": nu_mean,
            "nu_mean_se": nu_mean_se,
            "skipped_states": list(est.skipped_states),
        }
    report = {
        "command": "backward-map",
        "config": config_to_dict(cfg),
        "diagnostics": [_json_fields(dg) for dg in diags],
        "estimates": estimates,
        "wall_clock_s": time.perf_counter() - t_start,
    }
    return report
