"""Backward-map estimation and variance-decay diagnostics.

The backward map sends the terminal likelihood ratio gamma_T = pi_T^mu/pi_T^nu
to the deterministic function y0(x) = E^nu(gamma_T(X_T) | X_0 = x).  Its
variance under nu controls stability of the filter pair through

    (E^mu chi2_T)^2 <= var_nu(y0(X_0)) * chi2(mu|nu)          (Cauchy-Schwarz)
    var_nu(y0(X_0)) <= var_nu(gamma_T(X_T))                   (Jensen)

with var_nu(gamma_T(X_T)) = E^nu chi2_T.  Estimation is stratified by the
initial state: for each x in supp(nu), N paths start at x and three filters
(mu, nu, delta_x) run on each shared observation.  The plain estimator of
y0(x) averages gamma_T(X_T); the Rao-Blackwell estimator averages
pi_T^{delta_x}(gamma_T), the conditional expectation of the former given the
observation, so it is unbiased with pointwise smaller variance.

The energy integral in the exact variance balance
E^nu chi2_T = var_nu(y0) + integral(energy) is never discretized directly;
it is always recovered as the variance gap var_nu(gamma_T) - var_nu(y0),
which the balance makes exact.

backward_map_study is the one engine: it simulates each horizon once and
owns the stream layout; backward_map_pair and decay_diagnostics are views
of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _divergence_batch, chi2, density_ratio
from .ensemble import sample_path_batch
from .errors import AssumptionA1Violated, DimensionMismatch
from .filtering import evolve_ensemble
from .model import HmmModel, _read_table, _write_table, as_simplex

__all__ = [
    "SKIP_EPS",
    "BackwardMapEstimate",
    "backward_map_pair",
    "DecayDiagnostics",
    "decay_diagnostics",
    "backward_map_study",
    "EnvelopeReport",
    "theorem2_envelope",
    "essential_infimum_ratio",
    "write_backward_map_csv",
    "read_backward_map_csv",
]

SKIP_EPS = 1e-12
DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class BackwardMapEstimate:
    """Monte Carlo estimate of the backward map on the state space.

    y0[x] and stderr[x] are zero for skipped states (nu mass below
    SKIP_EPS); those states are listed in skipped_states.
    """

    y0: np.ndarray
    stderr: np.ndarray
    n_paths: int
    T: float
    estimator_kind: str
    skipped_states: tuple[int, ...]


@dataclass(frozen=True)
class _StateSamples:
    """Per-state terminal samples shared by both estimators.

    Arrays have shape (n_states_kept, N): plain holds gamma_T(X_T), rb holds
    pi_T^{delta_x}(gamma_T), chi2_T holds chi2(pi_T^mu | pi_T^nu).
    """

    states: np.ndarray
    plain: np.ndarray
    rb: np.ndarray
    chi2_T: np.ndarray
    skipped: tuple[int, ...]


def _per_state_samples(
    model: HmmModel,
    mu: np.ndarray,
    nu: np.ndarray,
    T: float,
    n_paths: int,
    master_seed: int,
    dt: float,
    stream_base: int,
) -> _StateSamples:
    kept = [x for x in range(model.d) if nu[x] >= SKIP_EPS]
    skipped = tuple(x for x in range(model.d) if nu[x] < SKIP_EPS)
    plain = np.empty((len(kept), n_paths))
    rb = np.empty((len(kept), n_paths))
    chi2_T = np.empty((len(kept), n_paths))
    for row, x in enumerate(kept):
        point = np.zeros(model.d)
        point[x] = 1.0
        batch = sample_path_batch(
            model,
            n_paths,
            T,
            dt,
            master_seed,
            initial_state=x,
            stream_offset=stream_base + row * n_paths,
        )
        terminal = evolve_ensemble(np.stack([mu, nu, point]), batch.increments, dt, model)
        gamma = density_ratio(terminal[:, 0, :], terminal[:, 1, :])
        plain[row] = gamma[np.arange(n_paths), batch.terminal_states]
        rb[row] = (terminal[:, 2, :] * gamma).sum(axis=1)
        chi2_T[row] = _divergence_batch(terminal[:, 0, :], terminal[:, 1, :])[0]
    return _StateSamples(
        states=np.array(kept, dtype=int),
        plain=plain,
        rb=rb,
        chi2_T=chi2_T,
        skipped=skipped,
    )


def _estimate_from(samples: _StateSamples, values: np.ndarray, d: int, T: float, kind: str) -> BackwardMapEstimate:
    n = values.shape[1]
    y0 = np.zeros(d)
    se = np.zeros(d)
    y0[samples.states] = values.mean(axis=1)
    se[samples.states] = values.std(axis=1, ddof=1) / np.sqrt(n)
    return BackwardMapEstimate(
        y0=y0,
        stderr=se,
        n_paths=n,
        T=float(T),
        estimator_kind=kind,
        skipped_states=samples.skipped,
    )


def essential_infimum_ratio(mu, nu) -> float:
    """min over supp(nu) of mu(x)/nu(x), the constant a_lower."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    support = nu >= SKIP_EPS
    return float((mu[support] / nu[support]).min())


@dataclass(frozen=True)
class DecayDiagnostics:
    """Variance-decay quantities at one horizon T, with standard errors.

    var_nu_y0 is bias-corrected: the per-state squared deviation
    (y0_hat(x) - 1)^2 has its sampling variance se_x^2 subtracted, so the
    reported value estimates var_nu(y0) rather than var_nu(y0) + noise.
    cauchy_schwarz_slack = var_nu_y0 * chi2_prior - mean_mu_chi2^2 and
    uniform_bound_slack = chi2_prior - R_T^2 (var_nu_gammaT - var_nu_y0)
    are both nonnegative in expectation; their standard errors combine the
    ingredient errors in quadrature (cross-covariances neglected).
    """

    T: float
    var_nu_y0: float
    var_nu_y0_se: float
    var_nu_gammaT: float
    var_nu_gammaT_se: float
    mean_mu_chi2: float
    mean_mu_chi2_se: float
    r_T: float
    r_T_se: float
    a_lower: float
    chi2_prior: float
    cauchy_schwarz_slack: float
    cauchy_schwarz_slack_se: float
    uniform_bound_slack: float
    uniform_bound_slack_se: float
    n_paths_per_state: int
    skipped_states: tuple[int, ...]


def _decay_from(samples: _StateSamples, mu: np.ndarray, nu: np.ndarray, T: float) -> DecayDiagnostics:
    """Variance-decay diagnostics at horizon T from one set of state samples."""
    chi2_prior = chi2(mu, nu)
    kept = samples.states
    w_nu = nu[kept]
    w_mu = mu[kept]
    n = samples.rb.shape[1]
    m_chi2 = samples.chi2_T.mean(axis=1)
    v_chi2 = samples.chi2_T.var(axis=1, ddof=1) / n
    y0 = samples.rb.mean(axis=1)
    v_y0 = samples.rb.var(axis=1, ddof=1) / n

    var_gam = float(w_nu @ m_chi2)
    var_gam_se = float(np.sqrt(w_nu**2 @ v_chi2))
    mean_mu = float(w_mu @ m_chi2)
    mean_mu_se = float(np.sqrt(w_mu**2 @ v_chi2))

    dev2 = (y0 - 1.0) ** 2
    var_y0 = float(w_nu @ (dev2 - v_y0))
    var_y0_se = float(np.sqrt(w_nu**2 @ (4.0 * dev2 * v_y0 + 2.0 * v_y0**2)))

    if var_gam > 0.0:
        r = mean_mu / var_gam
        cov_uv = float((w_mu * w_nu) @ v_chi2)
        rel = (
            mean_mu_se**2 / mean_mu**2
            + var_gam_se**2 / var_gam**2
            - 2.0 * cov_uv / (mean_mu * var_gam)
        ) if mean_mu > 0.0 else np.nan
        r_se = abs(r) * float(np.sqrt(max(rel, 0.0))) if np.isfinite(rel) else np.nan
    else:
        r, r_se = float("nan"), float("nan")

    cs_slack = var_y0 * chi2_prior - mean_mu**2
    cs_slack_se = float(
        np.sqrt((chi2_prior * var_y0_se) ** 2 + (2.0 * mean_mu * mean_mu_se) ** 2)
    )
    gap = var_gam - var_y0
    gap_se = float(np.sqrt(var_gam_se**2 + var_y0_se**2))
    if np.isfinite(r):
        ub_slack = chi2_prior - r**2 * gap
        ub_slack_se = float(
            np.sqrt((2.0 * r * gap * r_se) ** 2 + (r**2 * gap_se) ** 2)
        )
    else:
        ub_slack, ub_slack_se = float("nan"), float("nan")

    return DecayDiagnostics(
        T=T,
        var_nu_y0=var_y0,
        var_nu_y0_se=var_y0_se,
        var_nu_gammaT=var_gam,
        var_nu_gammaT_se=var_gam_se,
        mean_mu_chi2=mean_mu,
        mean_mu_chi2_se=mean_mu_se,
        r_T=r,
        r_T_se=r_se,
        a_lower=essential_infimum_ratio(mu, nu),
        chi2_prior=chi2_prior,
        cauchy_schwarz_slack=cs_slack,
        cauchy_schwarz_slack_se=cs_slack_se,
        uniform_bound_slack=ub_slack,
        uniform_bound_slack_se=ub_slack_se,
        n_paths_per_state=n,
        skipped_states=samples.skipped,
    )


def backward_map_study(
    model: HmmModel,
    mu,
    nu,
    T_list,
    n_paths: int,
    master_seed: int,
    dt: float = DEFAULT_DT,
) -> tuple[list[DecayDiagnostics], BackwardMapEstimate, BackwardMapEstimate]:
    """Variance-decay diagnostics over increasing horizons, and both
    backward-map estimators at the last one: (diagnostics, plain,
    rao-blackwell).

    Horizon i uses its own independent block of random streams, starting at
    i * d * n_paths; the estimators reuse the last horizon's paths.  All
    expectations are stratified over initial states (exact reweighting,
    since path laws given X_0 = x do not depend on the prior), so the
    numerator and denominator of R_T share paths.  The plain estimator is
    the brute-force cross-check of the Rao-Blackwell one; on shared paths
    their difference has conditional mean zero, so the combined standard
    error is a conservative scale for the comparison.
    """
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    density_ratio(mu, nu)
    T_list = [float(T) for T in T_list]
    if not T_list or any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise DimensionMismatch("T_list must be nonempty and strictly increasing")
    diagnostics = []
    for i, T in enumerate(T_list):
        samples = _per_state_samples(
            model, mu, nu, T, n_paths, master_seed, dt, i * model.d * n_paths
        )
        diagnostics.append(_decay_from(samples, mu, nu, T))
    return (
        diagnostics,
        _estimate_from(samples, samples.plain, model.d, T, "plain"),
        _estimate_from(samples, samples.rb, model.d, T, "rao-blackwell"),
    )


def backward_map_pair(
    model: HmmModel,
    mu,
    nu,
    T: float,
    n_paths: int,
    master_seed: int,
    dt: float = DEFAULT_DT,
) -> tuple[BackwardMapEstimate, BackwardMapEstimate]:
    """Both estimators at one horizon T: (plain, rao-blackwell)."""
    return backward_map_study(model, mu, nu, (T,), n_paths, master_seed, dt)[1:]


def decay_diagnostics(
    model: HmmModel,
    mu,
    nu,
    T_list,
    n_paths: int,
    master_seed: int,
    dt: float = DEFAULT_DT,
) -> list[DecayDiagnostics]:
    """Variance-decay diagnostics over increasing horizons."""
    return backward_map_study(model, mu, nu, T_list, n_paths, master_seed, dt)[0]


@dataclass(frozen=True)
class EnvelopeReport:
    """Comparison of a measured mean chi-square series to the decay envelope.

    envelope(t) = (1/a_lower) (1 + tau c)^(-floor(t/tau)) chi2_prior.  A grid
    time violates the envelope when mean - 3 se exceeds it; violations are
    evidence that c_estimate exceeds the true filter constant (the surrogate
    is not a certified lower bound), so they are reported, not raised.
    """

    times: np.ndarray
    envelope: np.ndarray
    chi2_mean: np.ndarray
    chi2_se: np.ndarray
    n_violations: int
    first_violation_time: float | None
    a_lower: float
    c_estimate: float
    tau: float
    chi2_prior: float


def theorem2_envelope(
    model: HmmModel,
    mu,
    nu,
    series,
    c_estimate: float,
    tau: float,
) -> EnvelopeReport:
    """Overlay the multiplicative decay envelope on a measured chi2 series.

    series is a DivergenceSeries whose paths were sampled under the mu path
    law.  Raises AssumptionA1Violated when
    a_lower = min mu/nu is zero, since the envelope constant 1/a_lower is
    then undefined.
    """
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    if c_estimate < 0.0:
        raise DimensionMismatch("c_estimate must be nonnegative")
    if tau <= 0.0:
        raise DimensionMismatch("tau must be positive")
    a_lower = essential_infimum_ratio(mu, nu)
    if a_lower <= 0.0:
        raise AssumptionA1Violated("min mu/nu on supp(nu) is zero")
    chi2_prior = chi2(mu, nu)
    times = series.times
    steps = np.floor(times / tau)
    envelope = (1.0 / a_lower) * (1.0 + tau * c_estimate) ** (-steps) * chi2_prior
    mean = series.chi2_mean
    se = series.chi2_se
    violated = mean - 3.0 * se > envelope
    n_violations = int(violated.sum())
    first = float(times[violated][0]) if n_violations else None
    return EnvelopeReport(
        times=times,
        envelope=envelope,
        chi2_mean=mean,
        chi2_se=se,
        n_violations=n_violations,
        first_violation_time=first,
        a_lower=a_lower,
        c_estimate=float(c_estimate),
        tau=float(tau),
        chi2_prior=chi2_prior,
    )


BACKWARD_MAP_COLUMNS = ["x", "y0", "stderr"]


def write_backward_map_csv(path: str, estimate: BackwardMapEstimate) -> None:
    """Dump the backward-map estimate as (x, y0, stderr) rows."""
    x = np.arange(estimate.y0.shape[0])
    _write_table(path, BACKWARD_MAP_COLUMNS, [x, estimate.y0, estimate.stderr])


def read_backward_map_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a backward-map CSV back into column arrays."""
    header, body = _read_table(path)
    if header != BACKWARD_MAP_COLUMNS:
        raise DimensionMismatch(f"unexpected backward-map header {header}")
    cols = dict(zip(header, body.T))
    cols["x"] = cols["x"].astype(int)
    return cols
