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

backward_map_study is the one engine, the one entry point for both the
diagnostics and the estimators, and owns the stream layout.  It runs one
pass per initial state to the largest horizon and reduces the engine's
state-major (d, 3, P) array of the three filters, adding the states in row
order, and X_T at each horizon's grid step as the pass reaches it, so a study
costs max(T_list) of simulation and filtering rather than sum(T_list);
initial state row r uses the streams r * N onwards for every horizon.  Each
process (a forked child may take the later states: ensemble._split_run)
holds one kept state's path batch, N * max(T_list) / dt * m floats, at a
time.  Every standard error reads one _moments pass: the per-state means
and their covariances between horizons, which share each state's paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import AC_EPS, _divergences, chi2, density_ratio
from .ensemble import _split_run, sample_path_batch
from .errors import AssumptionA1Violated, DimensionMismatch
from .filtering import _sum_rows, evolve_ensemble
from .model import HmmModel, as_simplex
from .sim import _grid_steps

__all__ = [
    "BackwardMapEstimate",
    "DecayDiagnostics",
    "backward_map_study",
    "ENVELOPE_TAU",
    "EnvelopeReport",
    "theorem2_envelope",
    "essential_infimum_ratio",
]

ENVELOPE_TAU = 1.0  # the envelope's time unit: it contracts once per ENVELOPE_TAU


@dataclass(frozen=True, eq=False)
class BackwardMapEstimate:
    """Monte Carlo estimate of the backward map on the state space.

    y0[x] and stderr[x] are zero for skipped states, those nu does not
    charge (mass at most divergence.AC_EPS); they are listed in
    skipped_states.
    """

    y0: np.ndarray
    stderr: np.ndarray
    n_paths: int
    T: float
    estimator_kind: str
    skipped_states: tuple[int, ...]


def _state_samples(
    model: HmmModel,
    mu,
    nu,
    x: int,
    row: int,
    T_list: list[float],
    n_paths: int,
    master_seed: int,
    dt: float,
) -> np.ndarray:
    """Kept state x's samples (3, len(T_list), n_paths) from one pass to T_list[-1].

    Entry [:, i] is read at horizon T_list[i]'s grid step on the same paths:
    gamma_T(X_T) (plain), pi_T^{delta_x}(gamma_T) (rb) and
    chi2(pi_T^mu | pi_T^nu) (chi2_T).  This frame owns the state's path
    batch, released on return: a process holds one state's increments at a time.
    """
    index = {_grid_steps(T, dt): i for i, T in enumerate(T_list)}
    point = np.zeros(model.d)
    point[x] = 1.0
    batch = sample_path_batch(
        model,
        n_paths,
        T_list[-1],
        dt,
        master_seed,
        x,
        stream_offset=row * n_paths,
    )
    # A path of horizon T holds only the jumps strictly before T, so X_T
    # is the state entered at the last jump time < T.
    states_at = np.array(
        [sp.states[np.searchsorted(sp.jump_times, T_list, side="left") - 1] for sp in batch.state_paths]
    )
    out = np.empty((3, len(T_list), n_paths))

    def reduce(step: int, S: np.ndarray) -> None:
        i = index.get(step)
        if i is not None:
            gamma = density_ratio(S[:, 0], S[:, 1])
            out[0, i] = gamma[states_at[:, i], np.arange(n_paths)]
            out[1, i] = _sum_rows(S[:, 2] * gamma)
            out[2, i] = _divergences(S[:, 0], S[:, 1])[0]

    evolve_ensemble(np.stack([mu, nu, point]), batch.increments, dt, model, observer=reduce)
    return out


def _moments(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state means (3, H, K) of the study's samples (3, H, K, N) and the
    covariances (3, K, H, H) of those means between the H horizons, which
    share each state's N paths; the diagonal is var(ddof=1) / N."""
    n = samples.shape[-1]
    means = samples.mean(axis=-1)
    dev = samples - means[..., None]
    return means, np.einsum("ahkn,agkn->akhg", dev, dev) / ((n - 1) * n)


def _stratified(w: np.ndarray, m: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """The stratified mean w . m of per-state means m with variances v, and
    its standard error sqrt(w^2 . v)."""
    return float(w @ m), float(np.sqrt(w**2 @ v))


def _nu_mean(est: BackwardMapEstimate, nu) -> tuple[float, float]:
    """nu(y0) of a backward-map estimate and its standard error, over nu
    normalized to the simplex; nu(y0) = 1 in law."""
    return _stratified(as_simplex(nu, d=est.y0.shape[0]), est.y0, est.stderr**2)


def _var_nu_y0_se(a: np.ndarray, e: np.ndarray, cov: np.ndarray, w_nu: np.ndarray) -> float:
    """Delta-method standard error of sum_h a_h var_nu_y0(T_h).

    e (H, K) is y0_hat - 1 and cov (K, H, H) the covariances of the
    Rao-Blackwell means at the H horizons, w_nu is nu on the K kept states.
    Each horizon estimates sum_x nu(x) ((y0(x) - 1)^2 - C_hh(x)); the delta
    method, with its Gaussian second-order term, gives

        sum_x nu(x)^2 sum_{g,h} a_g a_h (4 e_g e_h C_gh + 2 C_gh^2).

    The unit vector a = 1_h gives var_nu_y0_se at T_h and a = 1_{h-1} - 1_h
    the drop_se there.
    """
    ee = np.einsum("gk,hk->kgh", e, e)
    per_state = np.einsum("g,kgh,h->k", a, 4.0 * ee * cov + 2.0 * cov**2, a)
    return float(np.sqrt(max(float(w_nu**2 @ per_state), 0.0)))


def _estimate_from(
    mean: np.ndarray, var: np.ndarray, kept: np.ndarray, skipped: tuple[int, ...], d: int, T: float, n: int, kind: str
) -> BackwardMapEstimate:
    y0 = np.zeros(d)
    se = np.zeros(d)
    y0[kept], se[kept] = mean, np.sqrt(var)
    return BackwardMapEstimate(y0=y0, stderr=se, n_paths=n, T=float(T), estimator_kind=kind, skipped_states=skipped)


def essential_infimum_ratio(mu, nu) -> float:
    """min over supp(nu) of mu(x)/nu(x), the constant a_lower; supp(nu) is
    the states nu charges (mass > divergence.AC_EPS)."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    support = nu > AC_EPS
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
    drop_se is the standard error of the drop var_nu_y0(previous horizon) -
    var_nu_y0(T) on the paths both horizons share, from the same quadratic
    form as var_nu_y0_se (see _var_nu_y0_se); it is None at the first
    horizon of a study.
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
    drop_se: float | None = None


def _decay_from(
    means: np.ndarray, cov: np.ndarray, i: int, kept: np.ndarray, skipped: tuple[int, ...],
    mu: np.ndarray, nu: np.ndarray, T: float, n: int,
) -> DecayDiagnostics:
    """Variance-decay diagnostics at horizon i of a study from the _moments
    of its samples."""
    chi2_prior = chi2(mu, nu)
    w_nu = nu[kept]
    w_mu = mu[kept]
    v_chi2 = cov[2, :, i, i]
    var_gam, var_gam_se = _stratified(w_nu, means[2, i], v_chi2)
    mean_mu, mean_mu_se = _stratified(w_mu, means[2, i], v_chi2)

    e = means[1] - 1.0
    unit = np.eye(len(e))
    var_y0 = float(w_nu @ (e[i] ** 2 - cov[1, :, i, i]))
    var_y0_se = _var_nu_y0_se(unit[i], e, cov[1], w_nu)
    drop_se = None if i == 0 else _var_nu_y0_se(unit[i - 1] - unit[i], e, cov[1], w_nu)

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
        skipped_states=skipped,
        drop_se=drop_se,
    )


def backward_map_study(
    model: HmmModel,
    mu,
    nu,
    T_list,
    n_paths: int,
    master_seed: int,
    dt: float,
) -> tuple[list[DecayDiagnostics], BackwardMapEstimate, BackwardMapEstimate]:
    """Variance-decay diagnostics over increasing horizons, and both
    backward-map estimators at the last one: (diagnostics, plain,
    rao-blackwell).

    Each kept initial state (row r of the states nu charges, in index
    order) runs one lockstep pass of n_paths paths on the streams
    r * n_paths onwards up to the largest horizon; the mu, nu and delta_x
    filters and X_T are reduced at every horizon's grid step.  The
    horizons therefore share paths and are positively correlated: each
    diagnostics entry after the first carries the paired drop_se, while
    the np.hypot combination of var_nu_y0_se stays a conservative scale.
    A one-horizon study is the same pass with a single reduction.  The
    estimators use the last horizon's samples.  All expectations are
    stratified over initial states (exact reweighting, since path laws
    given X_0 = x do not depend on the prior), so the numerator and
    denominator of R_T share paths.  The plain estimator is the brute-force
    cross-check of the Rao-Blackwell one; on shared paths their difference
    has conditional mean zero, so the combined standard error is a
    conservative scale for the comparison.  Raises GridMismatch when dt
    does not divide a horizon.
    """
    priors = mu, nu  # as the caller gave them: the engine's as_simplex is the one the filters see
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    density_ratio(mu, nu)
    T_list = [float(T) for T in T_list]
    steps = [_grid_steps(T, dt) for T in T_list]
    if not steps or any(b <= a for a, b in zip(steps, steps[1:])):
        raise DimensionMismatch("T_list must be nonempty with strictly increasing grid steps")
    kept = np.flatnonzero(nu > AC_EPS)
    skipped = tuple(int(x) for x in np.flatnonzero(nu <= AC_EPS))
    samples = _split_run(
        lambda rows: (_state_samples(model, *priors, x, row, T_list, n_paths, master_seed, dt) for row, x in rows),
        enumerate(kept),
        n_paths * steps[-1],
    )
    means, cov = _moments(np.stack(list(samples), axis=2))
    diagnostics = [_decay_from(means, cov, i, kept, skipped, mu, nu, T, n_paths) for i, T in enumerate(T_list)]
    return (
        diagnostics,
        _estimate_from(means[0, -1], cov[0, :, -1, -1], kept, skipped, model.d, T_list[-1], n_paths, "plain"),
        _estimate_from(means[1, -1], cov[1, :, -1, -1], kept, skipped, model.d, T_list[-1], n_paths, "rao-blackwell"),
    )


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Comparison of a measured mean chi-square series to the decay envelope.

    envelope(t) = (1/a_lower) (1 + tau c)^(-floor(t/tau)) chi2_prior, tau =
    ENVELOPE_TAU.  A time of the series (an ensemble's report time) violates
    it when mean - 3 se exceeds it, and n_violations counts those times;
    violations are evidence that c_estimate exceeds the true filter constant
    (the surrogate is not a certified lower bound), so they are reported.
    """

    envelope: np.ndarray
    n_violations: int
    first_violation_time: float | None
    a_lower: float
    c_estimate: float


def theorem2_envelope(model: HmmModel, mu, nu, series, c_estimate: float) -> EnvelopeReport:
    """Overlay the multiplicative decay envelope on a measured chi2 series.

    series is a DivergenceSeries whose paths were sampled under the mu path
    law.  Raises AssumptionA1Violated when a_lower = min mu/nu is zero,
    since the envelope constant 1/a_lower is then undefined.
    """
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    if c_estimate < 0.0:
        raise DimensionMismatch("c_estimate must be nonnegative")
    a_lower = essential_infimum_ratio(mu, nu)
    if a_lower <= 0.0:
        raise AssumptionA1Violated("min mu/nu on supp(nu) is zero")
    steps = np.floor(series.times / ENVELOPE_TAU)
    envelope = (1.0 / a_lower) * (1.0 + ENVELOPE_TAU * c_estimate) ** (-steps) * chi2(mu, nu)
    violated = series.chi2_mean - 3.0 * series.chi2_se > envelope
    n_violations = int(violated.sum())
    first = float(series.times[violated][0]) if n_violations else None
    return EnvelopeReport(
        envelope=envelope,
        n_violations=n_violations,
        first_violation_time=first,
        a_lower=a_lower,
        c_estimate=float(c_estimate),
    )

