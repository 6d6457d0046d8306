"""Divergences between filter laws and decay-rate extraction.

For two laws p, q on S with density gamma = p/q (convention 0/0 = 0):

    chi2(p|q) = sum_x (gamma(x) - 1)^2 q(x)
    kl(p|q)   = sum_x gamma(x) log gamma(x) q(x)
    tv(p, q)  = 0.5 * sum_x |p(x) - q(x)|

A state is treated as outside supp(q) when q(x) < SUPPORT_EPS; finding
p(x) > AC_EPS on such a state raises AbsoluteContinuityViolation, since both
divergences are infinite there.  tv is defined for all pairs.  The three
formulas are written once, for state-major pairs (d, ...) reduced as sums
of rows, so a block of many steps and paths costs one call; stacked pairs
(..., d) and single laws go through the same code on a moved-axis view.

The module also evaluates the exact local dynamics of the chi-square
divergence between two filters driven by the same observation: the drift

    -( pi_nu(Gamma gamma) + V^mu(gamma, h) . V^nu(gamma, h) )

and the three raw coefficients of the decomposition
d chi2 = C1 dt + C2^T dI^mu + C3^T dI^nu.  The two forms are related by
dI^nu = dI^mu + (pi_mu(h) - pi_nu(h)) dt, which is a testable identity:
drift = C1 + C3 . (pi_mu(h) - pi_nu(h)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    NonPositiveSeries,
    WindowTooShort,
)
from .filtering import _sum_rows
from .model import HmmModel, _read_table, _write_table, carre_du_champ

__all__ = [
    "SUPPORT_EPS",
    "AC_EPS",
    "chi2",
    "kl",
    "tv",
    "density_ratio",
    "DivergenceSeries",
    "Chi2DriftTerms",
    "chi2_drift_terms",
    "chi2_drift_batch",
    "RateFit",
    "fit_exponential_rate",
    "write_series_csv",
    "read_series_csv",
]

SUPPORT_EPS = 1e-14
AC_EPS = 1e-12


def density_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """gamma = p/q with 0/0 = 0, broadcast over leading axes.

    Raises AbsoluteContinuityViolation when p has mass above AC_EPS on a
    state with q below SUPPORT_EPS.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    if q.min(initial=np.inf) >= SUPPORT_EPS:
        return p / q
    outside = q < SUPPORT_EPS
    if np.any(outside & (p > AC_EPS)):
        bad = float(p[outside].max())
        raise AbsoluteContinuityViolation(
            f"p has mass {bad:.3e} outside supp(q)"
        )
    return np.where(outside, 0.0, p / np.where(outside, 1.0, q))


def _divergences(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi2, kl and tv of state-major pairs (d, ...) as sums of rows.

    The one definition of the three formulas; one density_ratio call checks
    absolute continuity for the whole block.
    """
    g = density_ratio(p, q)
    q_inside = q if q.min(initial=np.inf) >= SUPPORT_EPS else np.where(q >= SUPPORT_EPS, q, 0.0)
    if g.min(initial=np.inf) > 0.0:
        log_terms = g * np.log(g)
    else:
        log_terms = np.where(g > 0.0, g * np.log(np.where(g > 0.0, g, 1.0)), 0.0)
    chi2_terms = ((g - 1.0) ** 2) * q_inside
    return _sum_rows(chi2_terms), _sum_rows(log_terms * q_inside), _tv_rows(p, q)


def _tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * _sum_rows(np.abs(p - q))


def _divergence_batch(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi2, kl and tv of stacked pairs (..., d): _divergences on the state-major view."""
    return _divergences(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0))


def chi2(p, q) -> float:
    """Chi-square divergence sum (gamma - 1)^2 q over supp(q)."""
    return float(_divergence_batch(np.asarray(p, float), np.asarray(q, float))[0])


def kl(p, q) -> float:
    """Relative entropy sum gamma log(gamma) q over supp(q), 0 log 0 = 0."""
    return float(_divergence_batch(np.asarray(p, float), np.asarray(q, float))[1])


def tv(p, q) -> float:
    """Total variation distance 0.5 * sum |p - q| (defined for all pairs)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    return float(_tv_rows(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)))


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of per-path values (n, ...) and their standard errors
    std(ddof=1) / sqrt(n), which are nan for a single path."""
    n = values.shape[0]
    se = values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full(values.shape[1:], np.nan)
    return values.mean(axis=0), se


@dataclass(frozen=True)
class DivergenceSeries:
    """Ensemble divergence summaries on a common time grid.

    Per-path arrays have shape (n_paths, len(times)); the ensemble mean over
    paths and its standard error are computed once per array, on first use.
    """

    times: np.ndarray
    chi2: np.ndarray
    kl: np.ndarray
    tv: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.chi2.shape[0]

    @cached_property
    def chi2_mean_se(self) -> tuple[np.ndarray, np.ndarray]:
        return _mean_se(self.chi2)

    @cached_property
    def kl_mean_se(self) -> tuple[np.ndarray, np.ndarray]:
        return _mean_se(self.kl)

    @cached_property
    def tv_mean_se(self) -> tuple[np.ndarray, np.ndarray]:
        return _mean_se(self.tv)

    @property
    def chi2_mean(self) -> np.ndarray:
        return self.chi2_mean_se[0]

    @property
    def chi2_se(self) -> np.ndarray:
        return self.chi2_mean_se[1]

    @property
    def kl_se(self) -> np.ndarray:
        return self.kl_mean_se[1]


@dataclass(frozen=True)
class Chi2DriftTerms:
    """Local chi-square dynamics at one filter pair.

    drift is the compact form -(pi_nu(Gamma gamma) + V_mu(gamma,h).V_nu(gamma,h));
    c1, c2, c3 are the raw coefficients of
    d chi2 = c1 dt + c2 . dI_mu + c3 . dI_nu, computed independently of
    drift from their own four-term expansion.  The identity
    drift == c1 + c3 . (pi_mu(h) - pi_nu(h)) relates the two forms.
    """

    drift: float
    c1: float
    c2: np.ndarray
    c3: np.ndarray


def chi2_drift_terms(pi_mu, pi_nu, model: HmmModel) -> Chi2DriftTerms:
    """Evaluate the chi-square drift and raw coefficients at (pi_mu, pi_nu).

    Everything is computed in the unit-noise observation hu = H/r.  With
    u = hu - pi_mu(hu) and v = hu - pi_nu(hu):

        c1 = -pi_nu(Gamma gamma) + pi_mu(gamma |u|^2) + pi_mu(gamma |v|^2)
             - 2 pi_mu(gamma u.v)
        c2 = 2 pi_mu(gamma u)
        c3 = -pi_nu(gamma^2 v)
    """
    pi_mu = np.asarray(pi_mu, dtype=float)
    pi_nu = np.asarray(pi_nu, dtype=float)
    hu = model.h_unit
    g = density_ratio(pi_mu, pi_nu)
    gamma_energy = float(pi_nu @ carre_du_champ(model.A, g))
    mu_h = pi_mu @ hu
    nu_h = pi_nu @ hu
    u = hu - mu_h[None, :]
    v = hu - nu_h[None, :]
    c1 = (
        -gamma_energy
        + float(pi_mu @ (g * (u**2).sum(axis=1)))
        + float(pi_mu @ (g * (v**2).sum(axis=1)))
        - 2.0 * float(pi_mu @ (g * (u * v).sum(axis=1)))
    )
    c2 = 2.0 * ((pi_mu * g) @ u)
    c3 = -((pi_nu * g**2) @ v)
    # Compact drift from conditional covariances, computed independently.
    v_mu = (pi_mu * g) @ hu - float(pi_mu @ g) * mu_h
    v_nu = (pi_nu * g) @ hu - float(pi_nu @ g) * nu_h
    drift = -(gamma_energy + float(v_mu @ v_nu))
    return Chi2DriftTerms(drift=drift, c1=c1, c2=c2, c3=c3)


def chi2_drift_batch(pi_mu: np.ndarray, pi_nu: np.ndarray, model: HmmModel) -> np.ndarray:
    """Compact chi-square drift for stacked filter pairs.

    pi_mu and pi_nu have shape (..., d); returns the drift
    -(pi_nu(Gamma gamma) + V_mu(gamma, h) . V_nu(gamma, h)) with shape (...).
    Used by ensemble recorders that integrate the drift along every path.
    """
    pi_mu = np.asarray(pi_mu, dtype=float)
    pi_nu = np.asarray(pi_nu, dtype=float)
    hu = model.h_unit
    off = model.A.copy()
    np.fill_diagonal(off, 0.0)
    g = density_ratio(pi_mu, pi_nu)
    diff = g[..., :, None] - g[..., None, :]
    gamma_energy = (pi_nu * (off * diff**2).sum(axis=-1)).sum(axis=-1)
    mu_h = pi_mu @ hu
    nu_h = pi_nu @ hu
    v_mu = (pi_mu * g) @ hu - (pi_mu * g).sum(axis=-1)[..., None] * mu_h
    v_nu = (pi_nu * g) @ hu - (pi_nu * g).sum(axis=-1)[..., None] * nu_h
    return -(gamma_energy + (v_mu * v_nu).sum(axis=-1))


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential rate of a positive series on a window.

    rate is minus the slope of log(series) against time; stderr is the
    ordinary least-squares slope error on the decimated points.
    """

    rate: float
    stderr: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int
    stride: int


def fit_exponential_rate(
    times,
    values,
    window: tuple[float, float] | None = None,
    min_points: int = 10,
) -> RateFit:
    """Fit values ~ exp(intercept - rate * t) on the window by log-OLS.

    The window defaults to [0.2 T, 0.9 T].  Points are decimated before the
    error estimate so residuals are approximately uncorrelated: the stride
    is the AR(1) decorrelation length of the full-window residuals, capped
    so at least min_points survive.  Raises NonPositiveSeries if any value
    in the window is <= 0 and WindowTooShort if fewer than min_points
    decimated points remain.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DimensionMismatch("times and values must be equal-length 1-D")
    horizon = float(times[-1])
    if window is None:
        window = (0.2 * horizon, 0.9 * horizon)
    lo, hi = float(window[0]), float(window[1])
    mask = (times >= lo) & (times <= hi)
    t = times[mask]
    y = values[mask]
    if t.size < min_points:
        raise WindowTooShort(f"{t.size} points in window [{lo}, {hi}]")
    if np.any(y <= 0.0) or np.any(~np.isfinite(y)):
        raise NonPositiveSeries("series must be strictly positive on the window")
    logy = np.log(y)

    def ols(tt, yy):
        tbar = tt.mean()
        ybar = yy.mean()
        sxx = ((tt - tbar) ** 2).sum()
        slope = ((tt - tbar) * (yy - ybar)).sum() / sxx
        intercept = ybar - slope * tbar
        resid = yy - (intercept + slope * tt)
        return slope, intercept, resid, sxx

    slope_full, _, resid_full, _ = ols(t, logy)
    stride = 1
    if resid_full.size > 2:
        denom = float(resid_full @ resid_full)
        if denom > 0.0:
            rho = float(resid_full[:-1] @ resid_full[1:]) / denom
            rho = min(max(rho, 0.0), 1.0 - 1e-12)
            stride = max(1, int(np.ceil((1.0 + rho) / (1.0 - rho))))
    stride = min(stride, max(1, t.size // min_points))
    td, yd = t[::stride], logy[::stride]
    if td.size < min_points:
        raise WindowTooShort(
            f"{td.size} decimated points (stride {stride}) in window [{lo}, {hi}]"
        )
    slope, intercept, resid, sxx = ols(td, yd)
    dof = td.size - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    stderr = float(np.sqrt(sigma2 / sxx))
    sst = float(((yd - yd.mean()) ** 2).sum())
    r_squared = 1.0 - float(resid @ resid) / sst if sst > 0.0 else 1.0
    return RateFit(
        rate=-slope,
        stderr=stderr,
        intercept=float(intercept),
        r_squared=r_squared,
        window=(lo, hi),
        n_points=int(td.size),
        stride=int(stride),
    )


SERIES_COLUMNS = ["t", "chi2_mean", "chi2_se", "kl_mean", "kl_se", "tv_mean", "tv_se", "n_paths"]


def write_series_csv(path: str, series: DivergenceSeries) -> None:
    """Dump the aggregated series; floats use repr for exact round trips."""
    chi2_m, chi2_s = series.chi2_mean_se
    kl_m, kl_s = series.kl_mean_se
    tv_m, tv_s = series.tv_mean_se
    n_paths = np.full(len(series.times), series.n_paths)
    _write_table(
        path, SERIES_COLUMNS, [series.times, chi2_m, chi2_s, kl_m, kl_s, tv_m, tv_s, n_paths]
    )


def read_series_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a series CSV back into column arrays keyed by header name."""
    header, body = _read_table(path)
    if header != SERIES_COLUMNS:
        raise DimensionMismatch(f"unexpected series header {header}")
    cols = dict(zip(header, body.T))
    cols["n_paths"] = cols["n_paths"].astype(int)
    return cols
