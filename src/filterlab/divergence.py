"""Divergences between filter laws and decay-rate extraction.

For two laws p, q on S with density gamma = p/q (convention 0/0 = 0):

    chi2(p|q) = sum_x (gamma(x) - 1)^2 q(x)
    kl(p|q)   = sum_x gamma(x) log gamma(x) q(x)
    tv(p, q)  = 0.5 * sum_x |p(x) - q(x)|

The package's one support rule lives here: a state x is outside supp(q)
when q(x) < SUPPORT_EPS, and a law p charges x when p(x) > AC_EPS.  p
charging a state outside supp(q) raises AbsoluteContinuityViolation, since
both divergences are infinite there.  The states the backward map keeps
and essential_infimum_ratio's supp(nu) (dual), the support of rho in the
Poincare problems (poincare) and verify's terminal check count against the
same two constants.  tv is defined for all pairs.  The three
formulas are written once, for state-major pairs (d, ...) reduced as sums
of rows, so a block of many steps and paths costs one call, and a single
pair of laws (d,) goes through the same code.

The module also evaluates the exact local dynamics of the chi-square
divergence between two filters driven by the same observation: the drift

    -( pi_nu(Gamma gamma) + V^mu(gamma, h) . V^nu(gamma, h) )

and the three raw coefficients of the decomposition
d chi2 = C1 dt + C2^T dI^mu + C3^T dI^nu.  The two forms are related by
dI^nu = dI^mu + (pi_mu(h) - pi_nu(h)) dt, which is a testable identity:
drift = C1 + C3 . (pi_mu(h) - pi_nu(h)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    NonPositiveSeries,
    WindowTooShort,
)
from .filtering import _sum_rows
from .model import HmmModel, carre_du_champ

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
    "MIN_FIT_POINTS",
    "RateFit",
    "fit_exponential_rate",
    "write_series_csv",
]

SUPPORT_EPS = 1e-14  # x is outside supp(q) when q(x) < SUPPORT_EPS
AC_EPS = 1e-12  # a law charges x when its mass at x is > AC_EPS


def density_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """gamma = p/q with 0/0 = 0, broadcast over leading axes.

    Raises AbsoluteContinuityViolation when p has mass above AC_EPS on a
    state with q below SUPPORT_EPS.
    """
    return _ratio(np.asarray(p, dtype=float), np.asarray(q, dtype=float))[0]


def _ratio(p: np.ndarray, q: np.ndarray, g=None, outside=None) -> tuple[np.ndarray, np.ndarray | None]:
    """density_ratio, written into g when given, and the mask q < SUPPORT_EPS
    (into outside when given), None when q is inside its support everywhere.

    No ufunc runs masked: the ratio is p / q with 0 written outside, the
    bits of np.where, and p's mass outside is p max(sign(SUPPORT_EPS - q), 0).
    """
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    if q.min(initial=np.inf) >= SUPPORT_EPS:
        return np.divide(p, q, out=g), None
    outside = np.less(q, SUPPORT_EPS, out=outside)
    g = np.empty_like(q) if g is None else g
    np.subtract(SUPPORT_EPS, q, out=g)
    np.fmax(np.sign(g, out=g), 0.0, out=g)
    bad = float(np.fmax.reduce(np.multiply(p, g, out=g), axis=None))
    if bad > AC_EPS:
        raise AbsoluteContinuityViolation(f"p has mass {bad:.3e} outside supp(q)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # all outside supp(q), zeroed next
        np.divide(p, q, out=g)
    np.copyto(g, 0.0, where=outside)
    return g, outside


def _work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """_divergences' work arrays for pairs of this shape (d, ...): the ratio,
    one term and one mask like the pairs, and the three sums (3, ...)."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool), np.empty((3, *shape[1:]))


def _divergences(p: np.ndarray, q: np.ndarray, work=None) -> np.ndarray:
    """chi2, kl and tv of state-major pairs (d, ...) as sums of rows, (3, ...).

    The one definition of the three formulas; one density ratio checks
    absolute continuity for the whole block.  work is _work(p.shape), or
    views of that shape into larger work arrays, allocated when not given;
    the sums returned are its last array.  Each term is formed in place by
    the elementwise operations of the formulas, so the bits do not depend
    on work.  A term outside supp(q), and a log term unless gamma > 0, is 0.
    """
    g, t, mask, sums = _work(p.shape) if work is None else work
    _, outside = _ratio(p, q, g, mask)
    np.subtract(g, 1.0, out=t)
    np.square(t, out=t)
    np.multiply(t, q, out=t)
    if outside is not None:
        np.copyto(t, 0.0, where=outside)
    _sum_rows(t, sums[0, ...])  # a view also when the pairs are single laws
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, then 0 * inf
        np.log(g, out=t)
        np.multiply(t, g, out=t)
        np.multiply(t, q, out=t)
    if not g.min(initial=np.inf) > 0.0:  # g is 0 outside supp(q), or nan
        np.copyto(t, 0.0, where=np.logical_not(np.greater(g, 0.0, out=mask), out=mask))
    _sum_rows(t, sums[1, ...])
    _tv_rows(p, q, t, sums[2, ...])
    return sums


def _tv_rows(p: np.ndarray, q: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(p, q, out=t)
    np.abs(t, out=t)
    _sum_rows(t, out)
    out *= 0.5
    return out


def chi2(p, q) -> float:
    """Chi-square divergence sum (gamma - 1)^2 q over supp(q)."""
    return float(_divergences(np.asarray(p, float), np.asarray(q, float))[0])


def kl(p, q) -> float:
    """Relative entropy sum gamma log(gamma) q over supp(q), 0 log 0 = 0."""
    return float(_divergences(np.asarray(p, float), np.asarray(q, float))[1])


def tv(p, q) -> float:
    """Total variation distance 0.5 * sum |p - q| (defined for all pairs)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    return float(_tv_rows(p, q, np.empty(p.shape), np.empty(p.shape[1:])))


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of per-path values (n, ...) and their standard errors
    std(ddof=1) / sqrt(n), which are nan for a single path.

    numpy reduces axis 0 of a C-contiguous array of at least 2 columns by
    adding the rows in index order, so any block of such columns gets the
    bits of the whole array's reduction; a single column of 8 or more rows
    is summed pairwise instead (the caveat of filtering._mass).
    """
    n = values.shape[0]
    se = values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full(values.shape[1:], np.nan)
    return values.mean(axis=0), se


@dataclass(frozen=True, eq=False)
class DivergenceSeries:
    """Ensemble means of chi2, kl and tv over n_paths paths, with their
    standard errors, at each point of times: an ensemble's report times.

    Each pair is _mean_se of the per-path values; the ensemble reduces a
    block of points at a time, over at least 2 columns, so the series equal
    the reduction of whole (n_paths, len(times)) arrays bit for bit.
    """

    times: np.ndarray
    n_paths: int
    chi2_mean: np.ndarray
    chi2_se: np.ndarray
    kl_mean: np.ndarray
    kl_se: np.ndarray
    tv_mean: np.ndarray
    tv_se: np.ndarray


@dataclass(frozen=True, eq=False)
class Chi2DriftTerms:
    """Local chi-square dynamics at one filter pair.

    drift is the compact form -(pi_nu(Gamma gamma) + V_mu(gamma,h).V_nu(gamma,h)),
    the chi2_drift_batch value that ensembles integrate; c1, c2, c3 are the
    raw coefficients of d chi2 = c1 dt + c2 . dI_mu + c3 . dI_nu, computed
    independently of drift from their own four-term expansion.  The identity
    drift == c1 + c3 . (pi_mu(h) - pi_nu(h)) relates the two forms.
    """

    drift: float
    c1: float
    c2: np.ndarray
    c3: np.ndarray


def chi2_drift_terms(pi_mu, pi_nu, model: HmmModel) -> Chi2DriftTerms:
    """Evaluate the chi-square drift (chi2_drift_batch) and raw coefficients at (pi_mu, pi_nu).

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
    drift = float(chi2_drift_batch(pi_mu, pi_nu, model))
    return Chi2DriftTerms(drift=drift, c1=c1, c2=c2, c3=c3)


def chi2_drift_batch(pi_mu: np.ndarray, pi_nu: np.ndarray, model: HmmModel) -> np.ndarray:
    """Compact chi-square drift for stacked filter pairs.

    pi_mu and pi_nu have shape (..., d); returns the drift
    -(pi_nu(Gamma gamma) + V_mu(gamma, h) . V_nu(gamma, h)) with shape (...):
    the one drift formula, integrated by ensemble recorders along every path.
    """
    pi_mu = np.asarray(pi_mu, dtype=float)
    pi_nu = np.asarray(pi_nu, dtype=float)
    hu = model.h_unit
    g = density_ratio(pi_mu, pi_nu)
    gamma_energy = (pi_nu * carre_du_champ(model.A, g)).sum(axis=-1)
    mu_h = pi_mu @ hu
    nu_h = pi_nu @ hu
    v_mu = (pi_mu * g) @ hu - (pi_mu * g).sum(axis=-1)[..., None] * mu_h
    v_nu = (pi_nu * g) @ hu - (pi_nu * g).sum(axis=-1)[..., None] * nu_h
    return -(gamma_energy + (v_mu * v_nu).sum(axis=-1))


MIN_FIT_POINTS = 10  # decimated points a rate fit needs in its window


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential rate of a positive series on a window.

    rate is minus the slope of log(series) against time; stderr is the OLS
    slope error on n_points points, every stride-th point of the series.
    """

    rate: float
    stderr: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int
    stride: int


def fit_exponential_rate(times, values, window: tuple[float, float] | None = None) -> RateFit:
    """Fit values ~ exp(intercept - rate * t) on the window by log-OLS.

    The window defaults to [0.2 T, 0.9 T].  Points are decimated before the
    error estimate so residuals are approximately uncorrelated: the stride
    is the AR(1) decorrelation length of the full-window residuals, capped
    so at least MIN_FIT_POINTS survive.  Raises NonPositiveSeries if any
    value in the window is <= 0 and WindowTooShort if fewer than
    MIN_FIT_POINTS decimated points remain.
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
    if t.size < MIN_FIT_POINTS:
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
    stride = min(stride, max(1, t.size // MIN_FIT_POINTS))
    # the cap keeps at least MIN_FIT_POINTS of the t.size >= MIN_FIT_POINTS points
    td, yd = t[::stride], logy[::stride]
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


def write_series_csv(path: str, series: DivergenceSeries) -> None:
    """Write the aggregated series, the package's one CSV table.

    A header row, then one row per time.  n_paths prints as an int and the
    float columns as repr, so float64 values round-trip exactly through
    np.loadtxt after the header row.
    """
    stats = [series.chi2_mean, series.chi2_se, series.kl_mean, series.kl_se, series.tv_mean, series.tv_se]
    n_paths = np.full(len(series.times), series.n_paths)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "chi2_mean", "chi2_se", "kl_mean", "kl_se", "tv_mean", "tv_se", "n_paths"])
        writer.writerows(zip(*(c.tolist() for c in [series.times, *stats, n_paths])))
