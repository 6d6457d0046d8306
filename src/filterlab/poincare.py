"""Markov Poincare constants as generalized eigenvalue problems.

For a probability vector rho and generator A, the constant reported here is
the largest c with

    rho(Gamma f) >= c * V_rho(f)   for every f,

equivalently the smallest eigenvalue of the energy form

    Q(f) = sum_{x,y} rho(x) A(x, y) (f(x) - f(y))^2

against the variance form C = diag(rho) - rho rho^T, both restricted to
supp(rho) and to the rho-mean-zero subspace there.  With rho the invariant
measure this is the classical Markov Poincare constant; with rho a filter
state it is the conditional variant whose infimum along trajectories feeds
the decay envelope.

Both symmetric eigenproblems of the reduction (whitening the variance form,
then the whitened energy form) go to LAPACK through np.linalg.eigh; numpy
rather than scipy.linalg keeps scipy.linalg out of the simulate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceForm, DimensionMismatch, NotSymmetric
from .model import _as_rate_matrix, as_simplex

__all__ = [
    "PiResult",
    "symmetric_eigensolver",
    "classical_pi_constant",
    "conditional_pi_constant",
    "trajectory_pi_infimum",
]

SUPPORT_TOL = 1e-12
PD_TOL = 1e-10


@dataclass(frozen=True)
class PiResult:
    """Smallest energy-to-variance ratio with its minimizer.

    minimizer is a length-d vector f* with rho(f*) = 0 and V_rho(f*) = 1,
    zero off the support; it is None when the constant is +inf (point-mass
    rho, where the variance form has no nonconstant direction).
    """

    constant: float
    minimizer: np.ndarray | None
    support: np.ndarray


def symmetric_eigensolver(S) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a small symmetric matrix by np.linalg.eigh.

    Returns (eigenvalues ascending, eigenvectors as columns) of the
    symmetrized matrix.  Raises NotSymmetric if S deviates from its
    transpose beyond 1e-10 relative to max(1, max |S|).
    """
    S = np.array(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {S.shape}")
    scale = max(1.0, float(np.abs(S).max(initial=0.0)))
    if float(np.abs(S - S.T).max(initial=0.0)) > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    return np.linalg.eigh((S + S.T) / 2.0)


def _pi_eigenproblem(A: np.ndarray, rho: np.ndarray, support: np.ndarray) -> PiResult:
    """Solve the restricted generalized problem on a support of size >= 2."""
    d = A.shape[0]
    rs = rho[support]
    rs = rs / rs.sum()
    asub = A[np.ix_(support, support)].copy()
    np.fill_diagonal(asub, 0.0)
    w_pair = rs[:, None] * asub
    sym = w_pair + w_pair.T
    m = np.diag(sym.sum(axis=1)) - sym
    m = (m + m.T) / 2.0
    c = np.diag(rs) - np.outer(rs, rs)
    _, _, vt = np.linalg.svd(rs[None, :])
    b = vt[1:].T
    cr = b.T @ c @ b
    wc, vc = symmetric_eigensolver(cr)
    if wc.min() <= PD_TOL * max(1.0, wc.max()):
        raise DegenerateVarianceForm(
            f"restricted variance form has eigenvalue {wc.min():.3e}"
        )
    whiten = vc @ np.diag(1.0 / np.sqrt(wc)) @ vc.T
    sw = whiten @ (b.T @ m @ b) @ whiten
    sw = (sw + sw.T) / 2.0
    ws, vs = symmetric_eigensolver(sw)
    f_supp = b @ (whiten @ vs[:, 0])
    f_full = np.zeros(d)
    f_full[support] = f_supp
    return PiResult(constant=float(ws[0]), minimizer=f_full, support=support.copy())


def classical_pi_constant(A, mu_bar) -> PiResult:
    """Poincare constant inf{mu(Gamma f) : V_mu(f) = 1} for invariant mu.

    mu_bar must be invariant for A (checked to 1e-8 relative to the largest
    rate); the problem is restricted to supp(mu_bar).  Raises
    DegenerateVarianceForm when the support is a single state.
    """
    A = _as_rate_matrix(A)
    mu = as_simplex(mu_bar, d=A.shape[0])
    scale = max(1.0, float(np.abs(A).max()))
    resid = float(np.abs(mu @ A).max())
    if resid > 1e-8 * scale:
        raise DimensionMismatch(
            f"mu_bar is not invariant for A (residual {resid:.3e})"
        )
    support = np.flatnonzero(mu > SUPPORT_TOL)
    if support.size < 2:
        raise DegenerateVarianceForm("supp(mu_bar) has a single state")
    return _pi_eigenproblem(A, mu, support)


def conditional_pi_constant(A, rho) -> PiResult:
    """Largest c with rho(Gamma f) >= c V_rho(f), restricted to supp(rho).

    A point mass has no nonconstant direction, so the constant is reported
    as +inf with no minimizer (the vacuous-inequality convention).
    """
    A = _as_rate_matrix(A)
    rho = as_simplex(rho, d=A.shape[0])
    support = np.flatnonzero(rho > SUPPORT_TOL)
    if support.size == 0:
        raise DegenerateVarianceForm("rho has no support above threshold")
    if support.size == 1:
        return PiResult(constant=math.inf, minimizer=None, support=support)
    return _pi_eigenproblem(A, rho, support)


def trajectory_pi_infimum(A, pis, dt: float, stride: int = 100):
    """Infimum of the conditional constant along filter trajectories.

    pis holds the filter states (P, n + 1, d) of P paths on the grid with
    step dt.  Evaluates conditional_pi_constant at every stride-th state of
    every path and returns (c_inf, (path_index, time)); +inf values (point
    masses, degenerate variance forms) are ignored.  When nothing finite is
    found the result is (inf, None).
    """
    if stride < 1:
        raise DimensionMismatch(f"stride must be >= 1, got {stride}")
    best = math.inf
    where = None
    for i, path in enumerate(pis):
        for k in range(0, path.shape[0], stride):
            try:
                res = conditional_pi_constant(A, path[k])
            except DegenerateVarianceForm:
                continue
            if res.constant < best:
                best = res.constant
                where = (i, float(k * dt))
    return best, where
