"""Markov Poincare constants as spectral gaps of symmetrized energy forms.

For a probability vector rho and generator A, the constant reported here is
the largest c with

    rho(Gamma f) >= c * V_rho(f)   for every f,

equivalently the smallest eigenvalue of the energy form

    Q(f) = sum_{x,y} rho(x) A(x, y) (f(x) - f(y))^2

against the variance form C = diag(rho) - rho rho^T, both restricted to
supp(rho), the states rho charges by divergence's support rule (mass above
AC_EPS), and to the rho-mean-zero subspace there.  With rho the invariant
measure this is the classical Markov Poincare constant; with rho a filter
state it is the conditional variant whose infimum along trajectories feeds
the decay envelope.

With D = diag(rho) and M the energy form's matrix on the support,
K = D^{-1/2} M D^{-1/2} is positive semidefinite with K sqrt(rho) = 0, so
the constant is K's second eigenvalue: one symmetric eigenproblem, solved
by np.linalg.eigh (numpy is the package's only runtime dependency), and
clamped at 0, since a negative value is rounding.  The D^{-1/2} scaling
loses accuracy when the support's masses span more than 1/PD_TOL, and
such a support raises DegenerateVarianceForm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import AC_EPS
from .errors import DegenerateVarianceForm, DimensionMismatch
from .model import _as_rate_matrix, as_simplex

__all__ = [
    "PiResult",
    "classical_pi_constant",
    "conditional_pi_constant",
    "trajectory_pi_infimum",
]

PD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PiResult:
    """Smallest energy-to-variance ratio with its minimizer.

    minimizer is a length-d vector f* with rho(f*) = 0 and V_rho(f*) = 1,
    zero off the support; it is None when the constant is +inf (point-mass
    rho, where the variance form has no nonconstant direction).
    """

    constant: float
    minimizer: np.ndarray | None
    support: np.ndarray


def _pi_eigenproblem(A: np.ndarray, rho: np.ndarray, support: np.ndarray) -> PiResult:
    """Solve the symmetrized problem on a support of size >= 2."""
    rs = rho[support]
    rs = rs / rs.sum()
    if rs.min() <= PD_TOL * rs.max():
        raise DegenerateVarianceForm(f"support masses span {rs.min():.3e} to {rs.max():.3e}")
    asub = A[np.ix_(support, support)].copy()
    np.fill_diagonal(asub, 0.0)
    w_pair = rs[:, None] * asub
    sym = w_pair + w_pair.T
    m = np.diag(sym.sum(axis=1)) - sym
    root = np.sqrt(rs)
    w, v = np.linalg.eigh(m / np.outer(root, root))
    # off sqrt(rs): when the eigenvalue 0 is repeated, sqrt(rs) can lie in any
    # rotation of the first two eigenvectors, so keep the one farther from it
    u = v[:, :2] - np.outer(root, root @ v[:, :2])
    u = u[:, np.argmax(np.linalg.norm(u, axis=0))]
    f_full = np.zeros(A.shape[0])
    f_full[support] = u / (np.linalg.norm(u) * root)
    return PiResult(constant=max(float(w[1]), 0.0), minimizer=f_full, support=support.copy())


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
    support = np.flatnonzero(mu > AC_EPS)
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
    support = np.flatnonzero(rho > AC_EPS)
    if support.size == 0:
        raise DegenerateVarianceForm("rho has no support above threshold")
    if support.size == 1:
        return PiResult(constant=math.inf, minimizer=None, support=support)
    return _pi_eigenproblem(A, rho, support)


def trajectory_pi_infimum(A, pis, times):
    """Infimum of the conditional constant along filter trajectories.

    pis holds the filter states (P, k, d) of P paths at the k times in
    times.  Evaluates conditional_pi_constant at each state, in order, up
    to the first that reaches 0, and returns (c_inf, (path_index, time));
    +inf values (point masses, degenerate variance forms) are ignored.
    When nothing finite is found the result is (inf, None).
    """
    best = math.inf
    where = None
    for i, path in enumerate(pis):
        for pi, t in zip(path, times, strict=True):
            try:
                res = conditional_pi_constant(A, pi)
            except DegenerateVarianceForm:
                continue
            if res.constant < best:
                best = res.constant
                where = (i, float(t))
                if best == 0.0:  # constants are clamped at 0, so no later state is lower
                    return best, where
    return best, where
