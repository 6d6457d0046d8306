"""Finite-state hidden Markov model with white-noise observations.

The hidden signal is a continuous-time Markov chain on S = {1, ..., d} with
transition-rate matrix A (nonnegative off-diagonal, zero row sums).  The
observation is the m-dimensional process

    dZ_t = h(X_t) dt + r dW_t,

where h(x) is row x of the observation matrix H and W is a standard Brownian
motion independent of X.  A model is the triple (A, H, r); r = 0 is the
noiseless observation Y = h(X).  The rescaled observation function H/r is
derived from it, so that downstream code always works in the unit-noise form.

This module holds the model container, its validation, and the structural
quantities attached to the pair (A, H): the carre du champ operator, the
invariant measure, ergodicity and observability of the pair, and the closed
form decay-rate bounds computable from A and H alone.  The model JSON file
is read by config (load_model), next to the config parser it shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeOffDiagonal,
    NonPositiveNoise,
    NonUniqueInvariantMeasure,
    RowSumNonZero,
)

__all__ = [
    "HmmModel",
    "validate_model",
    "as_simplex",
    "carre_du_champ",
    "invariant_measure",
    "is_ergodic",
    "observable_space",
    "rate_bounds",
    "nonergodic_limit_bounds",
]

# Row sums larger than this reject the generator outright; accepted rows are
# re-canonicalized so the stored diagonal makes every row sum exactly zero.
ROW_SUM_TOL = 1e-9
SIMPLEX_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Validated model container.

    Attributes
    ----------
    A : (d, d) transition-rate matrix, canonical diagonal.
    H : (d, m) observation matrix, row x is h(x).
    r : observation noise amplitude (noise variance r**2 per unit time);
        r == 0 is the noiseless model, usable with the exact noiseless
        filter only.
    """

    A: np.ndarray
    H: np.ndarray
    r: float

    @property
    def noiseless(self) -> bool:
        return self.r == 0.0

    @cached_property
    def h_unit(self) -> np.ndarray:
        """(d, m) rescaled observation H/r; H itself when noiseless."""
        return self.H if self.noiseless else self.H / self.r

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.H.shape[1]


def _as_rate_matrix(A) -> np.ndarray:
    """Validate a transition-rate matrix and canonicalize its diagonal."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"rate matrix must be square, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatch("rate matrix contains non-finite entries")
    d = A.shape[0]
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        x, y = np.argwhere(off < 0.0)[0]
        raise NegativeOffDiagonal(f"A[{x},{y}] = {A[x, y]} < 0")
    row_sums = A.sum(axis=1)
    if np.max(np.abs(row_sums)) > ROW_SUM_TOL:
        x = int(np.argmax(np.abs(row_sums)))
        raise RowSumNonZero(f"row {x} sums to {row_sums[x]}")
    # Canonical diagonal: rows sum to zero exactly up to rounding.
    np.fill_diagonal(off, -off.sum(axis=1))
    return off


def _as_observation(H, d: int) -> np.ndarray:
    """H as a float (d, m) matrix, a 1-D H being one column (DimensionMismatch otherwise)."""
    H = np.array(H, dtype=float)
    if H.ndim == 1:
        H = H[:, None]
    if H.ndim != 2 or H.shape[0] != d:
        raise DimensionMismatch(f"H must have shape ({d}, m), got {H.shape}")
    return H


def validate_model(A, H, r: float) -> HmmModel:
    """Validate (A, H, r) and return the immutable model container.

    Raises NegativeOffDiagonal / RowSumNonZero / DimensionMismatch on a bad
    generator or shape, and NonPositiveNoise when r is negative or not
    finite.  r = 0 (or -0.0, stored as 0.0) is the noiseless model.
    """
    A = _as_rate_matrix(A)
    H = _as_observation(H, A.shape[0])
    if not np.all(np.isfinite(H)):
        raise DimensionMismatch("H contains non-finite entries")
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise NonPositiveNoise(f"noise amplitude r = {r} must be finite and >= 0")
    return HmmModel(A=A, H=H, r=abs(r))


def as_simplex(p, d: int) -> np.ndarray:
    """Validate a length-d probability vector: entries >= -SIMPLEX_TOL, sum
    within SIMPLEX_TOL of 1.

    Tiny negative entries from floating-point clipping are zeroed and the
    vector is renormalized, so the result is an exact simplex point.
    """
    p = np.array(p, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch(f"probability vector must be 1-D, got {p.shape}")
    if p.shape[0] != d:
        raise DimensionMismatch(f"expected length {d}, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise DimensionMismatch("probability vector has non-finite entries")
    if np.any(p < -SIMPLEX_TOL):
        raise DimensionMismatch(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > SIMPLEX_TOL:
        raise DimensionMismatch(f"probabilities sum to {p.sum()}, not 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def carre_du_champ(A, f) -> np.ndarray:
    """Pointwise energy (Gamma f)(x) = sum_y A(x, y) (f(x) - f(y))**2.

    f is (..., d): a stack of functions gives their energies, each bitwise
    equal to its own call.  Entrywise nonnegative, zero on constants, and
    invariant under adding a constant to f; only off-diagonal rates count.
    """
    off = _as_rate_matrix(A)
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != off.shape[:1]:
        raise DimensionMismatch(f"f must have shape (..., {off.shape[0]}), got {f.shape}")
    np.fill_diagonal(off, 0.0)
    return (off * (f[..., :, None] - f[..., None, :]) ** 2).sum(axis=-1)


def _same_level(H: np.ndarray) -> np.ndarray:
    """(d, d) booleans: row x marks the level set {y : h(y) = h(x)} that Y = h(X) shows."""
    return np.all(H[:, None, :] == H[None, :, :], axis=-1)


def invariant_measure(A, allow_nonunique: bool = False) -> np.ndarray:
    """Invariant probability vector mu with mu^T A = 0.

    The minimum-norm least-squares solution of [A^T; 1^T] mu = [0; 1].
    When the nullspace of A^T has dimension > 1 the measure is not unique
    and NonUniqueInvariantMeasure is raised, unless allow_nonunique=True.
    The invariant laws are then the mixtures sum_i a_i pi_i of the closed
    classes' laws pi_i.  These have disjoint supports, so they are
    orthogonal, |mu|^2 = sum_i a_i^2 |pi_i|^2, and the minimum-norm
    solution has a_i proportional to 1 / |pi_i|^2: a strictly positive
    mixture that charges every closed class and no transient state.
    structure reports it with the note "minimum-norm mixture of the closed
    classes shown".
    """
    A = _as_rate_matrix(A)
    d = A.shape[0]
    sv = np.linalg.svd(A.T, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    null_dim = int(np.sum(sv <= 1e-9 * scale))
    if null_dim > 1 and not allow_nonunique:
        raise NonUniqueInvariantMeasure(
            f"nullspace of A^T has dimension {null_dim}"
        )
    stacked = np.vstack([A.T, np.ones((1, d))])
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def is_ergodic(A) -> bool:
    """True when constants are the only functions with Gamma f identically 0.

    Gamma f vanishes everywhere iff f(x) = f(y) whenever A(x, y) > 0, i.e.
    iff f is constant on each connected component of the undirected graph
    with an edge {x, y} whenever A(x, y) > 0 or A(y, x) > 0.  So the model
    is ergodic in this sense iff that graph is connected.  A single state
    is trivially ergodic; a zero generator on d >= 2 states is not.
    """
    A = _as_rate_matrix(A)
    d = A.shape[0]
    # reach[x, y] after k squarings: a path of at most 2^k edges joins x and y
    reach = (A > 0.0) | (A.T > 0.0) | np.eye(d, dtype=bool)
    for _ in range((d - 1).bit_length()):
        reach = reach @ reach
    return bool(reach[0].all())


def observable_space(A, H) -> np.ndarray:
    """Orthonormal rows (dim, d) spanning the smallest subspace of functions
    on S that contains constants and is closed under g -> Ag and g -> g * h_j
    (entrywise, each observation column).

    The pair (A, H) is observable iff there are d rows.  Closure is
    computed by alternating the two maps on an orthonormal basis until the
    dimension is stable; rank decisions use tolerance 1e-9 on singular
    values relative to the largest.
    """
    A = _as_rate_matrix(A)
    d = A.shape[0]
    H = _as_observation(H, d)

    def orthonormalize(rows: np.ndarray) -> np.ndarray:
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        keep = s > 1e-9 * (s[0] if s.size and s[0] > 0 else 1.0)
        return vt[keep]

    basis = np.ones((1, d)) / math.sqrt(d)
    while True:
        candidates = [basis, basis @ A.T]
        for j in range(H.shape[1]):
            candidates.append(basis * H[:, j][None, :])
        new_basis = orthonormalize(np.vstack(candidates))
        if len(new_basis) in (len(basis), d):
            return new_basis
        basis = new_basis


def _off_diagonal_min(M: np.ndarray, axis: int) -> np.ndarray:
    """Exact minimum of each row (axis=1) or column (axis=0) of a square M (d >= 2) off its diagonal."""
    return np.where(np.eye(M.shape[0], dtype=bool), np.inf, M).min(axis=axis)


def rate_bounds(A, mu_bar) -> tuple[float, float, float]:
    """Classical decay-rate lower bounds computable from A and mu alone.

    Returns the triple
        b1 = min_{x != y} sqrt(A(x, y) A(y, x)),
        b2 = sum_x mu(x) min_{y != x} A(x, y),
        b3 = sum_y min_{x != y} A(x, y).
    Each is nonnegative and zero for a single state.  b1 vanishes when one
    off-diagonal rate does, b2 and b3 when one does in every row / column.
    """
    A = _as_rate_matrix(A)
    mu = as_simplex(mu_bar, d=A.shape[0])
    if A.shape[0] == 1:
        return 0.0, 0.0, 0.0
    b1 = float(_off_diagonal_min(np.sqrt(A * A.T), axis=1).min())
    b2 = float(mu @ _off_diagonal_min(A, axis=1))
    b3 = float(_off_diagonal_min(A, axis=0).sum())
    return b1, b2, b3


def nonergodic_limit_bounds(A, H, mu_bar) -> tuple[float, float]:
    """Small-noise limit bounds on the decay rate, from the observation gaps.

    Returns
        u1 = 0.5 * sum_x mu(x) min_{y != x} |h(x) - h(y)|**2,
        u2 = 0.5 * sum_{x, y} mu(x) |h(x) - h(y)|**2.
    u1 <= u2 always; u1 = 0 whenever two states share an observation row.
    """
    A = _as_rate_matrix(A)
    d = A.shape[0]
    H = _as_observation(H, d)
    mu = as_simplex(mu_bar, d=d)
    gap2 = ((H[:, None, :] - H[None, :, :]) ** 2).sum(axis=2)
    if d == 1:
        return 0.0, 0.0
    u1 = 0.5 * float(mu @ _off_diagonal_min(gap2, axis=1))
    u2 = 0.5 * float(mu @ gap2.sum(axis=1))
    return u1, u2

