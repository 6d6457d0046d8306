"""Conditional-law evolution given the observation record.

The conditional law pi_t of the hidden state solves a d-dimensional
stochastic differential equation driven by the observation.  With the
unit-noise observation function hu = H/r, each grid step is the
splitting-up step of Le Gland (1992): predict with the exact kernel
expm(A dt), correct with the likelihood of the increment dZ, normalize,

    pi'(y) propto exp(hu(y) . dZ/r - |hu(y)|^2 dt/2) sum_x pi(x) expm(A dt)(x, y).

It is exact at h = 0, has strong order one, and never leaves the simplex or
drops a state the prediction reaches, so nothing is clipped.  One kernel
steps k priors on P paths as a state-major (d, k, P) array, so products and
reductions run along the long path axis.  The prediction is an einsum, the
correction exponent and the mass are sums of rows, never a BLAS product or a
pairwise reduction, so a path gets bitwise the same numbers alone as in any
batch.  The correction is exponentiated once per block of _BLOCK_STEPS
steps, elementwise, so a block gives the bits of one step at a time.
evolve_ensemble runs the kernel over a path ensemble, with priors shared
by all paths or one per path, and every noisy pipeline calls it; its
observers read the (d, k, P) array itself, and only the states it returns,
like wonham_step's one step broadcast over leading axes, are path-major.

For exactly noiseless observations (r = 0), evolve_noiseless_ensemble
computes the conditional law exactly on the same (d, k, P) array, with
priors shared or per path as well.  A_in is A with its cross-level rates
removed, the generator of the chain killed when it leaves its observed
level set of h.  Between observed level changes the unnormalized law is
pi_tau expm(A_in (t - tau)): one einsum per interval of the grid it is
given, exact on any grid.  At an observed level change, redone on the
path's column, mass moves along the cross-level flux.

All exponentials come from numpy uniformization with scaling and squaring:
its terms are nonnegative, so it has no cancellation, and numpy is the
package's only runtime dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, GridMismatch, NonPositiveNoise
from .model import HmmModel, _same_level, as_simplex

__all__ = ["wonham_step", "evolve_ensemble", "evolve_noiseless_ensemble"]

# The splitting kernel exponentiates its correction once per block of steps,
# and the divergence ensemble reduces its report points to means once per block
# of points.  When it reduced every step, 32 and 128 added about 1 and 7 MB to
# the 41 MB peak RSS of 16 on the cycle sweep (simulate, 200 paths, T = 0.75).
_BLOCK_STEPS = 16


def _sum_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x[0] + x[1] + ... added in row order, into out when given.

    A sum over the leading (state) axis of a state-major array; for fewer
    than 8 rows it is bitwise equal to .sum over a trailing state axis.
    """
    if out is None:
        out = np.empty(x.shape[1:])
    np.copyto(out, x[0])
    for row in x[1:]:
        out += row
    return out


def _mass(S: np.ndarray) -> np.ndarray:
    """_sum_rows(S) for a C-contiguous S: one reduction adds its rows in
    order, except a single column, which numpy sums pairwise from 8 rows."""
    return np.add.reduce(S, axis=0) if S.size > len(S) else _sum_rows(S)


def _split_steps(S: np.ndarray, increments: np.ndarray, dt: float, model: HmmModel, observer=None):
    """Advance the state-major array S (d, k, P) through increments (P, n, m).

    The correction exponent of a block of _BLOCK_STEPS steps is computed in
    (b, d, P) layout, shifted by its per-(step, path) maximum and
    exponentiated at once; each step shares its (d, P) slice by the k priors.
    observer(step, S) gets S itself at step 0 and after every update.
    Returns the terminal array.
    """
    E = _subgenerator_expm(model.A, dt)
    hu = model.h_unit
    gain = hu / model.r
    half = 0.5 * dt * (hu**2).sum(axis=1)[:, None]
    if observer is not None:
        observer(0, S)
    for start in range(0, increments.shape[1], _BLOCK_STEPS):
        dz = increments[:, start : start + _BLOCK_STEPS].transpose(2, 1, 0)[:, :, None, :]
        lw = gain[:, :1] * dz[0]
        for j in range(1, model.m):
            lw += gain[:, j : j + 1] * dz[j]
        lw -= half
        lw -= lw.max(axis=1, keepdims=True)
        for step, w in enumerate(np.exp(lw, out=lw), start):
            S = np.einsum("xy,xkn->ykn", E, S)
            S *= w[:, None, :]
            mass = _mass(S)
            if not mass.min() > 0.0:
                raise DegenerateMass(f"step {step}: filter mass vanished; check the increments")
            S /= mass
            if observer is not None:
                observer(step + 1, S)
    return S


def _path_priors(priors, n_paths: int, d: int) -> np.ndarray:
    """Priors (k, d), shared by all paths, or (k, P, d), one row per path,
    as a validated (k, P, d) array; each distinct row is checked once."""
    priors = np.asarray(priors, float)
    if n_paths == 0 or priors.size == 0:
        raise DimensionMismatch(f"the ensemble needs paths and priors, got {n_paths} paths and priors {priors.shape}")
    if priors.ndim not in (2, 3) or priors.ndim == 3 and priors.shape[1] != n_paths:
        raise DimensionMismatch(f"priors must be (k, {d}) or (k, {n_paths}, {d}), got {priors.shape}")
    rows, where = np.unique(priors.reshape(-1, priors.shape[-1]), axis=0, return_inverse=True)
    priors = np.stack([as_simplex(p, d=d) for p in rows])[where.ravel()].reshape(priors.shape)
    return np.broadcast_to(priors.reshape(len(priors), -1, d), (len(priors), n_paths, d))


def wonham_step(pi: np.ndarray, dz: np.ndarray, dt: float, model: HmmModel) -> np.ndarray:
    """One splitting step of the conditional law, broadcast over leading axes.

    pi has shape (..., d) on the simplex, dz shape (..., m) in raw
    observation units.  Raises DegenerateMass if the update has no positive
    finite mass (non-finite inputs) and NonPositiveNoise on a noiseless
    model, which must use evolve_noiseless_ensemble instead.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use evolve_noiseless_ensemble")
    pi, dz = np.asarray(pi, dtype=float), np.asarray(dz, dtype=float)
    d, m = model.d, model.m
    if pi.shape[-1] != d or dz.shape[-1] != m:
        raise DimensionMismatch(f"pi (..., {d}) and dz (..., {m}) required, got {pi.shape} and {dz.shape}")
    lead = np.broadcast_shapes(pi.shape[:-1], dz.shape[:-1])
    S = np.broadcast_to(pi, lead + (d,)).reshape(-1, 1, d).T.copy()
    inc = np.broadcast_to(dz, lead + (m,)).reshape(-1, 1, m)
    return _split_steps(S, inc, dt, model).T.reshape(lead + (d,))


def evolve_ensemble(
    priors: np.ndarray, increments: np.ndarray, dt: float, model: HmmModel, observer=None
) -> np.ndarray:
    """Evolve k priors through P observation paths in lockstep.

    priors is (k, d), shared by all paths, or (k, P, d), one row per path,
    and increments (P, n_steps, m): an array, or any object with that shape
    whose [:, a:b] is the array of steps a .. b - 1, which the kernel reads
    one block of _BLOCK_STEPS steps at a time.  observer(step, S) is
    called with step = 0 and then after every update, step n holding the
    laws at time n dt; S is the engine's state-major (d, k, P) array,
    read-only and valid only during the call.  Returns the terminal states
    as a (P, k, d) view.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use evolve_noiseless_ensemble")
    if len(increments.shape) != 3 or increments.shape[2] != model.m:
        raise DimensionMismatch(f"increments must be (P, n_steps, {model.m}), got {increments.shape}")
    S = np.ascontiguousarray(_path_priors(priors, increments.shape[0], model.d).transpose(2, 0, 1))
    return _split_steps(S, increments, dt, model, observer).transpose(2, 1, 0)


def _subgenerator_expm(Q: np.ndarray, t: float) -> np.ndarray:
    """exp(Q t) for a sub-generator Q (off-diagonal >= 0, row sums <= 0).

    Uniformization (Jensen's method): with lam = max_x -Q(x, x) and the
    substochastic P = I + Q / lam, exp(Q t) = e^{-lam t} sum_n (lam t)^n / n!
    P^n.  The series runs on t / 2^s with lam t / 2^s <= 1 for d terms, or up
    to a zero term (all later ones are zero), and until every entry of a
    term is below rounding of the partial sum; the result is squared s
    times.  All terms and products are nonnegative.
    """
    d = Q.shape[0]
    lam = -float(Q.diagonal().min())
    if lam <= 0.0 or t <= 0.0:
        return np.eye(d)
    squarings = max(0, int(np.ceil(np.log2(lam * t))))
    x = lam * t / 2.0**squarings
    P = np.eye(d) + Q / lam
    term = np.eye(d)
    total = np.eye(d)
    n, eps = 0, np.finfo(float).eps
    while n < d and term.any() or (term > eps * total).any():
        n += 1
        term = (term @ P) * (x / n)
        total += term
    out = np.exp(-x) * total
    for _ in range(squarings):
        out = out @ out
    return out


def _normalized_levels(S: np.ndarray, t: float, event: str = "") -> np.ndarray:
    """S divided in place by its mass; EmptyLevelSet names t if some law has none."""
    mass = _mass(S)
    if not mass.min() > 0.0:
        raise EmptyLevelSet(f"{event}t = {t}: no mass on the observed level")
    S /= mass
    return S


def evolve_noiseless_ensemble(
    priors: np.ndarray, state_paths, grid, model: HmmModel, observer=None
) -> np.ndarray:
    """Exact conditional laws for noiseless observation Y_t = h(X_t) at the grid times.

    priors is (k, d) or (k, P, d) as in evolve_ensemble, state_paths a
    sequence of P paths on a common horizon T, and grid the rising times
    0 = t_0 < ... < t_n = T (within 1e-9 T).  The law at t = 0 is each prior
    conditioned on the observed initial level, since Y_0 = h(X_0) is data.
    Each interval is one product of the state-major (d, k, P) array with
    G = expm(A_in h), one per distinct length h, where A_in = A within the
    level sets of h and 0 across them: the chain killed at an observed level
    change.  A path's column whose level changes in (t_k, t_{k+1}] (a change
    on t_{k+1} included) is redone: expm(A_in (tau - t)) to the change time
    tau, the flux pi+(y) propto sum_x pi(x) A(x, y) over y in the new level,
    and on to t_{k+1}.  Nothing is discretized, so any grid gives the same
    laws at its times up to rounding, at a cost that scales with the level
    changes.  The unnormalized law is a positive linear map of the prior, so
    p_0 <= C q_0 gives p_t <= C q_t: absolute continuity checked at the grid
    times holds between them.  observer(step, S) sees the (d, k, P) laws at
    t_step, and the states are returned, as in evolve_ensemble.  Raises
    EmptyLevelSet, naming the time, when no mass is left on the observed
    level at a grid time or a redo, and GridMismatch for any other grid.
    """
    priors = _path_priors(priors, len(state_paths), model.d)
    T = state_paths[0].T
    if any(sp.T != T for sp in state_paths):
        raise GridMismatch("state paths have different horizons")
    grid = np.array(grid, dtype=float, ndmin=1)
    spans = np.diff(grid)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or not spans.min() > 0.0 or not abs(grid[-1] - T) <= 1e-9 * T:
        raise GridMismatch(f"the grid must rise from 0 to the horizon T = {T}")

    same = _same_level(model.H)
    A_in = np.where(same, model.A, 0.0)
    G = {h: _subgenerator_expm(A_in, h) for h in set(spans.tolist())}  # no np.unique: it imports numpy.ma

    # events[step][path]: the path's observed level changes (tau, new state)
    events: dict[int, dict[int, list]] = {}
    for p, sp in enumerate(state_paths):
        changes = np.flatnonzero(~same[sp.states[:-1], sp.states[1:]]) + 1
        steps = np.searchsorted(grid, sp.jump_times[changes], side="left") - 1
        for j, step in zip(changes, np.maximum(steps, 0)):
            if step < len(spans):
                events.setdefault(int(step), {}).setdefault(p, []).append((float(sp.jump_times[j]), int(sp.states[j])))

    x0 = [sp.states[0] for sp in state_paths]
    S = _normalized_levels(np.ascontiguousarray(priors.transpose(2, 0, 1)) * same[x0].T[:, None, :], 0)
    if observer is not None:
        observer(0, S)
    for step in range(len(spans)):
        t_start, t_end = float(grid[step]), float(grid[step + 1])
        new = np.einsum("xy,xkn->ykn", G[t_end - t_start], S)
        for p, changes in events.get(step, {}).items():
            pi, t = S[:, :, p], t_start
            for tau, x in changes:
                pi = _normalized_levels(np.einsum("xy,xk->yk", _subgenerator_expm(A_in, tau - t), pi), tau)
                pi = _normalized_levels(np.einsum("xy,xk->yk", model.A, pi) * same[x][:, None], tau, "level jump at ")
                t = tau
            new[:, :, p] = np.einsum("xy,xk->yk", _subgenerator_expm(A_in, t_end - t), pi)
        S = _normalized_levels(new, t_end)
        if observer is not None:
            observer(step + 1, S)
    return S.transpose(2, 1, 0)
