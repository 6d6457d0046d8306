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
by all paths or one per path, and every noisy pipeline calls it;
wonham_step is one step broadcast over leading axes.

For exactly noiseless observations (r = 0), evolve_noiseless_ensemble
computes the conditional law exactly over a path ensemble, with priors
shared or per path as well.  Between observed level changes the
unnormalized law is pi_tau expm(A_LL (t - tau)), with A_LL the generator
restricted to the observed level set L of h; at an observed level change
mass moves along the generator's cross-level flux into the new level.

All exponentials come from numpy uniformization with scaling and squaring:
its terms are nonnegative, so it has no cancellation, and it keeps
scipy.linalg (about 10 MB of resident memory and a quarter second of import
time) out of the simulate path.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, GridMismatch, NonPositiveNoise
from .model import HmmModel, as_simplex
from .sim import _grid_steps

__all__ = ["wonham_step", "evolve_ensemble", "evolve_noiseless_ensemble"]

# Steps per block: the splitting kernel exponentiates its correction, and the
# divergence ensemble reduces its divergences, once per block.  16 keeps peak
# RSS flat on the benchmark sweeps; 32 and 128 add about 0.5 and 6 MB there.
_BLOCK_STEPS = 16


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... added in row order.

    A sum over the leading (state) axis of a state-major array; for fewer
    than 8 rows it is bitwise equal to .sum over a trailing state axis.
    """
    acc = x[0].copy()
    for row in x[1:]:
        acc += row
    return acc


def _split_steps(S: np.ndarray, increments: np.ndarray, dt: float, model: HmmModel, observer=None):
    """Advance the state-major array S (d, k, P) through increments (P, n, m).

    The correction exponent of a block of _BLOCK_STEPS steps is computed in
    (b, d, P) layout, shifted by its per-(step, path) maximum and
    exponentiated at once; each step shares its (d, P) slice by the k priors.
    observer(step, t, pis) gets the (P, k, d) view of the states at step 0
    and after every update.  Returns the terminal array.
    """
    E = _subgenerator_expm(model.A, dt)
    hu = model.h_unit
    gain = hu / model.r
    half = 0.5 * dt * (hu**2).sum(axis=1)[:, None]
    if observer is not None:
        observer(0, 0.0, S.transpose(2, 1, 0))
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
            mass = _sum_rows(S)
            if not mass.min() > 0.0:
                raise DegenerateMass(f"step {step}: filter mass vanished; check the increments")
            S /= mass
            if observer is not None:
                observer(step + 1, (step + 1) * dt, S.transpose(2, 1, 0))
    return S


def _path_priors(priors, n_paths: int, d: int) -> np.ndarray:
    """Priors (k, d), shared by all paths, or (k, P, d), one row per path,
    as a validated (k, P, d) array; each distinct row is checked once."""
    priors = np.asarray(priors, float)
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
    and increments (P, n_steps, m).  observer(step, t, pis) is
    called with step = 0 at t = 0 and then after every update; pis is the
    (P, k, d) view of the state-major array and must not be mutated.
    Returns the terminal states as such a view.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use evolve_noiseless_ensemble")
    if increments.ndim != 3 or increments.shape[2] != model.m:
        raise DimensionMismatch(f"increments must be (P, n_steps, {model.m}), got {increments.shape}")
    S = np.ascontiguousarray(_path_priors(priors, increments.shape[0], model.d).transpose(2, 0, 1))
    return _split_steps(S, increments, dt, model, observer).transpose(2, 1, 0)


def _subgenerator_expm(Q: np.ndarray, t: float) -> np.ndarray:
    """exp(Q t) for a sub-generator Q (off-diagonal >= 0, row sums <= 0).

    Uniformization (Jensen's method): with lam = max_x -Q(x, x) and the
    substochastic P = I + Q / lam, exp(Q t) = e^{-lam t} sum_n (lam t)^n / n!
    P^n.  The series runs on t / 2^s with lam t / 2^s <= 1 until every entry
    of a term is below rounding of the partial sum, and the result is
    squared s times.  All terms and products are nonnegative.
    """
    d = Q.shape[0]
    lam = float(np.max(-np.diag(Q)))
    if lam <= 0.0 or t <= 0.0:
        return np.eye(d)
    squarings = max(0, int(np.ceil(np.log2(lam * t))))
    x = lam * t / 2.0**squarings
    P = np.eye(d) + Q / lam
    term = np.eye(d)
    total = np.eye(d)
    n = 0
    while n < d or np.any(term > np.finfo(float).eps * total):
        n += 1
        term = (term @ P) * (x / n)
        total += term
    out = np.exp(-x) * total
    for _ in range(squarings):
        out = out @ out
    return out


def _level_propagator(A: np.ndarray, level: np.ndarray, t: float) -> np.ndarray:
    """expm(A_LL t) embedded as a d x d matrix that is zero outside L x L."""
    idx = np.flatnonzero(level)
    out = np.zeros(A.shape)
    out[np.ix_(idx, idx)] = _subgenerator_expm(A[np.ix_(idx, idx)], t)
    return out


def _normalized(pis: np.ndarray, context: str) -> np.ndarray:
    mass = pis.sum(axis=-1)
    if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
        raise EmptyLevelSet(f"{context}: no mass on the observed level")
    return pis / mass[..., None]


def evolve_noiseless_ensemble(
    priors: np.ndarray,
    state_paths,
    dt: float,
    model: HmmModel,
    observer=None,
) -> np.ndarray:
    """Exact conditional laws for noiseless observation Y_t = h(X_t).

    priors is (k, d) or (k, P, d) as in evolve_ensemble, and state_paths a
    sequence of P paths on a common horizon T; the filter state array has
    shape (P, k, d).  The law at t = 0 is each prior conditioned on the
    observed initial level, since Y_0 = h(X_0) is data.  Each grid step is one batched product with the
    precomputed propagator expm(A_LL dt) of every path's current level L.
    The few paths whose observed level changes in (t_k, t_{k+1}] are redone
    exactly: propagate to the change time tau with the level's semigroup,
    move mass along the flux pi+(y) propto sum_x pi(x) A(x, y) over y in the
    new level, and continue to t_{k+1}.  A change landing exactly on a grid
    point belongs to the earlier step.  observer(step, t, pis) is called as
    in evolve_ensemble.  Returns the terminal state array.  Raises
    EmptyLevelSet when conditioning annihilates all mass (the model cannot
    produce the observed level), naming the time, and GridMismatch when dt
    does not divide T.
    """
    priors = _path_priors(priors, len(state_paths), model.d).transpose(1, 0, 2)
    A, H = model.A, model.H
    T = state_paths[0].T
    if any(sp.T != T for sp in state_paths):
        raise GridMismatch("state paths have different horizons")
    n_steps = _grid_steps(T, dt)
    grid = np.arange(n_steps + 1) * dt

    same = np.all(H[:, None, :] == H[None, :, :], axis=-1)
    reps, level_of = np.unique(same.argmax(axis=1), return_inverse=True)
    levels = same[reps]
    props = np.stack([_level_propagator(A, lv, dt) for lv in levels])

    # events[step][path]: the path's observed level changes (tau, new level)
    events: dict[int, dict[int, list]] = {}
    for p, sp in enumerate(state_paths):
        lv = level_of[sp.states]
        changes = np.flatnonzero(lv[1:] != lv[:-1]) + 1
        steps = np.searchsorted(grid, sp.jump_times[changes], side="left") - 1
        for j, step in zip(changes, np.maximum(steps, 0)):
            if step < n_steps:
                per_path = events.setdefault(int(step), {}).setdefault(p, [])
                per_path.append((float(sp.jump_times[j]), int(lv[j])))

    level = np.array([level_of[sp.states[0]] for sp in state_paths])
    pis = _normalized(priors * levels[level][:, None, :], "t = 0")
    if observer is not None:
        observer(0, 0.0, pis)
    for step in range(n_steps):
        t_end = float(grid[step + 1])
        new = pis @ props[level]
        for p, changes in events.get(step, {}).items():
            pi, t, lv = pis[p], float(grid[step]), level[p]
            for tau, to_level in changes:
                if tau > t:
                    pi = _normalized(pi @ _level_propagator(A, levels[lv], tau - t), f"t = {tau}")
                pi = _normalized((pi @ A) * levels[to_level], f"level jump at t = {tau}")
                t, lv = tau, to_level
            new[p] = pi @ _level_propagator(A, levels[lv], t_end - t) if t_end > t else pi
            level[p] = lv
        pis = _normalized(new, f"t = {t_end}")
        if observer is not None:
            observer(step + 1, t_end, pis)
    return pis
