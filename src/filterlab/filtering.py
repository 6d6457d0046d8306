"""Conditional-law evolution given the observation record.

The conditional distribution pi_t of the hidden state solves a d-dimensional
stochastic differential equation driven by the observation.  In unit-noise
form (observation function hu = H/r) the Euler scheme per grid step is

    pi' = pi + dt * A^T pi + G(pi) (dZ/r - pi(hu) dt),
    G(pi)(x) = pi(x) (hu(x) - pi(hu))^T,

followed by clipping negative entries at zero and renormalizing.  The gain
rows sum to zero, which preserves total mass exactly; clipping therefore
never empties the simplex unless the inputs are already non-finite, but the
guard stays in place because a failure there is unrecoverable.

All stepping routines broadcast over arbitrary leading axes, so one pass can
evolve several priors on one observation path, or a whole ensemble of paths,
at identical per-path results.

For exactly noiseless observations (r = 0) the conditional law is computed
exactly, without time discretization.  Between observed level changes the
unnormalized law is pi_tau expm(A_LL (t - tau)), where A_LL is the generator
restricted to the observed level set L of h; at an observed level change
mass moves along the generator's cross-level flux into the new level.  The
restricted exponentials are computed in numpy by uniformization with
scaling and squaring: every term of that series is nonnegative, so it has
no cancellation, and it keeps scipy.linalg (about 10 MB of resident memory
and a quarter second of import time) out of the simulate path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, GridMismatch, NonPositiveNoise
from .model import HmmModel, _read_table, _write_table, as_simplex
from .sim import ObservationPath, StatePath

__all__ = [
    "FilterTrajectory",
    "ConditionalMoments",
    "wonham_step",
    "run_filter",
    "evolve_ensemble",
    "evolve_noiseless_ensemble",
    "run_exact_noiseless_filter",
    "conditional_moments",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

GAIN_TOL = 1e-12


@dataclass(frozen=True)
class FilterTrajectory:
    """Filter states on the uniform grid: pis[k] is the law at time k * dt."""

    dt: float
    pis: np.ndarray
    label: str = ""

    @property
    def n_steps(self) -> int:
        return self.pis.shape[0] - 1

    @property
    def d(self) -> int:
        return self.pis.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.pis.shape[0]) * self.dt


@dataclass(frozen=True)
class ConditionalMoments:
    """First and second conditional moments of f (and optionally g) under pi."""

    mean: float
    variance: float
    covariance: float | np.ndarray | None = None


def _degenerate(mass: np.ndarray) -> bool:
    return bool(np.any(~np.isfinite(mass)) or np.any(mass <= 0.0))


def wonham_step(
    pi: np.ndarray,
    dz: np.ndarray,
    dt: float,
    model: HmmModel,
) -> np.ndarray:
    """One Euler step of the conditional law, broadcast over leading axes.

    pi has shape (..., d) on the simplex, dz shape (..., m) in raw
    observation units.  Raises DegenerateMass if the clipped update has no
    mass left (dt too large relative to |h|/r) and NonPositiveNoise on a
    noiseless model, which must use run_exact_noiseless_filter instead.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use run_exact_noiseless_filter")
    pi = np.asarray(pi, dtype=float)
    dz = np.asarray(dz, dtype=float)
    hu = model.h_unit
    if pi.shape[-1] != model.d or dz.shape[-1] != model.m:
        raise DimensionMismatch(
            f"pi (..., {model.d}) and dz (..., {model.m}) required, "
            f"got {pi.shape} and {dz.shape}"
        )
    pih = pi @ hu
    gain_sums = (pi[..., None] * (hu - pih[..., None, :])).sum(axis=-2)
    worst = float(np.max(np.abs(gain_sums))) if gain_sums.size else 0.0
    if worst > GAIN_TOL:
        raise DegenerateMass(f"gain rows sum to {worst:.3e} > {GAIN_TOL}")
    innov = dz / model.r - pih * dt
    signal = innov @ hu.T - (pih * innov).sum(axis=-1)[..., None]
    new = pi + dt * (pi @ model.A) + pi * signal
    new = np.clip(new, 0.0, None)
    mass = new.sum(axis=-1)
    if _degenerate(mass):
        raise DegenerateMass("filter mass vanished; reduce dt or check inputs")
    return new / mass[..., None]


def run_filter(
    prior,
    obs: ObservationPath,
    model: HmmModel,
    label: str = "",
):
    """Evolve one or several priors through one observation path.

    A single prior (d,) returns one FilterTrajectory; a stack (k, d) returns
    a list of k trajectories computed in one pass on shared innovations.
    DegenerateMass failures are re-raised with the failing step index.
    """
    prior = np.asarray(prior, dtype=float)
    single = prior.ndim == 1
    priors = prior[None, :] if single else prior
    priors = np.stack([as_simplex(p, d=model.d) for p in priors])
    if obs.m != model.m:
        raise DimensionMismatch(f"obs has m = {obs.m}, model has m = {model.m}")
    k = priors.shape[0]
    pis = np.empty((obs.n_steps + 1, k, model.d))
    pis[0] = priors
    cur = priors
    for step in range(obs.n_steps):
        try:
            cur = wonham_step(cur, obs.increments[step][None, :], obs.dt, model)
        except DegenerateMass as exc:
            raise DegenerateMass(f"step {step}: {exc}") from exc
        pis[step + 1] = cur
    trajs = [
        FilterTrajectory(dt=obs.dt, pis=pis[:, i, :].copy(), label=label)
        for i in range(k)
    ]
    return trajs[0] if single else trajs


def evolve_ensemble(
    priors: np.ndarray,
    increments: np.ndarray,
    dt: float,
    model: HmmModel,
    observer=None,
) -> np.ndarray:
    """Evolve k priors through P observation paths in lockstep.

    priors is (k, d), increments (P, n_steps, m); the filter state array has
    shape (P, k, d) throughout.  observer(step, t, pis) is called once with
    step = 0 at t = 0 and then after every update; it must not mutate pis.
    Returns the terminal state array.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use evolve_noiseless_ensemble")
    priors = np.stack([as_simplex(p, d=model.d) for p in np.asarray(priors, float)])
    if increments.ndim != 3 or increments.shape[2] != model.m:
        raise DimensionMismatch(
            f"increments must be (P, n_steps, {model.m}), got {increments.shape}"
        )
    n_paths, n_steps, _ = increments.shape
    pis = np.broadcast_to(priors[None, :, :], (n_paths,) + priors.shape).copy()
    if observer is not None:
        observer(0, 0.0, pis)
    for step in range(n_steps):
        try:
            pis = wonham_step(pis, increments[:, step, :][:, None, :], dt, model)
        except DegenerateMass as exc:
            raise DegenerateMass(f"step {step}: {exc}") from exc
        if observer is not None:
            observer(step + 1, (step + 1) * dt, pis)
    return pis


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

    priors is (k, d) and state_paths a sequence of P paths on a common
    horizon T; the filter state array has shape (P, k, d).  The law at t = 0
    is each prior conditioned on the observed initial level, since
    Y_0 = h(X_0) is data.  Each grid step is one batched product with the
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
    priors = np.stack([as_simplex(p, d=model.d) for p in np.asarray(priors, float)])
    A, H = model.A, model.H
    T = state_paths[0].T
    if any(sp.T != T for sp in state_paths):
        raise GridMismatch("state paths have different horizons")
    n_float = T / dt
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise GridMismatch(f"dt = {dt} does not divide T = {T}")
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
    pis = _normalized(priors[None, :, :] * levels[level][:, None, :], "t = 0")
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


def run_exact_noiseless_filter(
    prior, state_path: StatePath, model: HmmModel, dt: float = 1e-3, label: str = ""
) -> FilterTrajectory:
    """Exact conditional law for noiseless observation Y_t = h(X_t).

    The single-path trajectory of evolve_noiseless_ensemble: between
    observed level changes the law is pi_tau expm(A_LL (t - tau)) with A_LL
    the generator restricted to the observed level set, and at an observed
    level change mass moves along the generator flux into the new level:
    pi+(y) propto sum_x pi(x) A(x, y) over y in the new level.  The
    exponentials come from numpy uniformization, not scipy.linalg (see the
    module docstring).  pis[0] is the prior conditioned on the initial
    observed level.  A jump landing exactly on a grid point belongs to the
    earlier step.  Raises EmptyLevelSet when conditioning annihilates all
    mass (the model cannot produce the observed level) and GridMismatch
    when dt does not divide T.
    """
    rows = []
    evolve_noiseless_ensemble(
        np.asarray(prior, dtype=float)[None, :],
        [state_path],
        dt,
        model,
        observer=lambda step, t, pis: rows.append(pis[0, 0].copy()),
    )
    return FilterTrajectory(dt=float(dt), pis=np.stack(rows), label=label)


def conditional_moments(pi, f, g=None) -> ConditionalMoments:
    """Mean and variance of f, and covariance with g, under the law pi.

    f is (d,); g may be (d,) or (d, m), in which case the covariance is the
    m-vector of componentwise covariances.  Variance is clipped at zero to
    absorb rounding."""
    pi = as_simplex(pi)
    f = np.asarray(f, dtype=float)
    if f.shape != pi.shape:
        raise DimensionMismatch(f"f must have shape {pi.shape}, got {f.shape}")
    mean = float(pi @ f)
    variance = max(float(pi @ f**2) - mean**2, 0.0)
    covariance = None
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.ndim == 1:
            if g.shape != pi.shape:
                raise DimensionMismatch(f"g must have shape {pi.shape}, got {g.shape}")
            covariance = float(pi @ (f * g)) - mean * float(pi @ g)
        else:
            if g.shape[0] != pi.shape[0]:
                raise DimensionMismatch(f"g must have {pi.shape[0]} rows, got {g.shape}")
            covariance = (pi @ (f[:, None] * g)) - mean * (pi @ g)
    return ConditionalMoments(mean=mean, variance=variance, covariance=covariance)


def write_trajectory_csv(path: str, traj: FilterTrajectory) -> None:
    """Dump a trajectory as CSV rows (t, pi_1, ..., pi_d); floats use repr."""
    header = ["t"] + [f"pi{x + 1}" for x in range(traj.d)]
    _write_table(path, header, [traj.times, *traj.pis.T])


def read_trajectory_csv(path: str, label: str = "") -> FilterTrajectory:
    """Inverse of write_trajectory_csv (exact round trip)."""
    _, body = _read_table(path)
    if body.shape[0] < 2:
        raise GridMismatch("trajectory dump needs at least two rows")
    return FilterTrajectory(dt=float(body[1, 0] - body[0, 0]), pis=body[:, 1:], label=label)
