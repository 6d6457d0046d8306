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
batch.

For exactly noiseless observations (r = 0) the conditional law is computed
exactly.  Between observed level changes the unnormalized law is
pi_tau expm(A_LL (t - tau)), with A_LL the generator restricted to the
observed level set L of h; at an observed level change mass moves along
the generator's cross-level flux into the new level.

All exponentials come from numpy uniformization with scaling and squaring:
its terms are nonnegative, so it has no cancellation, and it keeps
scipy.linalg (about 10 MB of resident memory and a quarter second of import
time) out of the simulate path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, GridMismatch, NonPositiveNoise
from .model import HmmModel, _read_table, _write_table, as_simplex
from .sim import ObservationPath, StatePath, _grid_steps

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

    Each step computes the (d, P) correction once and shares it by the k
    priors; its exponent is shifted by the per-path maximum before exp.
    observer(step, t, pis) gets the (P, k, d) view of the states at step 0
    and after every update.  Returns the terminal array.
    """
    E = _subgenerator_expm(model.A, dt)
    hu = model.h_unit
    gain = hu / model.r
    half = 0.5 * dt * (hu**2).sum(axis=1)[:, None]
    if observer is not None:
        observer(0, 0.0, S.transpose(2, 1, 0))
    for step in range(increments.shape[1]):
        dz = increments[:, step, :]
        lw = gain[:, :1] * dz[:, 0]
        for j in range(1, model.m):
            lw += gain[:, j : j + 1] * dz[:, j]
        lw -= half
        lw -= lw.max(axis=0)
        S = np.einsum("xy,xkn->ykn", E, S)
        S *= np.exp(lw, out=lw)[:, None, :]
        mass = _sum_rows(S)
        if not mass.min() > 0.0:
            raise DegenerateMass(f"step {step}: filter mass vanished; check the increments")
        S /= mass
        if observer is not None:
            observer(step + 1, (step + 1) * dt, S.transpose(2, 1, 0))
    return S


def wonham_step(pi: np.ndarray, dz: np.ndarray, dt: float, model: HmmModel) -> np.ndarray:
    """One splitting step of the conditional law, broadcast over leading axes.

    pi has shape (..., d) on the simplex, dz shape (..., m) in raw
    observation units.  Raises DegenerateMass if the update has no positive
    finite mass (non-finite inputs) and NonPositiveNoise on a noiseless
    model, which must use run_exact_noiseless_filter instead.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use run_exact_noiseless_filter")
    pi, dz = np.asarray(pi, dtype=float), np.asarray(dz, dtype=float)
    d, m = model.d, model.m
    if pi.shape[-1] != d or dz.shape[-1] != m:
        raise DimensionMismatch(f"pi (..., {d}) and dz (..., {m}) required, got {pi.shape} and {dz.shape}")
    lead = np.broadcast_shapes(pi.shape[:-1], dz.shape[:-1])
    S = np.broadcast_to(pi, lead + (d,)).reshape(-1, 1, d).T.copy()
    inc = np.broadcast_to(dz, lead + (m,)).reshape(-1, 1, m)
    return _split_steps(S, inc, dt, model).T.reshape(lead + (d,))


def run_filter(prior, obs: ObservationPath, model: HmmModel, label: str = ""):
    """Evolve one or several priors through one observation path.

    A single prior (d,) returns one FilterTrajectory; a stack (k, d) returns
    a list of k trajectories.  This is evolve_ensemble on one path, so a
    DegenerateMass failure names the failing step index.
    """
    prior = np.asarray(prior, dtype=float)
    priors = np.atleast_2d(prior)
    pis = np.empty((obs.n_steps + 1,) + priors.shape)

    def record(step, t, view):
        pis[step] = view[0]

    evolve_ensemble(priors, obs.increments[None], obs.dt, model, observer=record)
    trajs = [FilterTrajectory(dt=obs.dt, pis=pis[:, i].copy(), label=label) for i in range(len(priors))]
    return trajs[0] if prior.ndim == 1 else trajs


def evolve_ensemble(
    priors: np.ndarray, increments: np.ndarray, dt: float, model: HmmModel, observer=None
) -> np.ndarray:
    """Evolve k priors through P observation paths in lockstep.

    priors is (k, d), increments (P, n_steps, m).  observer(step, t, pis) is
    called with step = 0 at t = 0 and then after every update; pis is the
    (P, k, d) view of the state-major array and must not be mutated.
    Returns the terminal states as such a view.
    """
    if model.noiseless:
        raise NonPositiveNoise("noiseless model: use evolve_noiseless_ensemble")
    priors = np.stack([as_simplex(p, d=model.d) for p in np.asarray(priors, float)])
    if increments.ndim != 3 or increments.shape[2] != model.m:
        raise DimensionMismatch(f"increments must be (P, n_steps, {model.m}), got {increments.shape}")
    S = np.repeat(priors.T[:, :, None], increments.shape[0], axis=2)
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

    The single-path trajectory of evolve_noiseless_ensemble, with its
    semantics and errors; pis[0] is the prior conditioned on the initial
    observed level.
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
