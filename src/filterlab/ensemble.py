"""Reproducible Monte Carlo ensembles of signal paths and filter statistics.

Every path owns the random stream (master_seed, stream_offset + path_index),
so its draws depend only on its index.  sample_path_batch is the one
sampler: it samples its paths with one Generator re-keyed per path, and
builds the grid, the initial law's CDF and the jump tables once; each path
equals a one-path batch on its stream, bit for bit.  All paths of an
ensemble, and any extra paths sampled under nu for their nu-filters, are
filtered in one lockstep pass; ensemble reductions happen once, in
path-index order.  The divergence observer copies each step's filter pairs
into a state-major (d, 2, steps, P) block and computes chi2, kl, tv and
the signal and drift integrals once per block of steps; the values equal
those of a reduction at every step, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSeries, _divergences, chi2_drift_batch
from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, NonPositiveNoise
from .filtering import _BLOCK_STEPS, evolve_ensemble, evolve_noiseless_ensemble
from .model import HmmModel, as_simplex
from .sim import (
    StatePath,
    _draw,
    _fill_increments,
    _grid_steps,
    _jump_chain,
    _jump_tables,
    _rekey,
    spawn_rng,
)

__all__ = [
    "PathBatch",
    "sample_path_batch",
    "EnsembleDivergence",
    "run_divergence_ensemble",
]


@dataclass(frozen=True)
class PathBatch:
    """A block of independent signal paths with their observation increments.

    increments has shape (n_paths, n_steps, m); state_paths[i] generated the
    i-th row.  For a noiseless model increments is None: the observation
    h(X_t) is read off state_paths, so no increments are integrated.
    """

    state_paths: tuple[StatePath, ...]
    increments: np.ndarray | None
    dt: float

    @property
    def n_paths(self) -> int:
        return len(self.state_paths)

    @property
    def initial_states(self) -> np.ndarray:
        return np.array([sp.states[0] for sp in self.state_paths], dtype=int)


def sample_path_batch(
    model: HmmModel,
    n_paths: int,
    T: float,
    dt: float,
    master_seed: int,
    initial_law=None,
    initial_state: int | None = None,
    stream_offset: int = 0,
) -> PathBatch:
    """Sample n_paths signal paths and observation paths with owned streams.

    Path i uses the stream (master_seed, stream_offset + i) for its initial
    state (from initial_law, unless initial_state pins it), its jump
    skeleton, and its observation noise (none for a noiseless model, whose
    batch carries no increments), drawn in that order from the start of
    the stream.  Either initial_law or initial_state must be given, and T
    must be positive and dt divide it within 1e-9 (GridMismatch otherwise,
    for every model).
    """
    if (initial_law is None) == (initial_state is None):
        raise DimensionMismatch("give exactly one of initial_law, initial_state")
    n_steps = _grid_steps(T, dt)
    if initial_state is not None and not 0 <= initial_state < model.d:
        raise DimensionMismatch(f"x0 = {initial_state} outside state space of size {model.d}")
    cdf = None if initial_law is None else np.cumsum(as_simplex(initial_law, d=model.d)).tolist()
    tables = _jump_tables(model.A)
    T = float(T)
    grid = np.arange(n_steps + 1) * dt
    scale = model.r * np.sqrt(dt)
    increments = None if model.noiseless else np.empty((n_paths, n_steps, model.m))
    rng = spawn_rng(master_seed, stream_offset).generator()
    paths = []
    for i in range(n_paths):
        _rekey(rng, master_seed, stream_offset + i)
        x0 = int(initial_state) if cdf is None else _draw(cdf, rng)
        paths.append(_jump_chain(tables, x0, T, rng))
        if increments is not None:
            _fill_increments(increments[i], paths[i], model.H, grid, scale, rng)
    return PathBatch(state_paths=tuple(paths), increments=increments, dt=float(dt))


@dataclass(frozen=True)
class EnsembleDivergence:
    """Divergence series between two filters over a path ensemble.

    series holds per-path chi2/kl/tv.  signal_integral[i, k] is the running
    integral of |pi_s^mu(h/r) - pi_s^nu(h/r)|^2 up to time t_k along path i (the
    quantity in the pathwise relative-entropy identity); drift_integral is
    the integrated chi-square drift, present only when recorded.
    terminal_pis stacks the final filter states as (n_paths, 2, d) in the
    order (from_mu, from_nu).  nu_filters holds the nu-filter states
    (nu_paths, n + 1, d) of the extra paths sampled under nu.
    """

    series: DivergenceSeries
    signal_integral: np.ndarray | None
    drift_integral: np.ndarray | None
    terminal_pis: np.ndarray | None
    initial_states: np.ndarray
    nu_filters: np.ndarray | None = None


def run_divergence_ensemble(
    model: HmmModel,
    mu,
    nu,
    n_paths: int,
    T: float,
    dt: float,
    master_seed: int,
    record_drift: bool = False,
    nu_paths: int = 0,
) -> EnsembleDivergence:
    """Divergence series between the filters started from mu and nu.

    Signal paths are sampled under mu.  nu_paths more paths, sampled under
    nu on the streams n_paths .. n_paths + nu_paths - 1, ride in the same
    engine call with nu in both prior slots (mu need not charge the class
    or level a nu path is in, and its filter could lose all mass there);
    their nu-filter states come back as nu_filters, and the divergences,
    terminal_pis and initial_states cover the mu paths only.  A noiseless
    model routes every path through the exact level-set filter (drift
    recording is not defined there).  The observer copies each step's
    filter pairs into a state-major block of _BLOCK_STEPS steps and reduces
    the block at once; an AbsoluteContinuityViolation is raised by the
    flush of its block, which runs before any later error of the engine
    propagates.
    """
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    if model.noiseless and record_drift:
        raise NonPositiveNoise("drift recording needs a noisy observation model")
    n_steps = _grid_steps(T, dt)
    batch = sample_path_batch(model, n_paths, T, dt, master_seed, initial_law=mu)
    extra = sample_path_batch(model, nu_paths, T, dt, master_seed, initial_law=nu, stream_offset=n_paths)
    nu_filters = np.empty((nu_paths, n_steps + 1, model.d))
    chi2_v = np.empty((n_paths, n_steps + 1))
    kl_v = np.empty((n_paths, n_steps + 1))
    tv_v = np.empty((n_paths, n_steps + 1))
    signal = None if model.noiseless else np.empty((n_paths, n_steps + 1))
    drift = np.empty((n_paths, n_steps + 1)) if record_drift else None
    hu = model.h_unit
    signal_acc = np.zeros(n_paths)
    drift_acc = np.zeros(n_paths)
    block = np.empty((model.d, 2, min(_BLOCK_STEPS, n_steps + 1), n_paths))
    done = seen = 0  # steps done .. seen - 1 wait in block

    def flush() -> None:
        nonlocal done
        k0, k1 = done, seen
        done = seen
        pq = block[:, :, : k1 - k0]
        for out, v in zip((chi2_v, kl_v, tv_v), _divergences(pq[:, 0], pq[:, 1])):
            out[:, k0:k1] = v.T
        if signal is None:
            return
        # the pairs of the steps before n_steps start an integral increment
        p, q = np.moveaxis(pq[:, :, : min(k1, n_steps) - k0], 0, -1)
        _accumulate(signal, signal_acc, k0, (((p - q) @ hu) ** 2).sum(axis=-1) * dt)
        if drift is not None:
            _accumulate(drift, drift_acc, k0, chi2_drift_batch(p, q, model) * dt)

    def observer(step: int, t: float, pis: np.ndarray) -> None:
        nonlocal seen
        block[:, :, step - done] = pis[:n_paths].transpose(2, 1, 0)
        nu_filters[:, step] = pis[n_paths:, 1]
        seen = step + 1
        if seen - done == block.shape[2] or step == n_steps:
            flush()

    pairs = np.repeat(np.stack([mu, nu])[:, None], n_paths, axis=1)
    priors = np.concatenate([pairs, np.broadcast_to(nu, (2, nu_paths, model.d))], axis=1)
    try:
        if model.noiseless:
            paths = batch.state_paths + extra.state_paths
            terminal = evolve_noiseless_ensemble(priors, paths, dt, model, observer=observer)
        else:
            increments = np.concatenate([batch.increments, extra.increments])
            terminal = evolve_ensemble(priors, increments, dt, model, observer=observer)
    except (DegenerateMass, EmptyLevelSet):
        # an earlier step's AbsoluteContinuityViolation wins over the engine's error
        if seen > done:
            flush()
        raise

    times = np.arange(n_steps + 1) * dt
    series = DivergenceSeries(times=times, chi2=chi2_v, kl=kl_v, tv=tv_v)
    return EnsembleDivergence(
        series=series,
        signal_integral=signal,
        drift_integral=drift,
        terminal_pis=terminal[:n_paths],
        initial_states=batch.initial_states,
        nu_filters=nu_filters,
    )


def _accumulate(out: np.ndarray, acc: np.ndarray, k0: int, increments: np.ndarray) -> None:
    """Write the running integral acc (+ increments) into out's columns from k0.

    Column k0 + i gets acc plus the first i increment rows; acc then holds
    the sum after the last row.  The cumsum seeded with acc adds in the order
    of acc += x step by step, so the values are bitwise the same.
    """
    run = np.cumsum(np.concatenate([acc[None], increments]), axis=0)
    out[:, k0 : k0 + run.shape[0]] = run.T
    acc[:] = run[-1]
