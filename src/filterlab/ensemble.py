"""Reproducible Monte Carlo ensembles of signal paths and filter statistics.

Every path owns the random stream (master_seed, stream_offset + path_index),
so its draws depend only on its index.  All paths of an ensemble are
filtered in one lockstep pass, and ensemble reductions happen once, in
path-index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSeries, _divergence_batch, chi2_drift_batch
from .errors import DimensionMismatch, NonPositiveNoise
from .filtering import evolve_ensemble, evolve_noiseless_ensemble
from .model import HmmModel, as_simplex
from .sim import (
    StatePath,
    integrate_observation,
    sample_ctmc_path,
    sample_initial_state,
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
    def terminal_states(self) -> np.ndarray:
        return np.array([sp.states[-1] for sp in self.state_paths], dtype=int)

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
    batch carries no increments).  Either initial_law or initial_state must
    be given.
    """
    if (initial_law is None) == (initial_state is None):
        raise DimensionMismatch("give exactly one of initial_law, initial_state")
    law = None if initial_law is None else as_simplex(initial_law, d=model.d)
    n_steps = int(round(T / dt))
    paths = []
    increments = None if model.noiseless else np.empty((n_paths, n_steps, model.m))
    for i in range(n_paths):
        rng = spawn_rng(master_seed, stream_offset + i).generator()
        x0 = initial_state if law is None else sample_initial_state(law, rng, model.d)
        paths.append(sample_ctmc_path(model.A, int(x0), T, rng))
        if increments is not None:
            increments[i] = integrate_observation(paths[i], model, dt, rng).increments
    return PathBatch(state_paths=tuple(paths), increments=increments, dt=float(dt))


@dataclass(frozen=True)
class EnsembleDivergence:
    """Divergence series between two filters over a path ensemble.

    series holds per-path chi2/kl/tv.  signal_integral[i, k] is the running
    integral of |pi_s^mu(h/r) - pi_s^nu(h/r)|^2 up to time t_k along path i (the
    quantity in the pathwise relative-entropy identity); drift_integral is
    the integrated chi-square drift, present only when recorded.
    terminal_pis stacks the final filter states as (n_paths, 2, d) in the
    order (from_mu, from_nu).
    """

    series: DivergenceSeries
    signal_integral: np.ndarray | None
    drift_integral: np.ndarray | None
    terminal_pis: np.ndarray | None
    initial_states: np.ndarray


def run_divergence_ensemble(
    model: HmmModel,
    mu,
    nu,
    n_paths: int,
    T: float,
    dt: float,
    master_seed: int,
    record_drift: bool = False,
) -> EnsembleDivergence:
    """Divergence series between the filters started from mu and nu.

    Signal paths are sampled under mu.  A noiseless model routes every path
    through the exact level-set filter (drift recording is not defined
    there).
    """
    mu = as_simplex(mu, d=model.d)
    nu = as_simplex(nu, d=model.d)
    if model.noiseless and record_drift:
        raise NonPositiveNoise("drift recording needs a noisy observation model")
    n_steps = int(round(T / dt))
    batch = sample_path_batch(model, n_paths, T, dt, master_seed, initial_law=mu)
    chi2_v = np.empty((n_paths, n_steps + 1))
    kl_v = np.empty((n_paths, n_steps + 1))
    tv_v = np.empty((n_paths, n_steps + 1))
    signal = None if model.noiseless else np.empty((n_paths, n_steps + 1))
    drift = np.empty((n_paths, n_steps + 1)) if record_drift else None
    hu = model.h_unit
    signal_acc = np.zeros(n_paths)
    drift_acc = np.zeros(n_paths)

    def observer(step: int, t: float, pis: np.ndarray) -> None:
        p, q = pis[:, 0, :], pis[:, 1, :]
        chi2_v[:, step], kl_v[:, step], tv_v[:, step] = _divergence_batch(p, q)
        if signal is None:
            return
        signal[:, step] = signal_acc
        if drift is not None:
            drift[:, step] = drift_acc
        if step < n_steps:
            gap = (p - q) @ hu
            signal_acc[:] += (gap**2).sum(axis=1) * dt
            if drift is not None:
                drift_acc[:] += chi2_drift_batch(p, q, model) * dt

    priors = np.stack([mu, nu])
    if model.noiseless:
        terminal = evolve_noiseless_ensemble(priors, batch.state_paths, dt, model, observer=observer)
    else:
        terminal = evolve_ensemble(priors, batch.increments, dt, model, observer=observer)

    times = np.arange(n_steps + 1) * dt
    series = DivergenceSeries(times=times, chi2=chi2_v, kl=kl_v, tv=tv_v)
    return EnsembleDivergence(
        series=series,
        signal_integral=signal,
        drift_integral=drift,
        terminal_pis=terminal,
        initial_states=batch.initial_states,
    )
