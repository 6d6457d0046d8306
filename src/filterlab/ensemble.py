"""Reproducible Monte Carlo ensembles of signal paths and filter statistics.

Every path owns the random stream (master_seed, stream_offset + path_index),
so each path equals a one-path batch on its stream, bit for bit.  The draws
(X_0, jump chain, unit normals) depend on neither r nor H, so a sweep draws
them once and forms each kernel block's increments from them.  All paths of
an ensemble, and any extra paths sampled under nu for their nu-filters, are
filtered in one lockstep pass; reductions add the paths in path-index order.
A pass reports every REPORT_STEPS-th step and the last, or every step under
record_integrals: the noiseless engine, exact on any grid, steps those
times, and the noisy kernel steps every dt with an absolute-continuity
check at the steps between them.  The observer copies the report points'
filter pairs into a state-major (2, d, points, P) block, allocated once per
pass with the divergences' work arrays, and reduces a full block at once:
one _mean_se over a C-contiguous (P, 3 points) stack of chi2, kl and tv, at
least 3 columns wide, so the series equal the reduction of whole (P, points)
arrays bit for bit and none is kept.  Per-path values stay only for chi2 at
t = 0 and, under record_integrals, for the chi2 and kl series and the
signal and drift integrals: the drift's trapezoid steps and one cumulative
sum along each (P, n + 1) array give a per-step running sum's bits (the
products taken on stacked (steps, P, d) pairs, as at P = 1 a 2-D (1, d)
product rounds differently).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .divergence import SUPPORT_EPS, DivergenceSeries, _divergences, _mean_se, _ratio, _work, chi2_drift_batch
from .errors import DegenerateMass, DimensionMismatch, EmptyLevelSet, NonPositiveNoise
from .filtering import _BLOCK_STEPS, evolve_ensemble, evolve_noiseless_ensemble
from .model import HmmModel, as_simplex
from .sim import StatePath, _add_drift, _draw_paths, _grid_steps, _jump_tables

__all__ = [
    "PathBatch",
    "sample_path_batch",
    "EnsembleDivergence",
    "run_divergence_ensemble",
    "run_divergence_sweep",
]

# a child's share of fewer path-steps runs in the parent (break-even in CHANGES.md)
FORK_MIN_PATH_STEPS = 50_000
# a pass reduces and keeps every REPORT_STEPS-th step and the last (every step under record_integrals)
REPORT_STEPS = 20


@dataclass(frozen=True, eq=False)
class PathBatch:
    """A block of independent signal paths with their observation increments.

    increments has shape (n_paths, n_steps, m); state_paths[i] generated the
    i-th row.  For a noiseless model increments is None: the observation
    h(X_t) is read off state_paths, so no increments are integrated.
    """

    state_paths: tuple[StatePath, ...]
    increments: np.ndarray | None


def sample_path_batch(
    model: HmmModel,
    n_paths: int,
    T: float,
    dt: float,
    master_seed: int,
    start,
    stream_offset: int = 0,
) -> PathBatch:
    """Sample n_paths signal paths and observation paths with owned streams.

    start is a state index, which pins X_0, or a law on the states, from
    which X_0 is drawn.  Path i uses the stream (master_seed, stream_offset
    + i) for its initial state, its jump skeleton, and its unit observation
    noise (none for a noiseless model, whose batch carries no increments),
    drawn in that order from the start of the stream; increments are
    r sqrt(dt) times the noise plus the exact drift.  T must be positive
    and dt divide it within 1e-9 (GridMismatch otherwise, for every model).
    """
    n_steps = _grid_steps(T, dt)
    if isinstance(start, (int, np.integer)):
        if not 0 <= start < model.d:
            raise DimensionMismatch(f"x0 = {start} outside state space of size {model.d}")
        start = int(start)
    else:
        start = np.cumsum(as_simplex(start, d=model.d)).tolist()
    increments = None if model.noiseless else np.empty((n_paths, n_steps, model.m))
    paths = _draw_paths(_jump_tables(model.A), [start] * n_paths, float(T), master_seed, stream_offset, increments)
    if increments is not None:
        increments *= model.r * np.sqrt(dt)
        _add_drift(increments, paths, model.H, np.arange(n_steps + 1) * dt)
    return PathBatch(state_paths=tuple(paths), increments=increments)


@dataclass(frozen=True, eq=False)
class EnsembleDivergence:
    """Divergence series between two filters over a path ensemble.

    series holds the ensemble means and standard errors of chi2/kl/tv at
    the report times; initial_chi2 is each path's chi2 at t = 0.  When the
    integrals are recorded, which reports every step, chi2_paths and
    kl_paths hold the per-path (n_paths, n + 1) series, signal_integral[i,
    k] is the running integral of |pi_s^mu(h/r) - pi_s^nu(h/r)|^2 up to t_k
    along path i (the quantity in the pathwise relative-entropy identity)
    and drift_integral the chi-square drift's trapezoid-rule integral; all
    four are None otherwise.  terminal_pis stacks the final filter states as
    (n_paths, 2, d) in the order (from_mu, from_nu).  nu_filters holds the
    nu-filter states (nu_paths, points, d) at the report times of
    run_divergence_sweep's extra paths sampled under nu.
    """

    series: DivergenceSeries
    initial_chi2: np.ndarray
    chi2_paths: np.ndarray | None
    kl_paths: np.ndarray | None
    signal_integral: np.ndarray | None
    drift_integral: np.ndarray | None
    terminal_pis: np.ndarray
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
    record_integrals: bool = False,
) -> EnsembleDivergence:
    """Divergence series between the filters started from mu and nu.

    The one-model run_divergence_sweep without nu paths.  Signal paths are
    sampled under mu.  A noiseless model routes every path through the
    exact level-set filter; record_integrals, which adds the per-path chi2
    and kl and the signal and drift integrals, needs a noisy one
    (NonPositiveNoise).  An AbsoluteContinuityViolation is raised at its
    step between report points, or at a report point by the flush of its
    block of _BLOCK_STEPS points, which runs before any later error of the
    engine propagates.
    """
    return next(run_divergence_sweep([model], mu, nu, n_paths, T, dt, master_seed, record_integrals))


def run_divergence_sweep(models, mu, nu, n_paths, T, dt, master_seed, record_integrals=False, nu_paths=0):
    """Yield run_divergence_ensemble of each model in turn, from one draw.

    The models share A and the shape of H (DimensionMismatch otherwise), so
    the paths and unit normals are drawn once; a noisy model's increments
    are r sqrt(dt) times the normals plus the exact drift of its H, which is
    computed once per run of equal H.  The kernel forms the increments of
    one block of steps at a time from the two, so no (P, n, m) increments
    array of a model exists.  Each ensemble equals its one-model run bit
    for bit.  The first half is computed when asked for; the later half may
    run at once in a forked child (_split_run) with a drift of its own.

    nu_paths more paths, sampled under nu on the streams n_paths .. n_paths
    + nu_paths - 1, ride in the same engine call with nu in both prior
    slots (mu need not charge the class or level a nu path is in, and its
    filter could lose all mass there); their nu-filter states come back as
    nu_filters, and the divergences, terminal_pis and initial_states cover
    the mu paths only.
    """
    models = list(models)
    if not models or any(not np.array_equal(m.A, models[0].A) or m.H.shape != models[0].H.shape for m in models):
        raise DimensionMismatch("a sweep needs models that share A and the shape of H")
    if record_integrals and any(m.noiseless for m in models):
        raise NonPositiveNoise("the signal and drift integrals need a noisy observation model")
    mu, nu = as_simplex(mu, d=models[0].d), as_simplex(nu, d=models[0].d)
    grid = np.arange(_grid_steps(T, dt) + 1) * dt
    starts = [np.cumsum(mu).tolist()] * n_paths + [np.cumsum(nu).tolist()] * nu_paths
    normals = None if all(m.noiseless for m in models) else np.empty((len(starts), len(grid) - 1, models[0].m))
    paths = _draw_paths(_jump_tables(models[0].A), starts, float(T), master_seed, 0, normals)

    def passes(part):
        H = drift = None
        for model in part:
            if not model.noiseless and not np.array_equal(model.H, H):
                H, drift = model.H, None  # drop the old drift before allocating the new
                drift = np.zeros_like(normals)
                _add_drift(drift, paths, H, grid)
            yield _divergence_pass(model, mu, nu, paths, n_paths, grid, dt, record_integrals, normals, drift)

    yield from _split_run(passes, models, len(starts) * (len(grid) - 1))


def _split_run(run, items, path_steps):
    """Yield run(items), where run maps a list of items, each path_steps of
    work, to an iterator over their results.  Given a second CPU, two items
    and a later half of at least FORK_MIN_PATH_STEPS, a child made by
    os.fork runs that half on the parent's arrays (copy-on-write) and
    pickles back its results, up to its first exception, through a pipe.
    They come out in item order, as in a serial run, once the child is reaped."""
    items = list(items)
    half = len(items) // 2  # the child, which post-processes nothing, takes an odd count's extra item
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or half == 0 or (len(items) - half) * path_steps < FORK_MIN_PATH_STEPS:
        yield from run(items)
        return
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child sends its outcomes and exits without returning
        try:
            os.close(read)  # so that a parent gone unread breaks the pipe instead of blocking the child
            outcomes = []
            try:
                for result in run(items[half:]):
                    outcomes.append((True, result))
            except Exception as exc:
                outcomes.append((False, exc))
            with open(write, "wb") as fh:
                pickle.dump(outcomes, fh, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)
    try:
        with open(read, "rb") as fh:
            yield from run(items[:half])
            outcomes = pickle.load(fh)
    finally:  # the child has nothing left to do once its outcomes are read, or once the parent raised
        os.kill(pid, 9)  # SIGKILL
        os.waitpid(pid, 0)
    for ok, result in outcomes:
        if not ok:
            raise result
        yield result


def _divergence_pass(model, mu, nu, paths, n_paths, times, dt, record_integrals, normals, drift_steps):
    """One lockstep pass of the mu and nu filters with the block divergence observer."""
    n_steps = len(times) - 1
    report = np.append(np.arange(0, n_steps, 1 if record_integrals else REPORT_STEPS), n_steps)  # the steps kept
    n = len(report) - 1  # the last report point
    nu_paths = len(paths) - n_paths
    nu_filters = np.empty((nu_paths, n + 1, model.d))
    stats = np.empty((3, 2, n + 1))  # the mean and se of chi2, kl and tv
    initial_chi2 = np.empty(n_paths)
    chi2_v = kl_v = signal = drift = None
    if record_integrals:
        chi2_v, kl_v, signal, drift = (np.empty((n_paths, n + 1)) for _ in range(4))
    block = np.empty((2, model.d, min(_BLOCK_STEPS, n + 1), n_paths))
    work = _work(block.shape[1:])
    stack = np.empty((n_paths, 3, block.shape[2]))
    done = seen = 0  # report points done .. seen - 1 wait in block

    def flush() -> None:
        nonlocal done
        k0, k1, done = done, seen, seen
        pq = block[:, :, : k1 - k0]
        values = stack[:, :, : k1 - k0]
        values[...] = _divergences(pq[0], pq[1], [w[:, : k1 - k0] for w in work]).transpose(2, 0, 1)
        # one C-contiguous (P, 3 points) array: at least 3 columns (_mean_se)
        stats[:, :, k0:k1] = np.reshape(_mean_se(values.reshape(n_paths, 3 * (k1 - k0))), (2, 3, -1)).swapaxes(0, 1)
        if k0 == 0:
            initial_chi2[:] = values[:, 0, 0]
        if signal is None:
            return
        chi2_v[:, k0:k1] = values[:, 0]
        kl_v[:, k0:k1] = values[:, 1]
        # the drift at every step; step k < n_steps gives the signal's increment over (t_k, t_{k+1}]
        p, q = np.moveaxis(pq, 1, -1)
        drift[:, k0:k1] = chi2_drift_batch(p, q, model).T
        p, q = p[: n - k0], q[: n - k0]
        signal[:, k0 + 1 : k1 + 1] = ((((p - q) @ model.h_unit) ** 2).sum(axis=-1) * dt).T

    def observe(step: int, pis: np.ndarray) -> None:  # a report point
        nonlocal seen
        block[:, :, seen - done] = pis[:n_paths].transpose(1, 2, 0)
        nu_filters[:, seen] = pis[n_paths:, 1]
        seen += 1
        if seen - done == block.shape[2] or seen > n:
            flush()

    def observer(step: int, pis: np.ndarray) -> None:  # every step of the noisy kernel
        if step == report[seen]:
            observe(step, pis)
        elif pis[:n_paths, 1].min() < SUPPORT_EPS:  # the step's own absolute-continuity check
            _ratio(pis[:n_paths, 0], pis[:n_paths, 1])

    pairs = np.repeat(np.stack([mu, nu])[:, None], n_paths, axis=1)
    priors = np.concatenate([pairs, np.broadcast_to(nu, (2, nu_paths, model.d))], axis=1)
    try:
        if model.noiseless:
            terminal = evolve_noiseless_ensemble(priors, paths, times[report], model, observer=observe)
        else:
            increments = _Increments(normals, model.r * np.sqrt(dt), drift_steps)
            terminal = evolve_ensemble(priors, increments, dt, model, observer=observer)
    except (DegenerateMass, EmptyLevelSet):
        # an earlier step's AbsoluteContinuityViolation wins over the engine's error
        if seen > done:
            flush()
        raise
    if signal is not None:
        drift[:, 1:] += drift[:, :-1]  # the trapezoid rule: (d_k + d_{k+1}) dt / 2 at k + 1
        drift[:, 1:] *= 0.5 * dt
        signal[:, 0] = drift[:, 0] = 0.0
        np.cumsum(signal, axis=1, out=signal)
        np.cumsum(drift, axis=1, out=drift)

    return EnsembleDivergence(
        series=DivergenceSeries(times[report], n_paths, *stats.reshape(6, -1)),
        initial_chi2=initial_chi2, chi2_paths=chi2_v, kl_paths=kl_v, signal_integral=signal, drift_integral=drift,
        terminal_pis=terminal[:n_paths], nu_filters=nu_filters,
        initial_states=np.array([sp.states[0] for sp in paths[:n_paths]], dtype=int),
    )


@dataclass(frozen=True, eq=False)
class _Increments:
    """The (P, n_steps, m) increments scale normals + drift, formed a block
    of steps at a time: [:, a:b] makes the same two elementwise operations
    on the same operands as the whole array would, so it is bitwise equal."""

    normals: np.ndarray
    scale: float
    drift: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.normals.shape

    def __getitem__(self, key) -> np.ndarray:
        out = self.normals[key] * self.scale
        out += self.drift[key]
        return out
