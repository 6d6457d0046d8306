"""Exact signal simulation, observation integration and random streams.

Hidden paths are sampled by the exact jump construction: exponential holding
times with rate -A(x, x), next state proportional to the off-diagonal row.
Observation increments over a uniform grid integrate the drift exactly across
jump times, so the only discretization in the pipeline is the filter's.

Randomness comes from counter-based streams: spawn_rng(master_seed, stream_id)
keys an independent Philox generator, so any path can be regenerated in
isolation and its draws never depend on which other paths are sampled.

The helpers here are the parts of ensemble's sampling: the jump tables
(_jump_tables) and the grid (_grid_steps), the draws of a path (_draw_paths:
one Generator re-keyed by _rekey to where spawn_rng's Generator starts,
then X_0, the jump chain and the unit normals) and the exact drift added
to the scaled normals (_add_drift).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

__all__ = ["spawn_rng", "StatePath"]


def _stream_key(master_seed: int, stream_id: int) -> np.ndarray:
    return np.array([master_seed % (1 << 64), stream_id % (1 << 64)], dtype=np.uint64)


def _rekey(rng: np.random.Generator, master_seed: int, stream_id: int) -> None:
    """Reposition rng's Philox at the start of stream (master_seed, stream_id).

    Key, zero counter and empty buffers: the state that spawn_rng's
    Generator starts from, at a fraction of the cost of a new one.
    """
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": _stream_key(master_seed, stream_id)},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def spawn_rng(master_seed: int, stream_id: int) -> np.random.Generator:
    """Generator at the start of stream (master_seed, stream_id), the stream
    of one unit of work (one path, one sweep point, ...).

    Each call returns a fresh Generator, so repeated calls replay identical
    draws; distinct ids on the same master
    seed give statistically independent, non-overlapping streams by the
    counter-based construction.
    """
    return np.random.Generator(np.random.Philox(key=_stream_key(int(master_seed), int(stream_id))))


@dataclass(frozen=True, eq=False)
class StatePath:
    """Piecewise-constant trajectory on [0, T], right-continuous.

    states[i] holds on [jump_times[i], jump_times[i+1]), with
    jump_times[0] == 0.0 and an implicit final knot at T.
    """

    jump_times: np.ndarray
    states: np.ndarray
    T: float


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from a cumulative law (last index caps)."""
    return min(bisect_right(cdf, rng.random()), len(cdf) - 1)


def _jump_tables(A: np.ndarray) -> tuple[list[float], list[list[float]]]:
    """Exit rate and cumulative jump law of every state x.

    The exit rate is the off-diagonal row sum and the jump law the
    off-diagonal row over it; a state with zero exit rate is absorbing and
    has an empty law.
    """
    exit_rates, jump_cdfs = [], []
    for x in range(A.shape[0]):
        rates = A[x].copy()
        rates[x] = 0.0
        total = rates.sum()
        exit_rates.append(float(total))
        jump_cdfs.append(np.cumsum(rates / total).tolist() if total > 0.0 else [])
    return exit_rates, jump_cdfs


def _jump_chain(tables, x0: int, T: float, rng: np.random.Generator) -> StatePath:
    """Jump-by-jump path on [0, T] from x0, with tables from _jump_tables."""
    exit_rates, jump_cdfs = tables
    jump_times = [0.0]
    states = [x0]
    t = 0.0
    x = x0
    while exit_rates[x] > 0.0:
        t += rng.standard_exponential(method="inv") / exit_rates[x]
        if t >= T:
            break
        x = _draw(jump_cdfs[x], rng)
        jump_times.append(t)
        states.append(x)
    return StatePath(
        jump_times=np.array(jump_times, dtype=float),
        states=np.array(states, dtype=np.int64),
        T=T,
    )


def _grid_steps(T: float, dt: float) -> int:
    """Number of grid steps of size dt in [0, T]; dt must divide T within 1e-9."""
    if not 0.0 < T < np.inf:
        raise GridMismatch(f"horizon T = {T} must be positive and finite")
    if not 0.0 < dt < np.inf:
        raise GridMismatch(f"dt = {dt} must be positive and finite")
    n_float = T / dt
    if not n_float < np.inf:
        raise GridMismatch(f"dt = {dt} does not divide T = {T} into finitely many steps")
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise GridMismatch(f"dt = {dt} does not divide T = {T}")
    return n_steps


def _draw_paths(tables, starts, T: float, master_seed: int, stream_offset: int, normals=None) -> list[StatePath]:
    """Path i reads stream (master_seed, stream_offset + i) from its start:
    X_0 (starts[i], or drawn from it when it is a cumulative law), the jump
    chain on [0, T] with tables from _jump_tables, then, if normals is
    given, the standard normals normals[i] of its observation noise."""
    rng = spawn_rng(master_seed, stream_offset)
    paths = []
    for i, start in enumerate(starts):
        _rekey(rng, master_seed, stream_offset + i)
        paths.append(_jump_chain(tables, start if isinstance(start, int) else _draw(start, rng), T, rng))
        if normals is not None:
            rng.standard_normal(out=normals[i])
    return paths


def _add_drift(out: np.ndarray, paths, H: np.ndarray, grid: np.ndarray) -> None:
    """Add the exact drift increments of each path on grid to out (P, n_steps, m).

    Path i gains D(t_{k+1}) - D(t_k) of D(t) = int_0^t h(X_s) ds.  D is
    piecewise linear with knots at the jump times; grid values come from
    linear interpolation of the exact knot values, so increments telescope
    to D(T) at machine precision.
    """
    for row, path in zip(out, paths):
        knots = np.concatenate((path.jump_times, (path.T,)))
        cum = np.zeros((len(knots), H.shape[1]))
        np.cumsum(H.take(path.states, axis=0) * (knots[1:] - knots[:-1])[:, None], axis=0, out=cum[1:])
        for j in range(H.shape[1]):
            drift = np.interp(grid, knots, cum[:, j])
            row[:, j] += drift[1:] - drift[:-1]
