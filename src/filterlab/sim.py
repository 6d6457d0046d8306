"""Exact signal simulation, observation integration and random streams.

Hidden paths are sampled by the exact jump construction: exponential holding
times with rate -A(x, x), next state proportional to the off-diagonal row.
Observation increments over a uniform grid integrate the drift exactly across
jump times, so the only discretization in the pipeline is the filter's.

Randomness comes from counter-based streams: spawn_rng(master_seed, stream_id)
keys an independent Philox generator, so any path can be regenerated in
isolation and its draws never depend on which other paths are sampled.

The helpers here are the parts of ensemble.sample_path_batch, the one
sampler: it builds the jump tables (_jump_tables) and the grid
(_grid_steps) once per batch, and per path re-keys one Generator with
_rekey, which positions it where RngStream.generator() starts, then draws
X_0 (_draw), the jump chain (_jump_chain) and the increments
(_fill_increments).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

__all__ = ["RngStream", "spawn_rng", "StatePath"]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream (master_seed, stream_id).

    generator() returns a fresh numpy Generator positioned at the start of
    the stream, so repeated calls replay identical draws.  Distinct ids on
    the same master seed give statistically independent, non-overlapping
    streams by the counter-based construction.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        key = _stream_key(self.master_seed, self.stream_id)
        return np.random.Generator(np.random.Philox(key=key))


def _stream_key(master_seed: int, stream_id: int) -> np.ndarray:
    return np.array([master_seed % (1 << 64), stream_id % (1 << 64)], dtype=np.uint64)


def _rekey(rng: np.random.Generator, master_seed: int, stream_id: int) -> None:
    """Reposition rng's Philox at the start of stream (master_seed, stream_id).

    Key, zero counter and empty buffers: the state that
    RngStream.generator() starts from, at a fraction of the cost of a new
    Generator.
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


def spawn_rng(master_seed: int, stream_id: int) -> RngStream:
    """Stream for one unit of work (one path, one sweep point, ...)."""
    return RngStream(master_seed=int(master_seed), stream_id=int(stream_id))


@dataclass(frozen=True)
class StatePath:
    """Piecewise-constant trajectory on [0, T], right-continuous.

    states[i] holds on [jump_times[i], jump_times[i+1]), with
    jump_times[0] == 0.0 and an implicit final knot at T.
    """

    jump_times: np.ndarray
    states: np.ndarray
    T: float

    def state_at(self, t: float) -> int:
        """State at time t (right-continuous; t in [0, T])."""
        if t < 0.0 or t > self.T:
            raise GridMismatch(f"t = {t} outside [0, {self.T}]")
        i = int(np.searchsorted(self.jump_times, t, side="right")) - 1
        return int(self.states[i])

    def states_on_grid(self, n_steps: int) -> np.ndarray:
        """States at the grid times k * (T / n_steps), k = 0..n_steps."""
        times = np.arange(n_steps + 1) * (self.T / n_steps)
        idx = np.searchsorted(self.jump_times, times, side="right") - 1
        return self.states[idx]

    def occupation_fractions(self, d: int) -> np.ndarray:
        """Fraction of [0, T] spent in each state."""
        knots = np.append(self.jump_times, self.T)
        lengths = np.diff(knots)
        occ = np.zeros(d)
        np.add.at(occ, self.states, lengths)
        return occ / self.T


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
    if T <= 0.0:
        raise GridMismatch(f"horizon T = {T} must be positive")
    if dt <= 0.0:
        raise GridMismatch(f"dt = {dt} must be positive")
    n_float = T / dt
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise GridMismatch(f"dt = {dt} does not divide T = {T}")
    return n_steps


def _fill_increments(
    out: np.ndarray, path: StatePath, H: np.ndarray, grid: np.ndarray, scale: float, rng: np.random.Generator
) -> None:
    """Write the observation increments of path on grid into out (n_steps, m).

    out first holds scale times standard normals drawn from rng (zeros, and
    no draws, when scale is 0), then gains the exact drift increments
    D(t_{k+1}) - D(t_k) of D(t) = int_0^t h(X_s) ds.  D is piecewise linear
    with knots at the jump times; grid values come from linear interpolation
    of the exact knot values, so increments telescope to D(T) at machine
    precision.
    """
    if scale > 0.0:
        rng.standard_normal(out=out)
        out *= scale
    else:
        out[:] = 0.0
    knots = np.concatenate((path.jump_times, (path.T,)))
    cum = np.zeros((len(knots), H.shape[1]))
    np.cumsum(H.take(path.states, axis=0) * (knots[1:] - knots[:-1])[:, None], axis=0, out=cum[1:])
    for j in range(H.shape[1]):
        drift = np.interp(grid, knots, cum[:, j])
        out[:, j] += drift[1:] - drift[:-1]
