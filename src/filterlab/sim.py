"""Exact signal simulation and observation integration.

Hidden paths are sampled by the exact jump construction: exponential holding
times with rate -A(x, x), next state proportional to the off-diagonal row.
Observation increments over a uniform grid integrate the drift exactly across
jump times, so the only discretization in the pipeline is the filter's.

Randomness comes from counter-based streams: spawn_rng(master_seed, stream_id)
keys an independent Philox generator, so any path can be regenerated in
isolation and its draws never depend on which other paths are sampled.
A batch sampler keeps one Generator and re-keys its Philox per path with
_rekey, which positions it where RngStream.generator() starts.

sample_initial_state, sample_ctmc_path and integrate_observation are the
public single-path recipe.  They are built from the helpers that
ensemble.sample_path_batch calls once per batch (_jump_tables, the grid)
or once per path (_rekey, _draw, _jump_chain, _fill_increments), so a
batch path and a recipe path on the same stream are bitwise equal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch
from .model import HmmModel, _read_table, _write_table, as_simplex

__all__ = [
    "RngStream",
    "spawn_rng",
    "StatePath",
    "ObservationPath",
    "sample_ctmc_path",
    "sample_initial_state",
    "integrate_observation",
    "write_observation_csv",
    "read_observation_csv",
    "write_state_path_csv",
    "read_state_path_csv",
]


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


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments over the uniform grid with step dt.

    increments[k] approximates Z_{(k+1)dt} - Z_{k dt}; the drift part is
    integrated exactly across jump times, the noise part is r * sqrt(dt)
    times an i.i.d. standard normal vector.
    """

    dt: float
    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def T(self) -> float:
        return self.n_steps * self.dt


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw of an index from a cumulative law (last index caps)."""
    return min(bisect_right(cdf, rng.random()), len(cdf) - 1)


def sample_initial_state(prior, rng: np.random.Generator, d: int) -> int:
    """Draw X_0 from a prior on {0, ..., d-1} by inverse CDF."""
    return _draw(np.cumsum(as_simplex(prior, d=d)).tolist(), rng)


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


def sample_ctmc_path(A, x0: int, T: float, rng: np.random.Generator) -> StatePath:
    """Exact jump-by-jump sample of the chain started at x0 on [0, T].

    Holding times use inverse-CDF exponentials so a stream replays the same
    path bit for bit; a state with zero exit rate is absorbing.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if not 0 <= x0 < d:
        raise DimensionMismatch(f"x0 = {x0} outside state space of size {d}")
    if T <= 0.0:
        raise GridMismatch(f"horizon T = {T} must be positive")
    return _jump_chain(_jump_tables(A), int(x0), float(T), rng)


def _grid_steps(T: float, dt: float) -> int:
    """Number of grid steps of size dt in [0, T]; dt must divide T within 1e-9."""
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


def integrate_observation(
    path: StatePath, model: HmmModel, dt: float, rng: np.random.Generator
) -> ObservationPath:
    """Observation increments for one hidden path on the grid with step dt.

    increment_k = int_{t_k}^{t_{k+1}} h(X_s) ds + r sqrt(dt) xi_k with
    xi_k i.i.d. standard normal (m,).  dt must divide path.T within 1e-9.
    """
    n_steps = _grid_steps(path.T, dt)
    increments = np.empty((n_steps, model.m))
    grid = np.arange(n_steps + 1) * dt
    _fill_increments(increments, path, model.H, grid, model.r * np.sqrt(dt), rng)
    return ObservationPath(dt=float(dt), increments=increments)


def write_observation_csv(path: str, obs: ObservationPath) -> None:
    """Dump increments as CSV rows (t_k, dZ_k[1..m]); floats use repr."""
    header = ["t"] + [f"dZ{j + 1}" for j in range(obs.m)]
    _write_table(path, header, [np.arange(obs.n_steps) * obs.dt, *obs.increments.T])


def read_observation_csv(path: str) -> ObservationPath:
    """Inverse of write_observation_csv (exact round trip)."""
    _, body = _read_table(path)
    if body.shape[0] < 2:
        raise GridMismatch("observation dump needs at least two rows")
    return ObservationPath(dt=float(body[1, 0] - body[0, 0]), increments=body[:, 1:])


def write_state_path_csv(path: str, sp: StatePath) -> None:
    """Sidecar dump of jump times and states, plus the horizon."""
    _write_table(
        path,
        ["jump_time", "state", "T"],
        [sp.jump_times, sp.states, np.full(len(sp.states), float(sp.T))],
    )


def read_state_path_csv(path: str) -> StatePath:
    """Inverse of write_state_path_csv (exact round trip)."""
    _, body = _read_table(path)
    if body.shape[0] == 0:
        raise GridMismatch("state path dump is empty")
    return StatePath(
        jump_times=body[:, 0], states=body[:, 1].astype(np.int64), T=float(body[0, 2])
    )
