"""Shared fixtures: the two reference models, their priors, and rng,
engine, series and CSV helpers."""

import csv

import numpy as np
import pytest

from filterlab.divergence import DivergenceSeries, _mean_se
from filterlab.ensemble import REPORT_STEPS, sample_path_batch
from filterlab.filtering import evolve_ensemble, evolve_noiseless_ensemble
from filterlab.model import validate_model

CYCLE_A = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
)
CYCLE_H = np.array([1.0, 0.0, 1.0, 0.0])
CYCLE_MU = np.array([0.35, 0.35, 0.15, 0.15])
CYCLE_NU = np.array([0.25, 0.25, 0.25, 0.25])

BLOCKS_A = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [2.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [0.0, 0.0, 2.0, -2.0],
    ]
)
BLOCKS_H = np.array([1.0, 0.0, -1.0, 0.0])
BLOCKS_MU = np.array([0.2, 0.6, 0.1, 0.1])
BLOCKS_NU = np.array([0.1, 0.1, 0.1, 0.7])


@pytest.fixture(scope="session")
def cycle_model():
    """Four-state cycle with two-level observation, unit noise."""
    return validate_model(CYCLE_A, CYCLE_H, 1.0)


@pytest.fixture(scope="session")
def cycle_noiseless():
    return validate_model(CYCLE_A, CYCLE_H, 0.0)


@pytest.fixture(scope="session")
def blocks_model():
    """Two disconnected two-state blocks with a sign-split observation."""
    return validate_model(BLOCKS_A, BLOCKS_H, 1.0)


@pytest.fixture(scope="session")
def two_state_model():
    return validate_model(np.array([[-1.0, 1.0], [2.0, -2.0]]), np.array([1.0, -1.0]), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_generator_matrix(rng, d, lo=0.2, hi=2.0):
    """Fully connected random generator (hence ergodic)."""
    A = rng.uniform(lo, hi, size=(d, d))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def interior_simplex(rng, d, floor=0.05):
    """Random simplex point bounded away from the boundary."""
    return (1.0 - d * floor) * rng.dirichlet(np.ones(d)) + floor


def state_path(model, x0, T, seed, stream=0):
    """One signal path from x0 on [0, T]: a one-path batch on (seed, stream)."""
    batch = sample_path_batch(model, 1, T, T, seed, x0, stream_offset=stream)
    return batch.state_paths[0]


# The noiseless engine on the report grid against the same engine at every
# step: on the cycle presets a filter state differs by at most 1.1e-16 and a
# series mean by at most 2.8e-17 (kl_mean at sigma2 = 0, example-6.1), so
# comparisons allow 1e-15, about 36 times the series difference.
NOISELESS_ATOL = 1e-15


def report_steps(n_steps):
    """The steps an ensemble pass reports: every REPORT_STEPS-th and the last."""
    return np.array([*range(0, n_steps, REPORT_STEPS), n_steps])


def step_grid(T, dt):
    """The times k dt, k = 0 .. T / dt, of every filter step on [0, T]."""
    return np.arange(round(T / dt) + 1) * dt


def filter_states(priors, data, dt, model):
    """Every filter state (P, k, n + 1, d) of the model's engine on the grid:
    evolve_ensemble on increments (P, n, m), evolve_noiseless_ensemble on a
    sequence of P state paths, stepped at every k dt, or at the times dt
    when it is an array."""
    rows = []
    if model.noiseless:
        evolve, step = evolve_noiseless_ensemble, dt if np.ndim(dt) else step_grid(data[0].T, dt)
    else:
        evolve, step = evolve_ensemble, dt
    evolve(np.atleast_2d(priors), data, step, model, observer=lambda k, S: rows.append(S.T.copy()))
    return np.stack(rows, axis=2)


SERIES_FIELDS = ("chi2_mean", "chi2_se", "kl_mean", "kl_se", "tv_mean", "tv_se")


def series_of(times, chi2_paths, kl_paths, tv_paths):
    """The DivergenceSeries of per-path arrays (P, n + 1), reduced by _mean_se
    as C-contiguous arrays (a column selection such as v[:, steps] is
    Fortran-ordered, which numpy may sum pairwise along the paths)."""
    stats = [a for v in (chi2_paths, kl_paths, tv_paths) for a in _mean_se(np.ascontiguousarray(v, float))]
    return DivergenceSeries(np.asarray(times, float), len(chi2_paths), *stats)


def model_object(model):
    """The model JSON object of a report's config echo, for a model file."""
    return {"d": model.d, "m": model.m, "A": model.A.ravel().tolist(), "H": model.H.ravel().tolist(), "r": model.r}


def read_csv(path):
    """A CSV table the package wrote, as {header: float64 column}."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, body.T))
