"""Shared fixtures: the two reference models, their priors, and rng and
engine helpers."""

import numpy as np
import pytest

from filterlab.ensemble import sample_path_batch
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
    return validate_model(CYCLE_A, CYCLE_H, 0.0, allow_noiseless=True)


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
    batch = sample_path_batch(model, 1, T, T, seed, initial_state=x0, stream_offset=stream)
    return batch.state_paths[0]


def filter_states(priors, data, dt, model):
    """Every filter state (P, k, n + 1, d) of the model's engine on the grid:
    evolve_ensemble on increments (P, n, m), evolve_noiseless_ensemble on a
    sequence of P state paths."""
    rows = []
    evolve = evolve_noiseless_ensemble if model.noiseless else evolve_ensemble
    evolve(np.atleast_2d(priors), data, dt, model, observer=lambda step, t, pis: rows.append(pis.copy()))
    return np.stack(rows, axis=2)
