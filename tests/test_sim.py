"""Path sampling, observation integration, and stream reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import CYCLE_A, state_path
from filterlab.ensemble import sample_path_batch
from filterlab.errors import GridMismatch
from filterlab.model import validate_model
from filterlab.sim import _add_drift, _rekey, spawn_rng

# A three-state ring observed without noise: its batches carry no increments.
RING3 = validate_model(
    np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]),
    np.array([0.0, 1.0, 2.0]),
    0.0,
)


def _draws(rng):
    """A mix of draws that uses the uniform, normal, exponential and 32-bit paths."""
    return np.concatenate(
        [
            rng.random(3),
            rng.standard_normal(5),
            rng.standard_exponential(2, method="inv"),
            rng.integers(0, 7, size=3).astype(float),
        ]
    )


class TestStreams:
    def test_same_key_reproduces(self):
        a = spawn_rng(7, 3).standard_normal(64)
        b = spawn_rng(7, 3).standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = spawn_rng(7, 3).standard_normal(64)
        b = spawn_rng(7, 4).standard_normal(64)
        c = spawn_rng(8, 3).standard_normal(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_adjacent_streams_uncorrelated(self):
        n = 20_000
        a = spawn_rng(0, 0).standard_normal(n)
        b = spawn_rng(0, 1).standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)

    def test_stream_identity_recorded(self):
        # the stream's identity is the Philox key of the Generator it returns
        rng = spawn_rng(11, 5)
        assert isinstance(rng, np.random.Generator)
        assert rng.bit_generator.state["state"]["key"].tolist() == [11, 5]

    @given(
        seed=st.integers(0, 2**70),
        stream=st.integers(0, 2**70),
        used=st.integers(0, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_rekey_of_a_used_generator_replays_a_fresh_stream(self, seed, stream, used):
        # a batch re-keys one Generator per path; after any earlier draws,
        # including a half-used 32-bit buffer, it must start where a fresh
        # generator of the stream starts
        rng = spawn_rng(1, 2)
        rng.standard_normal(used)
        rng.integers(0, 7, size=used % 2)
        _rekey(rng, seed, stream)
        assert np.array_equal(_draws(rng), _draws(spawn_rng(seed, stream)))


class TestSampleInitialState:
    def test_point_mass(self):
        batch = sample_path_batch(RING3, 20, 1.0, 1.0, 4, [0.0, 1.0, 0.0])
        assert [sp.states[0] for sp in batch.state_paths] == [1] * 20

    def test_marginal_frequencies(self):
        law = np.array([0.2, 0.5, 0.3])
        n = 20_000
        batch = sample_path_batch(RING3, n, 1e-3, 1e-3, 20260814, law)
        freq = np.bincount([sp.states[0] for sp in batch.state_paths], minlength=3) / n
        se = np.sqrt(law * (1 - law) / n)
        assert np.all(np.abs(freq - law) <= 4.0 * se)


class TestSampleCtmcPath:
    def test_cycle_moves_one_step_forward(self, cycle_model):
        sp = state_path(cycle_model, 2, 20.0, 1)
        states = sp.states
        assert states[0] == 2
        assert np.all((states[1:] - states[:-1]) % 4 == 1)

    def test_jump_times_sorted_within_horizon(self, cycle_model):
        sp = state_path(cycle_model, 0, 10.0, 2)
        # jump_times[0] is the segment start at 0; real jumps follow
        assert sp.jump_times[0] == 0.0
        assert np.all(np.diff(sp.jump_times) > 0)
        assert sp.jump_times[-1] < 10.0
        assert sp.T == 10.0

    def test_absorbing_state_never_leaves(self):
        model = validate_model(np.array([[-1.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0)
        sp = state_path(model, 1, 50.0, 3)
        assert sp.jump_times.tolist() == [0.0]
        assert sp.states.tolist() == [1]

    def test_marginal_law_matches_matrix_exponential(self, cycle_noiseless):
        # independent oracle: P(X_1 = y | X_0 = 0) = expm(A^T) e_0
        n = 3000
        batch = sample_path_batch(cycle_noiseless, n, 1.0, 1.0, 123, 0)
        counts = np.bincount([sp.states[-1] for sp in batch.state_paths], minlength=4)
        freq = counts / n
        target = expm(CYCLE_A.T)[:, 0]
        se = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 4.0 * se)


class TestIntegrateObservation:
    def test_shapes_and_grid(self, cycle_model):
        batch = sample_path_batch(cycle_model, 1, 2.0, 1e-2, 6, 0)
        assert batch.increments.shape == (1, 200, 1)

    def test_reproducible_from_stream(self, cycle_model):
        outs = [
            sample_path_batch(cycle_model, 1, 1.0, 1e-3, 5, 0, stream_offset=9).increments
            for _ in range(2)
        ]
        assert np.array_equal(outs[0], outs[1])

    def test_exact_drift_against_hand_integral(self, cycle_model):
        # the drift alone, without noise, must telescope to the exact
        # occupation integral of h along the path
        sp = state_path(cycle_model, 0, 2.0, 7)
        grid = np.arange(2001) * 1e-3
        out = np.zeros((1, 2000, 1))
        _add_drift(out, [sp], cycle_model.H, grid)
        hand = np.diff(np.append(sp.jump_times, sp.T)) @ cycle_model.H[sp.states]
        np.testing.assert_allclose(out[0].sum(axis=0), hand, atol=1e-10)

    def test_drift_uses_physical_h_not_unit(self):
        # dZ = h dt + r dW: state 0 with h = 3 and r = 2 drifts 3 dt/step
        model = validate_model(np.zeros((2, 2)), np.array([3.0, -1.0]), 2.0)
        n_rep, dt = 400, 1e-2
        batch = sample_path_batch(model, n_rep, 1.0, dt, 8, 0)
        means = batch.increments.mean(axis=(1, 2))
        se = means.std(ddof=1) / np.sqrt(n_rep)
        assert abs(means.mean() - 3.0 * dt) <= 4.0 * se

    def test_bad_dt_rejected(self, cycle_model):
        with pytest.raises(GridMismatch):
            sample_path_batch(cycle_model, 1, 1.0, -0.1, 0, 0)

    def test_nondividing_dt_rejected(self, cycle_model):
        with pytest.raises(GridMismatch):
            sample_path_batch(cycle_model, 1, 1.0, 0.3, 0, 0)
