"""Ensemble orchestration: stream layout, batched filtering, recorders."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import filterlab

from conftest import CYCLE_MU, CYCLE_NU
from filterlab.divergence import chi2
from filterlab.ensemble import run_divergence_ensemble, sample_path_batch
from filterlab.errors import DimensionMismatch, NonPositiveNoise
from filterlab.filtering import evolve_ensemble, run_filter
from filterlab.sim import (
    ObservationPath,
    integrate_observation,
    sample_ctmc_path,
    sample_initial_state,
    spawn_rng,
)


class TestSamplePathBatch:
    def test_requires_exactly_one_initial_spec(self, cycle_model):
        with pytest.raises(DimensionMismatch):
            sample_path_batch(cycle_model, 2, 1.0, 1e-2, 0)
        with pytest.raises(DimensionMismatch):
            sample_path_batch(
                cycle_model, 2, 1.0, 1e-2, 0, initial_law=CYCLE_MU, initial_state=1
            )

    def test_pinned_initial_state(self, cycle_model):
        batch = sample_path_batch(cycle_model, 5, 0.5, 1e-2, 3, initial_state=2)
        assert batch.initial_states.tolist() == [2] * 5
        assert batch.increments.shape == (5, 50, 1)
        assert batch.n_paths == 5

    def test_each_path_replays_its_own_stream(self, cycle_model):
        # path i must equal a fresh single-path draw on stream offset + i
        offset = 11
        batch = sample_path_batch(
            cycle_model, 4, 1.0, 1e-2, 9, initial_law=CYCLE_MU, stream_offset=offset
        )
        for i in range(4):
            rng = spawn_rng(9, offset + i).generator()
            x0 = sample_initial_state(CYCLE_MU, rng, 4)
            sp = sample_ctmc_path(cycle_model.A, x0, 1.0, rng)
            obs = integrate_observation(sp, cycle_model, 1e-2, rng)
            assert batch.initial_states[i] == x0
            assert np.array_equal(batch.state_paths[i].jump_times, sp.jump_times)
            assert np.array_equal(batch.increments[i], obs.increments)

    def test_noiseless_batch_replays_streams_without_increments(self, cycle_noiseless):
        offset = 8
        batch = sample_path_batch(
            cycle_noiseless, 6, 1.0, 1e-2, 9, initial_law=CYCLE_NU, stream_offset=offset
        )
        assert batch.increments is None
        assert batch.n_paths == 6
        for i in range(6):
            rng = spawn_rng(9, offset + i).generator()
            x0 = sample_initial_state(CYCLE_NU, rng, 4)
            sp = sample_ctmc_path(cycle_noiseless.A, x0, 1.0, rng)
            assert np.array_equal(batch.state_paths[i].jump_times, sp.jump_times)
            assert np.array_equal(batch.state_paths[i].states, sp.states)
            assert batch.state_paths[i].T == sp.T

    def test_terminal_states_match_paths(self, cycle_model):
        batch = sample_path_batch(cycle_model, 6, 0.5, 1e-2, 4, initial_law=CYCLE_MU)
        manual = [sp.states[-1] for sp in batch.state_paths]
        assert batch.terminal_states.tolist() == manual


class TestTerminalFilterStates:
    def test_matches_per_path_run_filter(self, cycle_model):
        batch = sample_path_batch(cycle_model, 5, 0.5, 1e-3, 2, initial_law=CYCLE_MU)
        priors = np.stack([CYCLE_MU, CYCLE_NU])
        out = evolve_ensemble(priors, batch.increments, batch.dt, cycle_model)
        assert out.shape == (5, 2, 4)
        for i in range(5):
            obs = ObservationPath(dt=1e-3, increments=batch.increments[i])
            for k, prior in enumerate(priors):
                traj = run_filter(prior, obs, cycle_model)
                assert np.array_equal(out[i, k], traj.pis[-1])

    def test_noiseless_batch_rejected(self, cycle_noiseless):
        batch = sample_path_batch(cycle_noiseless, 3, 0.2, 1e-2, 1, initial_law=CYCLE_MU)
        with pytest.raises(NonPositiveNoise):
            evolve_ensemble(np.stack([CYCLE_MU, CYCLE_NU]), batch.increments, batch.dt, cycle_noiseless)


class TestRunDivergenceEnsemble:
    def test_series_shapes_and_initial_value(self, cycle_model):
        ens = run_divergence_ensemble(
            cycle_model, CYCLE_MU, CYCLE_NU, 6, 0.5, 1e-3, 0
        )
        assert ens.series.chi2.shape == (6, 501)
        assert ens.series.times[-1] == pytest.approx(0.5)
        np.testing.assert_allclose(
            ens.series.chi2[:, 0], chi2(CYCLE_MU, CYCLE_NU), atol=1e-12
        )
        assert ens.terminal_pis.shape == (6, 2, 4)
        np.testing.assert_allclose(ens.terminal_pis.sum(axis=2), 1.0, atol=1e-9)

    def test_signal_integral_starts_at_zero_and_grows(self, cycle_model):
        ens = run_divergence_ensemble(
            cycle_model, CYCLE_MU, CYCLE_NU, 4, 0.5, 1e-3, 1
        )
        assert np.all(ens.signal_integral[:, 0] == 0.0)
        assert np.all(np.diff(ens.signal_integral, axis=1) >= 0.0)

    def test_drift_recording_optional(self, cycle_model):
        plain = run_divergence_ensemble(cycle_model, CYCLE_MU, CYCLE_NU, 3, 0.2, 1e-3, 0)
        assert plain.drift_integral is None
        rec = run_divergence_ensemble(
            cycle_model, CYCLE_MU, CYCLE_NU, 3, 0.2, 1e-3, 0, record_drift=True
        )
        assert rec.drift_integral.shape == (3, 201)
        assert np.all(rec.drift_integral[:, 0] == 0.0)
        # recording must not perturb the filter path
        assert np.array_equal(plain.series.chi2, rec.series.chi2)

    def test_noiseless_route_uses_exact_filter(self, cycle_noiseless):
        # the cycle's level-set filter keeps the chi-square gap frozen at
        # its conditioned initial value for these priors
        ens = run_divergence_ensemble(
            cycle_noiseless, CYCLE_MU, CYCLE_NU, 5, 1.0, 1e-3, 0
        )
        np.testing.assert_allclose(ens.series.chi2, 0.16, atol=1e-10)

    def test_noiseless_drift_recording_rejected(self, cycle_noiseless):
        with pytest.raises(NonPositiveNoise):
            run_divergence_ensemble(
                cycle_noiseless, CYCLE_MU, CYCLE_NU, 2, 0.5, 1e-3, 0, record_drift=True
            )

    def test_noiseless_route_leaves_scipy_linalg_unimported(self):
        # scipy.linalg costs about 10 MB of resident memory and a quarter
        # second of import time, so the noiseless engine does without it
        code = textwrap.dedent(
            """
            import sys
            import numpy as np
            from filterlab.ensemble import run_divergence_ensemble
            from filterlab.model import validate_model

            A = np.array([[-1.0, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]])
            model = validate_model(A, np.array([1.0, 0, 1, 0]), 0.0, allow_noiseless=True)
            run_divergence_ensemble(model, [0.35, 0.35, 0.15, 0.15], [0.25] * 4, 4, 0.2, 1e-3, 0)
            print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
            """
        )
        src = os.path.dirname(os.path.dirname(filterlab.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"
