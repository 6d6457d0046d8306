"""Ensemble orchestration: stream layout, batched filtering, recorders."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filterlab

from conftest import CYCLE_MU, CYCLE_NU, random_generator_matrix
from filterlab.config import model_for_sweep_value, preset_config
from filterlab.divergence import _divergence_batch, chi2, chi2_drift_batch
from filterlab.ensemble import run_divergence_ensemble, sample_path_batch
from filterlab.errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    GridMismatch,
    NonPositiveNoise,
)
from filterlab.filtering import _BLOCK_STEPS, evolve_ensemble, evolve_noiseless_ensemble
from filterlab.model import validate_model
from filterlab.sim import spawn_rng


def _first_draws(seed, stream, law):
    """X_0 and the first holding time on the cycle (exit rate 1) read off
    the stream directly: its first uniform picks X_0 by inverse CDF, and
    its first inverse-CDF exponential is the holding time."""
    rng = spawn_rng(seed, stream).generator()
    x0 = int(np.searchsorted(np.cumsum(law), rng.random(), side="right"))
    return x0, rng.standard_exponential(method="inv")


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
        # path i starts stream offset + i: X_0 from its first uniform, the
        # first jump after its first exponential holding time
        offset = 11
        batch = sample_path_batch(
            cycle_model, 4, 1.0, 1e-2, 9, initial_law=CYCLE_MU, stream_offset=offset
        )
        for i, sp in enumerate(batch.state_paths):
            x0, hold = _first_draws(9, offset + i, CYCLE_MU)
            assert batch.initial_states[i] == x0
            assert sp.jump_times[1:2].tolist() == ([hold] if hold < 1.0 else [])

    def test_noiseless_batch_replays_streams_without_increments(self, cycle_noiseless):
        offset = 8
        batch = sample_path_batch(
            cycle_noiseless, 6, 1.0, 1e-2, 9, initial_law=CYCLE_NU, stream_offset=offset
        )
        assert batch.increments is None
        assert batch.n_paths == 6
        for i, sp in enumerate(batch.state_paths):
            x0, hold = _first_draws(9, offset + i, CYCLE_NU)
            assert sp.states[0] == x0
            assert sp.jump_times[1:2].tolist() == ([hold] if hold < 1.0 else [])
            assert sp.T == 1.0

    def test_off_grid_horizon_rejected_for_every_model(self, cycle_model, cycle_noiseless):
        # 0.07 does not divide 0.3: no model may sample an off-grid batch
        for model in (cycle_model, cycle_noiseless):
            with pytest.raises(GridMismatch):
                sample_path_batch(model, 2, 0.3, 0.07, 0, initial_law=CYCLE_MU)

    def test_pinned_state_outside_space_rejected(self, cycle_model):
        with pytest.raises(DimensionMismatch):
            sample_path_batch(cycle_model, 2, 1.0, 1e-2, 0, initial_state=4)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, cycle_model, T):
        with pytest.raises(GridMismatch, match=f"horizon T = {T} must be positive"):
            sample_path_batch(cycle_model, 2, T, 1e-2, 0, initial_state=0)

    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(2, 6),
        m=st.sampled_from([1, 2]),
        r=st.sampled_from([0.0, 0.4, 2.5]),
        absorbing=st.booleans(),
        pinned=st.booleans(),
        stream_offset=st.integers(0, 2**40),
        grid=st.sampled_from([(0.7, 0.1), (0.5, 0.01), (1.0, 1e-3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_single_path_recipe(self, seed, d, m, r, absorbing, pinned, stream_offset, grid):
        # a single path is a one-path batch on its stream: path i of a batch
        # must equal the one-path batch at stream_offset + i, bitwise.
        # T = 0.7, dt = 0.1 puts the last grid point past T in floats, where
        # np.interp clamps to the last knot
        T, dt = grid
        gen = np.random.default_rng(seed)
        A = random_generator_matrix(gen, d)
        if absorbing:
            A[gen.integers(d)] = 0.0
        model = validate_model(A, gen.normal(size=(d, m)), r, allow_noiseless=True)
        law = gen.dirichlet(np.ones(d))
        x_pin = int(gen.integers(d))
        n_paths = 4
        spec = {"initial_state": x_pin} if pinned else {"initial_law": law}
        batch = sample_path_batch(model, n_paths, T, dt, seed, stream_offset=stream_offset, **spec)
        assert (batch.increments is None) == model.noiseless
        for i in range(n_paths):
            alone = sample_path_batch(model, 1, T, dt, seed, stream_offset=stream_offset + i, **spec)
            got, want = batch.state_paths[i], alone.state_paths[0]
            assert np.array_equal(got.jump_times, want.jump_times)
            assert np.array_equal(got.states, want.states)
            assert got.T == want.T
            if not model.noiseless:
                assert batch.increments[i].tobytes() == alone.increments[0].tobytes()


class TestTerminalFilterStates:
    def test_matches_per_path_run_filter(self, cycle_model):
        batch = sample_path_batch(cycle_model, 5, 0.5, 1e-3, 2, initial_law=CYCLE_MU)
        priors = np.stack([CYCLE_MU, CYCLE_NU])
        out = evolve_ensemble(priors, batch.increments, batch.dt, cycle_model)
        assert out.shape == (5, 2, 4)
        for i in range(5):
            for k, prior in enumerate(priors):
                alone = evolve_ensemble(prior[None], batch.increments[i : i + 1], batch.dt, cycle_model)
                assert np.array_equal(out[i, k], alone[0, 0])

    def test_noiseless_batch_rejected(self, cycle_noiseless):
        batch = sample_path_batch(cycle_noiseless, 3, 0.2, 1e-2, 1, initial_law=CYCLE_MU)
        with pytest.raises(NonPositiveNoise):
            evolve_ensemble(np.stack([CYCLE_MU, CYCLE_NU]), batch.increments, batch.dt, cycle_noiseless)


class TestStiffSettings:
    """Settings where an Euler step with clipping emptied states of the nu
    filter and raised AbsoluteContinuityViolation."""

    @pytest.mark.parametrize(
        "preset, value, T, seed",
        [
            ("example-6.1", 1e-3, 1.0, 20260814),
            ("example-6.2", 10.0, 1.0, 20260814),
            ("example-6.2", 30.0, 1.0, 20260814),
            ("example-6.2", 4.0, 1.5, 19),
        ],
    )
    def test_filters_keep_full_support(self, preset, value, T, seed):
        cfg = preset_config(preset)
        model = model_for_sweep_value(cfg, value)
        ens = run_divergence_ensemble(model, cfg.mu, cfg.nu, 200, T, 1e-3, seed)
        assert ens.terminal_pis.shape == (200, 2, 4)
        assert np.all(ens.terminal_pis > 0.0)


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

    def test_absolute_continuity_violation_raised(self, cycle_model):
        # nu has no mass on states 2 and 3, where mu has
        with pytest.raises(AbsoluteContinuityViolation):
            run_divergence_ensemble(cycle_model, CYCLE_MU, [0.5, 0.5, 0.0, 0.0], 4, 0.1, 1e-3, 0)

    def test_earlier_violation_wins_over_later_empty_level(self):
        # Levels {0, 2}, {1} and {3}.  Conditioned on level {0, 2} at t = 0,
        # mu keeps mass on state 2 and nu has none there: a violation at step
        # 0.  A path started in state 2 jumps to 3 within a few steps, and the
        # nu filter, which can only reach state 1, then has no mass on the
        # observed level.  The step-0 violation must be the error raised.
        A = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -1000.0, 1000.0],
                [0.0, 0.0, 1.0, -1.0],
            ]
        )
        model = validate_model(A, np.array([0.0, 1.0, 0.0, 2.0]), 0.0, allow_noiseless=True)
        with pytest.raises(AbsoluteContinuityViolation):
            run_divergence_ensemble(model, [0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], 8, 0.1, 1e-3, 0)

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


def _per_step_reference(model, mu, nu, n_paths, T, dt, seed, record_drift):
    """The ensemble's outputs with every reduction done at its own step."""
    batch = sample_path_batch(model, n_paths, T, dt, seed, initial_law=mu)
    n_steps = round(T / dt)
    chi2_v, kl_v, tv_v, signal, drift = (np.empty((n_paths, n_steps + 1)) for _ in range(5))
    signal_acc = np.zeros(n_paths)
    drift_acc = np.zeros(n_paths)

    def observer(step, t, pis):
        p, q = pis[:, 0, :], pis[:, 1, :]
        chi2_v[:, step], kl_v[:, step], tv_v[:, step] = _divergence_batch(p, q)
        signal[:, step] = signal_acc
        drift[:, step] = drift_acc
        if step < n_steps and not model.noiseless:
            signal_acc[:] += (((p - q) @ model.h_unit) ** 2).sum(axis=1) * dt
            if record_drift:
                drift_acc[:] += chi2_drift_batch(p, q, model) * dt

    priors = np.stack([mu, nu])
    if model.noiseless:
        evolve_noiseless_ensemble(priors, batch.state_paths, dt, model, observer=observer)
    else:
        evolve_ensemble(priors, batch.increments, dt, model, observer=observer)
    return chi2_v, kl_v, tv_v, signal, drift


class TestBlockedObserver:
    """The block reductions equal per-step reductions bit for bit, for
    horizons that end inside, on and just after a block boundary."""

    STEPS = (1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 3 * _BLOCK_STEPS + 2)

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("m, n_paths", [(1, 7), (2, 12)])
    def test_noisy_with_drift(self, n_steps, m, n_paths):
        rng = np.random.default_rng(n_steps + 100 * m)
        model = validate_model(random_generator_matrix(rng, 4), rng.normal(size=(4, m)), 0.7)
        dt = 0.01
        args = (model, CYCLE_MU, CYCLE_NU, n_paths, n_steps * dt, dt, 5)
        ens = run_divergence_ensemble(*args, record_drift=True)
        chi2_v, kl_v, tv_v, signal, drift = _per_step_reference(*args, record_drift=True)
        for got, want in [
            (ens.series.chi2, chi2_v),
            (ens.series.kl, kl_v),
            (ens.series.tv, tv_v),
            (ens.signal_integral, signal),
            (ens.drift_integral, drift),
        ]:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_steps", STEPS)
    def test_noiseless(self, cycle_noiseless, n_steps):
        dt = 0.01
        args = (cycle_noiseless, CYCLE_MU, CYCLE_NU, 9, n_steps * dt, dt, 3)
        ens = run_divergence_ensemble(*args)
        chi2_v, kl_v, tv_v, _, _ = _per_step_reference(*args, record_drift=False)
        assert ens.signal_integral is None
        for got, want in [(ens.series.chi2, chi2_v), (ens.series.kl, kl_v), (ens.series.tv, tv_v)]:
            assert got.tobytes() == want.tobytes()
