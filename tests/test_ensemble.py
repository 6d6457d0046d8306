"""Ensemble orchestration: stream layout, batched filtering, recorders."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filterlab

from conftest import (
    CYCLE_MU, CYCLE_NU, NOISELESS_ATOL, SERIES_FIELDS, filter_states, interior_simplex, random_generator_matrix,
    report_steps, series_of, step_grid,
)
from filterlab.config import model_for_sweep_value, preset_config
from filterlab.divergence import _divergences, _mean_se, chi2, chi2_drift_batch
from filterlab import ensemble as ensemble_mod
from filterlab.ensemble import REPORT_STEPS, run_divergence_ensemble, run_divergence_sweep, sample_path_batch
from filterlab.errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    GridMismatch,
    NonPositiveNoise,
)
from filterlab.filtering import _BLOCK_STEPS, evolve_ensemble, evolve_noiseless_ensemble
from filterlab.model import as_simplex, validate_model
from filterlab.sim import spawn_rng
from filterlab.verify import record_filter_pair


def _first_draws(seed, stream, law):
    """X_0 and the first holding time on the cycle (exit rate 1) read off
    the stream directly: its first uniform picks X_0 by inverse CDF, and
    its first inverse-CDF exponential is the holding time."""
    rng = spawn_rng(seed, stream)
    x0 = int(np.searchsorted(np.cumsum(law), rng.random(), side="right"))
    return x0, rng.standard_exponential(method="inv")


class TestSamplePathBatch:
    def test_requires_exactly_one_initial_spec(self, cycle_model):
        # the one start is a state index or a law on the d states
        with pytest.raises(TypeError):
            sample_path_batch(cycle_model, 2, 1.0, 1e-2, 0)
        for start in (1.0, [0.5, 0.5]):
            with pytest.raises(DimensionMismatch):
                sample_path_batch(cycle_model, 2, 1.0, 1e-2, 0, start)

    def test_pinned_initial_state(self, cycle_model):
        batch = sample_path_batch(cycle_model, 5, 0.5, 1e-2, 3, 2)
        assert [sp.states[0] for sp in batch.state_paths] == [2] * 5
        assert batch.increments.shape == (5, 50, 1)

    def test_each_path_replays_its_own_stream(self, cycle_model):
        # path i starts stream offset + i: X_0 from its first uniform, the
        # first jump after its first exponential holding time
        offset = 11
        batch = sample_path_batch(
            cycle_model, 4, 1.0, 1e-2, 9, CYCLE_MU, stream_offset=offset
        )
        for i, sp in enumerate(batch.state_paths):
            x0, hold = _first_draws(9, offset + i, CYCLE_MU)
            assert sp.states[0] == x0
            assert sp.jump_times[1:2].tolist() == ([hold] if hold < 1.0 else [])

    def test_noiseless_batch_replays_streams_without_increments(self, cycle_noiseless):
        offset = 8
        batch = sample_path_batch(
            cycle_noiseless, 6, 1.0, 1e-2, 9, CYCLE_NU, stream_offset=offset
        )
        assert batch.increments is None
        assert len(batch.state_paths) == 6
        for i, sp in enumerate(batch.state_paths):
            x0, hold = _first_draws(9, offset + i, CYCLE_NU)
            assert sp.states[0] == x0
            assert sp.jump_times[1:2].tolist() == ([hold] if hold < 1.0 else [])
            assert sp.T == 1.0

    def test_off_grid_horizon_rejected_for_every_model(self, cycle_model, cycle_noiseless):
        # 0.07 does not divide 0.3: no model may sample an off-grid batch
        for model in (cycle_model, cycle_noiseless):
            with pytest.raises(GridMismatch):
                sample_path_batch(model, 2, 0.3, 0.07, 0, CYCLE_MU)

    def test_pinned_state_outside_space_rejected(self, cycle_model):
        with pytest.raises(DimensionMismatch):
            sample_path_batch(cycle_model, 2, 1.0, 1e-2, 0, 4)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, cycle_model, T):
        with pytest.raises(GridMismatch, match=f"horizon T = {T} must be positive"):
            sample_path_batch(cycle_model, 2, T, 1e-2, 0, 0)

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
        model = validate_model(A, gen.normal(size=(d, m)), r)
        law = gen.dirichlet(np.ones(d))
        x_pin = int(gen.integers(d))
        n_paths = 4
        start = x_pin if pinned else law
        batch = sample_path_batch(model, n_paths, T, dt, seed, start, stream_offset=stream_offset)
        assert (batch.increments is None) == model.noiseless
        for i in range(n_paths):
            alone = sample_path_batch(model, 1, T, dt, seed, start, stream_offset=stream_offset + i)
            got, want = batch.state_paths[i], alone.state_paths[0]
            assert np.array_equal(got.jump_times, want.jump_times)
            assert np.array_equal(got.states, want.states)
            assert got.T == want.T
            if not model.noiseless:
                assert batch.increments[i].tobytes() == alone.increments[0].tobytes()


class TestTerminalFilterStates:
    def test_matches_per_path_run_filter(self, cycle_model):
        batch = sample_path_batch(cycle_model, 5, 0.5, 1e-3, 2, CYCLE_MU)
        priors = np.stack([CYCLE_MU, CYCLE_NU])
        out = evolve_ensemble(priors, batch.increments, 1e-3, cycle_model)
        assert out.shape == (5, 2, 4)
        for i in range(5):
            for k, prior in enumerate(priors):
                alone = evolve_ensemble(prior[None], batch.increments[i : i + 1], 1e-3, cycle_model)
                assert np.array_equal(out[i, k], alone[0, 0])

    def test_noiseless_batch_rejected(self, cycle_noiseless):
        batch = sample_path_batch(cycle_noiseless, 3, 0.2, 1e-2, 1, CYCLE_MU)
        with pytest.raises(NonPositiveNoise):
            evolve_ensemble(np.stack([CYCLE_MU, CYCLE_NU]), batch.increments, 1e-2, cycle_noiseless)


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
        assert ens.series.n_paths == 6
        for name in SERIES_FIELDS:
            assert getattr(ens.series, name).shape == (26,)  # every 20th of 500 steps, the last included
        # no per-path series or integrals: record_filter_pair records those
        assert [f.name for f in dataclasses.fields(ens)] == [
            "series", "initial_chi2", "terminal_pis", "initial_states", "nu_filters"
        ]
        assert ens.series.times.tobytes() == step_grid(0.5, 1e-3)[::REPORT_STEPS].tobytes()
        assert ens.series.times[-1] == pytest.approx(0.5)
        assert ens.initial_chi2.shape == (6,)
        np.testing.assert_allclose(
            ens.initial_chi2, chi2(CYCLE_MU, CYCLE_NU), atol=1e-12
        )
        assert ens.terminal_pis.shape == (6, 2, 4)
        np.testing.assert_allclose(ens.terminal_pis.sum(axis=2), 1.0, atol=1e-9)

    def test_signal_integral_starts_at_zero_and_grows(self, cycle_model):
        _, _, signal, _, _ = record_filter_pair(cycle_model, CYCLE_MU, CYCLE_NU, 4, 0.5, 1e-3, 1)
        assert np.all(signal[:, 0] == 0.0)
        assert np.all(np.diff(signal, axis=1) >= 0.0)

    def test_drift_recording_optional(self, cycle_model):
        # the ensemble keeps the report grid only; the recorder keeps every step
        plain = run_divergence_ensemble(cycle_model, CYCLE_MU, CYCLE_NU, 3, 0.2, 1e-3, 0)
        assert plain.series.times.shape == (11,)
        chi2_v, kl_v, signal, drift, terminal = record_filter_pair(cycle_model, CYCLE_MU, CYCLE_NU, 3, 0.2, 1e-3, 0)
        for integral in (signal, drift):
            assert integral.shape == (3, 201)
            assert np.all(integral[:, 0] == 0.0)
        assert chi2_v.shape == kl_v.shape == (3, 201)
        assert terminal.shape == (3, 2, 4)

    def test_recorder_shares_the_ensembles_paths(self):
        # the recorder samples and filters the ensemble's paths, bit for bit,
        # also from a mu that a second as_simplex would round again
        rng = np.random.default_rng(2)
        model = validate_model(random_generator_matrix(rng, 3), rng.normal(size=(3, 1)), 0.7)
        mu, nu = interior_simplex(rng, 3), interior_simplex(rng, 3)
        assert as_simplex(mu, 3).tobytes() != as_simplex(as_simplex(mu, 3), 3).tobytes()
        args = (model, mu, nu, 9, 0.5, 1e-3, 4)
        ens = run_divergence_ensemble(*args)
        chi2_v, kl_v, _, _, terminal = record_filter_pair(*args)
        assert terminal.tobytes() == ens.terminal_pis.tobytes()
        assert chi2_v[:, 0].tobytes() == ens.initial_chi2.tobytes()
        report = report_steps(500)
        for name, values in (("chi2", chi2_v), ("kl", kl_v)):
            mean, se = _mean_se(np.ascontiguousarray(values[:, report]))
            assert mean.tobytes() == getattr(ens.series, f"{name}_mean").tobytes()
            assert se.tobytes() == getattr(ens.series, f"{name}_se").tobytes()

    def test_filters_start_from_one_normalization_of_the_priors(self, cycle_model, monkeypatch):
        # the first Dirichlet pair whose mu a second as_simplex moves: the
        # filters start from as_simplex(mu), the law the paths are drawn from
        rng = np.random.default_rng(3)
        pairs = (rng.dirichlet(np.ones(4), size=2) for _ in range(100))
        mu, nu = next(p for p in pairs if as_simplex(p[0], 4).tobytes() != as_simplex(as_simplex(p[0], 4), 4).tobytes())
        starts, engine = [], ensemble_mod.evolve_ensemble

        def recording(priors, increments, dt, model, observer):
            def first(step, S):
                if step == 0:
                    starts.append(S.copy())
                observer(step, S)

            return engine(priors, increments, dt, model, first)

        monkeypatch.setattr(ensemble_mod, "evolve_ensemble", recording)
        ens = run_divergence_ensemble(cycle_model, mu, nu, 6, 0.05, 1e-3, 0)
        law = as_simplex(mu, 4)
        assert ens.initial_chi2.tobytes() == np.full(6, chi2(law, as_simplex(nu, 4))).tobytes()
        assert starts[0][:, 0].tobytes() == np.repeat(law[:, None], 6, axis=1).tobytes()

    def test_noiseless_route_uses_exact_filter(self, cycle_noiseless):
        # the cycle's level-set filter keeps the chi-square gap frozen at
        # its conditioned initial value for these priors
        ens = run_divergence_ensemble(
            cycle_noiseless, CYCLE_MU, CYCLE_NU, 5, 1.0, 1e-3, 0
        )
        # every path is within sqrt(P (P - 1)) se of the mean at each time
        s = ens.series
        assert np.all(np.abs(s.chi2_mean - 0.16) + np.sqrt(5 * 4) * s.chi2_se <= 1e-10)
        np.testing.assert_allclose(ens.initial_chi2, 0.16, atol=1e-10)

    def test_noiseless_drift_recording_rejected(self, cycle_noiseless):
        # raised before the batch's increments, None for a noiseless model, are read
        with pytest.raises(NonPositiveNoise):
            record_filter_pair(cycle_noiseless, CYCLE_MU, CYCLE_NU, 2, 0.5, 1e-3, 0)

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
        model = validate_model(A, np.array([0.0, 1.0, 0.0, 2.0]), 0.0)
        with pytest.raises(AbsoluteContinuityViolation):
            run_divergence_ensemble(model, [0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], 8, 0.1, 1e-3, 0)

    def test_violation_between_report_points_raises_at_its_step(self, monkeypatch):
        # H is constant, so each filter is its prior's prediction.  State 2
        # only drains, at rate 28: nu's mass 2e-14 there falls below
        # SUPPORT_EPS at step 25 (e^{-28 t} < 1/2 from t = 0.0248), between
        # the report points 20 and 30, while mu's stays near 1/4
        A = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [28.0, 0.0, -28.0]])
        model = validate_model(A, np.ones(3), 1.0)
        steps, engine = [], ensemble_mod.evolve_ensemble

        def recording(priors, increments, dt, model, observer):
            return engine(priors, increments, dt, model, lambda step, S: (steps.append(step), observer(step, S)))

        monkeypatch.setattr(ensemble_mod, "evolve_ensemble", recording)
        with pytest.raises(AbsoluteContinuityViolation):
            run_divergence_ensemble(model, [0.25, 0.25, 0.5], [0.5 - 1e-14, 0.5 - 1e-14, 2e-14], 4, 0.03, 1e-3, 0)
        assert steps == list(range(26)) and 25 not in report_steps(30)

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
            model = validate_model(A, np.array([1.0, 0, 1, 0]), 0.0)
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


class TestReportGrid:
    """A pass keeps every REPORT_STEPS-th step and the last; each value it
    keeps is the per-step run's value at that time, bit for bit."""

    @pytest.mark.parametrize("n_steps", [19, 20, 21, 41])
    @pytest.mark.parametrize("n_paths", [1, 7, 200])
    def test_noisy_series_equal_per_step_series_at_report_times(self, n_steps, n_paths):
        rng = np.random.default_rng(n_steps)
        model = validate_model(random_generator_matrix(rng, 4), rng.normal(size=(4, 1)), 0.7)
        report = report_steps(n_steps)
        assert report.tolist() == [*range(0, n_steps, 20), n_steps]
        T, dt = n_steps * 1e-3, 1e-3
        ens = next(run_divergence_sweep([model], CYCLE_MU, CYCLE_NU, n_paths, T, dt, 5, 3))
        mu_paths = sample_path_batch(model, n_paths, T, dt, 5, CYCLE_MU).increments
        nu_paths = sample_path_batch(model, 3, T, dt, 5, CYCLE_NU, stream_offset=n_paths).increments
        for got, want in [
            (ens.series.times, step_grid(T, dt)[report]),
            (ens.nu_filters, filter_states(CYCLE_NU, nu_paths, dt, model)[:, 0, report]),
            (ens.terminal_pis, filter_states(np.stack([CYCLE_MU, CYCLE_NU]), mu_paths, dt, model)[:, :, -1]),
        ]:
            assert got.tobytes() == want.tobytes()
        # and the reduction of whole per-step (P, n + 1) arrays, taken at the report steps
        chi2_v, kl_v, tv_v = _per_step_reference(model, CYCLE_MU, CYCLE_NU, n_paths, T, dt, 5)[:3]
        assert ens.initial_chi2.tobytes() == chi2_v[:, 0].tobytes()
        want = series_of(step_grid(T, dt), chi2_v, kl_v, tv_v)
        for name in SERIES_FIELDS:
            assert getattr(ens.series, name).tobytes() == getattr(want, name)[report].tobytes()


class TestRunDivergenceSweep:
    """A sweep draws its paths and noise once; each value's ensemble equals
    its one-model run bit for bit."""

    @pytest.mark.parametrize(
        "preset, values",
        [
            ("example-6.1", (0.0, 0.1, 1.0, 10.0)),
            # k = 2.5: the drift of k H is not k times the drift of H
            ("example-6.2", (0.0, 1.0, 2.5)),
        ],
    )
    def test_each_value_equals_its_one_model_run(self, preset, values):
        cfg = preset_config(preset)
        models = [model_for_sweep_value(cfg, value) for value in values]
        args = (cfg.mu, cfg.nu, 10, 0.2, 1e-3, 11, 3)
        for model, ens in zip(models, run_divergence_sweep(models, *args)):
            alone = next(run_divergence_sweep([model], *args))
            for got, want in [
                *((getattr(ens.series, name), getattr(alone.series, name)) for name in SERIES_FIELDS),
                (ens.initial_chi2, alone.initial_chi2),
                (ens.terminal_pis, alone.terminal_pis),
                (ens.nu_filters, alone.nu_filters),
                (ens.initial_states, alone.initial_states),
            ]:
                assert got.tobytes() == want.tobytes()

    def test_peak_memory_holds_no_per_path_series(self):
        # P = 400 paths of 1,000 steps: the normals and the drift are about
        # one (P, n + 1) array each; the kernel forms the increments one
        # block of steps at a time, so no value holds a third
        peak, one_series = _sweep_peak_memory((1.0,))
        assert peak <= 2.9 * one_series

    def test_peak_memory_of_a_four_value_sweep_holds_no_per_path_series(self):
        # the values share the normals; each drops the last drift before it allocates its own
        peak, one_series = _sweep_peak_memory((0.0, 0.1, 1.0, 10.0))
        assert peak <= 2.9 * one_series

    def test_models_must_share_the_generator(self, cycle_model, blocks_model):
        with pytest.raises(DimensionMismatch):
            next(run_divergence_sweep([cycle_model, blocks_model], CYCLE_MU, CYCLE_NU, 2, 0.1, 1e-2, 0))


def _sweep_peak_memory(values):
    """Peak traced bytes of an example-6.1 sweep over values at P = 400
    paths of 1,000 steps, and the bytes of one (P, n + 1) float array."""
    cfg = preset_config("example-6.1")
    models = [model_for_sweep_value(cfg, value) for value in values]
    P, T, dt = 400, 1.0, 1e-3
    one_series = P * (round(T / dt) + 1) * 8
    next(run_divergence_sweep(models[-1:], cfg.mu, cfg.nu, 4, 0.1, dt, 0))  # warm-up: imports numpy.random
    tracemalloc.start()
    try:
        for ens in run_divergence_sweep(models, cfg.mu, cfg.nu, P, T, dt, cfg.master_seed):
            ens.series.chi2_mean, ens.series.chi2_se
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, one_series


def _per_step_reference(model, mu, nu, n_paths, T, dt, seed):
    """Per-path chi2, kl and tv with each divergence computed at its own
    step, and for a noisy model the signal and drift integrals.

    The integrals are formed as record_filter_pair forms them, from a
    state-major (d, 2, steps, P) stack of the filter pairs, but one stack of
    the whole horizon, and added up step by step, the signal by the
    left-point rule and the drift by the trapezoid rule: at P = 1 a 2-D
    (1, d) product rounds differently from the stacked one.
    """
    batch = sample_path_batch(model, n_paths, T, dt, seed, mu)
    n_steps = round(T / dt)
    chi2_v, kl_v, tv_v = (np.empty((n_paths, n_steps + 1)) for _ in range(3))
    pq = np.empty((model.d, 2, n_steps + 1, n_paths))

    def observer(step, S):
        chi2_v[:, step], kl_v[:, step], tv_v[:, step] = _divergences(S[:, 0], S[:, 1])
        pq[:, :, step] = S

    priors = np.stack([mu, nu])
    if model.noiseless:
        evolve_noiseless_ensemble(priors, batch.state_paths, step_grid(T, dt), model, observer=observer)
    else:
        evolve_ensemble(priors, batch.increments, dt, model, observer=observer)
    signal, drift = np.zeros((2, n_paths, n_steps + 1))
    if not model.noiseless:
        p, q = np.moveaxis(pq, 0, -1)
        signal_rate = (((p[:n_steps] - q[:n_steps]) @ model.h_unit) ** 2).sum(axis=-1)
        drift_rate = chi2_drift_batch(p, q, model)
        for step in range(n_steps):
            signal[:, step + 1] = signal[:, step] + signal_rate[step] * dt
            # the trapezoid rule: the drift at both ends of the step
            drift[:, step + 1] = drift[:, step] + (drift_rate[step] + drift_rate[step + 1]) * (0.5 * dt)
    return chi2_v, kl_v, tv_v, signal, drift


class TestBlockedObserver:
    """The block reductions equal per-step reductions bit for bit, for
    horizons that end inside, on and just after a block boundary."""

    STEPS = (1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS - 1, 3 * _BLOCK_STEPS + 2)

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("m, n_paths", [(1, 1), (1, 7), (2, 12)])
    def test_noisy_with_drift(self, n_steps, m, n_paths):
        """record_filter_pair, which reduces a buffer of steps at once, equals
        the reference bit for bit.  The ensemble's filters run on the
        sweep's increments, formed a kernel block at a time from the normals
        and the drift, and the reference's on sample_path_batch's, formed in
        place in one array: this is the guard that the two forms agree bit
        for bit."""
        rng = np.random.default_rng(n_steps + 100 * m)
        model = validate_model(random_generator_matrix(rng, 4), rng.normal(size=(4, m)), 0.7)
        dt = 0.01
        args = (model, CYCLE_MU, CYCLE_NU, n_paths, n_steps * dt, dt, 5)
        chi2_v, kl_v, tv_v, signal, drift = _per_step_reference(*args)
        for got, want in zip(record_filter_pair(*args), (chi2_v, kl_v, signal, drift)):
            assert got.tobytes() == want.tobytes()
        ens = run_divergence_ensemble(*args)
        assert ens.initial_chi2.tobytes() == chi2_v[:, 0].tobytes()
        report = report_steps(n_steps)
        _assert_series_of(ens.series, chi2_v[:, report], kl_v[:, report], tv_v[:, report])

    # n_points = 17 report points leave 1 in the last block, 31 points 15 and
    # 32 points 16; P >= 8 is where numpy would sum a single column pairwise
    @pytest.mark.parametrize("n_steps", [_BLOCK_STEPS, 2 * _BLOCK_STEPS - 2, 2 * _BLOCK_STEPS - 1])
    @pytest.mark.parametrize("n_paths", [1, 2, 9, 200])
    def test_series_are_mean_se_of_the_recorded_paths(self, n_steps, n_paths):
        rng = np.random.default_rng(n_steps)
        model = validate_model(random_generator_matrix(rng, 4), rng.normal(size=(4, 1)), 0.7)
        n_points = n_steps + 1
        args = (model, CYCLE_MU, CYCLE_NU, n_paths, n_steps * REPORT_STEPS * 0.01, 0.01, 5)
        ens = run_divergence_ensemble(*args)
        chi2_v, kl_v, _, _, _ = record_filter_pair(*args)
        chi2_r, kl_r, tv_r, _, _ = _per_step_reference(*args)
        assert chi2_v.tobytes() == chi2_r.tobytes()
        assert kl_v.tobytes() == kl_r.tobytes()
        report = report_steps(n_steps * REPORT_STEPS)
        assert len(report) == n_points
        _assert_series_of(ens.series, chi2_v[:, report], kl_v[:, report], tv_r[:, report])

    @pytest.mark.parametrize("n_steps", STEPS)
    def test_noiseless(self, cycle_noiseless, n_steps):
        """The noiseless engine steps the report grid: its own per-point
        reduction bit for bit, the engine run at every step within NOISELESS_ATOL."""
        dt = 0.01
        args = (cycle_noiseless, CYCLE_MU, CYCLE_NU, 9, n_steps * dt, dt, 3)
        ens = run_divergence_ensemble(*args)
        chi2_v, kl_v, tv_v, _, _ = _per_step_reference(*args)
        assert ens.initial_chi2.tobytes() == chi2_v[:, 0].tobytes()
        report = report_steps(n_steps)
        assert ens.series.times.tobytes() == step_grid(n_steps * dt, dt)[report].tobytes()
        _assert_series_of(ens.series, *_report_grid_reference(*args))
        want = series_of(step_grid(n_steps * dt, dt), chi2_v, kl_v, tv_v)
        for name in SERIES_FIELDS:
            np.testing.assert_allclose(getattr(ens.series, name), getattr(want, name)[report], rtol=0, atol=NOISELESS_ATOL)


def _report_grid_reference(model, mu, nu, n_paths, T, dt, seed):
    """chi2, kl and tv (P, points) of the noiseless engine stepped on the report grid."""
    batch = sample_path_batch(model, n_paths, T, dt, seed, mu)
    pis = filter_states(np.stack([mu, nu]), batch.state_paths, step_grid(T, dt)[report_steps(round(T / dt))], model)
    S = np.moveaxis(pis, -1, 0)  # (d, P, k, points)
    return _divergences(S[:, :, 0], S[:, :, 1])


def _assert_series_of(series, chi2_v, kl_v, tv_v):
    """series holds _mean_se of the per-path arrays, bit for bit (nan se at P = 1)."""
    want = series_of(series.times, chi2_v, kl_v, tv_v)
    assert series.n_paths == want.n_paths
    for name in SERIES_FIELDS:
        assert getattr(series, name).tobytes() == getattr(want, name).tobytes()
