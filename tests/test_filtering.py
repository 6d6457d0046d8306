"""Conditional-law stepping: invariants, oracles, and the noiseless filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import CYCLE_A, CYCLE_H, CYCLE_MU, CYCLE_NU, filter_states, random_generator_matrix, state_path, step_grid
from filterlab.config import model_for_sweep_value, preset_config
from filterlab.ensemble import sample_path_batch
from filterlab.errors import (
    DegenerateMass,
    DimensionMismatch,
    EmptyLevelSet,
    GridMismatch,
    NonPositiveNoise,
)
from filterlab.filtering import (
    _BLOCK_STEPS,
    _subgenerator_expm,
    evolve_ensemble,
    evolve_noiseless_ensemble,
    wonham_step,
)
from filterlab.model import validate_model
from filterlab.sim import StatePath
from filterlab.verify import ORDER_BAND, ORDER_DT, ORDER_FACTORS, splitting_strong_order


def _noise(rng, n_steps, m, scale=1.0):
    """Increments (1, n_steps, m) of one observation path."""
    return scale * rng.normal(size=(1, n_steps, m))


class TestWonhamStep:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_preserves_simplex_under_extreme_increments(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        A = rng.uniform(0.0, 2.0, size=(d, d))
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        model = validate_model(A, rng.normal(size=(d, 2)), float(rng.uniform(0.2, 3.0)))
        pi = rng.dirichlet(np.ones(d))
        dz = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3)
        out = wonham_step(pi, dz, 1e-3, model)
        assert out.shape == (d,)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_matches_hand_built_splitting_step(self, cycle_model, rng):
        # predict with expm(A dt), correct with the increment's likelihood,
        # normalize: one step is exactly this update, for m = 1 and m = 2
        dt = 1e-3
        A = rng.uniform(0.2, 2.0, size=(3, 3))
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        two_channel = validate_model(A, rng.normal(size=(3, 2)), 0.5)
        for model in (cycle_model, two_channel):
            hu = model.h_unit
            for scale in (0.7, -0.05, 0.0):
                pi = rng.dirichlet(np.ones(model.d))
                dz = scale * rng.normal(size=model.m)
                predicted = pi @ expm(model.A * dt)
                raw = predicted * np.exp(hu @ dz / model.r - 0.5 * dt * (hu**2).sum(axis=1))
                out = wonham_step(pi, dz, dt, model)
                np.testing.assert_allclose(out, raw / raw.sum(), rtol=0.0, atol=1e-12)

    def test_broadcasts_over_leading_axes(self, cycle_model, rng):
        pis = rng.dirichlet(np.ones(4), size=(5, 3))
        dz = rng.normal(size=(5, 1, 1)) * 0.03
        out = wonham_step(pis, dz, 1e-3, cycle_model)
        assert out.shape == (5, 3, 4)
        for i in range(5):
            for j in range(3):
                single = wonham_step(pis[i, j], dz[i, 0], 1e-3, cycle_model)
                assert np.array_equal(out[i, j], single)

    def test_noiseless_model_refused(self, cycle_noiseless):
        with pytest.raises(NonPositiveNoise):
            wonham_step(np.full(4, 0.25), np.zeros(1), 1e-3, cycle_noiseless)

    def test_dimension_mismatch(self, cycle_model):
        with pytest.raises(DimensionMismatch):
            wonham_step(np.full(3, 1 / 3), np.zeros(1), 1e-3, cycle_model)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_increment_raises(self, cycle_model):
        with pytest.raises(DegenerateMass):
            wonham_step(np.full(4, 0.25), np.array([np.nan]), 1e-3, cycle_model)


class TestRunFilter:
    """The filter run along one observation path."""

    def test_zero_gain_matches_matrix_exponential(self, rng):
        # with h = 0 the filter is the forward equation; expm is the oracle
        model = validate_model(CYCLE_A, np.zeros(4), 1.0)
        pi0 = np.array([0.7, 0.1, 0.1, 0.1])
        terminal = evolve_ensemble(pi0[None], _noise(rng, 1000, 1), 1e-3, model)
        target = expm(CYCLE_A.T * 1.0) @ pi0
        # the splitting step is exact at h = 0: only rounding remains
        assert np.max(np.abs(terminal[0, 0] - target)) < 1e-12

    def test_strong_order_one_on_shared_increments(self):
        # halving dt from 8e-3 to 1e-3 must roughly halve the error against a
        # dt = 1.25e-4 run on the same observation paths: ratios in [1.5, 2.5]
        assert [c * ORDER_DT for c in ORDER_FACTORS] == pytest.approx([8e-3, 4e-3, 2e-3, 1e-3])
        assert ORDER_BAND == (1.5, 2.5)
        cfg = preset_config("example-6.1")
        cases = []
        for sigma2 in (1.0, 0.1):
            model = model_for_sweep_value(cfg, sigma2)
            batch = sample_path_batch(model, 200, 1.0, ORDER_DT, 20260814, cfg.mu)
            cases.append((f"sigma2={sigma2:g}", model, batch.increments))
        result = splitting_strong_order(cases, cfg.mu, ORDER_DT)
        assert result.passed, result.detail

    def test_prior_stack_matches_single_runs(self, cycle_model, rng):
        inc = _noise(rng, 200, 1, scale=0.05)
        stack = filter_states(np.stack([CYCLE_MU, CYCLE_NU]), inc, 1e-3, cycle_model)
        for k, prior in enumerate((CYCLE_MU, CYCLE_NU)):
            alone = filter_states(prior, inc, 1e-3, cycle_model)
            assert np.array_equal(stack[:, k], alone[:, 0])

    def test_rows_stay_on_simplex(self, cycle_model, rng):
        pis = filter_states(CYCLE_MU, _noise(rng, 500, 1), 1e-3, cycle_model)
        assert np.all(pis >= 0)
        np.testing.assert_allclose(pis.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_failure_reports_step(self, cycle_model, rng):
        inc = _noise(rng, 50, 1, scale=0.01)
        inc[0, 17, 0] = np.inf
        with pytest.raises(DegenerateMass, match="step 17"):
            evolve_ensemble(CYCLE_MU[None], inc, 1e-3, cycle_model)

    def test_observation_dimension_checked(self, cycle_model, rng):
        with pytest.raises(DimensionMismatch):
            evolve_ensemble(CYCLE_MU[None], _noise(rng, 10, 2), 1e-3, cycle_model)


class TestEvolveEnsemble:
    def test_wide_model_matches_single_paths_bitwise(self, rng):
        # d = 9 states and m = 2 channels: the exponent and the mass are sums
        # of rows, not a BLAS product or a pairwise sum, whose rounding would
        # depend on the number of paths
        A = rng.uniform(0.2, 2.0, size=(9, 9))
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        model = validate_model(A, rng.normal(size=(9, 2)), 0.5)
        priors = rng.dirichlet(np.ones(9), size=2)
        increments = rng.normal(size=(7, 60, 2)) * 0.03
        terminal = evolve_ensemble(priors, increments, 1e-3, model)
        for p in range(7):
            for k, prior in enumerate(priors):
                alone = evolve_ensemble(prior[None], increments[p : p + 1], 1e-3, model)
                assert np.array_equal(terminal[p, k], alone[0, 0])

    def test_observer_sees_every_step_including_zero(self, cycle_model, rng):
        increments = rng.normal(size=(3, 40, 1)) * 0.03
        seen = []

        def observer(step, pis):
            seen.append((step, pis.copy()))

        terminal = evolve_ensemble(
            np.stack([CYCLE_MU, CYCLE_NU]), increments, 1e-3, cycle_model, observer
        )
        assert len(seen) == 41
        assert seen[0][0] == 0
        assert np.array_equal(seen[0][1][0, 0], CYCLE_MU)
        assert np.array_equal(seen[-1][1], terminal)
        steps = [s for s, _ in seen]
        assert steps == list(range(41))

    def test_per_path_priors_equal_shared_prior_runs(self, cycle_model, rng):
        _assert_per_path_priors_filtered_alone(rng.normal(size=(4, 40, 1)) * 0.03, 1e-3, cycle_model)

    def test_per_path_priors_must_match_the_paths(self, cycle_model, rng):
        with pytest.raises(DimensionMismatch):
            evolve_ensemble(np.full((2, 3, 4), 0.25), rng.normal(size=(2, 10, 1)), 1e-3, cycle_model)

    def test_increment_shape_checked(self, cycle_model, rng):
        with pytest.raises(DimensionMismatch):
            evolve_ensemble(
                np.stack([CYCLE_MU]), rng.normal(size=(3, 40)), 1e-3, cycle_model
            )

    def test_empty_ensemble_rejected(self, cycle_model):
        with pytest.raises(DimensionMismatch, match="got 0 paths"):
            evolve_ensemble(CYCLE_MU[None], np.zeros((0, 10, 1)), 1e-3, cycle_model)
        with pytest.raises(DimensionMismatch, match=r"priors \(0, 4\)"):
            evolve_ensemble(np.zeros((0, 4)), np.zeros((3, 10, 1)), 1e-3, cycle_model)


def _assert_per_path_priors_filtered_alone(data, dt, model):
    """(k, P, d) priors give each path the numbers of its own (k, d) run."""
    rows = np.stack([np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1])])
    per_path = rows[[[0, 1, 2, 1], [1, 2, 0, 1]]]  # (k = 2, P = 4, d)
    batch = filter_states(per_path, data, dt, model)
    for p in range(4):
        assert np.array_equal(batch[p], filter_states(per_path[:, p], data[p : p + 1], dt, model)[0])


class TestBlockCorrection:
    """The correction is exponentiated once per block of _BLOCK_STEPS steps;
    n = 37 ends inside the third block."""

    N_STEPS = 37

    def test_observer_sees_each_step_once(self, cycle_model, rng):
        assert self.N_STEPS % _BLOCK_STEPS != 0
        seen = []
        evolve_ensemble(
            CYCLE_MU[None], rng.normal(size=(2, self.N_STEPS, 1)) * 0.03, 1e-3, cycle_model,
            lambda step, pis: seen.append(step),
        )
        assert seen == list(range(self.N_STEPS + 1))

    def test_blocks_equal_one_step_at_a_time(self, rng):
        # wonham_step runs a one-step block, so the blocked exponent must
        # give the same bits as the step-by-step one
        model = validate_model(CYCLE_A, np.stack([CYCLE_H, 1.0 - CYCLE_H], axis=1), 0.7)
        increments = rng.normal(size=(5, self.N_STEPS, 2)) * 0.03
        priors = np.stack([CYCLE_MU, CYCLE_NU])
        blocked = filter_states(priors, increments, 1e-3, model)
        pis = np.broadcast_to(priors, (5, 2, 4))
        for step in range(self.N_STEPS):
            assert np.array_equal(blocked[:, :, step], pis)
            pis = wonham_step(pis, increments[:, None, step], 1e-3, model)
        assert np.array_equal(blocked[:, :, -1], pis)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("step", [0, _BLOCK_STEPS - 1, _BLOCK_STEPS, N_STEPS - 1])
    def test_degenerate_mass_names_its_step(self, cycle_model, rng, step):
        increments = rng.normal(size=(3, self.N_STEPS, 1)) * 0.03
        increments[1, step, 0] = np.inf
        seen = []
        with pytest.raises(DegenerateMass, match=f"^step {step}:"):
            evolve_ensemble(CYCLE_MU[None], increments, 1e-3, cycle_model, lambda k, pis: seen.append(k))
        assert seen == list(range(step + 1))


class TestExactNoiselessFilter:
    def _roll_oracle(self, prior, sp, dt):
        """Closed form for the cycle: the conditioned prior mass advances one
        state per observed jump and is otherwise frozen (equal exit rates,
        no transitions inside a level set)."""
        mask = CYCLE_H == CYCLE_H[sp.states[0]]
        pi0 = np.where(mask, prior, 0.0)
        pi0 = pi0 / pi0.sum()
        n_steps = int(round(sp.T / dt))
        times = np.arange(n_steps + 1) * dt
        n_jumps = np.searchsorted(sp.jump_times[1:], times, side="right")
        return np.stack([np.roll(pi0, int(n)) for n in n_jumps])

    def test_cycle_matches_closed_form(self, cycle_noiseless):
        sp = state_path(cycle_noiseless, 0, 5.0, 42)
        pis = filter_states(CYCLE_MU, [sp], 1e-3, cycle_noiseless)[0, 0]
        oracle = self._roll_oracle(CYCLE_MU, sp, 1e-3)
        np.testing.assert_allclose(pis, oracle, atol=1e-12)

    def test_initial_row_conditions_on_observed_level(self, cycle_noiseless):
        sp = state_path(cycle_noiseless, 1, 1.0, 43)
        pis = filter_states(CYCLE_MU, [sp], 1e-3, cycle_noiseless)[0, 0]
        # X_0 = 1 has level 0, so the prior restricts to states {1, 3}
        np.testing.assert_allclose(pis[0], [0.0, 0.7, 0.0, 0.3], atol=1e-14)

    def test_support_tracks_observed_level(self):
        model = validate_model(
            np.array(
                [
                    [-1.0, 0.5, 0.5, 0.0],
                    [1.0, -2.0, 0.0, 1.0],
                    [0.3, 0.0, -0.6, 0.3],
                    [0.0, 2.0, 1.0, -3.0],
                ]
            ),
            np.array([1.0, 0.0, 1.0, 0.0]),
            0.0,
        )
        sp = state_path(model, 0, 3.0, 44)
        pis = filter_states(np.full(4, 0.25), [sp], 1e-3, model)[0, 0]
        times = np.arange(pis.shape[0]) * 1e-3
        grid_states = sp.states[np.searchsorted(sp.jump_times, times, side="right") - 1]
        levels = model.H[grid_states, 0]
        off_level = model.H[:, 0][None, :] != levels[:, None]
        assert np.all(pis[off_level] == 0.0)
        np.testing.assert_allclose(pis.sum(axis=1), 1.0, atol=1e-12)

    def test_prior_without_level_mass_raises(self, cycle_noiseless):
        sp = state_path(cycle_noiseless, 0, 1.0, 45)  # starts on level 1
        with pytest.raises(EmptyLevelSet):
            evolve_noiseless_ensemble(np.array([[0.0, 0.5, 0.0, 0.5]]), [sp], step_grid(1.0, 1e-3), cycle_noiseless)

    def test_nondividing_dt_rejected(self, cycle_noiseless):
        # steps of 0.3 end at 0.9, short of the horizon; a grid must rise from 0 to T
        sp = state_path(cycle_noiseless, 0, 1.0, 46)
        for grid in (np.arange(4) * 0.3, 1e-3, [0.0], [0.0, 0.5, 0.5, 1.0], [0.1, 1.0], np.arange(5) * 0.3):
            with pytest.raises(GridMismatch):
                evolve_noiseless_ensemble(CYCLE_MU[None], [sp], grid, cycle_noiseless)


# The 4-state model of test_support_tracks_observed_level: levels {0, 2} and
# {1, 3}, with transitions inside each level, so the conditioned law is not
# a roll of the prior as on the cycle.
OFF_CYCLE_A = np.array(
    [
        [-1.0, 0.5, 0.5, 0.0],
        [1.0, -2.0, 0.0, 1.0],
        [0.3, 0.0, -0.6, 0.3],
        [0.0, 2.0, 1.0, -3.0],
    ]
)
OFF_CYCLE_H = np.array([1.0, 0.0, 1.0, 0.0])


def _expm_oracle(prior, sp, A, h, dt):
    """Noiseless filter from scipy.linalg.expm on every piece between grid
    points and observed level changes, with the flux transfer at changes."""

    def propagator(level, span):
        idx = np.flatnonzero(h == level)
        out = np.zeros(A.shape)
        out[np.ix_(idx, idx)] = expm(A[np.ix_(idx, idx)] * span)
        return out

    levels = h[sp.states]
    observed = np.r_[True, levels[1:] != levels[:-1]]
    taus, levels = sp.jump_times[observed], levels[observed]
    pi = np.where(h == levels[0], prior, 0.0)
    pi = pi / pi.sum()
    rows, t, j = [pi], 0.0, 1
    for t_end in np.arange(1, int(round(sp.T / dt)) + 1) * dt:
        while j < len(taus) and taus[j] <= t_end:
            pi = pi @ propagator(levels[j - 1], taus[j] - t)
            pi = (pi @ A) * (h == levels[j])
            pi, t, j = pi / pi.sum(), taus[j], j + 1
        pi = pi @ propagator(levels[j - 1], t_end - t)
        pi, t = pi / pi.sum(), t_end
        rows.append(pi)
    return np.stack(rows)


class TestNoiselessEngine:
    @pytest.fixture(scope="class")
    def model(self):
        return validate_model(OFF_CYCLE_A, OFF_CYCLE_H, 0.0)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_matches_expm_oracle_off_the_cycle(self, model, dt):
        sp = state_path(model, 0, 3.0, 6)
        levels = OFF_CYCLE_H[sp.states]
        assert np.count_nonzero(levels[1:] != levels[:-1]) >= 3
        prior = np.array([0.1, 0.2, 0.3, 0.4])
        pis = filter_states(prior, [sp], dt, model)[0, 0]
        oracle = _expm_oracle(prior, sp, OFF_CYCLE_A, OFF_CYCLE_H, dt)
        np.testing.assert_allclose(pis, oracle, rtol=0.0, atol=1e-12)

    def test_batch_equals_single_path_calls(self, model):
        dt = 1e-2
        grid = np.arange(6) * dt
        paths = [
            # two observed level changes inside step 1
            StatePath(np.array([0.0, 0.012, 0.017]), np.array([0, 1, 0]), 0.05),
            # an observed level change exactly on the grid point t_3, which
            # belongs to step 2
            StatePath(np.array([0.0, grid[3]]), np.array([2, 3]), 0.05),
            # a jump inside a level, then an observed level change
            StatePath(np.array([0.0, 0.025, 0.041]), np.array([0, 2, 3]), 0.05),
            state_path(model, 1, 0.05, 3, stream=1),
            StatePath(np.array([0.0]), np.array([3]), 0.05),
            # two more paths whose observed level changes inside step 2
            StatePath(np.array([0.0, 0.023]), np.array([1, 2]), 0.05),
            StatePath(np.array([0.0, 0.027, 0.029]), np.array([0, 3, 2]), 0.05),
        ]
        rows = np.stack([np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1])])
        priors = rows[[[0, 1, 2, 0, 1, 2, 1], [1, 2, 0, 2, 0, 1, 1]]]  # (k = 2, P = 7, d)
        seen = []

        def observer(step, pis):
            seen.append((step, pis.copy()))

        terminal = evolve_noiseless_ensemble(priors, paths, grid, model, observer)
        assert terminal.shape == (7, 2, 4)
        assert [step for step, _ in seen] == list(range(6))
        batch = np.stack([pis for _, pis in seen], axis=2)  # (P, k, n + 1, d)
        assert np.array_equal(batch[:, :, -1], terminal)
        for p, sp in enumerate(paths):
            alone = filter_states(priors[:, p], [sp], dt, model)[0]
            assert np.array_equal(batch[p], alone)
            for k, prior in enumerate(priors[:, p]):
                oracle = _expm_oracle(prior, sp, OFF_CYCLE_A, OFF_CYCLE_H, dt)
                np.testing.assert_allclose(alone[k], oracle, rtol=0.0, atol=1e-12)

    def test_wide_model_matches_single_paths_bitwise(self, rng):
        # d = 9 states on three levels: the mass is a sum of rows in order,
        # not numpy's pairwise sum, which one path of one prior would get
        model = validate_model(random_generator_matrix(rng, 9), np.arange(9) % 3, 0.0)
        paths = sample_path_batch(model, 6, 0.3, 1e-2, 9, np.full(9, 1 / 9)).state_paths
        priors = rng.dirichlet(np.ones(9), size=2)
        terminal = evolve_noiseless_ensemble(priors, paths, step_grid(0.3, 1e-2), model)
        for p, sp in enumerate(paths):
            for k, prior in enumerate(priors):
                alone = evolve_noiseless_ensemble(prior[None], [sp], step_grid(0.3, 1e-2), model)
                assert np.array_equal(terminal[p, k], alone[0, 0])

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_matches_expm_oracle_on_uneven_interleaved_levels(self, dt):
        # levels {0, 2, 4}, {1} and {3}: blocks of different sizes whose
        # states interleave; a single-state level's block is the scalar
        # exp(A(x, x) dt), and its law the point mass whatever that scalar
        A = np.array(
            [
                [-3.0, 1.0, 1.0, 0.0, 1.0],
                [0.5, -1.5, 0.5, 0.5, 0.0],
                [1.0, 0.0, -2.5, 1.0, 0.5],
                [0.5, 0.5, 0.0, -1.5, 0.5],
                [1.0, 0.5, 0.5, 0.5, -2.5],
            ]
        )
        h = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        model = validate_model(A, h, 0.0)
        sp = state_path(model, 0, 3.0, 7)
        levels = h[sp.states]
        assert set(levels) == {0.0, 1.0, 2.0}
        assert np.count_nonzero(levels[1:] != levels[:-1]) >= 4
        prior = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        pis = filter_states(prior, [sp], dt, model)[0, 0]
        oracle = _expm_oracle(prior, sp, A, h, dt)
        np.testing.assert_allclose(pis, oracle, rtol=0.0, atol=1e-12)

    def test_empty_ensemble_rejected(self, model):
        with pytest.raises(DimensionMismatch, match="got 0 paths"):
            evolve_noiseless_ensemble(np.full((1, 4), 0.25), [], step_grid(0.1, 1e-2), model)

    def test_per_path_priors_equal_shared_prior_runs(self, model):
        paths = [state_path(model, x0, 0.5, 11, stream=x0) for x0 in range(4)]
        _assert_per_path_priors_filtered_alone(paths, 1e-2, model)

    def test_per_path_priors_must_match_the_paths(self, model):
        paths = [state_path(model, 0, 0.5, 11)]
        with pytest.raises(DimensionMismatch):
            evolve_noiseless_ensemble(np.full((1, 2, 4), 0.25), paths, step_grid(0.5, 1e-2), model)

    def test_empty_level_set_inside_batch(self):
        # each state is its own level and the chain only moves 0 -> 1 -> 2 -> 0,
        # so an observed jump 0 -> 2 leaves no mass to transfer
        ring = validate_model(
            np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]),
            np.array([0.0, 1.0, 2.0]),
            0.0,
        )
        paths = [
            StatePath(np.array([0.0, 0.02]), np.array([0, 1]), 0.1),
            StatePath(np.array([0.0, 0.031]), np.array([0, 2]), 0.1),
        ]
        with pytest.raises(EmptyLevelSet, match="t = 0.031"):
            evolve_noiseless_ensemble(np.full((1, 3), 1 / 3), paths, step_grid(0.1, 1e-2), ring)

    def test_mismatched_horizons_rejected(self, model):
        paths = [StatePath(np.array([0.0]), np.array([0]), T) for T in (0.1, 0.2)]
        with pytest.raises(GridMismatch):
            evolve_noiseless_ensemble(np.full((1, 4), 0.25), paths, step_grid(0.1, 1e-2), model)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_subgenerator_expm_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        Q = rng.uniform(0.0, 1.0, (d, d)) * 10.0 ** rng.uniform(-2.0, 3.0, (d, d))
        Q *= rng.random((d, d)) < 0.6
        # zero-rate (absorbing) states, and killing that leaves row sums < 0
        Q[rng.random(d) < 0.3] = 0.0
        np.fill_diagonal(Q, 0.0)
        killing = rng.uniform(0.0, 2.0, d) * (rng.random(d) < 0.5)
        np.fill_diagonal(Q, -(Q.sum(axis=1) + killing))
        t = 10.0 ** rng.uniform(-6.0, 0.0)
        ref = expm(Q * t)
        out = _subgenerator_expm(Q, t)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out, ref, rtol=1e-11, atol=1e-12 * ref.max())

    def test_subgenerator_expm_is_the_verify_marginal_law(self):
        # verify's ctmc-marginal-law check takes its exact law from here
        np.testing.assert_allclose(_subgenerator_expm(CYCLE_A, 1.0), expm(CYCLE_A), rtol=0.0, atol=1e-14)

    def test_subgenerator_expm_of_zero_block_is_identity(self):
        assert np.array_equal(_subgenerator_expm(np.zeros((3, 3)), 0.5), np.eye(3))
