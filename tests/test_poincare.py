"""Poincare constants: frozen values, certification, and invariances."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import filterlab.poincare as poincare_mod
from conftest import BLOCKS_A, BLOCKS_NU, CYCLE_A, interior_simplex, random_generator_matrix
from filterlab.config import _apply_overrides, preset_config
from filterlab.ensemble import run_divergence_sweep
from filterlab.errors import DegenerateVarianceForm, DimensionMismatch
from filterlab.model import carre_du_champ, invariant_measure, is_ergodic
from filterlab.pipeline import run_simulate
from filterlab.poincare import (
    PD_TOL,
    classical_pi_constant,
    conditional_pi_constant,
    trajectory_pi_infimum,
)


class TestClassicalConstant:
    def test_cycle_frozen_value(self):
        res = classical_pi_constant(CYCLE_A, np.full(4, 0.25))
        assert res.constant == pytest.approx(2.0, abs=1e-15)

    def test_two_state_closed_form(self, rng):
        # for rates (l12, l21) the only nonconstant direction gives
        # energy / variance = 2 (l12 + l21)
        for _ in range(20):
            l12, l21 = rng.uniform(0.05, 4.0, size=2)
            A = np.array([[-l12, l12], [l21, -l21]])
            res = classical_pi_constant(A, invariant_measure(A))
            assert res.constant == pytest.approx(2.0 * (l12 + l21), rel=1e-9)

    def test_complete_graph_closed_form(self):
        # unit all-to-all rates: energy = 2 d * variance for every f
        for d in (3, 4, 5):
            A = np.ones((d, d)) - d * np.eye(d)
            res = classical_pi_constant(A, np.full(d, 1.0 / d))
            assert res.constant == pytest.approx(2.0 * d, rel=1e-9)

    def test_zero_iff_nonergodic_over_random_models(self, rng):
        for _ in range(250):
            d = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                A = random_generator_matrix(rng, d)
                mu = invariant_measure(A)
            else:
                # two blocks, no cross rates: provably non-ergodic; use an
                # invariant measure charging both blocks
                d = max(d, 3)
                split = int(rng.integers(1, d))
                A = np.zeros((d, d))
                for block in (range(split), range(split, d)):
                    idx = list(block)
                    if len(idx) > 1:
                        sub = random_generator_matrix(rng, len(idx))
                        A[np.ix_(idx, idx)] = sub
                w = rng.uniform(0.2, 0.8)
                mu = np.zeros(d)
                for weight, block in ((w, range(split)), (1 - w, range(split, d))):
                    idx = list(block)
                    if len(idx) == 1:
                        mu[idx] = weight
                    else:
                        mu[idx] = weight * invariant_measure(A[np.ix_(idx, idx)])
            res = classical_pi_constant(A, mu)
            if is_ergodic(A):
                assert res.constant > 1e-8
            else:
                assert res.constant == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_degenerate(self):
        # absorbing chain: delta_0 is invariant but spans no variance
        A = np.array([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(DegenerateVarianceForm):
            classical_pi_constant(A, np.array([1.0, 0.0]))

    def test_noninvariant_measure_rejected(self):
        with pytest.raises(DimensionMismatch):
            classical_pi_constant(CYCLE_A, np.array([1.0, 0.0, 0.0, 0.0]))


class TestCertification:
    def test_constant_certifies_inequality_for_random_functions(self, rng):
        for _ in range(10):
            d = int(rng.integers(3, 6))
            A = random_generator_matrix(rng, d)
            rho = interior_simplex(rng, d)
            res = conditional_pi_constant(A, rho)
            for _ in range(10):
                f = rng.normal(size=d)
                energy = rho @ carre_du_champ(A, f)
                var = rho @ f**2 - (rho @ f) ** 2
                assert energy >= res.constant * var - 1e-9 * max(1.0, energy)

    def test_minimizer_attains_the_constant(self, rng):
        A = random_generator_matrix(rng, 5)
        rho = interior_simplex(rng, 5)
        res = conditional_pi_constant(A, rho)
        f = res.minimizer
        energy = rho @ carre_du_champ(A, f)
        var = rho @ f**2 - (rho @ f) ** 2
        assert var == pytest.approx(1.0, abs=1e-8)
        assert energy == pytest.approx(res.constant, abs=1e-8)

    def test_scale_covariance(self, rng):
        A = random_generator_matrix(rng, 4)
        rho = interior_simplex(rng, 4)
        base = conditional_pi_constant(A, rho).constant
        for s in (0.1, 0.7, 5.0):
            scaled = conditional_pi_constant(s * A, rho).constant
            assert scaled == pytest.approx(s * base, rel=1e-9)

    def test_permutation_equivariance(self, rng):
        A = random_generator_matrix(rng, 5)
        rho = interior_simplex(rng, 5)
        perm = rng.permutation(5)
        P = np.eye(5)[perm]
        permuted = conditional_pi_constant(P @ A @ P.T, rho[perm]).constant
        assert permuted == pytest.approx(conditional_pi_constant(A, rho).constant, rel=1e-9)


class TestSpectralGap:
    """The constant is the smallest eigenvalue of the generalized problem
    (energy form, variance form) on the rho-mean-zero subspace."""

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_generalized_eigenvalue(self, d, seed):
        rng = np.random.default_rng(seed)
        A = random_generator_matrix(rng, d)
        rho = interior_simplex(rng, d)
        # Q(f) = sum_{x != y} rho(x) A(x, y) (f(x) - f(y))^2 and V_rho
        M = np.zeros((d, d))
        for x in range(d):
            for y in range(d):
                if x != y:
                    e = np.eye(d)[x] - np.eye(d)[y]
                    M += rho[x] * A[x, y] * np.outer(e, e)
        C = np.diag(rho) - np.outer(rho, rho)
        B = scipy.linalg.null_space(rho[None, :])
        want = scipy.linalg.eigh(B.T @ M @ B, B.T @ C @ B, eigvals_only=True)[0]
        assert conditional_pi_constant(A, rho).constant == pytest.approx(want, rel=1e-10)

    def test_blocks_state_with_a_faint_block_is_zero(self):
        # a nu-filter state of the blocks preset at k = 2: both blocks are
        # charged, the first with masses near 1e-10
        rho = np.array([8.2e-11, 7.0e-11, 0.479, 0.521])
        res = conditional_pi_constant(BLOCKS_A, rho / rho.sum())
        assert 0.0 <= res.constant <= 1e-12
        f = res.minimizer
        assert f[0] == pytest.approx(f[1]) and f[2] == pytest.approx(f[3])

    def test_masses_spanning_more_than_the_tolerance_raise(self):
        rho = np.array([PD_TOL / 2, 0.3, 0.7 - PD_TOL / 2])
        with pytest.raises(DegenerateVarianceForm):
            conditional_pi_constant(random_generator_matrix(np.random.default_rng(0), 3), rho)

    def test_simulate_reports_no_negative_constant_on_the_blocks(self):
        overrides = {"k_list": [1.0, 2.0, 4.0], "n_paths": 8, "T": 0.5}
        report, _ = run_simulate(_apply_overrides(preset_config("example-6.2"), overrides, "test"))
        constants = [entry["conditional_pi_infimum"]["constant"] for entry in report["sweep"]]
        assert all(c is not None and 0.0 <= c <= 1e-12 for c in constants), constants
        assert 0.0 <= report["structure"]["classical_pi"]["constant"] <= 1e-12


class TestConditionalConstant:
    def test_point_mass_has_infinite_constant(self):
        res = conditional_pi_constant(CYCLE_A, [0.0, 1.0, 0.0, 0.0])
        assert res.constant == np.inf
        assert res.minimizer is None
        assert res.support.tolist() == [1]

    def test_disconnected_support_gives_zero(self):
        # states 0 and 2 of the cycle have no direct transition
        res = conditional_pi_constant(CYCLE_A, [0.5, 0.0, 0.5, 0.0])
        assert res.constant == pytest.approx(0.0, abs=1e-10)

    def test_invariant_measure_recovers_classical(self, rng):
        A = random_generator_matrix(rng, 4)
        mu = invariant_measure(A)
        cond = conditional_pi_constant(A, mu).constant
        classical = classical_pi_constant(A, mu).constant
        assert cond == pytest.approx(classical, rel=1e-10)

    def test_mixed_block_measure_gives_zero(self):
        rho = np.array([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 6.0])
        assert conditional_pi_constant(BLOCKS_A, rho).constant == pytest.approx(
            0.0, abs=1e-10
        )


class TestTrajectoryInfimum:
    TIMES = np.array([0.0, 0.1, 0.2])

    def test_finds_the_strided_minimum(self):
        uniform = np.full(4, 0.25)
        tilted = np.array([0.7, 0.1, 0.1, 0.1])
        split = np.array([0.5, 0.0, 0.5, 0.0])  # constant 0 on the cycle
        pis = np.array([[uniform, tilted, uniform], [uniform, split, uniform]])
        c, where = trajectory_pi_infimum(CYCLE_A, pis, self.TIMES)
        assert c == pytest.approx(0.0, abs=1e-10)
        assert where == (1, 0.1)

    def test_stride_skips_rows(self):
        # a caller strides by slicing the states and their times alike
        uniform = np.full(4, 0.25)
        split = np.array([0.5, 0.0, 0.5, 0.0])
        pis = np.array([[uniform, split, uniform]])
        c_all, _ = trajectory_pi_infimum(CYCLE_A, pis, self.TIMES)
        c_skip, where = trajectory_pi_infimum(CYCLE_A, pis[:, ::2], self.TIMES[::2])
        assert c_all == pytest.approx(0.0, abs=1e-10)
        assert c_skip > 0.0
        assert where[1] in (0.0, 0.2)

    def test_stops_at_the_first_zero(self, blocks_model, monkeypatch):
        # nu-filters that stay in one block (positive constants), then
        # nu-filters that charge both blocks (constant 0 from t = 0)
        pis, times = [], None
        for prior in ([0.5, 0.5, 0.0, 0.0], BLOCKS_NU):
            ens = next(run_divergence_sweep([blocks_model], prior, prior, 4, 0.3, 1e-3, 5, nu_paths=4))
            pis.append(ens.nu_filters[:, ::2])  # every 40th step: 8 of the 16 report points
            times = ens.series.times[::2]
        pis = np.concatenate(pis)
        # the exhaustive loop: the first state, in order, at the smallest constant
        constants = [[conditional_pi_constant(BLOCKS_A, pi).constant for pi in path] for path in pis]
        best = min(min(path) for path in constants)
        where = next((i, float(times[k])) for i, path in enumerate(constants) for k, c in enumerate(path) if c == best)
        calls = []

        def counting(*args):
            calls.append(args)
            return conditional_pi_constant(*args)

        monkeypatch.setattr(poincare_mod, "conditional_pi_constant", counting)
        assert trajectory_pi_infimum(BLOCKS_A, pis, times) == (best, where) == (0.0, (4, 0.0))
        assert len(calls) == 4 * len(times) + 1

    def test_all_point_masses_yield_inf(self):
        point = np.array([0.0, 1.0, 0.0, 0.0])
        c, where = trajectory_pi_infimum(CYCLE_A, np.array([[point, point]]), self.TIMES[:2])
        assert c == np.inf
        assert where is None
