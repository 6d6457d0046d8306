"""Poincare constants: frozen values, certification, and invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCKS_A, CYCLE_A, interior_simplex, random_generator_matrix
from filterlab.errors import DegenerateVarianceForm, DimensionMismatch, NotSymmetric
from filterlab.model import carre_du_champ, invariant_measure, is_ergodic
from filterlab.poincare import (
    classical_pi_constant,
    conditional_pi_constant,
    symmetric_eigensolver,
    trajectory_pi_infimum,
)


class TestSymmetricEigensolver:
    def test_diagonal_matrix_exact(self):
        w, v = symmetric_eigensolver(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
        w, v = symmetric_eigensolver(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigensolver(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_orthogonality_order(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        S = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-2, 3)
        S = (S + S.T) / 2.0
        w, v = symmetric_eigensolver(S)
        scale = max(1.0, float(np.linalg.norm(S)))
        assert np.linalg.norm(v @ np.diag(w) @ v.T - S) <= 1e-9 * scale
        assert np.linalg.norm(v.T @ v - np.eye(k)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12 * scale)


class TestClassicalConstant:
    def test_cycle_frozen_value(self):
        res = classical_pi_constant(CYCLE_A, np.full(4, 0.25))
        assert res.constant == pytest.approx(2.0, abs=1e-8)

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
    DT = 0.1

    def test_finds_the_strided_minimum(self):
        uniform = np.full(4, 0.25)
        tilted = np.array([0.7, 0.1, 0.1, 0.1])
        split = np.array([0.5, 0.0, 0.5, 0.0])  # constant 0 on the cycle
        pis = np.array([[uniform, tilted, uniform], [uniform, split, uniform]])
        c, where = trajectory_pi_infimum(CYCLE_A, pis, self.DT, stride=1)
        assert c == pytest.approx(0.0, abs=1e-10)
        assert where == (1, 0.1)

    def test_stride_skips_rows(self):
        uniform = np.full(4, 0.25)
        split = np.array([0.5, 0.0, 0.5, 0.0])
        pis = np.array([[uniform, split, uniform]])
        c_all, _ = trajectory_pi_infimum(CYCLE_A, pis, self.DT, stride=1)
        c_skip, where = trajectory_pi_infimum(CYCLE_A, pis, self.DT, stride=2)
        assert c_all == pytest.approx(0.0, abs=1e-10)
        assert c_skip > 0.0
        assert where[1] in (0.0, 0.2)

    def test_all_point_masses_yield_inf(self):
        point = np.array([0.0, 1.0, 0.0, 0.0])
        c, where = trajectory_pi_infimum(CYCLE_A, np.array([[point, point]]), self.DT, stride=1)
        assert c == np.inf
        assert where is None

    def test_bad_stride_rejected(self):
        with pytest.raises(DimensionMismatch):
            trajectory_pi_infimum(CYCLE_A, np.full((1, 1, 4), 0.25), self.DT, stride=0)
