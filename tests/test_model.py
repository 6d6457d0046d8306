"""Model validation, generator calculus, and structural diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import BLOCKS_A, CYCLE_A, CYCLE_H, model_object, random_generator_matrix
from filterlab.config import load_model
from filterlab.errors import (
    ConfigError,
    DimensionMismatch,
    NegativeOffDiagonal,
    NonPositiveNoise,
    NonUniqueInvariantMeasure,
    RowSumNonZero,
)
from filterlab.model import (
    as_simplex,
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    nonergodic_limit_bounds,
    observable_space,
    rate_bounds,
    validate_model,
)


class TestValidateModel:
    def test_accepts_reference_model(self, cycle_model):
        assert cycle_model.d == 4
        assert cycle_model.m == 1
        assert not cycle_model.noiseless
        np.testing.assert_allclose(cycle_model.h_unit, CYCLE_H.reshape(4, 1))

    def test_h_unit_divides_by_noise(self):
        model = validate_model(CYCLE_A, CYCLE_H, 2.0)
        np.testing.assert_allclose(model.h_unit, CYCLE_H.reshape(4, 1) / 2.0)

    def test_rejects_nonsquare_generator(self):
        with pytest.raises(DimensionMismatch):
            validate_model(np.zeros((2, 3)), np.zeros(2), 1.0)

    def test_rejects_negative_off_diagonal(self):
        A = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(NegativeOffDiagonal):
            validate_model(A, np.zeros(2), 1.0)

    def test_rejects_nonzero_row_sums(self):
        A = np.array([[-1.0, 2.0], [1.0, -1.0]])
        with pytest.raises(RowSumNonZero):
            validate_model(A, np.zeros(2), 1.0)

    def test_rejects_negative_noise(self):
        for r in (-1.0, -1e-300):
            with pytest.raises(NonPositiveNoise):
                validate_model(CYCLE_A, CYCLE_H, r)

    def test_rejects_nonfinite_noise(self):
        for r in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonPositiveNoise):
                validate_model(CYCLE_A, CYCLE_H, r)

    def test_noiseless_opt_in(self):
        model = validate_model(CYCLE_A, CYCLE_H, 0.0)
        assert model.noiseless

    def test_negative_zero_noise_is_stored_as_zero(self):
        model = validate_model(CYCLE_A, CYCLE_H, -0.0)
        assert model.r == 0.0 and math.copysign(1.0, model.r) == 1.0
        assert model.noiseless
        assert np.array_equal(model.h_unit, model.H)

    def test_rejects_h_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_model(CYCLE_A, np.zeros(3), 1.0)

    def test_rejects_nonfinite_entries(self):
        A = CYCLE_A.copy()
        A[0, 1] = np.nan
        A[0, 0] = -np.nansum(A[0])
        with pytest.raises(DimensionMismatch):
            validate_model(A, CYCLE_H, 1.0)


class TestAsSimplex:
    def test_zeroes_clipping_noise_and_renormalizes(self):
        out = as_simplex([1.0 + 1e-13, -1e-13], 2)
        assert out[1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=0)

    def test_rejects_negative_mass(self):
        with pytest.raises(DimensionMismatch):
            as_simplex([1.2, -0.2], 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(DimensionMismatch):
            as_simplex([2.0, 2.0], 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            as_simplex([0.5, 0.5], d=3)


class TestCarreDuChamp:
    def test_two_state_by_hand(self):
        # A = [[-1, 1], [2, -2]], f = (0, 1):
        # Gamma f(x) = sum_y A(x, y) (f(x) - f(y))^2 -> (1, 2)
        A = np.array([[-1.0, 1.0], [2.0, -2.0]])
        np.testing.assert_allclose(carre_du_champ(A, [0.0, 1.0]), [1.0, 2.0])

    def test_constants_have_zero_energy(self):
        np.testing.assert_allclose(carre_du_champ(CYCLE_A, np.full(4, 3.7)), np.zeros(4))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_generator_route_and_is_nonnegative(self, seed):
        # Independent route: Gamma f = A(f^2) - 2 f (A f).
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        A = random_generator_matrix(rng, d)
        f = rng.normal(size=d)
        direct = carre_du_champ(A, f)
        via_generator = A @ (f**2) - 2.0 * f * (A @ f)
        np.testing.assert_allclose(direct, via_generator, atol=1e-10)
        assert np.all(direct >= -1e-12)

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_stack_equals_each_function_bitwise(self, rng, d):
        A = random_generator_matrix(rng, d)
        f = rng.normal(size=(5, 3, d))
        stacked = carre_du_champ(A, f)
        assert stacked.shape == (5, 3, d)
        rows = np.array([[carre_du_champ(A, f[i, j]) for j in range(3)] for i in range(5)])
        assert np.array_equal(stacked, rows)

    def test_rejects_wrong_last_axis(self):
        with pytest.raises(DimensionMismatch):
            carre_du_champ(CYCLE_A, np.zeros((3, 5)))


class TestInvariantMeasure:
    def test_cycle_is_uniform(self):
        np.testing.assert_allclose(invariant_measure(CYCLE_A), np.full(4, 0.25), atol=1e-10)

    def test_two_state_closed_form(self):
        # mu A = 0 for d = 2 gives mu = (l21, l12) / (l12 + l21).
        A = np.array([[-1.0, 1.0], [2.0, -2.0]])
        np.testing.assert_allclose(invariant_measure(A), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_disconnected_raises_without_opt_in(self):
        with pytest.raises(NonUniqueInvariantMeasure):
            invariant_measure(BLOCKS_A)

    def test_disconnected_representative_is_invariant(self):
        mu = invariant_measure(BLOCKS_A, allow_nonunique=True)
        assert np.all(mu >= -1e-12)
        np.testing.assert_allclose(mu.sum(), 1.0, atol=1e-10)
        np.testing.assert_allclose(mu @ BLOCKS_A, np.zeros(4), atol=1e-9)

    def test_disconnected_is_minimum_norm_mixture(self):
        # both block laws are (2/3, 1/3), so the weights are equal
        mu = invariant_measure(BLOCKS_A, allow_nonunique=True)
        np.testing.assert_allclose(mu, [1 / 3, 1 / 6, 1 / 3, 1 / 6], rtol=0.0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reducible_generators_give_minimum_norm_mixture(self, seed):
        # 2-4 closed classes of 1-3 states, 0-2 transient states that leak
        # into everything, states permuted
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=int(rng.integers(2, 5)))
        n_transient = int(rng.integers(0, 3))
        d = int(sizes.sum()) + n_transient
        A = np.zeros((d, d))
        classes, start = [], 0
        for s in sizes:
            block = slice(start, start + s)
            A[block, block] = random_generator_matrix(rng, s)
            classes.append(block)
            start += s
        A[start:] = rng.uniform(0.2, 2.0, size=(n_transient, d))
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        laws = np.zeros((len(classes), d))
        for law, block in zip(laws, classes):
            law[block] = invariant_measure(A[block, block])
        weights = 1.0 / (laws**2).sum(axis=1)
        expected = (weights / weights.sum()) @ laws
        perm = rng.permutation(d)
        A, expected = A[np.ix_(perm, perm)], expected[perm]
        mu = invariant_measure(A, allow_nonunique=True)
        assert np.all(mu >= 0.0)
        np.testing.assert_allclose(mu @ A, np.zeros(d), atol=1e-9)
        assert np.all(mu[perm >= start] <= 1e-12)
        np.testing.assert_allclose(mu, expected, rtol=0.0, atol=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_connected_generators(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        A = random_generator_matrix(rng, d)
        mu = invariant_measure(A)
        assert np.all(mu > 0)
        np.testing.assert_allclose(mu @ A, np.zeros(d), atol=1e-9)


class TestErgodicityAndObservability:
    def test_cycle_ergodic(self):
        assert is_ergodic(CYCLE_A)

    def test_blocks_not_ergodic(self):
        assert not is_ergodic(BLOCKS_A)

    def test_two_state_boundary(self):
        assert not is_ergodic(np.zeros((2, 2)))
        assert is_ergodic(np.array([[-0.3, 0.3], [0.0, 0.0]]))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_ergodic_iff_one_weak_component(self, seed, d, density):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.1, 2.0, (d, d)) * (rng.random((d, d)) < density)
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        n_components, _ = connected_components(A > 0.0, directed=True, connection="weak")
        assert is_ergodic(A) == (n_components == 1)

    def test_cycle_observable_dim_two(self):
        V = observable_space(CYCLE_A, CYCLE_H.reshape(4, 1))
        assert len(V) == 2
        # rows are orthonormal and span both the constants and h itself
        np.testing.assert_allclose(V @ V.T, np.eye(2), atol=1e-10)
        for f in (np.ones(4), CYCLE_H):
            np.testing.assert_allclose(V.T @ (V @ f), f, atol=1e-10)

    def test_blocks_signed_observation_is_full(self):
        h = np.array([[1.0], [0.0], [-1.0], [0.0]])
        assert len(observable_space(BLOCKS_A, h)) == 4

    def test_blocks_zero_observation_sees_constants_only(self):
        assert len(observable_space(BLOCKS_A, np.zeros((4, 1)))) == 1

    def test_two_state_criteria_sweep(self, rng):
        for _ in range(50):
            l12 = float(rng.choice([0.0, rng.uniform(0.05, 3.0)]))
            l21 = float(rng.choice([0.0, rng.uniform(0.05, 3.0)]))
            h1, h2 = rng.normal(size=2)
            if rng.random() < 0.3:
                h2 = h1
            A = np.array([[-l12, l12], [l21, -l21]])
            assert is_ergodic(A) == (l12 + l21 > 0.0)
            dim = len(observable_space(A, np.array([[h1], [h2]])))
            assert (dim == 2) == (h1 != h2)


class TestRateAndLimitBounds:
    def test_cycle_bounds_all_vanish(self):
        np.testing.assert_allclose(
            rate_bounds(CYCLE_A, np.full(4, 0.25)), (0.0, 0.0, 0.0), atol=1e-12
        )

    def test_two_state_frozen_values(self):
        A = np.array([[-1.0, 1.0], [2.0, -2.0]])
        b1, b2, b3 = rate_bounds(A, invariant_measure(A))
        np.testing.assert_allclose(b1, np.sqrt(2.0), atol=1e-10)
        np.testing.assert_allclose(b2, 4.0 / 3.0, atol=1e-10)
        np.testing.assert_allclose(b3, 3.0, atol=1e-10)

    def test_one_state_bounds_vanish(self):
        assert rate_bounds([[0.0]], [1.0]) == (0.0, 0.0, 0.0)
        assert nonergodic_limit_bounds([[0.0]], [[2.0]], [1.0]) == (0.0, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_bounds_equal_the_off_diagonal_minima_bitwise(self, rng, d):
        A = random_generator_matrix(rng, d)
        A[0, d - 1] = 0.0  # a one-way pair: b1 = 0
        A[0, 0] -= A[0].sum()
        H = rng.normal(size=(d, 2))
        mu = (rng.multinomial(64 - d, np.ones(d) / d) + 1) / 64.0  # exact, so as_simplex keeps it
        off = [[y for y in range(d) if y != x] for x in range(d)]
        geo = np.sqrt(A * A.T)
        b1 = min(geo[x, y] for x in range(d) for y in off[x])
        b2 = float(mu @ np.array([min(A[x, off[x]]) for x in range(d)]))
        b3 = float(np.array([min(A[off[y], y]) for y in range(d)]).sum())
        assert rate_bounds(A, mu) == (b1, b2, b3)
        gap2 = ((H[:, None, :] - H[None, :, :]) ** 2).sum(axis=2)
        u1 = 0.5 * float(mu @ np.array([min(gap2[x, off[x]]) for x in range(d)]))
        assert nonergodic_limit_bounds(A, H, mu)[0] == u1

    def test_cycle_small_noise_limits(self):
        u1, u2 = nonergodic_limit_bounds(CYCLE_A, CYCLE_H.reshape(4, 1), np.full(4, 0.25))
        np.testing.assert_allclose((u1, u2), (0.0, 1.0), atol=1e-10)


class TestModelFileRoundTrip:
    def test_round_trip_exact(self, tmp_path, cycle_model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_object(cycle_model)))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.A, cycle_model.A)
        assert np.array_equal(loaded.H, cycle_model.H)
        assert loaded.r == cycle_model.r

    def test_noiseless_round_trip(self, tmp_path, cycle_noiseless):
        path = tmp_path / "noiseless.json"
        path.write_text(json.dumps(model_object(cycle_noiseless)))
        loaded = load_model(str(path))
        assert loaded.r == 0.0 and loaded.noiseless
        assert np.array_equal(loaded.A, cycle_noiseless.A)
        assert np.array_equal(loaded.h_unit, cycle_noiseless.h_unit)

    def test_load_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.json"
        for h, r in (("NaN", "1.0"), ("1.0", "Infinity")):
            path.write_text(f'{{"d": 2, "m": 1, "A": [-1.0, 1.0, 1.0, -1.0], "H": [{h}, 0.0], "r": {r}}}')
            with pytest.raises(ConfigError):
                load_model(str(path))

