"""Model validation, generator calculus, and structural diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCKS_A, CYCLE_A, CYCLE_H, random_generator_matrix
from filterlab.divergence import SERIES_COLUMNS, read_series_csv
from filterlab.dual import read_backward_map_csv
from filterlab.errors import (
    DimensionMismatch,
    NegativeOffDiagonal,
    NonPositiveNoise,
    NonUniqueInvariantMeasure,
    RowSumNonZero,
)
from filterlab.model import (
    _read_table,
    _write_table,
    as_simplex,
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    load_model,
    nonergodic_limit_bounds,
    observable_space,
    rate_bounds,
    save_model,
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

    def test_rejects_zero_noise_by_default(self):
        with pytest.raises(NonPositiveNoise):
            validate_model(CYCLE_A, CYCLE_H, 0.0)

    def test_noiseless_opt_in(self):
        model = validate_model(CYCLE_A, CYCLE_H, 0.0, allow_noiseless=True)
        assert model.noiseless

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
        out = as_simplex([1.0 + 1e-13, -1e-13])
        assert out[1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=0)

    def test_rejects_negative_mass(self):
        with pytest.raises(DimensionMismatch):
            as_simplex([1.2, -0.2])

    def test_rejects_unnormalized(self):
        with pytest.raises(DimensionMismatch):
            as_simplex([2.0, 2.0])

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

    def test_cycle_observable_dim_two(self):
        basis = observable_space(CYCLE_A, CYCLE_H.reshape(4, 1))
        assert basis.dim == 2
        # rows are orthonormal and span both the constants and h itself
        V = basis.vectors
        np.testing.assert_allclose(V @ V.T, np.eye(2), atol=1e-10)
        for f in (np.ones(4), CYCLE_H):
            np.testing.assert_allclose(V.T @ (V @ f), f, atol=1e-10)

    def test_blocks_signed_observation_is_full(self):
        h = np.array([[1.0], [0.0], [-1.0], [0.0]])
        assert observable_space(BLOCKS_A, h).dim == 4

    def test_blocks_zero_observation_sees_constants_only(self):
        assert observable_space(BLOCKS_A, np.zeros((4, 1))).dim == 1

    def test_two_state_criteria_sweep(self, rng):
        for _ in range(50):
            l12 = float(rng.choice([0.0, rng.uniform(0.05, 3.0)]))
            l21 = float(rng.choice([0.0, rng.uniform(0.05, 3.0)]))
            h1, h2 = rng.normal(size=2)
            if rng.random() < 0.3:
                h2 = h1
            A = np.array([[-l12, l12], [l21, -l21]])
            assert is_ergodic(A) == (l12 + l21 > 0.0)
            dim = observable_space(A, np.array([[h1], [h2]])).dim
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

    def test_cycle_small_noise_limits(self):
        u1, u2 = nonergodic_limit_bounds(CYCLE_A, CYCLE_H.reshape(4, 1), np.full(4, 0.25))
        np.testing.assert_allclose((u1, u2), (0.0, 1.0), atol=1e-10)


class TestModelFileRoundTrip:
    def test_round_trip_exact(self, tmp_path, cycle_model):
        path = tmp_path / "model.json"
        save_model(cycle_model, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.A, cycle_model.A)
        assert np.array_equal(loaded.H, cycle_model.H)
        assert loaded.r == cycle_model.r

    def test_load_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2, "m": 1, "A": [-1.0, 1.0, 1.0, -1.0], "H": [NaN, 0.0], "r": 1.0}')
        with pytest.raises((DimensionMismatch, ValueError)):
            load_model(str(path))


class TestTableFormat:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "table.csv"
        ints = np.array([0, 1, 2, 3], dtype=np.int64)
        floats = np.array([0.1, 5e-324, -0.0, 1.0 / 3.0])
        _write_table(str(path), ["n", "x"], [ints, floats])
        assert path.read_bytes() == (
            b"n,x\r\n0,0.1\r\n1,5e-324\r\n2,-0.0\r\n3,0.3333333333333333\r\n"
        )
        header, body = _read_table(str(path))
        assert header == ["n", "x"]
        assert body.dtype == np.float64 and body.shape == (4, 2)
        np.testing.assert_array_equal(body[:, 0], ints)
        assert np.array_equal(body[:, 1].view(np.int64), floats.view(np.int64))

    @pytest.mark.parametrize(
        "reader, text, error",
        [
            (read_series_csv, ",".join(SERIES_COLUMNS) + "\r\n0.0,0.5\r\n", DimensionMismatch),
            (read_series_csv, "t,chi2\r\n0.0,1.0\r\n", DimensionMismatch),
            (read_backward_map_csv, "x,y\r\n0,1.0\r\n", DimensionMismatch),
        ],
        ids=["series-width", "series-header", "map-header"],
    )
    def test_reader_errors(self, tmp_path, reader, text, error):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error):
            reader(str(path))
