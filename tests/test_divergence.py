"""Divergence functionals, chi-square drift terms, and rate fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLE_MU, CYCLE_NU, interior_simplex, random_generator_matrix
from filterlab.divergence import (
    DivergenceSeries,
    chi2,
    chi2_drift_batch,
    chi2_drift_terms,
    density_ratio,
    divergence_series,
    fit_exponential_rate,
    kl,
    read_series_csv,
    tv,
    write_series_csv,
)
from filterlab.errors import (
    AbsoluteContinuityViolation,
    GridMismatch,
    NonPositiveSeries,
    WindowTooShort,
)
from filterlab.filtering import FilterTrajectory
from filterlab.model import carre_du_champ, validate_model

positive_masses = st.lists(
    st.floats(0.05, 50.0, allow_nan=False), min_size=2, max_size=8
)


def _normalize(values):
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


class TestDivergenceValues:
    def test_hand_computed_triple(self):
        # p = (1/2, 1/2), q = (1/4, 3/4):
        # chi2 = (.25^2/.25 + .25^2/.75) = 1/3, kl = log2/2 + log(2/3)/2,
        # tv = half the L1 distance = 1/4
        p, q = [0.5, 0.5], [0.25, 0.75]
        assert chi2(p, q) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert kl(p, q) == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-14)
        assert tv(p, q) == pytest.approx(0.25, abs=1e-14)

    @given(positive_masses, positive_masses)
    @settings(max_examples=200, deadline=None)
    def test_chain_and_zero_iff_equal(self, raw_p, raw_q):
        if len(raw_p) != len(raw_q):
            raw_q = (raw_q * len(raw_p))[: len(raw_p)]
        p, q = _normalize(raw_p), _normalize(raw_q)
        c, k, t = chi2(p, q), kl(p, q), tv(p, q)
        assert 0.0 <= 2.0 * t**2 <= k + 1e-15
        assert k <= c + 1e-12
        if np.abs(p - q).sum() < 1e-12:
            assert max(c, k, t) <= 1e-10
        else:
            assert min(c, k, t) > 0.0

    @given(positive_masses)
    @settings(max_examples=50, deadline=None)
    def test_self_divergence_is_zero(self, raw):
        p = _normalize(raw)
        assert chi2(p, p) == 0.0
        assert kl(p, p) == 0.0
        assert tv(p, p) == 0.0

    def test_chi2_equals_second_moment_route(self, rng):
        # independent route: chi2 = nu(gamma^2) - 1 with gamma = dmu/dnu
        for _ in range(25):
            d = int(rng.integers(2, 7))
            p = interior_simplex(rng, d)
            q = interior_simplex(rng, d)
            gamma = density_ratio(p, q)
            np.testing.assert_allclose(chi2(p, q), q @ gamma**2 - 1.0, atol=1e-12)

    def test_absolute_continuity_enforced(self):
        with pytest.raises(AbsoluteContinuityViolation):
            chi2([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(AbsoluteContinuityViolation):
            density_ratio([0.5, 0.5], [1.0, 0.0])

    def test_density_ratio_reconstructs_numerator(self, rng):
        p = interior_simplex(rng, 5)
        q = interior_simplex(rng, 5)
        np.testing.assert_allclose(density_ratio(p, q) * q, p, atol=1e-14)


class TestChi2Drift:
    def test_identity_between_compact_and_raw_forms(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            model = validate_model(
                random_generator_matrix(rng, d), rng.normal(size=(d, 2)), 1.0
            )
            p, q = interior_simplex(rng, d), interior_simplex(rng, d)
            terms = chi2_drift_terms(p, q, model)
            gap = p @ model.h_unit - q @ model.h_unit
            assert terms.drift == pytest.approx(terms.c1 + terms.c3 @ gap, abs=1e-10)

    def test_constant_observation_collapses_to_dirichlet_form(self, rng):
        # with h constant the filter pair sees no signal and the drift is
        # minus the nu-energy of the density ratio, which is nonpositive
        d = 4
        A = random_generator_matrix(rng, d)
        model = validate_model(A, np.full(d, 1.7), 1.0)
        p, q = interior_simplex(rng, d), interior_simplex(rng, d)
        terms = chi2_drift_terms(p, q, model)
        gamma = density_ratio(p, q)
        assert terms.drift == pytest.approx(-(q @ carre_du_champ(A, gamma)), abs=1e-12)
        assert terms.drift <= 0.0
        np.testing.assert_allclose(terms.c2, 0.0, atol=1e-12)
        np.testing.assert_allclose(terms.c3, 0.0, atol=1e-12)

    def test_batch_matches_scalar_loop(self, rng):
        model = validate_model(
            random_generator_matrix(rng, 3), rng.normal(size=(3, 1)), 1.0
        )
        pis_p = np.stack([interior_simplex(rng, 3) for _ in range(10)]).reshape(5, 2, 3)
        pis_q = np.stack([interior_simplex(rng, 3) for _ in range(10)]).reshape(5, 2, 3)
        batch = chi2_drift_batch(pis_p, pis_q, model)
        assert batch.shape == (5, 2)
        for i in range(5):
            for j in range(2):
                single = chi2_drift_terms(pis_p[i, j], pis_q[i, j], model).drift
                assert batch[i, j] == pytest.approx(single, abs=1e-12)


class TestDivergenceSeries:
    def _pair(self, pis_p, pis_q, dt=0.5):
        return (
            FilterTrajectory(dt=dt, pis=np.asarray(pis_p, float)),
            FilterTrajectory(dt=dt, pis=np.asarray(pis_q, float)),
        )

    def test_two_path_hand_aggregation(self):
        tp1, tq1 = self._pair([[0.5, 0.5]], [[0.25, 0.75]])
        tp2, tq2 = self._pair([[0.5, 0.5]], [[0.5, 0.5]])
        series = divergence_series([tp1, tp2], [tq1, tq2])
        # path chi2 values are (1/3, 0): mean 1/6,
        # se = sqrt(sum of squared deviations) / n = sqrt(2)/12
        assert series.chi2_mean[0] == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert series.chi2_se[0] == pytest.approx(np.sqrt(2.0) / 12.0, abs=1e-12)
        assert series.n_paths == 2

    def test_initial_point_is_prior_divergence(self, cycle_model):
        pis = np.stack([CYCLE_MU, CYCLE_MU])
        qis = np.stack([CYCLE_NU, CYCLE_NU])
        tp, tq = self._pair(pis, qis, dt=1.0)
        series = divergence_series(tp, tq)
        assert series.chi2_mean[0] == pytest.approx(chi2(CYCLE_MU, CYCLE_NU), abs=1e-14)
        assert series.times[1] == 1.0

    def test_grid_mismatch_detected(self):
        tp, tq = self._pair([[0.5, 0.5]], [[0.5, 0.5]], dt=0.5)
        other = FilterTrajectory(dt=0.25, pis=np.array([[0.5, 0.5]]))
        with pytest.raises(GridMismatch):
            divergence_series([tp], [other])


class TestRateFit:
    def test_exact_exponential_recovered(self):
        t = np.linspace(0.0, 10.0, 1001)
        fit = fit_exponential_rate(t, 2.5 * np.exp(-3.0 * t))
        assert fit.rate == pytest.approx(3.0, abs=1e-9)
        assert fit.intercept == pytest.approx(np.log(2.5), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_restricts_the_fit(self):
        # decay only on [5, 10]; fitting there must ignore the flat start
        t = np.linspace(0.0, 10.0, 2001)
        y = np.where(t < 5.0, 1.0, np.exp(-2.0 * (t - 5.0)))
        fit = fit_exponential_rate(t, y, window=(6.0, 9.5))
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.window == (6.0, 9.5)

    def test_default_window_is_interior(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_exponential_rate(t, np.exp(-t))
        assert fit.window == (2.0, 9.0)

    def test_nonpositive_series_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        y = np.exp(-t)
        y[50] = 0.0
        with pytest.raises(NonPositiveSeries):
            fit_exponential_rate(t, y)

    def test_short_window_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(WindowTooShort):
            fit_exponential_rate(t, np.exp(-t), window=(4.0, 4.3))

    def test_noisy_fit_keeps_enough_points_and_covers_truth(self, rng):
        t = np.linspace(0.0, 10.0, 2001)
        y = np.exp(-1.5 * t) * np.exp(rng.normal(0.0, 0.05, size=t.size))
        fit = fit_exponential_rate(t, y)
        assert fit.n_points >= 10
        assert fit.stderr > 0.0
        assert abs(fit.rate - 1.5) <= 5.0 * fit.stderr


class TestSeriesCsv:
    def test_round_trip_exact(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        mk = lambda: np.array([[1.0 / 3.0, 0.1, 0.05], [0.2, 0.15, 0.01]])
        series = DivergenceSeries(
            times=times, chi2=mk(), kl=mk() / 2, tv=mk() / 4
        )
        p = tmp_path / "series.csv"
        write_series_csv(str(p), series)
        cols = read_series_csv(str(p))
        np.testing.assert_array_equal(cols["t"], times)
        np.testing.assert_array_equal(cols["chi2_mean"], series.chi2_mean)
        np.testing.assert_array_equal(cols["kl_se"], series.kl_se)
        np.testing.assert_array_equal(cols["n_paths"], [2, 2, 2])
