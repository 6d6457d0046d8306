"""Divergence functionals, chi-square drift terms, and rate fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CYCLE_MU, CYCLE_NU, interior_simplex, random_generator_matrix
from filterlab import divergence
from filterlab.divergence import (
    SUPPORT_EPS,
    DivergenceSeries,
    _divergence_batch,
    _divergences,
    chi2,
    chi2_drift_batch,
    chi2_drift_terms,
    density_ratio,
    fit_exponential_rate,
    kl,
    read_series_csv,
    tv,
    write_series_csv,
)
from filterlab.errors import (
    AbsoluteContinuityViolation,
    NonPositiveSeries,
    WindowTooShort,
)
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


def _same_bits(a, b) -> bool:
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


class TestStateMajorKernel:
    """The block kernel on state-major pairs (d, n) equals the scalar
    functions pair by pair, bit for bit, and both equal the formulas
    written out here with numpy sums over the state axis (d < 8)."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_equals_scalar_bitwise(self, data):
        d = data.draw(st.integers(2, 7), label="d")
        n = data.draw(st.integers(1, 4), label="n")
        positive = st.floats(0.05, 50.0)
        # states 0 and 1 stay in the shared support, the others may leave it;
        # p may also vanish inside the support
        tail = data.draw(st.lists(st.booleans(), min_size=d - 2, max_size=d - 2))
        shared_zero = np.array([False, False] + tail)

        def draw_law(mass):
            raw = np.array(data.draw(st.lists(mass, min_size=d, max_size=d)))
            raw[0] += 0.05
            return _normalize(np.where(shared_zero, 0.0, raw))

        p = np.stack([draw_law(st.one_of(st.just(0.0), positive)) for _ in range(n)])
        q = np.stack([draw_law(positive) for _ in range(n)])
        if data.draw(st.booleans(), label="off support"):
            j = data.draw(st.integers(0, n - 1))
            q[j, 0] = 0.0
            q[j] = _normalize(q[j])
            p[j, 0] = 0.5
            p[j] = _normalize(p[j])
            with pytest.raises(AbsoluteContinuityViolation):
                _divergences(p.T, q.T)
            for scalar in (chi2, kl):
                with pytest.raises(AbsoluteContinuityViolation):
                    scalar(p[j], q[j])
            return
        block = _divergences(p.T, q.T)
        outside = q < SUPPORT_EPS
        g = np.where(outside, 0.0, p / np.where(outside, 1.0, q))
        q_in = np.where(outside, 0.0, q)
        log_terms = np.where(g > 0.0, g * np.log(np.where(g > 0.0, g, 1.0)), 0.0)
        summed = (
            (((g - 1.0) ** 2) * q_in).sum(axis=-1),
            (log_terms * q_in).sum(axis=-1),
            0.5 * np.abs(p - q).sum(axis=-1),
        )
        for scalar, values, reference in zip((chi2, kl, tv), block, summed):
            assert _same_bits(values, reference)
            for i in range(n):
                assert _same_bits(values[i], scalar(p[i], q[i]))


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
    def _series(self, pis_p, pis_q, dt=0.5):
        """The series of paired filter states (P, n + 1, d), as the ensemble builds it."""
        chi2_v, kl_v, tv_v = _divergence_batch(np.asarray(pis_p, float), np.asarray(pis_q, float))
        return DivergenceSeries(times=np.arange(chi2_v.shape[1]) * dt, chi2=chi2_v, kl=kl_v, tv=tv_v)

    def test_two_path_hand_aggregation(self):
        series = self._series([[[0.5, 0.5]], [[0.5, 0.5]]], [[[0.25, 0.75]], [[0.5, 0.5]]])
        # path chi2 values are (1/3, 0): mean 1/6, sample standard deviation
        # sqrt(2) / 6 and se = sqrt(2) / 6 / sqrt(2) = 1/6
        assert series.chi2_mean[0] == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert series.chi2_se[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert series.n_paths == 2

    def test_mean_and_se_computed_once_per_array(self, monkeypatch):
        calls = []
        real = divergence._mean_se
        monkeypatch.setattr(divergence, "_mean_se", lambda v: calls.append(1) or real(v))
        values = np.array([[1.0 / 3.0, 0.1], [0.2, 0.15], [0.05, 0.7]])
        series = DivergenceSeries(times=np.array([0.0, 0.5]), chi2=values, kl=values / 2, tv=values / 4)
        for _ in range(3):
            mean, se = series.chi2_mean, series.chi2_se
            series.kl_se
        assert len(calls) == 2
        n = values.shape[0]
        assert mean.tobytes() == (values.sum(axis=0) / n).tobytes()
        assert se.tobytes() == (values.std(axis=0, ddof=1) / np.sqrt(n)).tobytes()

    def test_initial_point_is_prior_divergence(self):
        pis = np.stack([CYCLE_MU, CYCLE_MU])
        qis = np.stack([CYCLE_NU, CYCLE_NU])
        series = self._series([pis, pis], [qis, qis], dt=1.0)
        assert series.chi2_mean[0] == pytest.approx(chi2(CYCLE_MU, CYCLE_NU), abs=1e-14)
        assert series.chi2_se[0] == 0.0
        assert series.times[1] == 1.0


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
