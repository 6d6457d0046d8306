"""Backward-map estimators, decay diagnostics, and the decay envelope."""

import numpy as np
import pytest

from conftest import BLOCKS_MU, BLOCKS_NU, CYCLE_MU, CYCLE_NU
from filterlab import verify
from filterlab.divergence import DivergenceSeries, chi2
from filterlab.dual import (
    backward_map_pair,
    backward_map_study,
    decay_diagnostics,
    essential_infimum_ratio,
    read_backward_map_csv,
    theorem2_envelope,
    write_backward_map_csv,
)
from filterlab.errors import AssumptionA1Violated, DimensionMismatch


class TestEssentialInfimumRatio:
    def test_reference_priors(self):
        # cycle priors: min over nu-support of mu/nu = 0.15/0.25
        assert essential_infimum_ratio(CYCLE_MU, CYCLE_NU) == pytest.approx(0.6)
        # block priors: min(0.2/0.1, 0.6/0.1, 0.1/0.1, 0.1/0.7) = 1/7
        assert essential_infimum_ratio(BLOCKS_MU, BLOCKS_NU) == pytest.approx(1.0 / 7.0)

    def test_missing_mass_gives_zero(self):
        assert essential_infimum_ratio([1.0, 0.0], [0.5, 0.5]) == 0.0

    def test_identical_priors_give_one(self):
        assert essential_infimum_ratio(CYCLE_NU, CYCLE_NU) == pytest.approx(1.0)


class TestBackwardMapEstimators:
    def test_pair_is_reproducible_and_consistent_with_single(self, cycle_model):
        plain1, rb1 = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 1.0, 40, 5)
        plain2, rb2 = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 1.0, 40, 5)
        assert np.array_equal(plain1.y0, plain2.y0)
        assert np.array_equal(rb1.y0, rb2.y0)
        diags, solo_plain, solo = backward_map_study(
            cycle_model, CYCLE_MU, CYCLE_NU, (1.0,), 40, 5
        )
        for one, two in ((solo_plain, plain1), (solo, rb1)):
            assert np.array_equal(one.y0, two.y0)
            assert np.array_equal(one.stderr, two.stderr)
            assert one.estimator_kind == two.estimator_kind
        assert [dg.T for dg in diags] == [1.0]

    def test_unknown_kind_rejected(self, cycle_model):
        # The pair carries exactly the two known kinds; no other can be asked for.
        pair = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 0.2, 5, 0)
        assert [est.estimator_kind for est in pair] == ["plain", "rao-blackwell"]
        with pytest.raises(TypeError):
            backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 0.2, 5, 0, kind="fancy")

    def test_skipped_states_for_thin_nu_support(self, cycle_model):
        nu = np.array([0.5, 0.5, 0.0, 0.0])
        mu = np.array([0.3, 0.7, 0.0, 0.0])
        for est in backward_map_pair(cycle_model, mu, nu, 0.5, 20, 1):
            assert est.skipped_states == (2, 3)
            assert est.y0[2] == 0.0 and est.y0[3] == 0.0
            assert est.y0[0] != 0.0

    def test_horizons_must_be_nonempty_and_increasing(self, cycle_model):
        for T_list in ((), (1.0, 0.5), (0.5, 0.5)):
            with pytest.raises(DimensionMismatch):
                backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, T_list, 5, 0)

    def test_rao_blackwell_never_noisier(self, cycle_model):
        plain, rb = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 1.0, 60, 13)
        r = verify.rao_blackwell_variance_reduction(plain, rb)
        assert r.passed, r.detail

    def test_normalization_identity(self, cycle_model):
        # nu(y0) = 1 exactly in law
        _, rb = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 1.5, 80, 17)
        r = verify.backward_map_normalization(rb, CYCLE_NU)
        assert r.passed, r.detail


@pytest.fixture(scope="module")
def diags(cycle_model):
    return decay_diagnostics(cycle_model, CYCLE_MU, CYCLE_NU, (0.5, 1.5), 50, 3)


class TestDecayDiagnostics:
    def test_structural_fields(self, diags):
        assert [d.T for d in diags] == [0.5, 1.5]
        for d in diags:
            assert d.chi2_prior == pytest.approx(chi2(CYCLE_MU, CYCLE_NU))
            assert d.a_lower == pytest.approx(0.6)
            assert d.n_paths_per_state == 50
            assert d.skipped_states == ()
            assert np.isfinite(d.var_nu_y0) and np.isfinite(d.r_T)

    def test_variance_decays_between_horizons(self, diags):
        r = verify.variance_decay_monotone(diags)
        assert r.passed, r.detail

    def test_jensen_direction(self, diags):
        r = verify.jensen_contraction(diags)
        assert r.passed, r.detail

    def test_ratio_above_essential_infimum(self, diags):
        r = verify.ratio_lower_bound(diags)
        assert r.passed, r.detail

    def test_degenerate_equal_priors(self, cycle_model):
        # mu = nu: chi2 vanishes, the ratio degrades gracefully
        diags = decay_diagnostics(cycle_model, CYCLE_NU, CYCLE_NU, (0.5,), 20, 0)
        d = diags[0]
        assert d.chi2_prior == 0.0
        assert d.a_lower == pytest.approx(1.0)
        assert d.mean_mu_chi2 <= 1e-10


class TestTheorem2Envelope:
    def _series(self, times, chi2_paths):
        vals = np.asarray(chi2_paths, dtype=float)
        return DivergenceSeries(
            times=np.asarray(times, float),
            chi2=vals,
            kl=np.zeros_like(vals),
            tv=np.zeros_like(vals),
        )

    def test_frozen_envelope_values(self, cycle_model):
        # a = 0.6, chi2_prior = 0.16, c = 1, tau = 1:
        # envelope(t) = (0.16/0.6) * 2^(-floor(t))
        times = np.array([0.0, 0.5, 1.0, 2.5])
        series = self._series(times, np.full((3, 4), 1e-4))
        report = theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, 1.0, 1.0)
        base = 0.16 / 0.6
        np.testing.assert_allclose(
            report.envelope, [base, base, base / 2.0, base / 4.0], atol=1e-12
        )
        assert report.n_violations == 0
        assert report.first_violation_time is None

    def test_violation_detected_for_stalled_series(self, cycle_model):
        # constant chi2 at its prior value cannot satisfy a fast envelope:
        # at t = 1 the envelope is (0.16/0.6)/6 < 0.16
        times = np.linspace(0.0, 5.0, 11)
        series = self._series(times, np.full((4, 11), 0.16))
        report = theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, 5.0, 1.0)
        assert report.n_violations > 0
        assert report.first_violation_time == pytest.approx(1.0)

    def test_assumption_violation_raised(self, cycle_model):
        times = np.array([0.0, 1.0])
        series = self._series(times, np.full((2, 2), 0.1))
        mu = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(AssumptionA1Violated):
            theorem2_envelope(cycle_model, mu, CYCLE_NU, series, 1.0, 1.0)

    def test_bad_parameters_rejected(self, cycle_model):
        series = self._series([0.0], [[0.1]])
        with pytest.raises(DimensionMismatch):
            theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, -0.1, 1.0)
        with pytest.raises(DimensionMismatch):
            theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, 1.0, 0.0)


class TestBackwardMapCsv:
    def test_round_trip(self, tmp_path, cycle_model):
        _, est = backward_map_pair(cycle_model, CYCLE_MU, CYCLE_NU, 0.5, 15, 2)
        p = tmp_path / "map.csv"
        write_backward_map_csv(str(p), est)
        cols = read_backward_map_csv(str(p))
        np.testing.assert_array_equal(cols["x"], np.arange(4))
        np.testing.assert_array_equal(cols["y0"], est.y0)
        np.testing.assert_array_equal(cols["stderr"], est.stderr)
