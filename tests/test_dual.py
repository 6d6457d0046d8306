"""Backward-map estimators, decay diagnostics, and the decay envelope."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filterlab.dual as dual_mod
from conftest import BLOCKS_MU, BLOCKS_NU, CYCLE_MU, CYCLE_NU, interior_simplex, random_generator_matrix, series_of
from filterlab import verify
from filterlab.divergence import _divergences, chi2, density_ratio
from filterlab.dual import (
    backward_map_study,
    essential_infimum_ratio,
    theorem2_envelope,
)
from filterlab.errors import AssumptionA1Violated, DimensionMismatch, GridMismatch
from filterlab.filtering import _sum_rows, evolve_ensemble
from filterlab.model import validate_model
from filterlab.poincare import conditional_pi_constant


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


@pytest.mark.parametrize("tiny", [5e-13, 1e-12])
def test_support_users_agree_below_ac_eps(cycle_model, tiny):
    # nu(3) <= AC_EPS = 1e-12 does not charge state 3 (divergence's rule):
    # the backward map skips it, a_lower ignores mu(3) = 0, and the
    # conditional Poincare problem leaves it out of supp(nu)
    nu = np.array([0.5, 0.25, 0.25 - tiny, tiny])
    mu = np.array([0.25, 0.25, 0.5, 0.0])
    _, plain, rb = backward_map_study(cycle_model, mu, nu, (0.1,), 4, 0, dt=1e-2)
    assert plain.skipped_states == rb.skipped_states == (3,)
    assert plain.y0[3] == rb.y0[3] == 0.0
    assert essential_infimum_ratio(mu, nu) == pytest.approx(0.25 / 0.5)
    assert conditional_pi_constant(cycle_model.A, nu).support.tolist() == [0, 1, 2]


class TestBackwardMapEstimators:
    def test_pair_is_reproducible_and_consistent_with_single(self, cycle_model):
        diags, plain1, rb1 = backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (1.0,), 40, 5, 1e-3)
        _, plain2, rb2 = backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (1.0,), 40, 5, 1e-3)
        for one, two in ((plain1, plain2), (rb1, rb2)):
            assert np.array_equal(one.y0, two.y0)
            assert np.array_equal(one.stderr, two.stderr)
        assert [est.estimator_kind for est in (plain1, rb1)] == ["plain", "rao-blackwell"]
        assert [dg.T for dg in diags] == [1.0]

    def test_skipped_states_for_thin_nu_support(self, cycle_model):
        nu = np.array([0.5, 0.5, 0.0, 0.0])
        mu = np.array([0.3, 0.7, 0.0, 0.0])
        for est in backward_map_study(cycle_model, mu, nu, (0.5,), 20, 1, 1e-3)[1:]:
            assert est.skipped_states == (2, 3)
            assert est.y0[2] == 0.0 and est.y0[3] == 0.0
            assert est.y0[0] != 0.0

    def test_horizons_must_be_nonempty_and_increasing(self, cycle_model):
        # 0.5 and 0.5000000000005 both fall on grid step 500 of dt = 1e-3
        for T_list in ((), (1.0, 0.5), (0.5, 0.5), (0.5, 0.5000000000005)):
            with pytest.raises(DimensionMismatch):
                backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, T_list, 5, 0, 1e-3)

    def test_rao_blackwell_never_noisier(self, cycle_model):
        _, plain, rb = backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (1.0,), 60, 13, 1e-3)
        r = verify.rao_blackwell_variance_reduction(plain, rb)
        assert r.passed, r.detail

    def test_normalization_identity(self, cycle_model):
        # nu(y0) = 1 exactly in law
        *_, rb = backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (1.5,), 80, 17, 1e-3)
        r = verify.backward_map_normalization(rb, CYCLE_NU)
        assert r.passed, r.detail


def _assert_horizons_read_on_shared_paths(model, mu, nu, monkeypatch):
    # _state_samples of each kept state against runs on its own increments
    # truncated to each horizon, reduced on the state-major (d, 3, P) view of
    # the returned states: every sum over the states adds their rows in order
    # (a path-major .sum moves the rb bits once d >= 8)
    dt, T_list, n = 1e-2, [0.2, 0.5, 1.0], 30
    batches = []
    original = dual_mod.sample_path_batch

    def keep(*args, **kwargs):
        batches.append(original(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(dual_mod, "sample_path_batch", keep)
    kept = np.flatnonzero(nu > 0.0)
    samples = [dual_mod._state_samples(model, mu, nu, x, row, T_list, n, 9, dt) for row, x in enumerate(kept)]
    assert len(batches) == len(kept)
    moved = 0
    for x, batch, (plain, rb, chi2_T) in zip(kept, batches, samples):
        priors = np.stack([mu, nu, np.eye(model.d)[x]])
        terminal = np.array([sp.states[-1] for sp in batch.state_paths])
        for i, T in enumerate(T_list):
            truncated = evolve_ensemble(priors, batch.increments[:, : round(T / dt), :], dt, model)
            S = truncated.T
            gamma = density_ratio(S[:, 0], S[:, 1])
            # the state holding at T: entered at the last jump time <= T
            x_T = np.array([sp.states[np.searchsorted(sp.jump_times, T, side="right") - 1] for sp in batch.state_paths])
            moved += int(np.sum(x_T != terminal))
            assert np.array_equal(plain[i], gamma[x_T, np.arange(n)])
            assert np.array_equal(rb[i], _sum_rows(S[:, 2] * gamma))
            assert np.array_equal(chi2_T[i], _divergences(S[:, 0], S[:, 1])[0])
    # The check above tells X_T from the terminal state on some path.
    assert moved > 0


class TestOnePassEngine:
    def test_samples_read_each_horizon_on_the_shared_paths(self, cycle_model, monkeypatch):
        nu = np.array([0.5, 0.5, 0.0, 0.0])
        mu = np.array([0.3, 0.7, 0.0, 0.0])
        _assert_horizons_read_on_shared_paths(cycle_model, mu, nu, monkeypatch)

    def test_samples_read_each_horizon_on_the_shared_paths_at_nine_states(self, rng, monkeypatch):
        model = validate_model(random_generator_matrix(rng, 9), rng.normal(size=(9, 2)), 1.0)
        nu = np.append(interior_simplex(rng, 7), [0.0, 0.0])
        mu = np.append(interior_simplex(rng, 7), [0.0, 0.0])
        _assert_horizons_read_on_shared_paths(model, mu, nu, monkeypatch)

    def test_each_batch_released_before_the_next(self, cycle_model, monkeypatch):
        # kept state r's increments must be unreferenced when state r + 1 draws
        refs, live = [], []
        original = dual_mod.sample_path_batch

        def recording(*args, **kwargs):
            live.append(sum(ref() is not None for ref in refs))
            batch = original(*args, **kwargs)
            refs.append(weakref.ref(batch.increments))
            return batch

        monkeypatch.setattr(dual_mod, "sample_path_batch", recording)
        backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (0.1, 0.2), 10, 3, 1e-2)
        assert live == [0, 0, 0, 0]

    def test_peak_memory_is_one_state_of_increments(self, cycle_model):
        # N = 200 paths of 1000 steps: one kept state's increments are 1.6 MB
        args = (cycle_model, CYCLE_MU, CYCLE_NU, (0.5, 1.0), 200, 3, 1e-3)
        one_state = 200 * 1000 * cycle_model.H.shape[1] * 8
        backward_map_study(*args)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            backward_map_study(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * one_state

    def test_horizon_off_the_grid_rejected(self, cycle_model):
        with pytest.raises(GridMismatch):
            backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (0.105, 0.2), 5, 0, dt=1e-2)


def _rb_moments(*horizons):
    """_moments of a study whose Rao-Blackwell samples are the given (K, N)
    arrays, one per horizon; the plain and chi2 samples are ones."""
    rb = np.array(horizons, dtype=float)
    return dual_mod._moments(np.stack([np.ones_like(rb), rb, np.ones_like(rb)]))


def _drop_se(before, after, w_nu):
    """Standard error of var_nu_y0(before) - var_nu_y0(after), a = (1, -1)."""
    means, cov = _rb_moments(before, after)
    return dual_mod._var_nu_y0_se(np.array([1.0, -1.0]), means[1] - 1.0, cov[1], w_nu)


class TestDropStandardError:
    def test_identical_samples_give_zero(self):
        rb = np.random.default_rng(3).normal(1.0, 0.2, size=(3, 25))
        assert _drop_se(rb, rb, np.array([0.2, 0.3, 0.5])) == 0.0

    def test_hand_built_stack_matches_formula(self):
        nu = np.array([0.4, 0.6])
        before = [[1.3, 0.9, 1.1, 0.7], [0.5, 0.8, 0.6, 0.9]]
        after = [[1.2, 1.0, 1.1, 0.8], [0.9, 0.7, 0.8, 1.0]]
        n = 4
        total = 0.0
        for x in range(2):
            a, b = np.mean(before[x]), np.mean(after[x])
            va = sum((u - a) ** 2 for u in before[x]) / ((n - 1) * n)
            vb = sum((u - b) ** 2 for u in after[x]) / ((n - 1) * n)
            c = sum((u - a) * (v - b) for u, v in zip(before[x], after[x])) / ((n - 1) * n)
            ea, eb = a - 1.0, b - 1.0
            term = 4.0 * (ea**2 * va + eb**2 * vb - 2.0 * ea * eb * c)
            term += 2.0 * (va**2 + vb**2 - 2.0 * c**2)
            total += nu[x] ** 2 * term
        got = _drop_se(np.array(before), np.array(after), nu)
        assert got == pytest.approx(np.sqrt(total), rel=0.0, abs=1e-12)

    def test_uncorrelated_samples_give_the_quadrature_sum(self):
        # Deviations (1, -1, 1, -1) and (1, 1, -1, -1) have covariance 0.
        nu, kept = np.array([0.4, 0.6]), np.arange(2)
        before = np.array([[1.3, 1.1, 1.3, 1.1], [0.6, 0.4, 0.6, 0.4]])
        after = np.array([[1.05, 1.05, 0.95, 0.95], [0.9, 0.9, 0.7, 0.7]])
        se = [dual_mod._decay_from(*_rb_moments(rb), 0, kept, (), nu, nu, 1.0, 4).var_nu_y0_se for rb in (before, after)]
        assert _drop_se(before, after, nu[kept]) == pytest.approx(np.hypot(*se), abs=1e-12)


def _samples(seed, H, K, N):
    # (3, H, K, N) samples whose horizons share paths: each is the one before plus noise
    rng = np.random.default_rng(seed)
    return 1.0 + np.cumsum(rng.normal(0.0, 0.3, size=(3, H, K, N)), axis=1)


def _rb_terms(x):
    """(y0_hat - 1, covariances) of the Rao-Blackwell means of samples x."""
    means, cov = dual_mod._moments(x)
    return means[1] - 1.0, cov[1]


class TestMoments:
    @given(seed=st.integers(0, 2**31 - 1), H=st.integers(1, 4), K=st.integers(1, 4), N=st.integers(2, 50))
    @settings(max_examples=100, deadline=None)
    def test_covariances_are_those_of_the_means(self, seed, H, K, N):
        # each entry within 1e-12 of its scale sqrt(C_gg C_hh): an entry near 0
        # cancels, so a relative bound on it alone measures only rounding
        x = _samples(seed, H, K, N)
        means, cov = dual_mod._moments(x)
        assert means.shape == (3, H, K) and cov.shape == (3, K, H, H)
        np.testing.assert_array_equal(means, x.mean(axis=-1))
        for j in range(3):
            for k in range(K):
                ref = np.atleast_2d(np.cov(x[j, :, k], ddof=1)) / N
                scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                assert np.all(np.abs(cov[j, k] - ref) <= 1e-12 * scale)

    @given(seed=st.integers(0, 2**31 - 1), H=st.integers(1, 4), K=st.integers(1, 4), N=st.integers(2, 50))
    @settings(max_examples=100, deadline=None)
    def test_unit_vector_is_the_closed_form(self, seed, H, K, N):
        x = _samples(seed, H, K, N)
        w_nu = interior_simplex(np.random.default_rng(seed), K)
        for h in range(H):
            e = x[1, h].mean(axis=1) - 1.0
            v = x[1, h].var(axis=1, ddof=1) / N
            closed = np.sqrt(w_nu**2 @ (4.0 * e**2 * v + 2.0 * v**2))
            got = dual_mod._var_nu_y0_se(np.eye(H)[h], *_rb_terms(x), w_nu)
            assert got == pytest.approx(closed, rel=1e-12, abs=0.0)

    @given(seed=st.integers(0, 2**31 - 1), K=st.integers(1, 4), N=st.integers(2, 50))
    @settings(max_examples=100, deadline=None)
    def test_drop_ignores_the_other_horizons(self, seed, K, N):
        x = _samples(seed, 3, K, N)
        w_nu = interior_simplex(np.random.default_rng(seed), K)
        a = np.array([0.0, 1.0, -1.0])
        before = dual_mod._var_nu_y0_se(a, *_rb_terms(x), w_nu)
        x[:, 0] = np.random.default_rng(seed + 1).normal(1.0, 2.0, size=(3, K, N))
        assert dual_mod._var_nu_y0_se(a, *_rb_terms(x), w_nu) == before


@pytest.fixture(scope="module")
def diags(cycle_model):
    return backward_map_study(cycle_model, CYCLE_MU, CYCLE_NU, (0.5, 1.5), 50, 3, 1e-3)[0]


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
        diags, _, _ = backward_map_study(cycle_model, CYCLE_NU, CYCLE_NU, (0.5,), 20, 0, 1e-3)
        d = diags[0]
        assert d.chi2_prior == 0.0
        assert d.a_lower == pytest.approx(1.0)
        assert d.mean_mu_chi2 <= 1e-10


class TestTheorem2Envelope:
    def _series(self, times, chi2_paths):
        vals = np.asarray(chi2_paths, dtype=float)
        return series_of(times, vals, np.zeros_like(vals), np.zeros_like(vals))

    def test_frozen_envelope_values(self, cycle_model):
        # a = 0.6, chi2_prior = 0.16, c = 1, tau = 1:
        # envelope(t) = (0.16/0.6) * 2^(-floor(t))
        times = np.array([0.0, 0.5, 1.0, 2.5])
        series = self._series(times, np.full((3, 4), 1e-4))
        report = theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, 1.0)
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
        report = theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, 5.0)
        assert report.n_violations > 0
        assert report.first_violation_time == pytest.approx(1.0)

    def test_assumption_violation_raised(self, cycle_model):
        times = np.array([0.0, 1.0])
        series = self._series(times, np.full((2, 2), 0.1))
        mu = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(AssumptionA1Violated):
            theorem2_envelope(cycle_model, mu, CYCLE_NU, series, 1.0)

    def test_bad_parameters_rejected(self, cycle_model):
        series = self._series([0.0], [[0.1]])
        with pytest.raises(DimensionMismatch):
            theorem2_envelope(cycle_model, CYCLE_MU, CYCLE_NU, series, -0.1)

