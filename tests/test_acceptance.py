"""End-to-end acceptance checks for the laboratory, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Expensive preset ensembles are built once per module and
shared; their construction time is charged to the criterion that owns
them, so the runtime assertions reflect a single-threaded build of each
criterion's inputs.
"""

import time

import numpy as np
import pytest

from filterlab import verify
from filterlab.config import model_for_sweep_value, preset_config
from filterlab.divergence import fit_exponential_rate, kl
from filterlab.dual import backward_map_pair, decay_diagnostics, theorem2_envelope
from filterlab.ensemble import run_divergence_ensemble, sample_path_batch
from filterlab.model import is_ergodic, observable_space, validate_model
from filterlab.poincare import classical_pi_constant, trajectory_pi_infimum

from conftest import filter_states, interior_simplex, random_generator_matrix

SEED = 20260814


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def cycle_cfg():
    return preset_config("example-6.1")


@pytest.fixture(scope="module")
def blocks_cfg():
    return preset_config("example-6.2")


@pytest.fixture(scope="module")
def sweep61(cycle_cfg):
    """sigma^2 sweep ensembles for the cycle preset (owned by criterion 4)."""
    out = {}
    start = time.perf_counter()
    for sigma2 in (0.1, 1.0, 10.0):
        model = model_for_sweep_value(cycle_cfg, sigma2)
        out[sigma2] = run_divergence_ensemble(
            model, cycle_cfg.mu, cycle_cfg.nu, 200, 10.0, 1e-3, SEED
        )
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep62(blocks_cfg):
    """k sweep ensembles for the blocks preset (owned by criterion 5)."""
    out = {}
    start = time.perf_counter()
    for k in (0.0, 1.0, 2.0, 4.0):
        model = model_for_sweep_value(blocks_cfg, k)
        out[k] = run_divergence_ensemble(
            model, blocks_cfg.mu, blocks_cfg.nu, 200, 10.0, 1e-3, SEED
        )
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def diags61(cycle_cfg):
    """Variance-decay diagnostics on the cycle (owned by criterion 8)."""
    model = model_for_sweep_value(cycle_cfg, 1.0)
    return _timed(
        decay_diagnostics,
        model,
        cycle_cfg.mu,
        cycle_cfg.nu,
        (2.0, 5.0, 10.0),
        200,
        SEED,
    )


def _rate_fit(ens, window=None):
    series = ens.series
    return fit_exponential_rate(series.times, series.chi2_mean, window=window)


def test_criterion_01_classical_pi_constant_on_cycle(cycle_cfg):
    """Criterion 1: uniform-measure variational constant of the four-cycle
    generator is 2.0 within 1e-8, computed in under a millisecond."""
    mu_bar = np.full(4, 0.25)
    classical_pi_constant(cycle_cfg.A, mu_bar)  # warm up
    samples = []
    for _ in range(50):
        res, elapsed = _timed(classical_pi_constant, cycle_cfg.A, mu_bar)
        samples.append(elapsed)
    assert res.constant == pytest.approx(2.0, abs=1e-8)
    assert float(np.median(samples)) < 1e-3


def test_criterion_02_two_state_structure_sweep():
    """Criterion 2: over a 100-instance two-state sweep with boundary cases,
    ergodicity holds iff lam12 + lam21 > 0 and observability iff the two
    observation values differ."""
    start = time.perf_counter()
    lam_grid = (0.0, 0.5, 1.0, 2.0, 5.0)
    h_pairs = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    n_instances = 0
    for lam12 in lam_grid:
        for lam21 in lam_grid:
            A = np.array([[-lam12, lam12], [lam21, -lam21]])
            for h1, h2 in h_pairs:
                assert is_ergodic(A) == (lam12 + lam21 > 0.0)
                observable = observable_space(A, np.array([h1, h2])).dim == 2
                assert observable == (h1 != h2)
                n_instances += 1
    assert n_instances == 100
    assert time.perf_counter() - start < 1.0


def test_criterion_03_noiseless_cycle_alternation_and_gap(cycle_cfg):
    """Criterion 3: the noiseless cycle filter alternates the conditioned
    prior around the ring, the filter gap stays at 2(p - p') = 0.4 to 1e-10
    at every grid point of a T = 10 path, and the fitted chi-square rate for
    the noiseless sweep point has a confidence interval containing zero."""
    start = time.perf_counter()
    model = model_for_sweep_value(cycle_cfg, 0.0)
    assert model.noiseless
    dt = 1e-3
    batch = sample_path_batch(model, 1, 10.0, dt, SEED, initial_law=cycle_cfg.mu)
    path = batch.state_paths[0]
    pis_mu, pis_nu = filter_states(np.stack([cycle_cfg.mu, cycle_cfg.nu]), [path], dt, model)[0]

    x0 = int(path.states[0])
    level = np.all(model.H == model.H[x0][None, :], axis=1)
    cond_mu = np.where(level, cycle_cfg.mu, 0.0)
    cond_mu /= cond_mu.sum()
    cond_nu = np.where(level, cycle_cfg.nu, 0.0)
    cond_nu /= cond_nu.sum()

    times = np.arange(pis_mu.shape[0]) * dt
    n_jumps = np.searchsorted(path.jump_times[1:], times, side="right")
    expected_mu = np.stack([np.roll(cond_mu, int(j)) for j in n_jumps])
    expected_nu = np.stack([np.roll(cond_nu, int(j)) for j in n_jumps])
    assert np.abs(pis_mu - expected_mu).max() <= 1e-10
    assert np.abs(pis_nu - expected_nu).max() <= 1e-10
    # the support alternates between the two observation level sets; a
    # step containing two jumps returns to the same level set
    parity_pattern = (np.diff(n_jumps) % 2).astype(bool)
    support_flips = np.any(
        (pis_mu[1:] > 0) != (pis_mu[:-1] > 0), axis=1
    )
    assert np.array_equal(support_flips, parity_pattern)

    gaps = np.abs(pis_mu - pis_nu).sum(axis=1)
    assert np.abs(gaps - 0.4).max() <= 1e-10

    ens = run_divergence_ensemble(
        model, cycle_cfg.mu, cycle_cfg.nu, 20, 10.0, dt, SEED
    )
    fit = _rate_fit(ens)
    assert abs(fit.rate) <= 2.0 * fit.stderr + 1e-6
    assert time.perf_counter() - start < 10.0


def test_criterion_04_cycle_rates_increase_with_noise_level(sweep61):
    """Criterion 4: on the cycle preset the fitted chi-square decay rates are
    strictly increasing in sigma^2 beyond combined 2 sigma fit errors, and
    the sigma^2 = 10 rate lies in (0, 2.3]."""
    ensembles, build_time = sweep61
    start = time.perf_counter()
    fits = {s2: _rate_fit(ens) for s2, ens in ensembles.items()}
    for low, high in ((0.1, 1.0), (1.0, 10.0)):
        gap = fits[high].rate - fits[low].rate
        combined = np.hypot(fits[low].stderr, fits[high].stderr)
        assert gap > 2.0 * combined, (low, high, gap, combined)
    assert 0.0 < fits[10.0].rate <= 2.3
    assert build_time + (time.perf_counter() - start) < 300.0


def test_criterion_05_blocks_rates_increase_with_observation_gain(sweep62):
    """Criterion 5: on the blocks preset the k = 0 rate confidence interval
    contains zero (2 sigma plus the 1e-6 fit resolution floor) and the fitted
    rates are strictly increasing in k beyond combined 2 sigma errors."""
    ensembles, build_time = sweep62
    start = time.perf_counter()
    fits = {k: _rate_fit(ens) for k, ens in ensembles.items()}
    zero_fit = fits[0.0]
    assert abs(zero_fit.rate) <= 2.0 * zero_fit.stderr + 1e-6
    for low, high in ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0)):
        gap = fits[high].rate - fits[low].rate
        combined = np.hypot(fits[low].stderr, fits[high].stderr)
        assert gap > 2.0 * combined, (low, high, gap, combined)
    assert build_time + (time.perf_counter() - start) < 300.0


def test_criterion_06_divergence_chain_on_random_pairs():
    """Criterion 6: 2 TV^2 <= KL <= chi^2 holds exactly on ten thousand
    random absolutely continuous simplex pairs of dimension at most 8."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ps, qs = [], []
    for d in range(2, 9):
        n_d = 10_000 // 7 + (1 if d - 2 < 10_000 % 7 else 0)
        ps.append(rng.dirichlet(np.ones(d), size=n_d))
        qs.append(rng.dirichlet(np.ones(d), size=n_d))
    assert sum(len(p) for p in ps) == 10_000
    r = verify.divergence_chain(ps, qs)
    assert r.passed, r.detail
    assert time.perf_counter() - start < 1.0


def test_criterion_07_backward_map_estimators_agree():
    """Criterion 7: plain and Rao-Blackwell estimates of the backward map
    agree within 3 combined standard errors per state on 20 random models
    with at most 4 states, and nu(y0) = 1 within 3 sigma."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        A = random_generator_matrix(rng, d)
        H = rng.normal(size=d)
        model = validate_model(A, H, 1.0)
        mu = interior_simplex(rng, d)
        nu = interior_simplex(rng, d)
        plain, rb = backward_map_pair(model, mu, nu, 2.0, 200, SEED + trial)
        assert plain.skipped_states == () and rb.skipped_states == ()
        r = verify.estimators_agree(plain, rb)
        assert r.passed, (trial, r.detail)
        for est in (plain, rb):
            r = verify.backward_map_normalization(est, nu)
            assert r.passed, (trial, est.estimator_kind, r.detail)
    assert time.perf_counter() - start < 600.0


def test_criterion_08_backward_map_variance_decays(diags61):
    """Criterion 8: on the cycle preset at sigma^2 = 1, var_nu(y0) is
    strictly decreasing over horizons (2, 5, 10) beyond 3 sigma and never
    exceeds the terminal-value variance var_nu(gamma_T(X_T)) within 3 sigma."""
    diags, build_time = diags61
    start = time.perf_counter()
    assert [d.T for d in diags] == [2.0, 5.0, 10.0]
    for r in (verify.variance_decay_monotone(diags), verify.jensen_contraction(diags)):
        assert r.passed, r.detail
    assert build_time + (time.perf_counter() - start) < 600.0


def test_criterion_09_entropy_and_duality_inequalities(sweep61, diags61):
    """Criterion 9: on the cycle preset at sigma^2 = 1 the mean KL series is
    non-increasing within 3 sigma, the pathwise entropy lower bound holds
    within 3 sigma, R_T >= a_lower within 3 sigma, and the Cauchy-Schwarz
    slack is nonnegative within 3 sigma."""
    ens = sweep61[0][1.0]
    diags, _ = diags61
    start = time.perf_counter()
    cfg = preset_config("example-6.1")

    anchors = np.arange(0, ens.series.times.size, 100)
    for r in (
        verify.kl_supermartingale(ens, anchors),
        verify.clark_entropy_bound(ens, anchors, kl(cfg.mu, cfg.nu)),
        verify.ratio_lower_bound(diags),
        verify.cauchy_schwarz_slack(diags),
    ):
        assert r.passed, r.detail
    assert time.perf_counter() - start < 600.0


def test_criterion_10_integrated_drift_matches_chi2_increments():
    """Criterion 10: on a random three-state ergodic model the integrated
    pathwise drift matches the mean chi-square increments within 4 sigma."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 10)
    A = random_generator_matrix(rng, 3)
    assert is_ergodic(A)
    model = validate_model(A, rng.normal(size=3), 1.0)
    mu = interior_simplex(rng, 3)
    nu = interior_simplex(rng, 3)
    ens = run_divergence_ensemble(
        model, mu, nu, 500, 2.0, 1e-3, SEED, record_drift=True
    )
    indices = [int(round(t_check / 1e-3)) for t_check in (0.5, 1.0, 2.0)]
    r = verify.chi2_weak_dynamics(ens, indices)
    assert r.passed, r.detail
    assert ens.series.times[-1] == pytest.approx(2.0)
    assert time.perf_counter() - start < 300.0


def test_envelope_with_trajectory_surrogate_is_reported(sweep61, cycle_cfg):
    """The multiplicative decay envelope is exercised with the trajectory
    infimum surrogate for its constant and reported; the theoretical constant
    itself is not reproducible at this ensemble scale, so no pass/fail
    threshold is attached to it beyond structural sanity."""
    ens = sweep61[0][1.0]
    model = model_for_sweep_value(cycle_cfg, 1.0)
    batch = sample_path_batch(model, 5, 10.0, 1e-3, SEED + 99, initial_law=cycle_cfg.nu)
    pis = filter_states(cycle_cfg.nu, batch.increments, 1e-3, model)[:, 0]
    c_inf, _ = trajectory_pi_infimum(model.A, pis, 1e-3, stride=100)
    c_env = max(float(c_inf), 0.0) if np.isfinite(c_inf) else 0.0
    report = theorem2_envelope(model, cycle_cfg.mu, cycle_cfg.nu, ens.series, c_env, 1.0)
    assert report.a_lower == pytest.approx(0.6)
    assert report.envelope[0] == pytest.approx(0.16 / 0.6)
    assert np.all(np.isfinite(report.envelope))
    assert report.n_violations >= 0
    print(
        f"envelope report: c_estimate = {report.c_estimate:.4f}, "
        f"tau = {report.tau}, violations = {report.n_violations}"
    )
