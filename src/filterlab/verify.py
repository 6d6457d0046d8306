"""Named verification suites behind the `verify` subcommand, and the one
definition of each statistical check.

The check functions (kl_supermartingale ... splitting_strong_order) take
objects that are already computed and return a CheckResult; the `check_*`
suites build their inputs at (seed, size) and call them, as do the
acceptance tests on their own inputs.  The pathwise checks read the filter
pair at every step, which record_filter_pair copies from the engine: the
ensemble keeps its report grid only.  A statistical check allows Z standard
errors (Z_WIDE where the per-path variance is largest), compared as |x| <=
z se or x >= -z se: a nan standard error fails, and a zero one passes only
an exact zero; splitting_strong_order bounds ratios of discretization
errors instead.  size = 0 runs the deterministic suite only; a size below
MIN_SIZE is rejected, since the suites' tolerances do not hold at such sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .config import _seed_check, model_for_sweep_value, preset_config
from .divergence import (
    AC_EPS,
    SUPPORT_EPS,
    _divergences,
    _mean_se,
    chi2,
    chi2_drift_batch,
    chi2_drift_terms,
    density_ratio,
    fit_exponential_rate,
    kl,
    tv,
)
from .dual import _nu_mean, backward_map_study
from .ensemble import run_divergence_ensemble, sample_path_batch
from .errors import ConfigError, FilterLabError, GridMismatch, NonPositiveNoise
from .filtering import _BLOCK_STEPS, _subgenerator_expm, evolve_ensemble, evolve_noiseless_ensemble
from .model import (
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    observable_space,
    rate_bounds,
    validate_model,
)
from .poincare import classical_pi_constant, conditional_pi_constant
from .sim import spawn_rng

__all__ = ["CheckResult", "record_filter_pair", "run_verify", "DETERMINISTIC_CHECKS", "STATISTICAL_CHECKS", "MIN_SIZE"]

Z = 3.0
Z_WIDE = 4.0
# The smallest size at which the statistical suite passed seeds 0-9 (0-29 with the
# trapezoid drift), on a step of 10: size 30 failed seed 7 (estimators 3.21 se apart).
MIN_SIZE = 40
# Strong order: the fine step, the coarse steps as its multiples, and the
# band for each error ratio per halving of the step.
ORDER_DT, ORDER_FACTORS, ORDER_BAND = 1.25e-4, (64, 32, 16, 8), (1.5, 2.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    passed: bool
    detail: str


def _result(name: str, kind: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, kind=kind, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------


def _above(name: str, label: str, x, se) -> CheckResult:
    """x >= -Z se everywhere."""
    x, se = np.asarray(x, dtype=float), np.asarray(se, dtype=float)
    detail = f"min {label} + {Z:g} se = {float((x + Z * se).min()):.3e}"
    return _result(name, "statistical", np.all(x >= -Z * se), detail)


def _near_zero(name: str, label: str, x, se, z: float = Z) -> CheckResult:
    """|x| <= z se everywhere."""
    x, se = np.abs(np.asarray(x, dtype=float)), np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        detail = f"max |{label}| / se = {float(np.where(x == 0.0, 0.0, x / se).max()):.2f}"
    return _result(name, "statistical", np.all(x <= z * se), detail)


def record_filter_pair(model, mu, nu, n_paths, T, dt, seed):
    """(chi2, kl, signal, drift, terminal) of run_divergence_ensemble's paths
    and filters at every step: chi2 and kl (n_paths, n + 1); signal[i, k],
    the left-point integral of |pi^mu(h/r) - pi^nu(h/r)|^2 to t_k on path i
    (the pathwise relative-entropy identity's); drift, chi2_drift_batch's
    trapezoid-rule integral; the final states (n_paths, 2, d), mu's first.
    Pairs are reduced a full state-major (d, 2, _BLOCK_STEPS, P) buffer at a
    time (other layouts move the products' bits), and one cumulative sum per
    array gives a per-step running sum's bits.  Noiseless: NonPositiveNoise."""
    if model.noiseless:
        raise NonPositiveNoise("the signal and drift integrals need a noisy observation model")
    density_ratio(mu, nu)  # mu << nu, and a DimensionMismatch, not np.stack's ValueError, for unequal lengths
    batch = sample_path_batch(model, n_paths, T, dt, seed, mu)
    n = batch.increments.shape[1]
    # four arrays: one freed 4-array block would raise malloc's mmap threshold past later arrays
    chi2_v, kl_v, signal, drift = (np.empty((n_paths, n + 1)) for _ in range(4))
    block = np.empty((model.d, 2, min(_BLOCK_STEPS, n + 1), n_paths))

    def observer(step: int, S: np.ndarray) -> None:
        j = step % block.shape[2]
        block[:, :, j] = S
        if j + 1 == block.shape[2] or step == n:  # a full buffer, or the last step's
            k0, k1 = step - j, step + 1
            pq = block[:, :, : j + 1]
            chi2_v[:, k0:k1], kl_v[:, k0:k1] = _divergences(pq[:, 0], pq[:, 1])[:2].transpose(0, 2, 1)
            p, q = np.moveaxis(pq, 0, -1)  # (step, path, state): the matmuls read laws as rows
            drift[:, k0:k1] = chi2_drift_batch(p, q, model).T
            # step k < n gives the signal's increment over (t_k, t_{k+1}]
            p, q = p[: n - k0], q[: n - k0]
            signal[:, k0 + 1 : k1 + 1] = ((((p - q) @ model.h_unit) ** 2).sum(axis=-1) * dt).T

    terminal = evolve_ensemble(np.stack([mu, nu]), batch.increments, dt, model, observer=observer)
    drift[:, 1:] += drift[:, :-1]  # the trapezoid rule: (d_k + d_{k+1}) dt / 2 at k + 1
    drift[:, 1:] *= 0.5 * dt
    signal[:, 0] = drift[:, 0] = 0.0
    np.cumsum(signal, axis=1, out=signal)
    np.cumsum(drift, axis=1, out=drift)
    return chi2_v, kl_v, signal, drift, terminal


def kl_supermartingale(kl_paths, anchors) -> CheckResult:
    """Mean KL non-increasing between consecutive anchor indices."""
    drop = -np.diff(kl_paths[:, anchors], axis=1)
    return _above("kl-supermartingale", "anchored mean KL decrease", *_mean_se(drop))


def clark_entropy_bound(kl_paths, signal, anchors, prior_kl: float) -> CheckResult:
    """E[KL_t + signal_t / 2] <= KL(mu|nu) at the anchors after the first
    (the first carries the prior on both sides, an exact equality)."""
    later = anchors[1:]
    mean, se = _mean_se(kl_paths[:, later] + 0.5 * signal[:, later])
    return _above("clark-entropy-bound", "slack", prior_kl - mean, se)


def terminal_absolute_continuity(term) -> CheckResult:
    """pi_T^mu charges no state outside supp(pi_T^nu), by divergence's support rule."""
    passed = np.all(term[:, 0, :][term[:, 1, :] < SUPPORT_EPS] <= AC_EPS)
    detail = f"pi_T^mu below {AC_EPS:g} wherever pi_T^nu below {SUPPORT_EPS:g}"
    return _result("terminal-absolute-continuity", "statistical", passed, detail)


def chi2_weak_dynamics(c, drift, indices) -> CheckResult:
    """Trapezoid-integrated pathwise drift matches the mean chi-square increments."""
    resid = c[:, indices] - c[:, [0]] - drift[:, indices]
    return _near_zero("chi2-weak-dynamics", "mean residual", *_mean_se(resid), z=Z_WIDE)


def estimators_agree(plain, rb) -> CheckResult:
    """Plain and Rao-Blackwell backward maps agree per state."""
    se = np.hypot(plain.stderr, rb.stderr)
    return _near_zero("backward-map-estimators-agree", "plain - rb", plain.y0 - rb.y0, se)


def rao_blackwell_variance_reduction(plain, rb) -> CheckResult:
    """The Rao-Blackwell standard error never exceeds the plain one."""
    passed = np.all(rb.stderr <= plain.stderr + 1e-15)
    detail = "rb stderr <= plain stderr per state"
    return _result("rao-blackwell-variance-reduction", "statistical", passed, detail)


def backward_map_normalization(est, nu) -> CheckResult:
    """nu(y0) = 1, the normalization of the backward map."""
    mean, se = _nu_mean(est, nu)
    return _near_zero("backward-map-normalization", "nu(y0) - 1", mean - 1.0, se)


def variance_decay_monotone(diags) -> CheckResult:
    """var_nu(y0) strictly decreasing between horizons beyond Z se."""
    passed = all(
        a.var_nu_y0 - b.var_nu_y0 > Z * np.hypot(a.var_nu_y0_se, b.var_nu_y0_se)
        for a, b in zip(diags, diags[1:])
    )
    horizons = ", ".join(f"{d.T:g}" for d in diags)
    detail = f"var_nu(y0) strictly decreasing beyond {Z:g} se over ({horizons})"
    return _result("variance-decay-monotone", "statistical", passed, detail)


def jensen_contraction(diags) -> CheckResult:
    """var_nu(y0) <= var_nu(gamma_T(X_T)) at every horizon."""
    gap = [d.var_nu_gammaT - d.var_nu_y0 for d in diags]
    se = [np.hypot(d.var_nu_gammaT_se, d.var_nu_y0_se) for d in diags]
    return _above("jensen-contraction", "var(gamma_T) - var(y0)", gap, se)


def ratio_lower_bound(diags) -> CheckResult:
    """R_T >= a_lower at every horizon."""
    gap = [d.r_T - d.a_lower for d in diags]
    return _above("ratio-lower-bound", "R_T - a_lower", gap, [d.r_T_se for d in diags])


def cauchy_schwarz_slack(diags) -> CheckResult:
    """(E^mu chi2_T)^2 <= var_nu(y0) chi2(mu|nu) at every horizon."""
    se = [d.cauchy_schwarz_slack_se for d in diags]
    return _above("cauchy-schwarz-slack", "slack", [d.cauchy_schwarz_slack for d in diags], se)


def uniform_bound_slack(diags) -> CheckResult:
    """R_T^2 (var_nu(gamma_T) - var_nu(y0)) <= chi2(mu|nu) at every horizon."""
    se = [d.uniform_bound_slack_se for d in diags]
    return _above("uniform-bound-slack", "slack", [d.uniform_bound_slack for d in diags], se)


def divergence_chain(p, q) -> CheckResult:
    """2 TV^2 <= KL <= chi2 for each pair of rows of p[k] and q[k] (lists of
    (n, d) stacks of laws; d may differ between stacks), to rounding.

    Each pair allows (2d + 6) eps (1 + chi2) below 0 on either side
    (_rounding_bound).  With u = eps / 2: rounding gamma = p / q moves log
    gamma by up to u per state, u sum p = u in all, and the other roundings
    of KL (the log, two products, d - 1 additions: d + 3 when the log is
    good to 2u) are relative to sum p |log gamma| <= KL + 2 TV <= chi2 + 2;
    chi2's terms q (gamma - 1)^2 carry 2u p |gamma - 1| from gamma, at most
    u (1 + 2 chi2) in all, and d + 2 roundings relative to chi2; 2 TV^2
    carries d + 2 relative to 2 TV^2 <= KL.  Either difference is then off
    by at most (1.5 d + 6) eps (1 + chi2).  A bound relative to KL alone
    cannot hold: near p = q the absolute u from gamma dominates.
    """
    lo, hi, passed = np.inf, np.inf, True
    for pk, qk in zip(p, q):
        c, k, t = _divergences(pk.T, qk.T)
        slack = _rounding_bound(2 * pk.shape[-1] + 6, 1.0 + c)
        passed &= bool(np.all(k - 2.0 * t**2 >= -slack) and np.all(c - k >= -slack))
        lo = min(lo, float((k - 2.0 * t**2).min()))
        hi = min(hi, float((c - k).min()))
    detail = f"min(KL - 2TV^2) = {lo:.3e}, min(chi2 - KL) = {hi:.3e}, each >= -(2d + 6) eps (1 + chi2)"
    return _result("divergence-chain", "deterministic", passed, detail)


def _rounding_bound(roundings: int, magnitude):
    """roundings * eps * magnitude, the rounding error allowed to a value
    formed in that many roundings from terms whose absolute values sum to
    magnitude: Higham (2002, ch. 3) bounds it by gamma_n magnitude, with
    gamma_n = n u / (1 - n u) <= n eps for u = eps / 2 and n u <= 1/2."""
    return roundings * np.finfo(float).eps * magnitude


def splitting_strong_order(cases, prior, dt: float) -> CheckResult:
    """Observed strong order one of the filter step on shared increments.

    cases lists (label, model, increments), increments (P, n, m) on the
    fine grid dt; the run at step c dt uses the sums of c consecutive fine
    increments, so every run sees the same observation paths.  Its error is
    the root mean square over paths of |pi_T(c dt) - pi_T(dt)|, and every
    ratio of errors for halving the step must lie in ORDER_BAND.  Raises
    GridMismatch unless n is a multiple of every ORDER_FACTORS entry.
    """
    prior = np.asarray(prior, dtype=float)[None]
    lo, hi = ORDER_BAND
    passed, details = True, []
    for label, model, inc in cases:
        P, n, m = inc.shape
        if any(n % c for c in ORDER_FACTORS):
            raise GridMismatch(f"{n} fine steps do not split into steps of {ORDER_FACTORS}")
        fine = evolve_ensemble(prior, inc, dt, model)
        errs = []
        for c in ORDER_FACTORS:
            coarse = evolve_ensemble(prior, inc.reshape(P, n // c, c, m).sum(axis=2), c * dt, model)
            errs.append(np.sqrt(((coarse - fine) ** 2).sum(axis=(1, 2)).mean()))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        passed &= bool(np.all((ratios >= lo) & (ratios <= hi)))
        details.append(f"{label}: " + ", ".join(f"{r:.2f}" for r in ratios))
    detail = f"error ratios per halving of dt, band [{lo:g}, {hi:g}]: " + "; ".join(details)
    return _result("splitting-strong-order", "statistical", passed, detail)


def _cycle_model(sigma2: float = 1.0):
    """The example-6.1 cycle at noise intensity sigma2 (0 is noiseless)."""
    return model_for_sweep_value(preset_config("example-6.1"), sigma2)


def _blocks_A() -> np.ndarray:
    return preset_config("example-6.2").A


def _random_rates(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    """A (d, d) generator with off-diagonal rates drawn uniformly from [lo, hi)."""
    A = rng.uniform(lo, hi, size=(d, d))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


# ---------------------------------------------------------------------------
# deterministic checks
# ---------------------------------------------------------------------------


def check_divergence_chain(seed: int) -> CheckResult:
    """2 TV^2 <= KL <= chi2 on random absolutely continuous pairs."""
    rng = spawn_rng(seed, 9001)
    p, q = [], []
    for d in range(2, 9):
        p.append(rng.dirichlet(np.ones(d), size=1500))
        q.append(rng.dirichlet(np.ones(d), size=1500))
    return divergence_chain(p, q)


def check_divergence_values(seed: int) -> CheckResult:
    """Hand-computed triple at p = (1/2, 1/2), q = (1/4, 3/4)."""
    p, q = [0.5, 0.5], [0.25, 0.75]
    got = (chi2(p, q), kl(p, q), tv(p, q))
    want = (1.0 / 3.0, 0.5 * np.log(4.0 / 3.0), 0.25)
    err = max(abs(g - w) for g, w in zip(got, want))
    return _result("divergence-values", "deterministic", err <= 1e-12, f"max error {err:.2e}")


def _drift_bounds(p, q, model) -> tuple[float, float, float]:
    """Rounding bounds on the identity residual, the constant-h residual and
    |c2| at constant h, at (p, q) (check_drift_identity)."""
    g = density_ratio(p, q)
    energy = float(q @ carre_du_champ(model.A, g))
    weight = float(p @ g)
    k2 = float((np.abs(model.h_unit).max(axis=0) ** 2).sum())
    scale = energy + weight * k2
    return (
        _rounding_bound(19, 24.0 * scale),
        _rounding_bound(14, 4.0 * scale),
        _rounding_bound(11, 4.0 * weight * np.sqrt(k2)),
    )


def check_drift_identity(seed: int) -> CheckResult:
    """Compact drift equals C1 + C3 . (pi_mu(h) - pi_nu(h)); constant h collapses.

    Each comparison allows the rounding of its terms (_rounding_bound).
    With E = pi_nu(Gamma gamma), W = pi_mu(gamma) = 1 + chi2, K2 the sum
    over the components of max_x (h(x)/r)^2 and S = E + W K2, |u|^2, |v|^2
    and |u . v| are at most 4 K2, so the terms of drift, c1 and c3 . gap are
    at most E + 4 W K2, E + 16 W K2 and 4 W K2 in absolute value: 24 S in
    all.  The longest chain of roundings is c1's, 2d + 7 = 17 at d <= 5,
    and the residual adds two: 19 roundings of 24 S.  With h constant,
    drift + E is off by the rounding of two energies and of v_mu . v_nu, 4 S
    in 2d + 4 = 14 roundings, and c2 by that of 2 pi_mu(gamma |u|) <=
    4 W sqrt(K2), in 2d + 1 = 11.  The magnitude |drift| + |c1| + |c3| .
    |gap| would not do: at d = 2 the three nearly cancel while their terms
    do not.
    """
    rng = spawn_rng(seed, 9002)
    worst = 0.0  # residual over its bound
    for _ in range(50):
        d = int(rng.integers(2, 6))
        A = _random_rates(rng, d, 0.2, 2.0)
        H = rng.normal(size=(d, 2))
        model = validate_model(A, H, 1.0)
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        terms = chi2_drift_terms(p, q, model)
        gap = p @ model.h_unit - q @ model.h_unit
        worst = max(worst, abs(terms.drift - (terms.c1 + terms.c3 @ gap)) / _drift_bounds(p, q, model)[0])
    model = validate_model(A, np.full((d, 1), 2.5), 1.0)
    terms = chi2_drift_terms(p, q, model)
    _, collapse_bound, c2_bound = _drift_bounds(p, q, model)
    collapse = abs(terms.drift + float(q @ carre_du_champ(A, density_ratio(p, q)))) / collapse_bound
    c2 = float(np.abs(terms.c2).max()) / c2_bound
    return _result(
        "chi2-drift-identity",
        "deterministic",
        max(worst, collapse, c2) <= 1.0,
        f"residuals over their rounding bounds: identity {worst:.3f}, constant-h {collapse:.3f}, c2 {c2:.3f}",
    )


def check_pi_constants(seed: int) -> CheckResult:
    """Frozen Poincare constants: cycle = 2, two-state = 2(l12 + l21),
    level-set posterior = 0, mixed-block measure = 0."""
    details = []
    ok = True
    res = classical_pi_constant(_cycle_model().A, np.full(4, 0.25))
    ok &= abs(res.constant - 2.0) <= 1e-8
    details.append(f"cycle {res.constant:.10f}")
    rng = spawn_rng(seed, 9003)
    for _ in range(10):
        l12, l21 = rng.uniform(0.1, 3.0, size=2)
        A2 = np.array([[-l12, l12], [l21, -l21]])
        mu2 = np.array([l21, l12]) / (l12 + l21)
        res2 = classical_pi_constant(A2, mu2)
        ok &= abs(res2.constant - 2.0 * (l12 + l21)) <= 1e-8
    details.append("two-state formula ok")
    level = conditional_pi_constant(_cycle_model().A, [0.5, 0.0, 0.5, 0.0])
    ok &= abs(level.constant) <= 1e-10
    details.append(f"level-set {level.constant:.2e}")
    mixed = np.array([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 6.0])
    blocks = classical_pi_constant(_blocks_A(), mixed)
    ok &= abs(blocks.constant) <= 1e-10
    details.append(f"disconnected {blocks.constant:.2e}")
    scale = classical_pi_constant(3.0 * _cycle_model().A, np.full(4, 0.25))
    ok &= abs(scale.constant - 6.0) <= 1e-8
    details.append("scale covariance ok")
    return _result("poincare-constants", "deterministic", bool(ok), "; ".join(details))


def check_rate_fit(seed: int) -> CheckResult:
    """Exact rate on a pure exponential; perturbed rate within its bound."""
    t = np.linspace(0.0, 10.0, 2001)
    fit = fit_exponential_rate(t, np.exp(-3.0 * t))
    ok = abs(fit.rate - 3.0) <= 1e-9 and fit.r_squared >= 1.0 - 1e-12
    fit2 = fit_exponential_rate(t, np.exp(-3.0 * t) * (1.0 + 0.01 * np.sin(t)))
    ok &= 2.9 <= fit2.rate <= 3.1
    detail = f"exact {fit.rate:.12f}, perturbed {fit2.rate:.4f}"
    return _result("rate-fit", "deterministic", bool(ok), detail)


def check_structure_examples(seed: int) -> CheckResult:
    """Structural facts of the two reference models and the two-state family."""
    ok = True
    details = []
    cyc = _cycle_model()
    mu_bar = invariant_measure(cyc.A)
    ok &= bool(np.allclose(mu_bar, 0.25, atol=1e-9))
    ok &= is_ergodic(cyc.A)
    ok &= len(observable_space(cyc.A, cyc.H)) == 2
    ok &= np.allclose(rate_bounds(cyc.A, mu_bar), (0.0, 0.0, 0.0), atol=1e-12)
    details.append("cycle ok")
    blocks = _blocks_A()
    ok &= not is_ergodic(blocks)
    h_signed = np.array([[1.0], [0.0], [-1.0], [0.0]])
    ok &= len(observable_space(blocks, h_signed)) == 4
    ok &= len(observable_space(blocks, 0.0 * h_signed)) == 1
    # the reported measure charges both blocks, so its constant is 0
    mu_blocks = invariant_measure(blocks, allow_nonunique=True)
    ok &= min(mu_blocks[:2].sum(), mu_blocks[2:].sum()) > AC_EPS
    ok &= abs(classical_pi_constant(blocks, mu_blocks).constant) <= 1e-10
    details.append("blocks ok")
    rng = spawn_rng(seed, 9005)
    for _ in range(25):
        l12 = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        l21 = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        h1, h2 = rng.choice([0.0, 1.0, -1.0], size=2)
        A2 = np.array([[-l12, l12], [l21, -l21]])
        ok &= is_ergodic(A2) == (l12 + l21 > 0.0)
        dim = len(observable_space(A2, np.array([[h1], [h2]])))
        ok &= (dim == 2) == (h1 != h2)
    details.append("two-state criteria ok")
    return _result("structure-examples", "deterministic", bool(ok), "; ".join(details))


def check_noiseless_identity(seed: int) -> CheckResult:
    """Level-set filter from X_0 = 0: alternation pattern and the constant L1
    gap 2 (p - p'), p and p' the priors' masses at 0 given the level {0, 2}."""
    cfg = preset_config("example-6.1")
    model = model_for_sweep_value(cfg, 0.0)
    batch = sample_path_batch(model, 1, 5.0, 1e-3, seed, 0, stream_offset=9006)
    grid, rows = np.arange(5001) * 1e-3, []  # every step of dt = 1e-3 on [0, 5]
    evolve_noiseless_ensemble(
        np.stack([cfg.mu, cfg.nu]), batch.state_paths, grid, model, observer=lambda k, S: rows.append(S[:, :, 0].copy())
    )
    pis = np.stack(rows, axis=2)  # (d, 2, n + 1): the mu and nu filters
    gap = np.abs(pis[:, 0] - pis[:, 1]).sum(axis=0)
    p, pp = (prior[0] / (prior[0] + prior[2]) for prior in (cfg.mu, cfg.nu))
    err_gap = float(np.abs(gap - 2.0 * (p - pp)).max())
    level_pi = conditional_pi_constant(model.A, pis[:, 0, 0])
    passed = err_gap <= 1e-10 and abs(level_pi.constant) <= 1e-10
    detail = f"max |L1 gap - 2(p - p')| = {err_gap:.2e}"
    return _result("noiseless-filter-identity", "deterministic", passed, detail)


def check_rerun_determinism(seed: int) -> CheckResult:
    """Two same-seed ensembles (series included) and recordings are bit-identical in every array."""
    cfg = preset_config("example-6.1")
    args = (_cycle_model(), cfg.mu, cfg.nu, 12, 0.5, 1e-3, seed)
    a, b = run_divergence_ensemble(*args), run_divergence_ensemble(*args)
    same = all(
        np.array_equal(getattr(u, f.name), getattr(v, f.name))
        for u, v in ((a, b), (a.series, b.series))
        for f in fields(u)
        if f.name != "series"
    )
    same &= all(np.array_equal(u, v) for u, v in zip(record_filter_pair(*args), record_filter_pair(*args)))
    return _result("rerun-determinism", "deterministic", same, "two same-seed runs bit-identical")


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


def check_kl_supermartingale_and_clark(seed: int, size: int) -> list[CheckResult]:
    """Mean KL non-increasing at anchors; pathwise entropy bound at anchors."""
    cfg = preset_config("example-6.1")
    _, kl_v, signal, _, terminal = record_filter_pair(_cycle_model(), cfg.mu, cfg.nu, size, 5.0, 1e-3, seed)
    anchors = np.arange(0, kl_v.shape[1], 100)  # every 0.1
    return [
        kl_supermartingale(kl_v, anchors),
        clark_entropy_bound(kl_v, signal, anchors, kl(cfg.mu, cfg.nu)),
        terminal_absolute_continuity(terminal),
    ]


def check_weak_drift(seed: int, size: int) -> CheckResult:
    """Integrated drift matches chi-square increments on a random model."""
    rng = spawn_rng(seed, 9100)
    d = 3
    A = _random_rates(rng, d, 0.3, 1.5)
    H = rng.normal(size=(d, 1))
    model = validate_model(A, H, 1.0)
    mu = 0.85 * rng.dirichlet(np.ones(d)) + 0.05
    nu = 0.85 * rng.dirichlet(np.ones(d)) + 0.05
    chi2_v, _, _, drift, _ = record_filter_pair(model, mu, nu, size, 2.0, 1e-3, seed)
    return chi2_weak_dynamics(chi2_v, drift, np.arange(500, chi2_v.shape[1], 500))  # every 0.5


def check_backward_map(seed: int, size: int) -> list[CheckResult]:
    """Plain vs Rao-Blackwell agreement, variance reduction, normalization."""
    cfg = preset_config("example-6.1")
    _, plain, rb = backward_map_study(_cycle_model(), cfg.mu, cfg.nu, (2.0,), size, seed, cfg.dt)
    return [
        estimators_agree(plain, rb),
        rao_blackwell_variance_reduction(plain, rb),
        backward_map_normalization(rb, cfg.nu),
    ]


def check_variance_decay(seed: int, size: int) -> list[CheckResult]:
    """Decay of var_nu(y0) over horizons plus the inequality suite."""
    cfg = preset_config("example-6.1")
    diags, *_ = backward_map_study(_cycle_model(), cfg.mu, cfg.nu, (1.0, 2.0, 4.0), size, seed, cfg.dt)
    return [
        variance_decay_monotone(diags),
        jensen_contraction(diags),
        ratio_lower_bound(diags),
        cauchy_schwarz_slack(diags),
        uniform_bound_slack(diags),
    ]


def check_ctmc_marginal(seed: int, size: int) -> CheckResult:
    """Empirical time-1 marginal against the matrix-exponential law."""
    model = _cycle_model()
    n = max(2000, 40 * size)
    # dt = T: each path draws its jump chain and a single increment
    batch = sample_path_batch(model, n, 1.0, 1.0, seed, 0, stream_offset=9200)
    counts = np.bincount([sp.states[-1] for sp in batch.state_paths], minlength=4)
    target = _subgenerator_expm(model.A, 1.0)[0]
    se = np.sqrt(np.maximum(target * (1 - target), 1e-12) / n)
    return _near_zero("ctmc-marginal-law", "frequency - law", counts / n - target, se, z=Z_WIDE)


def check_stream_independence(seed: int, size: int) -> CheckResult:
    """Adjacent streams produce uncorrelated draws."""
    n = 10_000
    a = spawn_rng(seed, 0).standard_normal(n)
    b = spawn_rng(seed, 1).standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    return _near_zero("stream-independence", "corr", corr, 1.0 / np.sqrt(n))


def check_splitting_strong_order(seed: int, size: int) -> CheckResult:
    """Strong order one on the cycle at sigma2 = 1 and 0.1, max(size, 100) paths to T = 1."""
    mu = preset_config("example-6.1").mu
    cases = []
    for sigma2 in (1.0, 0.1):
        model = _cycle_model(sigma2)
        batch = sample_path_batch(model, max(size, 100), 1.0, ORDER_DT, seed, mu)
        cases.append((f"sigma2={sigma2:g}", model, batch.increments))
    return splitting_strong_order(cases, mu, ORDER_DT)


DETERMINISTIC_CHECKS = [
    check_divergence_chain,
    check_divergence_values,
    check_drift_identity,
    check_pi_constants,
    check_rate_fit,
    check_structure_examples,
    check_noiseless_identity,
    check_rerun_determinism,
]

STATISTICAL_CHECKS = [
    check_kl_supermartingale_and_clark,
    check_weak_drift,
    check_backward_map,
    check_variance_decay,
    check_ctmc_marginal,
    check_stream_independence,
    check_splitting_strong_order,
]


def run_verify(master_seed: int, size: int) -> dict:
    """Run the verification suites and return a JSON-ready report.

    size scales the ensembles of the statistical suite; size = 0 skips it.
    Raises ConfigError for a negative size, for a size from 1 to
    MIN_SIZE - 1, and for a seed the config would reject.
    """
    _seed_check(master_seed)
    if size < 0 or 0 < size < MIN_SIZE:
        raise ConfigError(f"size must be 0 or at least {MIN_SIZE}, got {size}")
    t_start = time.perf_counter()
    suites = [(fn, (master_seed,), "deterministic") for fn in DETERMINISTIC_CHECKS]
    if size > 0:
        suites += [(fn, (master_seed, size), "statistical") for fn in STATISTICAL_CHECKS]
    results: list[CheckResult] = []
    for fn, args, kind in suites:
        try:
            out = fn(*args)
        except FilterLabError as exc:
            out = _result(fn.__name__.removeprefix("check_"), kind, False, f"raised {exc!r}")
        results.extend(out if isinstance(out, list) else [out])
    n_failed = sum(not r.passed for r in results)
    return {
        "command": "verify",
        "master_seed": master_seed,
        "size": size,
        "checks": [
            {"name": r.name, "kind": r.kind, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "n_checks": len(results),
        "n_failed": n_failed,
        "passed": n_failed == 0,
        "wall_clock_s": time.perf_counter() - t_start,
    }
