"""Named verification suites behind the `verify` subcommand, and the one
definition of each statistical check.

The check functions (kl_supermartingale ... splitting_strong_order) take
objects that are already computed and return a CheckResult; the `check_*`
suites build their inputs at (seed, size) and call them, as do the
acceptance tests on their own inputs.  A statistical check allows Z
standard errors (Z_WIDE where the per-path variance is largest), compared
as |x| <= z se or x >= -z se: a nan standard error fails, and a zero one
passes only an exact zero; splitting_strong_order bounds ratios of
discretization errors instead.  size = 0 runs the deterministic suite
only; size = 1 is rejected, since one path has no standard error.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .config import (
    _seed_check, load_config, load_model, model_for_sweep_value, preset_config, save_config, save_model,
)
from .divergence import (
    _divergence_batch,
    _mean_se,
    chi2,
    chi2_drift_terms,
    fit_exponential_rate,
    kl,
    read_series_csv,
    tv,
    write_series_csv,
)
from .dual import backward_map_study, read_backward_map_csv, write_backward_map_csv
from .ensemble import run_divergence_ensemble, sample_path_batch
from .errors import ConfigError, FilterLabError, GridMismatch
from .filtering import evolve_ensemble, evolve_noiseless_ensemble
from .model import (
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    observable_space,
    rate_bounds,
    validate_model,
)
from .poincare import (
    classical_pi_constant,
    conditional_pi_constant,
    symmetric_eigensolver,
)
from .sim import spawn_rng

__all__ = ["CheckResult", "run_verify", "DETERMINISTIC_CHECKS", "STATISTICAL_CHECKS"]

Z = 3.0
Z_WIDE = 4.0
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


def kl_supermartingale(ens, anchors) -> CheckResult:
    """Mean KL non-increasing between consecutive anchor indices."""
    drop = -np.diff(ens.series.kl[:, anchors], axis=1)
    return _above("kl-supermartingale", "anchored mean KL decrease", *_mean_se(drop))


def clark_entropy_bound(ens, anchors, prior_kl: float) -> CheckResult:
    """E[KL_t + signal_t / 2] <= KL(mu|nu) at the anchors after the first
    (the first carries the prior on both sides, an exact equality)."""
    later = anchors[1:]
    mean, se = _mean_se(ens.series.kl[:, later] + 0.5 * ens.signal_integral[:, later])
    return _above("clark-entropy-bound", "slack", prior_kl - mean, se)


def terminal_absolute_continuity(ens) -> CheckResult:
    """pi_T^mu carries no mass where pi_T^nu has none."""
    term = ens.terminal_pis
    passed = np.all(term[:, 0, :][term[:, 1, :] < 1e-14] < 1e-12)
    detail = "pi_T^mu below 1e-12 wherever pi_T^nu below 1e-14"
    return _result("terminal-absolute-continuity", "statistical", passed, detail)


def chi2_weak_dynamics(ens, indices) -> CheckResult:
    """Integrated pathwise drift matches the mean chi-square increments."""
    c = ens.series.chi2
    resid = c[:, indices] - c[:, [0]] - ens.drift_integral[:, indices]
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
    nu = np.asarray(nu, dtype=float)
    se = np.sqrt(nu**2 @ est.stderr**2)
    return _near_zero("backward-map-normalization", "nu(y0) - 1", nu @ est.y0 - 1.0, se)


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
    """2 TV^2 <= KL <= chi2 exactly for each pair of rows of p[k] and q[k]
    (lists of (n, d) stacks of laws; d may differ between stacks)."""
    lo, hi = np.inf, np.inf
    for pk, qk in zip(p, q):
        c, k, t = _divergence_batch(pk, qk)
        lo = min(lo, float((k - 2.0 * t**2).min()))
        hi = min(hi, float((c - k).min()))
    detail = f"min(KL - 2TV^2) = {lo:.3e}, min(chi2 - KL) = {hi:.3e}"
    return _result("divergence-chain", "deterministic", lo >= 0.0 and hi >= 0.0, detail)


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


# ---------------------------------------------------------------------------
# deterministic checks
# ---------------------------------------------------------------------------


def check_divergence_chain(seed: int) -> CheckResult:
    """2 TV^2 <= KL <= chi2 on random absolutely continuous pairs."""
    rng = spawn_rng(seed, 9001).generator()
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


def check_drift_identity(seed: int) -> CheckResult:
    """Compact drift equals C1 + C3 . (pi_mu(h) - pi_nu(h)); constant h collapses."""
    rng = spawn_rng(seed, 9002).generator()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        off = rng.uniform(0.2, 2.0, size=(d, d))
        A = off.copy()
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        H = rng.normal(size=(d, 2))
        model = validate_model(A, H, 1.0)
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        terms = chi2_drift_terms(p, q, model)
        gap = p @ model.h_unit - q @ model.h_unit
        worst = max(worst, abs(terms.drift - (terms.c1 + terms.c3 @ gap)))
    model = validate_model(A, np.full((d, 1), 2.5), 1.0)
    terms = chi2_drift_terms(p, q, model)
    gamma = np.where(q > 0, p / np.maximum(q, 1e-300), 0.0)
    collapse = abs(terms.drift + float(q @ carre_du_champ(A, gamma)))
    passed = worst <= 1e-10 and collapse <= 1e-10 and np.all(np.abs(terms.c2) <= 1e-10)
    return _result(
        "chi2-drift-identity",
        "deterministic",
        passed,
        f"max identity residual {worst:.2e}, constant-h residual {collapse:.2e}",
    )


def check_pi_constants(seed: int) -> CheckResult:
    """Frozen Poincare constants: cycle = 2, two-state = 2(l12 + l21),
    level-set posterior = 0, mixed-block measure = 0."""
    details = []
    ok = True
    res = classical_pi_constant(_cycle_model().A, np.full(4, 0.25))
    ok &= abs(res.constant - 2.0) <= 1e-8
    details.append(f"cycle {res.constant:.10f}")
    rng = spawn_rng(seed, 9003).generator()
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


def check_eigensolver(seed: int) -> CheckResult:
    """Reconstruction, orthogonality, and ordering on random symmetric matrices."""
    rng = spawn_rng(seed, 9004).generator()
    worst_rec, worst_orth, ordered = 0.0, 0.0, True
    for _ in range(20):
        k = int(rng.integers(2, 9))
        S = rng.normal(size=(k, k))
        S = (S + S.T) / 2.0
        w, v = symmetric_eigensolver(S)
        scale = max(1.0, float(np.linalg.norm(S)))
        worst_rec = max(worst_rec, float(np.linalg.norm(v @ np.diag(w) @ v.T - S)) / scale)
        worst_orth = max(worst_orth, float(np.linalg.norm(v.T @ v - np.eye(k))))
        ordered &= bool(np.all(np.diff(w) >= -1e-12))
    passed = worst_rec <= 1e-9 and worst_orth <= 1e-9 and ordered
    return _result(
        "symmetric-eigensolver",
        "deterministic",
        passed,
        f"max reconstruction {worst_rec:.2e}, max orthogonality {worst_orth:.2e}",
    )


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
    ok &= observable_space(cyc.A, cyc.H).dim == 2
    ok &= np.allclose(rate_bounds(cyc.A, mu_bar), (0.0, 0.0, 0.0), atol=1e-12)
    details.append("cycle ok")
    blocks = _blocks_A()
    ok &= not is_ergodic(blocks)
    h_signed = np.array([[1.0], [0.0], [-1.0], [0.0]])
    ok &= observable_space(blocks, h_signed).dim == 4
    ok &= observable_space(blocks, 0.0 * h_signed).dim == 1
    details.append("blocks ok")
    rng = spawn_rng(seed, 9005).generator()
    for _ in range(25):
        l12 = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        l21 = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        h1, h2 = rng.choice([0.0, 1.0, -1.0], size=2)
        A2 = np.array([[-l12, l12], [l21, -l21]])
        ok &= is_ergodic(A2) == (l12 + l21 > 0.0)
        dim = observable_space(A2, np.array([[h1], [h2]])).dim
        ok &= (dim == 2) == (h1 != h2)
    details.append("two-state criteria ok")
    return _result("structure-examples", "deterministic", bool(ok), "; ".join(details))


def check_noiseless_identity(seed: int) -> CheckResult:
    """Level-set filter: alternation pattern and the constant-gap identity."""
    model = _cycle_model(0.0)
    batch = sample_path_batch(model, 1, 5.0, 1e-3, seed, initial_state=0, stream_offset=9006)
    mu = np.array([0.35, 0.35, 0.15, 0.15])
    nu = np.full(4, 0.25)
    rows = []
    evolve_noiseless_ensemble(
        np.stack([mu, nu]), batch.state_paths, 1e-3, model, observer=lambda step, t, pis: rows.append(pis[0])
    )
    pis = np.stack(rows, axis=1)  # (2, n + 1, d): the mu and nu filters
    gap = np.abs(pis[0] - pis[1]).sum(axis=1)
    p, pp = 0.7, 0.5
    err_gap = float(np.abs(gap - 2.0 * (p - pp)).max())
    level_pi = conditional_pi_constant(model.A, pis[0, 0])
    passed = err_gap <= 1e-10 and abs(level_pi.constant) <= 1e-10
    detail = f"max |L1 gap - 2(p - p')| = {err_gap:.2e}"
    return _result("noiseless-filter-identity", "deterministic", passed, detail)


def check_rerun_determinism(seed: int) -> CheckResult:
    """Two same-seed ensembles are bit-identical."""
    model = _cycle_model()
    mu = [0.35, 0.35, 0.15, 0.15]
    nu = [0.25] * 4
    a = run_divergence_ensemble(model, mu, nu, 12, 0.5, 1e-3, seed)
    b = run_divergence_ensemble(model, mu, nu, 12, 0.5, 1e-3, seed)
    same = (
        np.array_equal(a.series.chi2, b.series.chi2)
        and np.array_equal(a.series.kl, b.series.kl)
        and np.array_equal(a.terminal_pis, b.terminal_pis)
        and np.array_equal(a.signal_integral, b.signal_integral)
    )
    return _result("rerun-determinism", "deterministic", same, "two same-seed runs bit-identical")


def check_round_trips(seed: int) -> CheckResult:
    """Every file format the artifact writes is re-read identically."""
    cfg = preset_config("example-6.1")
    model = _cycle_model()
    series = run_divergence_ensemble(model, cfg.mu, cfg.nu, 3, 0.1, 1e-2, seed).series
    *_, rb = backward_map_study(model, cfg.mu, cfg.nu, (0.1,), 2, seed, dt=1e-2)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        mp = os.path.join(tmp, "model.json")
        save_model(model, mp)
        m2 = load_model(mp)
        ok &= np.array_equal(m2.A, model.A) and np.array_equal(m2.H, model.H)
        vp = os.path.join(tmp, "series.csv")
        write_series_csv(vp, series)
        cols = read_series_csv(vp)
        ok &= np.array_equal(cols["chi2_mean"], series.chi2_mean)
        ok &= np.array_equal(cols["chi2_se"], series.chi2_se)
        bp = os.path.join(tmp, "backward_map.csv")
        write_backward_map_csv(bp, rb)
        bm = read_backward_map_csv(bp)
        ok &= np.array_equal(bm["y0"], rb.y0) and np.array_equal(bm["stderr"], rb.stderr)
        cp = os.path.join(tmp, "config.json")
        save_config(cfg, cp)
        back = load_config(cp)
        ok &= back.sweep_values == cfg.sweep_values
        ok &= np.array_equal(back.A, cfg.A)
    return _result("file-round-trips", "deterministic", bool(ok), "all formats")


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


def _anchor_indices(times: np.ndarray, spacing: float) -> np.ndarray:
    step = max(1, int(round(spacing / (times[1] - times[0]))))
    return np.arange(0, times.size, step)


def check_kl_supermartingale_and_clark(seed: int, size: int) -> list[CheckResult]:
    """Mean KL non-increasing at anchors; pathwise entropy bound at anchors."""
    cfg = preset_config("example-6.1")
    model = _cycle_model()
    ens = run_divergence_ensemble(model, cfg.mu, cfg.nu, size, 5.0, 1e-3, seed)
    anchors = _anchor_indices(ens.series.times, 0.1)
    return [
        kl_supermartingale(ens, anchors),
        clark_entropy_bound(ens, anchors, kl(cfg.mu, cfg.nu)),
        terminal_absolute_continuity(ens),
    ]


def check_weak_drift(seed: int, size: int) -> CheckResult:
    """Integrated drift matches chi-square increments on a random model."""
    rng = spawn_rng(seed, 9100).generator()
    d = 3
    off = rng.uniform(0.3, 1.5, size=(d, d))
    A = off.copy()
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    H = rng.normal(size=(d, 1))
    model = validate_model(A, H, 1.0)
    mu = 0.85 * rng.dirichlet(np.ones(d)) + 0.05
    nu = 0.85 * rng.dirichlet(np.ones(d)) + 0.05
    ens = run_divergence_ensemble(model, mu, nu, size, 2.0, 1e-3, seed, record_drift=True)
    return chi2_weak_dynamics(ens, _anchor_indices(ens.series.times, 0.5)[1:])


def check_backward_map(seed: int, size: int) -> list[CheckResult]:
    """Plain vs Rao-Blackwell agreement, variance reduction, normalization."""
    cfg = preset_config("example-6.1")
    _, plain, rb = backward_map_study(_cycle_model(), cfg.mu, cfg.nu, (2.0,), size, seed)
    return [
        estimators_agree(plain, rb),
        rao_blackwell_variance_reduction(plain, rb),
        backward_map_normalization(rb, cfg.nu),
    ]


def check_variance_decay(seed: int, size: int) -> list[CheckResult]:
    """Decay of var_nu(y0) over horizons plus the inequality suite."""
    cfg = preset_config("example-6.1")
    diags, *_ = backward_map_study(_cycle_model(), cfg.mu, cfg.nu, (1.0, 2.0, 4.0), size, seed)
    return [
        variance_decay_monotone(diags),
        jensen_contraction(diags),
        ratio_lower_bound(diags),
        cauchy_schwarz_slack(diags),
        uniform_bound_slack(diags),
    ]


def check_ctmc_marginal(seed: int, size: int) -> CheckResult:
    """Empirical time-1 marginal against the matrix-exponential law."""
    from scipy.linalg import expm

    model = _cycle_model()
    n = max(2000, 40 * size)
    # dt = T: each path draws its jump chain and a single increment
    batch = sample_path_batch(model, n, 1.0, 1.0, seed, initial_state=0, stream_offset=9200)
    counts = np.bincount([sp.states[-1] for sp in batch.state_paths], minlength=4)
    target = expm(model.A.T)[:, 0]
    se = np.sqrt(np.maximum(target * (1 - target), 1e-12) / n)
    return _near_zero("ctmc-marginal-law", "frequency - law", counts / n - target, se, z=Z_WIDE)


def check_stream_independence(seed: int, size: int) -> CheckResult:
    """Adjacent streams produce uncorrelated draws."""
    n = 10_000
    a = spawn_rng(seed, 0).generator().standard_normal(n)
    b = spawn_rng(seed, 1).generator().standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    return _near_zero("stream-independence", "corr", corr, 1.0 / np.sqrt(n))


def check_splitting_strong_order(seed: int, size: int) -> CheckResult:
    """Strong order one on the cycle at sigma2 = 1 and 0.1, max(size, 100) paths to T = 1."""
    mu = preset_config("example-6.1").mu
    cases = []
    for sigma2 in (1.0, 0.1):
        model = _cycle_model(sigma2)
        batch = sample_path_batch(model, max(size, 100), 1.0, ORDER_DT, seed, initial_law=mu)
        cases.append((f"sigma2={sigma2:g}", model, batch.increments))
    return splitting_strong_order(cases, mu, ORDER_DT)


DETERMINISTIC_CHECKS = [
    check_divergence_chain,
    check_divergence_values,
    check_drift_identity,
    check_pi_constants,
    check_eigensolver,
    check_rate_fit,
    check_structure_examples,
    check_noiseless_identity,
    check_rerun_determinism,
    check_round_trips,
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


def run_verify(master_seed: int = 0, size: int = 100) -> dict:
    """Run the verification suites and return a JSON-ready report.

    size scales the ensembles of the statistical suite; size = 0 skips it.
    Raises ConfigError for a negative size, for size = 1, where no
    standard error is defined, and for a seed the config would reject.
    """
    _seed_check(master_seed)
    if size < 0 or size == 1:
        raise ConfigError(f"size must be 0 or at least 2, got {size}")
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
