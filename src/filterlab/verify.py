"""Named verification suites behind the `verify` subcommand.

Deterministic checks assert exact or tolerance-bounded facts that cannot
fluctuate between runs with the same seed; statistical checks run Monte
Carlo ensembles sized by the `size` parameter and test identities and
inequalities at 3 standard errors (4 for the weak chi-square dynamics
check, whose per-path variance is largest).  size = 0 runs the
deterministic suite only.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import dual as dual_mod
from .config import load_config, model_for_sweep_value, preset_config, save_config
from .divergence import (
    _divergence_batch,
    chi2,
    chi2_drift_terms,
    divergence_series,
    fit_exponential_rate,
    kl,
    read_series_csv,
    tv,
    write_series_csv,
)
from .ensemble import run_divergence_ensemble
from .errors import FilterLabError
from .filtering import (
    read_trajectory_csv,
    run_exact_noiseless_filter,
    run_filter,
    write_trajectory_csv,
)
from .model import (
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    load_model,
    observable_space,
    rate_bounds,
    save_model,
    validate_model,
)
from .poincare import (
    classical_pi_constant,
    conditional_pi_constant,
    symmetric_eigensolver,
)
from .sim import (
    integrate_observation,
    read_observation_csv,
    read_state_path_csv,
    sample_ctmc_path,
    spawn_rng,
    write_observation_csv,
    write_state_path_csv,
)

__all__ = ["CheckResult", "run_verify", "DETERMINISTIC_CHECKS", "STATISTICAL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    passed: bool
    detail: str


def _result(name: str, kind: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, kind=kind, passed=bool(passed), detail=detail)


def _cycle_model(sigma2: float = 1.0):
    """The example-6.1 cycle at noise intensity sigma2 (0 is noiseless)."""
    return model_for_sweep_value(preset_config("example-6.1"), sigma2)


def _blocks_A() -> np.ndarray:
    return preset_config("example-6.2").A


def _random_simplex_pairs(rng: np.random.Generator, n: int, d: int):
    p = rng.dirichlet(np.ones(d), size=n)
    q = rng.dirichlet(np.ones(d), size=n)
    return p, q


# ---------------------------------------------------------------------------
# deterministic checks
# ---------------------------------------------------------------------------


def check_divergence_chain(seed: int) -> CheckResult:
    """2 TV^2 <= KL <= chi2 on random absolutely continuous pairs."""
    rng = spawn_rng(seed, 9001).generator()
    worst_lo, worst_hi = np.inf, np.inf
    for d in range(2, 9):
        p, q = _random_simplex_pairs(rng, 1500, d)
        c, k, t = _divergence_batch(p, q)
        worst_lo = min(worst_lo, float((k - 2.0 * t**2).min()))
        worst_hi = min(worst_hi, float((c - k).min()))
    passed = worst_lo >= 0.0 and worst_hi >= 0.0
    return _result(
        "divergence-chain",
        "deterministic",
        passed,
        f"min(KL - 2TV^2) = {worst_lo:.3e}, min(chi2 - KL) = {worst_hi:.3e}",
    )


def check_divergence_values(seed: int) -> CheckResult:
    """Hand-computed triple at p = (1/2, 1/2), q = (1/4, 3/4)."""
    p, q = [0.5, 0.5], [0.25, 0.75]
    got = (chi2(p, q), kl(p, q), tv(p, q))
    want = (1.0 / 3.0, 0.5 * np.log(4.0 / 3.0), 0.25)
    err = max(abs(g - w) for g, w in zip(got, want))
    return _result(
        "divergence-values", "deterministic", err <= 1e-12, f"max error {err:.2e}"
    )


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
    return _result(
        "rate-fit",
        "deterministic",
        bool(ok),
        f"exact {fit.rate:.12f}, perturbed {fit2.rate:.4f}",
    )


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
    rng = spawn_rng(seed, 9006).generator()
    sp = sample_ctmc_path(model.A, 0, 5.0, rng)
    mu = np.array([0.35, 0.35, 0.15, 0.15])
    nu = np.full(4, 0.25)
    tmu = run_exact_noiseless_filter(mu, sp, model, 1e-3)
    tnu = run_exact_noiseless_filter(nu, sp, model, 1e-3)
    gap = np.abs(tmu.pis - tnu.pis).sum(axis=1)
    p, pp = 0.7, 0.5
    err_gap = float(np.abs(gap - 2.0 * (p - pp)).max())
    level_pi = conditional_pi_constant(model.A, tmu.pis[0])
    passed = err_gap <= 1e-10 and abs(level_pi.constant) <= 1e-10
    return _result(
        "noiseless-filter-identity",
        "deterministic",
        passed,
        f"max |L1 gap - 2(p - p')| = {err_gap:.2e}",
    )


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
    model = _cycle_model()
    rng = spawn_rng(seed, 9007).generator()
    sp = sample_ctmc_path(model.A, 0, 1.0, rng)
    obs = integrate_observation(sp, model, 1e-2, rng)
    traj = run_filter([0.4, 0.3, 0.2, 0.1], obs, model, label="p")
    series = divergence_series(traj, run_filter([0.25] * 4, obs, model, label="q"))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        mp = os.path.join(tmp, "model.json")
        save_model(model, mp)
        m2 = load_model(mp)
        ok &= np.array_equal(m2.A, model.A) and np.array_equal(m2.H, model.H)
        op = os.path.join(tmp, "obs.csv")
        write_observation_csv(op, obs)
        o2 = read_observation_csv(op)
        ok &= np.array_equal(o2.increments, obs.increments) and o2.dt == obs.dt
        pp = os.path.join(tmp, "path.csv")
        write_state_path_csv(pp, sp)
        s2 = read_state_path_csv(pp)
        ok &= np.array_equal(s2.jump_times, sp.jump_times)
        ok &= np.array_equal(s2.states, sp.states)
        tp = os.path.join(tmp, "traj.csv")
        write_trajectory_csv(tp, traj)
        t2 = read_trajectory_csv(tp, label="p")
        ok &= np.array_equal(t2.pis, traj.pis)
        vp = os.path.join(tmp, "series.csv")
        write_series_csv(vp, series)
        cols = read_series_csv(vp)
        ok &= np.array_equal(cols["chi2_mean"], series.chi2_mean)
        cp = os.path.join(tmp, "config.json")
        save_config(preset_config("example-6.1"), cp)
        cfg = load_config(cp)
        ok &= cfg.sweep_values == preset_config("example-6.1").sweep_values
        ok &= np.array_equal(cfg.A, preset_config("example-6.1").A)
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
    model = validate_model(cfg.A, cfg.H, 1.0)
    ens = run_divergence_ensemble(
        model, cfg.mu, cfg.nu, size, 5.0, 1e-3, seed
    )
    anchors = _anchor_indices(ens.series.times, 0.1)
    klv = ens.series.kl[:, anchors]
    diffs = np.diff(klv, axis=1)
    dm = diffs.mean(axis=0)
    dse = diffs.std(axis=0, ddof=1) / np.sqrt(diffs.shape[0])
    worst = float((dm - 3.0 * dse).max())
    super_ok = worst <= 0.0
    r1 = _result(
        "kl-supermartingale",
        "statistical",
        super_ok,
        f"max anchored mean KL increment - 3 se = {worst:.3e}",
    )
    prior_kl = kl(cfg.mu, cfg.nu)
    # anchor 0 carries the prior on both sides (exact equality); start at 1
    vals = klv[:, 1:] + 0.5 * ens.signal_integral[:, anchors[1:]]
    vm = vals.mean(axis=0)
    vse = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
    slack = prior_kl - vm + 3.0 * vse
    clark_ok = bool(np.all(slack >= 0.0))
    r2 = _result(
        "clark-entropy-bound",
        "statistical",
        clark_ok,
        f"min slack + 3 se = {float(slack.min()):.3e}",
    )
    ac_ok = True
    term = ens.terminal_pis
    outside = term[:, 1, :] < 1e-14
    ac_ok = bool(np.all(term[:, 0, :][outside] < 1e-12)) if outside.any() else True
    r3 = _result(
        "terminal-absolute-continuity",
        "statistical",
        ac_ok,
        "pi_T^mu below 1e-12 wherever pi_T^nu below 1e-14",
    )
    return [r1, r2, r3]


def check_weak_drift(seed: int, size: int) -> CheckResult:
    """Integrated drift matches chi-square increments pathwise within 4 se."""
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
    ens = run_divergence_ensemble(
        model, mu, nu, size, 2.0, 1e-3, seed, record_drift=True
    )
    anchors = _anchor_indices(ens.series.times, 0.5)[1:]
    resid = (
        ens.series.chi2[:, anchors]
        - ens.series.chi2[:, [0]]
        - ens.drift_integral[:, anchors]
    )
    rm = resid.mean(axis=0)
    rse = resid.std(axis=0, ddof=1) / np.sqrt(resid.shape[0])
    z = np.abs(rm) / np.where(rse > 0, rse, 1.0)
    return _result(
        "chi2-weak-dynamics",
        "statistical",
        bool(np.all(z <= 4.0)),
        f"max |mean residual| / se = {float(z.max()):.2f}",
    )


def check_backward_map(seed: int, size: int) -> list[CheckResult]:
    """Plain vs Rao-Blackwell agreement, variance reduction, normalization."""
    cfg = preset_config("example-6.1")
    model = validate_model(cfg.A, cfg.H, 1.0)
    plain, rb = dual_mod.backward_map_pair(
        model, cfg.mu, cfg.nu, 2.0, size, seed
    )
    comb = np.sqrt(plain.stderr**2 + rb.stderr**2)
    z = np.abs(plain.y0 - rb.y0) / np.where(comb > 0, comb, 1.0)
    r1 = _result(
        "backward-map-estimators-agree",
        "statistical",
        bool(np.all(z <= 3.0)),
        f"max per-state z = {float(z.max()):.2f}",
    )
    r2 = _result(
        "rao-blackwell-variance-reduction",
        "statistical",
        bool(np.all(rb.stderr <= plain.stderr + 1e-15)),
        "rb stderr <= plain stderr per state",
    )
    nu = np.asarray(cfg.nu)
    nm = float(nu @ rb.y0)
    nse = float(np.sqrt(nu**2 @ rb.stderr**2))
    r3 = _result(
        "backward-map-normalization",
        "statistical",
        abs(nm - 1.0) <= 3.0 * nse,
        f"nu(y0) = {nm:.5f} +- {nse:.5f}",
    )
    return [r1, r2, r3]


def check_variance_decay(seed: int, size: int) -> list[CheckResult]:
    """Decay of var_nu(y0) over horizons plus the inequality suite."""
    cfg = preset_config("example-6.1")
    model = validate_model(cfg.A, cfg.H, 1.0)
    diags = dual_mod.decay_diagnostics(
        model, cfg.mu, cfg.nu, (1.0, 2.0, 4.0), size, seed
    )
    dec_ok = True
    for a, b in zip(diags, diags[1:]):
        gap = a.var_nu_y0 - b.var_nu_y0
        se = np.sqrt(a.var_nu_y0_se**2 + b.var_nu_y0_se**2)
        dec_ok &= gap > 3.0 * se
    r1 = _result(
        "variance-decay-monotone",
        "statistical",
        bool(dec_ok),
        "var_nu(y0) strictly decreasing beyond 3 se over (1, 2, 4)",
    )
    jensen_ok = all(
        dg.var_nu_y0 <= dg.var_nu_gammaT + 3.0 * np.hypot(dg.var_nu_y0_se, dg.var_nu_gammaT_se)
        for dg in diags
    )
    r2 = _result("jensen-contraction", "statistical", jensen_ok, "var(y0) <= var(gamma_T)")
    rt_ok = all(dg.r_T >= dg.a_lower - 3.0 * dg.r_T_se for dg in diags)
    r3 = _result("ratio-lower-bound", "statistical", rt_ok, "R_T >= a_lower - 3 se")
    cs_ok = all(
        dg.cauchy_schwarz_slack >= -3.0 * dg.cauchy_schwarz_slack_se for dg in diags
    )
    r4 = _result("cauchy-schwarz-slack", "statistical", cs_ok, "slack >= -3 se")
    ub_ok = all(
        dg.uniform_bound_slack >= -3.0 * dg.uniform_bound_slack_se for dg in diags
    )
    r5 = _result("uniform-bound-slack", "statistical", ub_ok, "slack >= -3 se")
    return [r1, r2, r3, r4, r5]


def check_ctmc_marginal(seed: int, size: int) -> CheckResult:
    """Empirical time-1 marginal against the matrix-exponential law."""
    from scipy.linalg import expm

    A = _cycle_model().A
    n = max(2000, 40 * size)
    rng = spawn_rng(seed, 9200).generator()
    counts = np.zeros(4)
    for _ in range(n):
        sp = sample_ctmc_path(A, 0, 1.0, rng)
        counts[sp.states[-1]] += 1
    freq = counts / n
    target = expm(A.T)[:, 0]
    se = np.sqrt(np.maximum(target * (1 - target), 1e-12) / n)
    z = float((np.abs(freq - target) / se).max())
    return _result(
        "ctmc-marginal-law", "statistical", z <= 4.0, f"max z over states = {z:.2f}"
    )


def check_stream_independence(seed: int, size: int) -> CheckResult:
    """Adjacent streams produce uncorrelated draws."""
    n = 10_000
    a = spawn_rng(seed, 0).generator().standard_normal(n)
    b = spawn_rng(seed, 1).generator().standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    return _result(
        "stream-independence",
        "statistical",
        abs(corr) <= 3.0 / np.sqrt(n),
        f"corr = {corr:.4f}",
    )


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
]


def run_verify(master_seed: int = 0, size: int = 100) -> dict:
    """Run the verification suites and return a JSON-ready report.

    size scales the ensembles of the statistical suite; size = 0 skips it.
    """
    t_start = time.perf_counter()
    results: list[CheckResult] = []
    for fn in DETERMINISTIC_CHECKS:
        try:
            results.append(fn(master_seed))
        except FilterLabError as exc:
            results.append(
                _result(fn.__name__.removeprefix("check_"), "deterministic", False, f"raised {exc!r}")
            )
    if size > 0:
        for fn in STATISTICAL_CHECKS:
            try:
                out = fn(master_seed, size)
            except FilterLabError as exc:
                out = [_result(fn.__name__.removeprefix("check_"), "statistical", False, f"raised {exc!r}")]
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
