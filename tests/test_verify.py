"""Self-verification suite: deterministic checks must always pass and the
statistical checks must be robust across seeds at reduced ensemble size."""

import dataclasses

import numpy as np
import pytest

from conftest import SERIES_FIELDS, series_of
from filterlab import verify
from filterlab.dual import BackwardMapEstimate
from filterlab.ensemble import EnsembleDivergence
from filterlab.verify import (
    DETERMINISTIC_CHECKS,
    MIN_SIZE,
    CheckResult,
    chi2_weak_dynamics,
    estimators_agree,
    run_verify,
)

# The report surface in order: 23 names.  bench/reference.json still pins
# n_checks = 24, the count before splitting-strong-order was appended and
# symmetric-eigensolver and file-round-trips were removed.
CHECK_NAMES = """
    divergence-chain divergence-values chi2-drift-identity poincare-constants
    rate-fit structure-examples noiseless-filter-identity
    rerun-determinism kl-supermartingale clark-entropy-bound
    terminal-absolute-continuity chi2-weak-dynamics backward-map-estimators-agree
    rao-blackwell-variance-reduction backward-map-normalization variance-decay-monotone
    jensen-contraction ratio-lower-bound cauchy-schwarz-slack uniform-bound-slack
    ctmc-marginal-law stream-independence splitting-strong-order
""".split()


class TestDeterministicChecks:
    def test_all_pass(self):
        report = run_verify(master_seed=0, size=0)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == CHECK_NAMES[: len(DETERMINISTIC_CHECKS)]
        assert report["n_failed"] == 0

    def test_results_are_structured(self):
        for check in DETERMINISTIC_CHECKS:
            result = check(1)
            assert isinstance(result, CheckResult)
            assert result.kind == "deterministic"
            assert result.passed, f"{result.name}: {result.detail}"
            assert result.detail != ""

    def test_seed_changes_do_not_break_determinism(self):
        for seed in (3, 17):
            report = run_verify(master_seed=seed, size=0)
            assert report["passed"] is True

    @pytest.mark.parametrize("field", ["initial_chi2", "drift_integral"] + [f"series.{n}" for n in SERIES_FIELDS])
    def test_rerun_determinism_sees_every_recorded_array(self, monkeypatch, field):
        # a rerun that differs only in this array fails the check
        runs = []
        original = verify.run_divergence_ensemble

        def rerun(*args, **kwargs):
            out = original(*args, **kwargs)
            if runs:
                holder = out.series if field.startswith("series.") else out
                getattr(holder, field.removeprefix("series."))[-1] += 1.0
            runs.append(out)
            return out

        monkeypatch.setattr(verify, "run_divergence_ensemble", rerun)
        assert verify.check_rerun_determinism(1).passed is False


class TestRoundingBounds:
    """The two deterministic checks that compare rounding allow the rounding
    of their terms: they pass at the seeds where a fixed bound failed, and a
    residual 100 times the bound fails."""

    def test_both_checks_at_the_seeds_a_fixed_bound_failed(self):
        # seed 18 has a drift near 1e6, seed 146 a two-state pair with KL = 2e-15
        seeds = [18, 37, 65, 77, 84, 86, 114, 138, 146, 159, 165, 195, 197, *range(20)]
        for check in (verify.check_drift_identity, verify.check_divergence_chain):
            for seed in seeds:
                result = check(seed)
                assert result.passed, (seed, result.detail)

    @pytest.mark.parametrize("which", range(3))
    def test_drift_residual_of_100_bounds_fails(self, monkeypatch, which):
        # which = 0 shifts the identity's drift, 1 the constant-h drift, 2 c2
        terms_of = verify.chi2_drift_terms

        def shifted(p, q, model):
            terms = terms_of(p, q, model)
            constant_h = np.ptp(model.H) == 0.0
            if constant_h != (which > 0):
                return terms
            bound = verify._drift_bounds(p, q, model)[which]
            if which == 2:
                return dataclasses.replace(terms, c2=terms.c2 + 100.0 * bound)
            return dataclasses.replace(terms, drift=terms.drift + 100.0 * bound)

        monkeypatch.setattr(verify, "chi2_drift_terms", shifted)
        assert verify.check_drift_identity(18).passed is False

    @pytest.mark.parametrize("side", ["kl-tv", "chi2-kl"])
    def test_chain_deficit_of_100_bounds_fails(self, monkeypatch, side):
        batch = verify._divergence_batch

        def lowered(p, q):
            values = batch(p, q)
            c, k, t = values
            deficit = 100.0 * verify._rounding_bound(2 * p.shape[-1] + 6, 1.0 + c[0])
            k[0] = 2.0 * t[0] ** 2 - deficit if side == "kl-tv" else c[0] + deficit
            return values

        monkeypatch.setattr(verify, "_divergence_batch", lowered)
        assert verify.check_divergence_chain(146).passed is False


def _estimate(y0, stderr):
    return BackwardMapEstimate(np.array(y0), np.array(stderr), 2, 1.0, "plain", ())


def _ensemble(chi2_rows, drift_rows):
    c = np.array(chi2_rows)
    return EnsembleDivergence(
        series=series_of(0.5 * np.arange(c.shape[1]), c, 0 * c, 0 * c),
        initial_chi2=c[:, 0],
        chi2_paths=c,
        kl_paths=0 * c,
        signal_integral=None,
        drift_integral=np.array(drift_rows),
        terminal_pis=np.full((len(c), 2, 1), 1.0),
        initial_states=np.zeros(len(c), int),
    )


class TestStandardErrorRule:
    """A nan standard error fails; a zero one passes only an exact zero."""

    def test_estimators_agree(self):
        rb = _estimate([1.0, 1.0], [0.1, 0.1])
        assert not estimators_agree(_estimate([1.0, 1.2], [0.1, np.nan]), rb).passed
        zero = _estimate([1.0, 1.0], [0.0, 0.0])
        assert estimators_agree(zero, zero).passed
        assert not estimators_agree(_estimate([1.0, 1.2], [0.0, 0.0]), zero).passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_chi2_weak_dynamics(self):
        chi2_rows = [[1.0, 0.8, 0.6], [1.0, 0.8, 0.6]]
        one_path = _ensemble(chi2_rows[:1], [[0.0, -0.1, -0.3]])
        assert not chi2_weak_dynamics(one_path, [1, 2]).passed
        constant = _ensemble(chi2_rows, [[0.0, -0.1, -0.3], [0.0, -0.1, -0.3]])
        assert not chi2_weak_dynamics(constant, [1, 2]).passed


class TestStatisticalChecks:
    def test_default_size_passes(self):
        report = run_verify(master_seed=0, size=100)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == CHECK_NAMES
        kinds = {c["kind"] for c in report["checks"]}
        assert kinds == {"deterministic", "statistical"}

    def test_robust_across_seeds_at_reduced_size(self):
        """Statistical tolerances are calibrated so that a run at the
        smallest accepted size passes for at least nine of ten seeds;
        deterministic checks may never fail regardless of seed."""
        full_passes = 0
        for seed in range(10):
            report = run_verify(master_seed=seed, size=MIN_SIZE)
            for check in report["checks"]:
                if check["kind"] == "deterministic":
                    assert check["passed"], f"seed {seed}: {check['name']}"
            if report["passed"]:
                full_passes += 1
        assert full_passes >= 9
