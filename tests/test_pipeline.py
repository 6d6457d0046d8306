"""Experiment pipelines: the conditional-PI paths in the ensemble pass and
the backward-map pass."""

import json
import sys
import weakref

import numpy as np
import pytest

import filterlab.dual as dual_mod
import filterlab.ensemble as ensemble_mod
import filterlab.pipeline as pipeline_mod
import filterlab.sim as sim_mod
from conftest import NOISELESS_ATOL, SERIES_FIELDS, filter_states, report_steps, step_grid
from filterlab import verify
from filterlab.config import _apply_overrides, load_config, model_for_sweep_value, preset_config
from filterlab.ensemble import run_divergence_ensemble, run_divergence_sweep, sample_path_batch
from filterlab.divergence import MIN_FIT_POINTS
from filterlab.model import validate_model
from filterlab.pipeline import PI_TRAJECTORY_PATHS, _initial_chi2, run_backward_map, run_simulate, run_structure


def _cycle_cfg(**overrides):
    base = dict(n_paths=30, T=0.4, dt=1e-3, master_seed=77)
    base.update(overrides)
    return _apply_overrides(preset_config("example-6.1"), base, "test")


def _nu_filters(cfg, model):
    ens = next(run_divergence_sweep(
        [model], cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed, nu_paths=PI_TRAJECTORY_PATHS
    ))
    return ens.nu_filters


def _assert_paths_filtered_alone(sigma2):
    """Each conditional-PI path equals its one-path batch from nu, on the
    stream after the ensemble block, filtered alone by the model's engine,
    at the report times: a noisy engine's states bit for bit; the noiseless
    engine's bit for bit on the report grid, and within NOISELESS_ATOL of
    the engine run at every step."""
    cfg = _cycle_cfg()
    model = model_for_sweep_value(cfg, sigma2)
    pis = _nu_filters(cfg, model)
    report = report_steps(400)
    assert pis.shape == (PI_TRAJECTORY_PATHS, 21, 4)
    for i in range(PI_TRAJECTORY_PATHS):
        batch = sample_path_batch(
            model, 1, cfg.T, cfg.dt, cfg.master_seed, cfg.nu, stream_offset=cfg.n_paths + i
        )
        data = batch.state_paths if model.noiseless else batch.increments
        per_step = filter_states(cfg.nu, data, cfg.dt, model)[0, 0][report]
        if model.noiseless:
            alone = filter_states(cfg.nu, data, step_grid(cfg.T, cfg.dt)[report], model)[0, 0]
            assert np.array_equal(pis[i], alone)
            np.testing.assert_allclose(pis[i], per_step, rtol=0, atol=NOISELESS_ATOL)
        else:
            assert np.array_equal(pis[i], per_step)


def test_pipelines_write_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FILTERLAB_OUT", str(tmp_path))
    cfg = _cycle_cfg(n_paths=4, T=0.2, dt=1e-2, sigma2_list=[0.0, 1.0], T_list=(0.1, 0.2))
    report, series = run_simulate(cfg)
    assert report["artifacts"] == ["series_sigma2=0.csv", "series_sigma2=1.csv"]
    assert [s.chi2_mean[0] for s in series] == [e["chi2_initial"] for e in report["sweep"]]
    run_structure(model_for_sweep_value(cfg, None))
    run_backward_map(cfg)
    assert list(tmp_path.iterdir()) == []


def test_short_horizon_skips_the_rate_fit():
    # the default window [0.2 T, 0.9 T] holds 8 report times at T = 0.2, fewer
    # than MIN_FIT_POINTS, and 11 at T = 0.3 (dt = 1e-3, every 20th step)
    for T, skipped in ((0.2, True), (0.3, False)):
        report, (series,) = run_simulate(_cycle_cfg(n_paths=8, T=T, sigma2_list=[1.0]))
        in_window = np.count_nonzero((series.times >= 0.2 * T) & (series.times <= 0.9 * T))
        assert (in_window < MIN_FIT_POINTS) == skipped
        entry = report["sweep"][0]
        assert (entry["rate_fit"] is None) == skipped
        assert entry["note"].startswith("rate fit skipped") == skipped


def test_pi_infimum_reads_every_500th_step(monkeypatch):
    # 485 steps report 0, 20, ..., 480 and 485: the 26th report point is no 500th step
    times, real = [], pipeline_mod.trajectory_pi_infimum
    monkeypatch.setattr(pipeline_mod, "trajectory_pi_infimum", lambda A, pis, t: times.append(t.tolist()) or real(A, pis, t))
    for T, want in ((0.485, [0.0]), (1.0, [0.0, 0.5, 1.0])):
        run_simulate(_cycle_cfg(n_paths=4, T=T, sigma2_list=[1.0]))
        assert times.pop() == pytest.approx(want)


class TestPiTrajectories:
    """The conditional-PI paths ride in the divergence ensemble's pass."""

    @pytest.mark.parametrize("sigma2", [0.1, 1.0])
    def test_noisy_batch_equals_per_path_filters(self, sigma2):
        _assert_paths_filtered_alone(sigma2)

    def test_noiseless_batch_equals_exact_single_path_filter(self):
        _assert_paths_filtered_alone(0.0)

    def test_divergences_ignore_the_nu_paths(self):
        cfg = _cycle_cfg()
        model = model_for_sweep_value(cfg, 1.0)
        args = (model, cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed)
        plain = run_divergence_ensemble(*args)
        fused = next(run_divergence_sweep([model], *args[1:], nu_paths=3))
        assert plain.nu_filters.shape == (0, 21, 4)
        assert fused.nu_filters.shape == (3, 21, 4)
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(plain.series, name), getattr(fused.series, name))
        assert np.array_equal(plain.initial_chi2, fused.initial_chi2)
        assert np.array_equal(plain.terminal_pis, fused.terminal_pis)
        assert np.array_equal(plain.initial_states, fused.initial_states)

    def test_one_engine_call_per_sweep_value(self, monkeypatch):
        calls = []
        for mod in [m for name, m in sys.modules.items() if name.startswith("filterlab.")]:
            for attr in ("evolve_ensemble", "evolve_noiseless_ensemble"):
                if hasattr(mod, attr):
                    original = getattr(mod, attr)

                    def counting(*args, _fn=original, **kwargs):
                        calls.append(_fn.__name__)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(mod, attr, counting)
        cfg = _cycle_cfg(n_paths=6, T=0.1, sigma2_list=[0.0, 0.1, 1.0])
        run_simulate(cfg)
        assert calls == ["evolve_noiseless_ensemble", "evolve_ensemble", "evolve_ensemble"]

    def test_sweep_draws_each_path_once(self, monkeypatch):
        calls = []
        original = sim_mod._jump_chain

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(sim_mod, "_jump_chain", counting)
        cfg = _cycle_cfg(n_paths=6, T=0.1, sigma2_list=[0.0, 0.1, 1.0, 10.0])
        run_simulate(cfg)
        assert len(calls) == cfg.n_paths + PI_TRAJECTORY_PATHS

    def test_each_value_released_before_the_next(self, monkeypatch):
        # value i's ensemble must be unreferenced when value i + 1's engine starts
        refs, live = [], []

        def recording(_cls=ensemble_mod.EnsembleDivergence, **fields):
            ens = _cls(**fields)
            refs.append(weakref.ref(ens))
            return ens

        for attr in ("evolve_ensemble", "evolve_noiseless_ensemble"):

            def checking(*args, _fn=getattr(ensemble_mod, attr), **kwargs):
                live.append(sum(ref() is not None for ref in refs))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ensemble_mod, attr, checking)
        monkeypatch.setattr(ensemble_mod, "EnsembleDivergence", recording)
        cfg = _cycle_cfg(n_paths=6, T=0.1, sigma2_list=[0.0, 0.1, 1.0, 10.0])
        run_simulate(cfg)
        assert len(refs) == 4 and live == [0, 0, 0, 0]

    def test_noisy_nu_paths_off_the_class_of_mu(self, blocks_model):
        # mu charges only the first block; at gain 2000 a mu filter on a path
        # in state 2, the one state observed at h = -1, loses all mass at
        # step 0
        model = validate_model(blocks_model.A, 2000.0 * blocks_model.H, 1.0)
        nu = [0.1, 0.1, 0.7, 0.1]
        ens = next(run_divergence_sweep([model], [0.5, 0.5, 0.0, 0.0], nu, 20, 0.2, 1e-3, 77, nu_paths=8))
        assert np.any(ens.nu_filters[:, 1, 2] > 0.5)

    def test_noiseless_nu_paths_off_the_support_of_mu(self):
        # mu charges only the level h = 1; a nu path that starts on h = 0
        # must be filtered from nu, since mu conditioned on it is empty
        cfg = _cycle_cfg(mu=[0.5, 0.0, 0.5, 0.0], nu=[0.25] * 4, sigma2_list=[0.0, 1.0])
        pis = _nu_filters(cfg, model_for_sweep_value(cfg, 0.0))
        assert np.any(pis[:, 0] @ np.array([0.0, 1.0, 0.0, 1.0]) == 1.0)
        report, _ = run_simulate(cfg)
        assert all(entry["conditional_pi_infimum"]["constant"] is not None for entry in report["sweep"])


class TestInitialDivergenceCheck:
    # mu is not symmetric on the cycle's level sets {0, 2} and {1, 3}, so a
    # noiseless value starts from chi2 of the conditioned priors, not chi2(mu, nu)
    ASYMMETRIC = {"mu": [0.5, 0.2, 0.1, 0.2], "T": 0.2, "n_paths": 20}

    def test_asymmetric_priors_pass_every_check(self):
        cfg = _apply_overrides(preset_config("example-6.1"), self.ASYMMETRIC, "test")
        report, _ = run_simulate(cfg)
        assert len(report["checks"]) == 8 and all(report["checks"].values())
        noiseless = report["sweep"][0]
        assert noiseless["noiseless"]
        assert abs(noiseless["chi2_initial"] - report["prior_divergences"]["chi2"]) > 0.1

    def test_prior_within_simplex_tolerance_passes_every_check(self, tmp_path):
        # mu sums to 1 - 9e-11, within SIMPLEX_TOL: the filters start from
        # mu renormalized, so the prior divergences must be taken there too
        data = {
            "model": {"d": 2, "A": [-1, 1, 2, -2], "H": [1, -1], "r": 1},
            "mu": [0.9, 0.09999999991],
            "nu": [0.001, 0.999],
            "T": 0.2,
            "n_paths": 4,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        report, _ = run_simulate(load_config(str(tmp_path / "cfg.json")))
        assert all(report["checks"].values()), report["checks"]
        assert report["config"]["mu"] == data["mu"]

    def test_noiseless_paths_start_from_the_conditioned_priors(self):
        cfg = _cycle_cfg(**self.ASYMMETRIC)
        model = model_for_sweep_value(cfg, 0.0)
        ens = run_divergence_ensemble(model, cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed)
        expected = _initial_chi2(model, cfg.mu, cfg.nu, ens.initial_states)
        np.testing.assert_allclose(ens.initial_chi2, expected, rtol=0, atol=1e-10)
        assert len(np.unique(np.round(expected, 12))) == 2  # paths start on both levels


class TestRunBackwardMap:
    @pytest.mark.parametrize(
        "priors, kept",
        [
            ({}, 4),
            ({"mu": [0.3, 0.7, 0.0, 0.0], "nu": [0.5, 0.5, 0.0, 0.0]}, 2),
        ],
    )
    def test_each_horizon_is_sampled_once(self, monkeypatch, priors, kept):
        # All horizons share one batch per kept state, sampled to the largest.
        calls = []
        original = dual_mod.sample_path_batch

        def counting(*args, **kwargs):
            calls.append((args[2], kwargs["stream_offset"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(dual_mod, "sample_path_batch", counting)
        cfg = _cycle_cfg(n_paths=20, T_list=(0.1, 0.2, 0.3), dt=1e-2, **priors)
        report = run_backward_map(cfg)
        assert calls == [(cfg.T_list[-1], row * cfg.n_paths) for row in range(kept)]
        assert [d["T"] for d in report["diagnostics"]] == list(cfg.T_list)
        drops = [d["drop_se"] for d in report["diagnostics"]]
        assert drops[0] is None and all(se > 0.0 for se in drops[1:])

    def test_estimates_come_from_the_largest_horizon(self):
        cfg = _cycle_cfg(n_paths=40, T_list=(0.2, 0.5), dt=1e-2)
        report = run_backward_map(cfg)
        rb = report["estimates"]["rao-blackwell"]
        assert rb["T"] == cfg.T_list[-1]
        y0 = np.array(rb["y0"])
        se = np.array(rb["stderr"])
        nu = np.asarray(cfg.nu)
        np.testing.assert_allclose(
            nu @ ((y0 - 1.0) ** 2 - se**2),
            report["diagnostics"][-1]["var_nu_y0"],
            rtol=1e-12,
        )

    def test_normalization_check_reads_the_report_nu_mean(self, monkeypatch):
        # nu sums to 1 + 5e-11, within the simplex tolerance: the report and
        # verify's check both read nu(y0) over the normalized nu
        cfg = _cycle_cfg(n_paths=20, T_list=(0.2,), dt=1e-2, nu=[0.25, 0.25, 0.25, 0.25 + 5e-11])
        est = run_backward_map(cfg)["estimates"]["rao-blackwell"]
        *_, rb = dual_mod.backward_map_study(
            model_for_sweep_value(cfg, None), cfg.mu, cfg.nu, cfg.T_list, cfg.n_paths, cfg.master_seed, cfg.dt
        )
        seen = []
        monkeypatch.setattr(verify, "_near_zero", lambda name, label, x, se: seen.append((x, se)))
        verify.backward_map_normalization(rb, cfg.nu)
        assert seen == [(est["nu_mean"] - 1.0, est["nu_mean_se"])]

    def test_diagnostics_match_decay_diagnostics(self):
        cfg = _cycle_cfg(n_paths=20, T_list=(0.1, 0.3), dt=1e-2)
        report = run_backward_map(cfg)
        diags, _, _ = dual_mod.backward_map_study(
            model_for_sweep_value(cfg, None),
            cfg.mu,
            cfg.nu,
            cfg.T_list,
            cfg.n_paths,
            cfg.master_seed,
            dt=cfg.dt,
        )
        for entry, dg in zip(report["diagnostics"], diags):
            assert entry["var_nu_y0"] == dg.var_nu_y0
            assert entry["var_nu_gammaT"] == dg.var_nu_gammaT
            assert entry["mean_mu_chi2"] == dg.mean_mu_chi2
