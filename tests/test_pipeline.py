"""Experiment pipelines: the conditional-PI paths and the backward-map pass."""

import numpy as np
import pytest

import filterlab.dual as dual_mod
from conftest import filter_states
from filterlab.config import _apply_overrides, model_for_sweep_value, preset_config
from filterlab.ensemble import sample_path_batch
from filterlab.pipeline import PI_TRAJECTORY_PATHS, _pi_trajectories, run_backward_map


def _cycle_cfg(**overrides):
    base = dict(n_paths=30, T=0.4, dt=1e-3, master_seed=77)
    base.update(overrides)
    return _apply_overrides(preset_config("example-6.1"), base, "test")


def _assert_paths_filtered_alone(sigma2):
    """Each conditional-PI path equals its one-path batch from nu, on the
    stream after the ensemble block, filtered alone by the model's engine."""
    cfg = _cycle_cfg()
    model = model_for_sweep_value(cfg, sigma2)
    pis = _pi_trajectories(model, cfg, cfg.nu)
    assert pis.shape == (PI_TRAJECTORY_PATHS, 401, 4)
    for i in range(PI_TRAJECTORY_PATHS):
        batch = sample_path_batch(
            model, 1, cfg.T, cfg.dt, cfg.master_seed, initial_law=cfg.nu, stream_offset=cfg.n_paths + i
        )
        data = batch.state_paths if model.noiseless else batch.increments
        assert np.array_equal(pis[i], filter_states(cfg.nu, data, cfg.dt, model)[0, 0])


class TestPiTrajectories:
    @pytest.mark.parametrize("sigma2", [0.1, 1.0])
    def test_noisy_batch_equals_per_path_filters(self, sigma2):
        _assert_paths_filtered_alone(sigma2)

    def test_noiseless_batch_equals_exact_single_path_filter(self):
        _assert_paths_filtered_alone(0.0)


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
