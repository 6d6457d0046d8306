"""Experiment pipelines: the conditional-PI paths in the ensemble pass and
the backward-map pass."""

import sys

import numpy as np
import pytest

import filterlab.dual as dual_mod
from conftest import filter_states
from filterlab.config import _apply_overrides, model_for_sweep_value, preset_config
from filterlab.ensemble import run_divergence_ensemble, sample_path_batch
from filterlab.model import validate_model
from filterlab.pipeline import PI_TRAJECTORY_PATHS, run_backward_map, run_simulate


def _cycle_cfg(**overrides):
    base = dict(n_paths=30, T=0.4, dt=1e-3, master_seed=77)
    base.update(overrides)
    return _apply_overrides(preset_config("example-6.1"), base, "test")


def _nu_filters(cfg, model):
    ens = run_divergence_ensemble(
        model, cfg.mu, cfg.nu, cfg.n_paths, cfg.T, cfg.dt, cfg.master_seed, nu_paths=PI_TRAJECTORY_PATHS
    )
    return ens.nu_filters


def _assert_paths_filtered_alone(sigma2):
    """Each conditional-PI path equals its one-path batch from nu, on the
    stream after the ensemble block, filtered alone by the model's engine."""
    cfg = _cycle_cfg()
    model = model_for_sweep_value(cfg, sigma2)
    pis = _nu_filters(cfg, model)
    assert pis.shape == (PI_TRAJECTORY_PATHS, 401, 4)
    for i in range(PI_TRAJECTORY_PATHS):
        batch = sample_path_batch(
            model, 1, cfg.T, cfg.dt, cfg.master_seed, initial_law=cfg.nu, stream_offset=cfg.n_paths + i
        )
        data = batch.state_paths if model.noiseless else batch.increments
        assert np.array_equal(pis[i], filter_states(cfg.nu, data, cfg.dt, model)[0, 0])


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
        plain, fused = run_divergence_ensemble(*args), run_divergence_ensemble(*args, nu_paths=3)
        assert plain.nu_filters.shape == (0, 401, 4)
        assert np.array_equal(plain.series.chi2, fused.series.chi2)
        assert np.array_equal(plain.signal_integral, fused.signal_integral)
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

    def test_noisy_nu_paths_off_the_class_of_mu(self, blocks_model):
        # mu charges only the first block; at gain 2000 a mu filter on a path
        # in state 2, the one state observed at h = -1, loses all mass at
        # step 0
        model = validate_model(blocks_model.A, 2000.0 * blocks_model.H, 1.0)
        nu = [0.1, 0.1, 0.7, 0.1]
        ens = run_divergence_ensemble(model, [0.5, 0.5, 0.0, 0.0], nu, 20, 0.2, 1e-3, 77, nu_paths=8)
        assert np.any(ens.nu_filters[:, 1, 2] > 0.5)

    def test_noiseless_nu_paths_off_the_support_of_mu(self):
        # mu charges only the level h = 1; a nu path that starts on h = 0
        # must be filtered from nu, since mu conditioned on it is empty
        cfg = _cycle_cfg(mu=[0.5, 0.0, 0.5, 0.0], nu=[0.25] * 4, sigma2_list=[0.0, 1.0])
        pis = _nu_filters(cfg, model_for_sweep_value(cfg, 0.0))
        assert np.any(pis[:, 0] @ np.array([0.0, 1.0, 0.0, 1.0]) == 1.0)
        report = run_simulate(cfg)
        assert all(entry["conditional_pi_infimum"]["constant"] is not None for entry in report["sweep"])


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
