"""Experiment configuration parsing and the command-line surface."""

import json

import numpy as np
import pytest

from filterlab.cli import main
from filterlab.config import (
    PRESET_NAMES,
    _apply_overrides,
    load_config,
    model_for_sweep_value,
    preset_config,
    save_config,
)
from filterlab.divergence import read_series_csv
from filterlab.errors import ConfigError
from filterlab.model import _read_table


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("example-6.1", "example-6.2")

    def test_cycle_preset_contents(self):
        cfg = preset_config("example-6.1")
        assert cfg.sweep_kind == "sigma2"
        assert cfg.sweep_values == (0.0, 0.1, 1.0, 10.0)
        assert cfg.T == 10.0 and cfg.dt == 1e-3 and cfg.n_paths == 200
        np.testing.assert_allclose(cfg.mu, [0.35, 0.35, 0.15, 0.15])
        np.testing.assert_allclose(cfg.nu, 0.25)

    def test_blocks_preset_contents(self):
        cfg = preset_config("example-6.2")
        assert cfg.sweep_kind == "k"
        assert cfg.sweep_values == (0.0, 1.0, 2.0, 4.0)
        np.testing.assert_allclose(cfg.nu, [0.1, 0.1, 0.1, 0.7])

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("example-9.9")


class TestModelForSweepValue:
    def test_sigma2_zero_is_noiseless(self):
        cfg = preset_config("example-6.1")
        model = model_for_sweep_value(cfg, 0.0)
        assert model.noiseless

    def test_sigma2_scales_r_as_sqrt(self):
        cfg = preset_config("example-6.1")
        model = model_for_sweep_value(cfg, 4.0)
        assert model.r == pytest.approx(2.0)
        np.testing.assert_allclose(model.h_unit, cfg.H / 2.0)

    def test_k_scales_observation(self):
        cfg = preset_config("example-6.2")
        model = model_for_sweep_value(cfg, 3.0)
        np.testing.assert_allclose(model.H, cfg.H * 3.0)
        assert model.r == cfg.r

    def test_none_gives_base_model(self):
        cfg = preset_config("example-6.1")
        model = model_for_sweep_value(cfg, None)
        assert model.r == cfg.r
        assert np.array_equal(model.H, cfg.H)


class TestLoadConfig:
    def _write(self, tmp_path, data, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    def test_preset_with_overrides(self, tmp_path):
        path = self._write(
            tmp_path,
            {"preset": "example-6.1", "n_paths": 7, "sigma2_list": [1.0], "T": 2.0},
        )
        cfg = load_config(path)
        assert cfg.n_paths == 7
        assert cfg.sweep_values == (1.0,)
        assert cfg.T == 2.0

    def test_inline_model(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "model": {
                    "d": 2,
                    "m": 1,
                    "A": [-1.0, 1.0, 2.0, -2.0],
                    "H": [1.0, -1.0],
                    "r": 0.5,
                },
                "mu": [0.5, 0.5],
                "nu": [0.25, 0.75],
                "T": 1.0,
                "dt": 0.001,
                "n_paths": 3,
            },
        )
        cfg = load_config(path)
        assert cfg.d == 2
        assert cfg.r == 0.5
        assert cfg.sweep_kind is None

    def test_model_from_file_reference(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(
            json.dumps(
                {"d": 2, "m": 1, "A": [-1.0, 1.0, 2.0, -2.0], "H": [1.0, -1.0], "r": 1.0}
            )
        )
        path = self._write(
            tmp_path,
            {"model": str(model_path), "mu": [0.5, 0.5], "nu": [0.5, 0.5], "T": 1.0},
        )
        assert load_config(path).d == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_override_field(self, tmp_path):
        path = self._write(tmp_path, {"preset": "example-6.1", "paths": 9})
        with pytest.raises(ConfigError, match="paths"):
            load_config(path)

    def test_both_sweeps_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "model": {"d": 2, "A": [-1.0, 1.0, 2.0, -2.0], "H": [1.0, 0.0], "r": 1.0},
                "mu": [0.5, 0.5],
                "nu": [0.5, 0.5],
                "sigma2_list": [1.0],
                "k_list": [1.0],
            },
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_field_with_explicit_model(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "model": {"d": 2, "A": [-1.0, 1.0, 2.0, -2.0], "H": [1.0, 0.0], "r": 1.0},
                "mu": [0.5, 0.5],
                "nu": [0.5, 0.5],
                "n_pathz": 5,
            },
        )
        with pytest.raises(ConfigError, match="n_pathz"):
            load_config(path)

    def test_both_sweeps_rejected_with_preset(self, tmp_path):
        path = self._write(
            tmp_path, {"preset": "example-6.1", "sigma2_list": [1.0], "k_list": [2.0]}
        )
        with pytest.raises(ConfigError, match="sigma2_list"):
            load_config(path)

    def test_non_simplex_prior_rejected(self, tmp_path):
        path = self._write(tmp_path, {"preset": "example-6.1", "mu": [0.5, 0.5, 0.5, 0.5]})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_mu_must_be_dominated_by_nu(self, tmp_path):
        path = self._write(
            tmp_path,
            {"preset": "example-6.1", "nu": [0.5, 0.5, 0.0, 0.0]},
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_dt_must_divide_T(self, tmp_path):
        path = self._write(tmp_path, {"preset": "example-6.1", "T": 1.0, "dt": 0.3})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_workers_field_still_validated(self, tmp_path):
        path = self._write(tmp_path, {"preset": "example-6.1", "workers": 0})
        with pytest.raises(ConfigError, match="workers"):
            load_config(path)

    def test_bad_rate_window(self, tmp_path):
        path = self._write(
            tmp_path, {"preset": "example-6.1", "rate_window": [9.0, 2.0]}
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_round_trip(self, tmp_path):
        cfg = _apply_overrides(preset_config("example-6.2"), {"n_paths": 11}, "test")
        p = tmp_path / "saved.json"
        save_config(cfg, str(p))
        back = load_config(str(p))
        assert back.n_paths == 11
        assert back.sweep_kind == "k" and back.sweep_values == cfg.sweep_values
        assert np.array_equal(back.A, cfg.A)
        assert np.array_equal(back.H, cfg.H)


def _tiny_config(tmp_path, **extra):
    data = {
        "preset": "example-6.1",
        "n_paths": 4,
        "T": 0.2,
        "sigma2_list": [1.0],
        "T_list": [0.1, 0.2],
    }
    data.update(extra)
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(data))
    return str(p)


class TestCliExitCodes:
    def test_usage_error_is_config_exit(self, capsys):
        assert main(["not-a-command"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_missing_experiment_source(self, capsys):
        assert main(["simulate"]) == 1

    def test_both_experiment_sources(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--preset", "example-6.1"]) == 1

    def test_numerical_failure_exit(self, tmp_path, capsys):
        p = tmp_path / "noiseless.json"
        p.write_text(
            json.dumps(
                {
                    "model": {
                        "d": 2,
                        "A": [-1.0, 1.0, 1.0, -1.0],
                        "H": [1.0, 0.0],
                        "r": 0.0,
                    },
                    "mu": [0.7, 0.3],
                    "nu": [0.5, 0.5],
                    "T": 0.5,
                    "n_paths": 2,
                    "T_list": [0.5],
                }
            )
        )
        assert main(["backward-map", "--config", str(p)]) == 2
        assert "numerical failure" in capsys.readouterr().err


_TWO_STATE_MODEL = {"d": 2, "A": [-1.0, 1.0, 2.0, -2.0], "H": [1.0, 0.0], "r": 1.0}
_PRIORS = {"mu": [0.5, 0.5], "nu": [0.5, 0.5]}


@pytest.mark.parametrize(
    "data",
    [
        {"preset": "example-6.1", "n_paths": "abc"},
        {"preset": "example-6.1", "n_paths": 2.7},
        {"preset": "example-6.1", "n_paths": True},
        {"preset": "example-6.1", "T_list": 5},
        {"preset": "example-6.1", "sigma2_list": 3},
        {"preset": "example-6.1", "mu": "abc"},
        {"preset": "example-6.1", "rate_window": ["a", 1]},
        {"preset": "example-6.1", "workers": "x"},
        {"preset": "example-6.1", "out_dir": 5},
        {"preset": "example-6.1", "T": 1.0, "dt": 0.0010000000005},
        {"model": {**_TWO_STATE_MODEL, "d": "x"}, **_PRIORS},
        {"model": {**_TWO_STATE_MODEL, "A": [[-1.0, 1.0], [2.0]]}, **_PRIORS},
        {"model": {**_TWO_STATE_MODEL, "d": 0, "A": [], "H": []}, **_PRIORS},
        {"model": {**_TWO_STATE_MODEL, "m": 0, "H": []}, **_PRIORS},
        {"model": 5, **_PRIORS},
        {"model": "missing.json", **_PRIORS},
    ],
    ids=lambda data: json.dumps(data),
)
def test_mistyped_config_field_is_a_config_error(data, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    assert main(["simulate", "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, files",
    [
        (["structure", "--model", "missing.json"], {}),
        (["structure", "--model", "model.json"], {"model.json": "{not json"}),
        (
            ["structure", "--model", "model.json"],
            {"model.json": json.dumps({**_TWO_STATE_MODEL, "d": 2.7, "r": "0.5"})},
        ),
        (
            ["backward-map", "--config", "cfg.json"],
            {"cfg.json": json.dumps({"preset": "example-6.1", "T_list": [0.5, 0.7505]})},
        ),
        (["backward-map", "--preset", "example-6.1", "--seed", "-3"], {}),
        (["verify", "--seed", "-3", "--size", "0"], {}),
    ],
    ids=[
        "missing-model-file",
        "malformed-model-file",
        "mistyped-model-file",
        "T_list-off-grid",
        "negative-seed",
        "verify-negative-seed",
    ],
)
def test_bad_cli_input_is_a_config_error(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


class TestCliSimulate:
    def test_tiny_run_writes_artifacts(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--seed", "99", "--plot-data"]
        )
        assert code == 0
        report = json.loads((out / "report_simulate.json").read_text())
        assert report["config"]["master_seed"] == 99
        assert (out / "series_sigma2=1.csv").exists()
        assert (out / "plotdata_sigma2=1.csv").exists() or report["sweep"][0][
            "rate_fit"
        ] is None
        text = capsys.readouterr().out
        assert "chi2(0) = 0.160000" in text

    def test_plot_data_reads_back(self, tmp_path):
        cfg = _tiny_config(tmp_path, rate_window=[0.05, 0.2])
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--plot-data"]) == 0
        report = json.loads((out / "report_simulate.json").read_text())
        lo, hi = report["sweep"][0]["rate_fit"]["window"]
        series = read_series_csv(str(out / "series_sigma2=1.csv"))
        mask = (series["t"] >= lo) & (series["t"] <= hi)
        header, body = _read_table(str(out / "plotdata_sigma2=1.csv"))
        assert header == ["t", "log_chi2_mean"]
        np.testing.assert_array_equal(body[:, 0], series["t"][mask])
        np.testing.assert_array_equal(body[:, 1], np.log(series["chi2_mean"][mask]))

    def test_seed_and_workers_do_not_change_results(self, tmp_path):
        # An older config's "workers" field loads and changes nothing.
        outs = []
        for extra, name in (({}, "a"), ({"workers": 3}, "b")):
            (tmp_path / name).mkdir()
            cfg = _tiny_config(tmp_path / name, **extra)
            out = tmp_path / name / "out"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
            report = json.loads((out / "report_simulate.json").read_text())
            report.pop("wall_clock_s")
            outs.append(report)
        assert outs[0] == outs[1]
        assert "workers" not in outs[0]["config"]


class TestCliStructureAndVerify:
    def test_structure_preset(self, tmp_path, capsys):
        assert main(["structure", "--preset", "example-6.2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report_structure.json").read_text())["structure"]
        assert payload["ergodic"] is False
        assert payload["observable_dim"] == 4
        assert payload["invariant_note"] != ""
        assert "ergodic: False" in capsys.readouterr().out

    def test_structure_model_file(self, tmp_path):
        from filterlab import save_model, validate_model

        model = validate_model(
            np.array([[-1.0, 1.0], [2.0, -2.0]]), np.array([1.0, -1.0]), 1.0
        )
        mp = tmp_path / "model.json"
        save_model(model, str(mp))
        assert main(["structure", "--model", str(mp), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report_structure.json").read_text())["structure"]
        assert payload["ergodic"] is True
        assert payload["classical_pi"]["constant"] == pytest.approx(6.0)

    def test_model_file_without_m_has_one_column(self, tmp_path):
        # "m" defaults to 1 in a model file, as in a config's model object.
        mp = tmp_path / "model.json"
        mp.write_text(json.dumps(_TWO_STATE_MODEL))
        assert main(["structure", "--model", str(mp), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report_structure.json").read_text())["structure"]
        assert (payload["d"], payload["m"]) == (2, 1)
        cp = tmp_path / "cfg.json"
        cp.write_text(json.dumps({"model": str(mp), **_PRIORS}))
        assert load_config(str(cp)).H.shape == (2, 1)

    def test_verify_deterministic_only(self, tmp_path, capsys):
        assert main(["verify", "--size", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report_verify.json").read_text())
        assert report["passed"] is True
        assert all(c["kind"] == "deterministic" for c in report["checks"])
        assert "checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("size", ["-1", "1"])
    def test_verify_size_without_standard_errors(self, size, tmp_path, capsys):
        assert main(["verify", "--size", size, "--out", str(tmp_path)]) == 1
        assert "configuration error: size" in capsys.readouterr().err

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("FILTERLAB_OUT", str(target))
        assert main(["verify", "--size", "0"]) == 0
        assert (target / "report_verify.json").exists()


class TestCliBackwardMap:
    def test_small_run(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path, n_paths=10)
        out = tmp_path / "bm"
        assert main(["backward-map", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report_backward_map.json").read_text())
        assert {d["T"] for d in report["diagnostics"]} == {0.1, 0.2}
        assert set(report["estimates"]) == {"plain", "rao-blackwell"}
        assert (out / "backward_map_plain.csv").exists()
        assert (out / "backward_map_rao-blackwell.csv").exists()
        assert "var_nu(y0)" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_path_per_state_is_a_config_error(self, tmp_path, capsys):
        # One path leaves every standard error undefined; simulate keeps it
        # and reports its standard errors as null, in strict JSON.
        cfg = _tiny_config(tmp_path, n_paths=1)
        out = tmp_path / "bm"
        assert main(["backward-map", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: n_paths")
        assert not (out / "report_backward_map.json").exists()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report_simulate.json").read_text()
        report = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in the report"))
        assert [e["chi2_terminal_se"] for e in report["sweep"]] == [None] * len(report["sweep"])
