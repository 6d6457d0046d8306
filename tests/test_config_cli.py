"""Experiment configuration parsing and the command-line surface."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import filterlab
from conftest import (
    BLOCKS_A,
    BLOCKS_H,
    BLOCKS_MU,
    BLOCKS_NU,
    CYCLE_A,
    CYCLE_H,
    CYCLE_MU,
    CYCLE_NU,
    model_object,
)
from filterlab.cli import main
from filterlab.config import (
    PRESET_NAMES,
    _apply_overrides,
    config_to_dict,
    load_config,
    model_for_sweep_value,
    preset_config,
)
from filterlab.errors import ConfigError
from filterlab.verify import MIN_SIZE


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("example-6.1", "example-6.2")

    @staticmethod
    def _assert_fields(cfg, A, H, mu, nu, sweep_kind, sweep_values, label):
        """Every field of a preset, bit for bit, with the shared defaults."""
        for got, want in ((cfg.A, A), (cfg.H, H[:, None]), (cfg.mu, mu), (cfg.nu, nu)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.float64(cfg.r).tobytes() == np.float64(1.0).tobytes()
        assert cfg.sweep_kind == sweep_kind
        assert np.array(cfg.sweep_values).tobytes() == np.array(sweep_values).tobytes()
        assert cfg.label == label
        assert np.array([cfg.T, cfg.dt, *cfg.T_list]).tobytes() == np.array([10.0, 1e-3, 2.0, 5.0, 10.0]).tobytes()
        assert cfg.n_paths == 200 and len(cfg.T_list) == 3
        assert cfg.master_seed == 0 and cfg.rate_window is None and cfg.out_dir is None

    def test_cycle_preset_contents(self):
        cfg = preset_config("example-6.1")
        self._assert_fields(cfg, CYCLE_A, CYCLE_H, CYCLE_MU, CYCLE_NU, "sigma2", (0.0, 0.1, 1.0, 10.0), "example-6.1")

    def test_blocks_preset_contents(self):
        cfg = preset_config("example-6.2")
        self._assert_fields(cfg, BLOCKS_A, BLOCKS_H, BLOCKS_MU, BLOCKS_NU, "k", (0.0, 1.0, 2.0, 4.0), "example-6.2")

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
        # a report's config echo, written as a file, loads back to the same config
        for name, kind in zip(PRESET_NAMES, ("sigma2", "k")):
            cfg = _apply_overrides(preset_config(name), {"n_paths": 11}, "test")
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(config_to_dict(cfg)))
            back = load_config(str(p))
            assert back.n_paths == 11
            assert back.sweep_kind == kind and back.sweep_values == cfg.sweep_values
            for field in ("A", "H", "mu", "nu"):
                assert np.array_equal(getattr(back, field), getattr(cfg, field))
            assert config_to_dict(back) == config_to_dict(cfg)


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


def _loaded_by_cli_import(*modules):
    """The given modules that a fresh interpreter holds after `import filterlab.cli`."""
    src = os.path.dirname(os.path.dirname(filterlab.__file__))
    code = f"import json, sys, filterlab.cli; print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


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
        (
            ["backward-map", "--config", "cfg.json"],
            {"cfg.json": json.dumps({"preset": "example-6.1", "T_list": [0.5, 0.5000000000005]})},
        ),
        (["backward-map", "--preset", "example-6.1", "--seed", "-3"], {}),
        (["verify", "--seed", "-3", "--size", "0"], {}),
        # Python's json reads NaN, Infinity and 1e400 (as inf)
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "T": 1e400}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "T": NaN}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "dt": NaN}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "T": 1.0, "dt": 5e-324}'}),
        (["backward-map", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "T_list": [0.5, Infinity]}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "sigma2_list": [Infinity]}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.2", "k_list": [1.0, NaN]}'}),
        # two sweep values with one tag would write one series file for both
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "sigma2_list": [1.0, 1.0]}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "sigma2_list": [1.0, 1.0000001]}'}),
        # finite values whose likelihood |H/r|^2 dt overflows float64
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.2", "k_list": [1e200]}'}),
        (["simulate", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "sigma2_list": [1e-320]}'}),
        # the gain H/r^2 overflows while dt |H/r|^2 is finite; H k is not finite
        (
            ["simulate", "--config", "cfg.json"],
            {"cfg.json": json.dumps({"model": {**_TWO_STATE_MODEL, "H": [1e-11, 0.0]}, **_PRIORS, "sigma2_list": [1e-320]})},
        ),
        (
            ["simulate", "--config", "cfg.json"],
            {"cfg.json": json.dumps({"model": {**_TWO_STATE_MODEL, "H": [2.0, 0.0]}, **_PRIORS, "k_list": [1e308]})},
        ),
        (["simulate", "--preset", "example-6.1", "--out", "taken"], {"taken": ""}),
        (["structure", "--preset", "example-6.1", "--out", "taken/sub"], {"taken": ""}),
        (["backward-map", "--config", "cfg.json"], {"cfg.json": '{"preset": "example-6.1", "out_dir": "taken"}', "taken": ""}),
        (["verify", "--size", "0", "--out", "taken"], {"taken": ""}),
    ],
    ids=[
        "missing-model-file",
        "malformed-model-file",
        "mistyped-model-file",
        "T_list-off-grid",
        "T_list-same-step",
        "negative-seed",
        "verify-negative-seed",
        "T-overflow",
        "T-nan",
        "dt-nan",
        "dt-subnormal",
        "T_list-infinite",
        "sigma2-infinite",
        "k-nan",
        "sigma2-repeated",
        "sigma2-same-tag",
        "k-likelihood-overflow",
        "sigma2-likelihood-overflow",
        "sigma2-gain-overflow",
        "k-gain-not-finite",
        "out-is-a-file",
        "out-under-a-file",
        "out_dir-is-a-file",
        "verify-out-is-a-file",
    ],
)
def test_bad_cli_input_is_a_config_error(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sweep",
    [{"preset": "example-6.2", "k_list": [1e150]}, {"preset": "example-6.1", "sigma2_list": [1e-300]}],
    ids=["k-1e150", "sigma2-1e-300"],
)
def test_large_but_finite_likelihood_runs(sweep, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({**sweep, "n_paths": 4, "T": 0.05}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(json.loads((tmp_path / "report_simulate.json").read_text())["sweep"]) == 1


def test_verify_checks_its_output_directory_before_the_suite(tmp_path, monkeypatch, capsys):
    import filterlab.verify

    def fail(**kwargs):
        raise AssertionError("the suite ran before the output directory was checked")

    monkeypatch.setattr(filterlab.verify, "run_verify", fail)
    (tmp_path / "taken").write_text("")
    assert main(["verify", "--out", str(tmp_path / "taken")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: output directory")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", "--config", "tiny.json"], "report_simulate.json"),
        (["structure", "--preset", "example-6.1"], "report_structure.json"),
        (["backward-map", "--config", "tiny.json"], "report_backward_map.json"),
        (["verify", "--size", "0"], "report_verify.json"),
    ],
    ids=["simulate", "structure", "backward-map", "verify"],
)
def test_printed_report_is_written_beside_only_its_series(argv, name, tmp_path, monkeypatch, capsys):
    # the pipelines write nothing: the CLI writes the report it prints and
    # the series CSVs that the report's artifacts name, and no other file
    monkeypatch.chdir(tmp_path)
    _tiny_config(tmp_path, sigma2_list=[0.0, 1.0])
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    assert printed == f"report: {out / name}"
    report = json.loads((out / name).read_text())
    artifacts = report.get("artifacts", [])
    if argv[0] == "simulate":
        assert artifacts == ["series_sigma2=0.csv", "series_sigma2=1.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted([name, *artifacts])


class TestCliSimulate:
    def test_tiny_run_writes_artifacts(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--seed", "99"])
        assert code == 0
        report = json.loads((out / "report_simulate.json").read_text())
        assert report["config"]["master_seed"] == 99
        assert report["artifacts"] == ["series_sigma2=1.csv"]
        assert sorted(report["artifacts"]) == sorted(p.name for p in out.glob("*.csv"))
        text = capsys.readouterr().out
        assert "chi2(0) = 0.160000" in text

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

    def test_structure_constants_of_the_presets(self, tmp_path):
        # the blocks' measure charges both blocks, so the block indicator
        # has zero energy; the cycle's constant is 2
        constants = {}
        for preset in ("example-6.1", "example-6.2"):
            assert main(["structure", "--preset", preset, "--out", str(tmp_path / preset)]) == 0
            report = json.loads((tmp_path / preset / "report_structure.json").read_text())
            constants[preset] = report["structure"]["classical_pi"]
        assert abs(constants["example-6.2"]["constant"]) <= 1e-10
        f = np.array(constants["example-6.2"]["minimizer"])
        np.testing.assert_allclose(f[1], f[0], rtol=1e-10)
        np.testing.assert_allclose(f[3], f[2], rtol=1e-10)
        assert f[0] * f[2] < 0.0
        assert constants["example-6.1"]["constant"] == pytest.approx(2.0, rel=0.0, abs=1e-8)

    def test_structure_model_file(self, tmp_path):
        from filterlab.model import validate_model

        model = validate_model(
            np.array([[-1.0, 1.0], [2.0, -2.0]]), np.array([1.0, -1.0]), 1.0
        )
        mp = tmp_path / "model.json"
        mp.write_text(json.dumps(model_object(model)))
        assert main(["structure", "--model", str(mp), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report_structure.json").read_text())["structure"]
        assert payload["ergodic"] is True
        assert payload["classical_pi"]["constant"] == pytest.approx(6.0)

    def test_one_state_model(self, tmp_path):
        mp = tmp_path / "one.json"
        mp.write_text(json.dumps({"d": 1, "A": [0.0], "H": [1.0], "r": 1.0}))
        assert main(["structure", "--model", str(mp), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report_structure.json").read_text())["structure"]
        assert payload["rate_bounds"] == {"b1": 0.0, "b2": 0.0, "b3": 0.0}
        cp = tmp_path / "cfg.json"
        cp.write_text(json.dumps({"model": str(mp), "mu": [1.0], "nu": [1.0], "T": 0.2, "n_paths": 4}))
        assert main(["simulate", "--config", str(cp), "--out", str(tmp_path)]) == 0

    def test_relative_model_path_is_taken_from_the_config_directory(self, tmp_path, monkeypatch):
        rel = tmp_path / "rel"
        rel.mkdir()
        (rel / "one.json").write_text(json.dumps({"d": 1, "m": 1, "A": [0.0], "H": [1.0], "r": 1.0}))
        cfg = {"model": "one.json", "mu": [1.0], "nu": [1.0], "T": 0.2, "n_paths": 4}
        (rel / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert load_config("../rel/cfg.json").d == 1
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "rel/cfg.json", "--out", "out"]) == 0
        assert (tmp_path / "out" / "report_simulate.json").is_file()

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

    def test_only_the_verify_command_imports_verify(self):
        # the check suites cost every simulate, structure and backward-map
        # run about 10 ms of import time
        assert _loaded_by_cli_import("filterlab.verify") == []

    def test_cli_import_loads_no_scipy_linalg_or_optimize(self):
        # numpy is the only runtime dependency: the Poincare eigenproblems call
        # np.linalg.eigh and every invariant measure is one np.linalg.lstsq
        assert _loaded_by_cli_import("scipy.linalg", "scipy.optimize") == []

    def test_every_command_runs_without_scipy(self, tmp_path):
        # a fresh interpreter in which importing scipy raises ImportError
        configs = {
            "blocks": {"preset": "example-6.2", "k_list": [0.0, 1.0], "n_paths": 8, "T": 0.2},
            "cycle": {"preset": "example-6.1", "sigma2_list": [0.0, 1.0], "n_paths": 8, "T": 0.2},
            "bm": {"preset": "example-6.1", "n_paths": 8, "T_list": [0.1, 0.2]},
        }
        for name, data in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        runs = [
            ["structure", "--preset", "example-6.2"],
            ["simulate", "--config", str(tmp_path / "blocks.json")],
            ["simulate", "--config", str(tmp_path / "cycle.json")],
            ["backward-map", "--config", str(tmp_path / "bm.json")],
            ["verify", "--size", str(MIN_SIZE)],
        ]
        runs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from filterlab.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])"
        )
        src = os.path.dirname(os.path.dirname(filterlab.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", out.stdout

    # below MIN_SIZE the statistical suite fails by chance
    @pytest.mark.parametrize("size", ["-1", "1", "4", str(MIN_SIZE - 1)])
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
        assert [p.name for p in out.iterdir()] == ["report_backward_map.json"]
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
