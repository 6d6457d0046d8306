"""Experiment configuration: JSON files, validation, and named presets.

A configuration fixes the model, the prior pair, the grid, the ensemble
size, the random seed, and exactly one sweep: either a list of noise
intensities sigma2_list (the observation noise r = sqrt(sigma2), with
sigma2 = 0 routed to the exact noiseless filter) or a list of observation
gains k_list (the observation row H is scaled by k at unit noise).  A
"workers" field, which older configuration files carry, must still be an
integer >= 1 but is otherwise ignored.

This module also owns the model JSON object {"d", "m", "A", "H", "r"}
(row-major flat A and H; "m" defaults to 1): _read_model is its one reader,
for a model file and for a config's "model" alike, and _model_json its one
writer, behind load_model / save_model and the config echo.

Two presets embed the reference models used throughout:

  example-6.1  cyclic four-state generator with two-level observation
               h = (1, 0, 1, 0); the classical non-stable counterexample
               at sigma2 = 0 that becomes stable for any sigma2 > 0.
  example-6.2  two disconnected two-state blocks with signed observation
               h = k * (1, 0, -1, 0); non-ergodic but observable for
               k != 0 because the sign separates the blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .divergence import density_ratio
from .errors import ConfigError, FilterLabError, GridMismatch
from .model import HmmModel, as_simplex, validate_model
from .sim import _grid_steps

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset_config",
    "load_config",
    "save_config",
    "model_for_sweep_value",
    "load_model",
    "save_model",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    A and H are the base generator and observation matrix; r is the base
    noise level.  sweep_kind is "sigma2", "k", or None (single run at the
    base model).  T_list is used by the backward-map command only.
    """

    A: np.ndarray
    H: np.ndarray
    r: float
    mu: np.ndarray
    nu: np.ndarray
    T: float
    dt: float
    n_paths: int
    master_seed: int
    sweep_kind: str | None
    sweep_values: tuple[float, ...]
    out_dir: str | None = None
    rate_window: tuple[float, float] | None = None
    T_list: tuple[float, ...] = (2.0, 5.0, 10.0)
    label: str = ""

    @property
    def d(self) -> int:
        return self.A.shape[0]


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


def _checked_model(A, H, r, allow_noiseless: bool) -> HmmModel:
    try:
        return validate_model(A, H, r, allow_noiseless=allow_noiseless)
    except FilterLabError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _grid_check(T: float, dt: float, field_name: str) -> None:
    try:
        _grid_steps(T, dt)
    except GridMismatch as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc


def _seed_check(seed: int) -> None:
    _require(seed >= 0, "master_seed", "must be a nonnegative integer")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    _checked_model(cfg.A, cfg.H, cfg.r, allow_noiseless=True)
    d = cfg.A.shape[0]
    try:
        mu = as_simplex(cfg.mu, d=d)
        nu = as_simplex(cfg.nu, d=d)
    except FilterLabError as exc:
        raise ConfigError(f"priors: {exc}") from exc
    try:
        density_ratio(mu, nu)
    except FilterLabError as exc:
        raise ConfigError(f"priors: mu must be absolutely continuous w.r.t. nu ({exc})") from exc
    _grid_check(cfg.T, cfg.dt, "grid")
    _require(cfg.n_paths >= 1, "n_paths", "must be at least 1")
    _seed_check(cfg.master_seed)
    _require(
        cfg.sweep_kind in (None, "sigma2", "k"),
        "sweep_kind",
        "must be one of null, 'sigma2', 'k'",
    )
    if cfg.sweep_kind is None:
        _require(cfg.sweep_values == (), "sweep_values", "must be empty without a sweep")
    else:
        _require(len(cfg.sweep_values) >= 1, "sweep_values", "must be nonempty")
        if cfg.sweep_kind == "sigma2":
            _require(
                all(v >= 0.0 for v in cfg.sweep_values),
                "sigma2_list",
                "noise intensities must be nonnegative",
            )
    if cfg.rate_window is not None:
        lo, hi = cfg.rate_window
        _require(0.0 <= lo < hi <= cfg.T, "rate_window", f"must satisfy 0 <= lo < hi <= T = {cfg.T}")
    _require(len(cfg.T_list) >= 1, "T_list", "must be nonempty")
    _require(
        all(b > a for a, b in zip(cfg.T_list, cfg.T_list[1:])),
        "T_list",
        "must be strictly increasing",
    )
    _require(all(t > 0.0 for t in cfg.T_list), "T_list", "entries must be positive")
    return cfg


def model_for_sweep_value(cfg: ExperimentConfig, value: float | None) -> HmmModel:
    """Instantiate the model at one sweep point.

    sigma2 sweeps set r = sqrt(value) on the base observation matrix (zero
    gives the noiseless model); k sweeps scale H by value at the base noise.
    value = None returns the base model.
    """
    if value is None or cfg.sweep_kind is None:
        return validate_model(cfg.A, cfg.H, cfg.r, allow_noiseless=True)
    if cfg.sweep_kind == "sigma2":
        return validate_model(cfg.A, cfg.H, float(np.sqrt(value)), allow_noiseless=True)
    return validate_model(cfg.A, cfg.H * float(value), cfg.r, allow_noiseless=True)


_CYCLE_A = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
)
_BLOCKS_A = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [2.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [0.0, 0.0, 2.0, -2.0],
    ]
)

PRESET_NAMES = ("example-6.1", "example-6.2")


def preset_config(name: str) -> ExperimentConfig:
    """Named reference configurations with the embedded matrices and priors."""
    if name == "example-6.1":
        cfg = ExperimentConfig(
            A=_CYCLE_A.copy(),
            H=np.array([[1.0], [0.0], [1.0], [0.0]]),
            r=1.0,
            mu=np.array([0.35, 0.35, 0.15, 0.15]),
            nu=np.array([0.25, 0.25, 0.25, 0.25]),
            T=10.0,
            dt=1e-3,
            n_paths=200,
            master_seed=0,
            sweep_kind="sigma2",
            sweep_values=(0.0, 0.1, 1.0, 10.0),
            label="example-6.1",
        )
    elif name == "example-6.2":
        cfg = ExperimentConfig(
            A=_BLOCKS_A.copy(),
            H=np.array([[1.0], [0.0], [-1.0], [0.0]]),
            r=1.0,
            mu=np.array([0.2, 0.6, 0.1, 0.1]),
            nu=np.array([0.1, 0.1, 0.1, 0.7]),
            T=10.0,
            dt=1e-3,
            n_paths=200,
            master_seed=0,
            sweep_kind="k",
            sweep_values=(0.0, 1.0, 2.0, 4.0),
            label="example-6.2",
        )
    else:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _validate(cfg)


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _scalar(value, field_name: str, kind: type):
    """value as kind, if it has that JSON type: an integer is also a
    number, a bool is neither, and a fractional number is no integer."""
    accepted = (int, float) if kind is float else kind
    ok = isinstance(value, accepted) and not isinstance(value, bool)
    _require(ok, field_name, f"must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def _numbers_only(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_numbers_only(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_array(value, field_name: str) -> np.ndarray:
    """A number or (nested) list of numbers as a float array."""
    _require(_numbers_only(value), field_name, "must be a number or a list of numbers")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ConfigError(f"{field_name}: rows must have equal lengths") from None


def _as_floats(value, field_name: str) -> tuple[float, ...]:
    arr = _as_array(value, field_name)
    _require(arr.ndim == 1, field_name, "must be a list of numbers")
    return tuple(float(v) for v in arr)


def _parse_matrix(raw, d: int, cols: int, field_name: str) -> np.ndarray:
    arr = _as_array(raw, field_name)
    if arr.ndim == 1 and arr.size == d * cols:
        arr = arr.reshape(d, cols)
    if arr.shape != (d, cols):
        raise ConfigError(f"{field_name}: expected {d}x{cols} (row-major), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{field_name}: entries must be finite")
    return arr


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _read_model(raw, source: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The model object, or the path of a JSON file holding one, as typed
    (A, H, r); the model itself is validated by the caller."""
    if isinstance(raw, str):
        source, raw = raw, _read_json(raw)
    _require(isinstance(raw, dict), "model", "must be an object or a model file path")
    for key in ("d", "A", "H", "r"):
        if key not in raw:
            raise ConfigError(f"{source}: model: missing key '{key}'")
    d = _scalar(raw["d"], "model.d", int)
    m = _scalar(raw.get("m", 1), "model.m", int)
    _require(d >= 1 and m >= 1, "model", "d and m must be at least 1")
    return (
        _parse_matrix(raw["A"], d, d, "model.A"),
        _parse_matrix(raw["H"], d, m, "model.H"),
        _scalar(raw["r"], "model.r", float),
    )


def _model_json(model) -> dict:
    """The model object of an HmmModel or an ExperimentConfig."""
    return {
        "d": model.A.shape[0],
        "m": model.H.shape[1],
        "A": [float(v) for v in model.A.ravel()],
        "H": [float(v) for v in model.H.ravel()],
        "r": float(model.r),
    }


def _write_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_model(path: str, allow_noiseless: bool = False) -> HmmModel:
    """Read a model JSON file; any fault in it is a ConfigError."""
    return _checked_model(*_read_model(path, path), allow_noiseless=allow_noiseless)


def save_model(model: HmmModel, path: str) -> None:
    """Write the model as JSON with row-major flat A and H."""
    _write_json(_model_json(model), path)


def _config_from_dict(data: dict, source: str) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be an object")
    if "preset" in data:
        base = preset_config(data["preset"])
        overrides = {k: v for k, v in data.items() if k != "preset"}
        return _apply_overrides(base, overrides, source)
    if data.get("model") is None:
        raise ConfigError(f"{source}: missing 'model' (or 'preset')")
    A, H, r = _read_model(data["model"], source)
    for key in ("mu", "nu"):
        if key not in data:
            raise ConfigError(f"{source}: missing prior '{key}'")
    base = ExperimentConfig(
        A=A,
        H=H,
        r=r,
        mu=_as_array(data["mu"], "mu"),
        nu=_as_array(data["nu"], "nu"),
        T=10.0,
        dt=1e-3,
        n_paths=200,
        master_seed=0,
        sweep_kind=None,
        sweep_values=(),
    )
    return _apply_overrides(base, {k: v for k, v in data.items() if k != "model"}, source)


def _apply_overrides(base: ExperimentConfig, overrides: dict, source: str) -> ExperimentConfig:
    """Apply the top-level fields of a config file to a base configuration.

    Both config shapes end here, so an unknown field or a second sweep list
    is rejected the same way whether the base is a preset or a model.
    """
    if "sigma2_list" in overrides and "k_list" in overrides:
        raise ConfigError(f"{source}: give at most one of sigma2_list, k_list")
    known_scalars = {
        "T": float,
        "dt": float,
        "n_paths": int,
        "master_seed": int,
        "label": str,
        "out_dir": str,
    }
    kwargs: dict = {}
    for key, value in overrides.items():
        if key in known_scalars:
            kwargs[key] = _scalar(value, key, known_scalars[key])
        elif key in ("mu", "nu"):
            kwargs[key] = _as_array(value, key)
        elif key in ("sigma2_list", "k_list"):
            kwargs["sweep_kind"] = key.removesuffix("_list")
            kwargs["sweep_values"] = _as_floats(value, key)
        elif key == "workers":
            _require(_scalar(value, key, int) >= 1, "workers", "must be at least 1")
        elif key == "rate_window":
            window = None if value is None else _as_floats(value, key)
            _require(window is None or len(window) == 2, key, "must be [lo, hi]")
            kwargs[key] = window
        elif key == "T_list":
            kwargs[key] = _as_floats(value, key)
        else:
            raise ConfigError(f"{source}: unknown field '{key}'")
    return _validate(replace(base, **kwargs))


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
    return _config_from_dict(_read_json(path), path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a configuration (row-major matrices)."""
    data = {
        "model": _model_json(cfg),
        "mu": [float(v) for v in cfg.mu],
        "nu": [float(v) for v in cfg.nu],
        "T": cfg.T,
        "dt": cfg.dt,
        "n_paths": cfg.n_paths,
        "master_seed": cfg.master_seed,
        "T_list": list(cfg.T_list),
        "label": cfg.label,
    }
    if cfg.sweep_kind == "sigma2":
        data["sigma2_list"] = list(cfg.sweep_values)
    elif cfg.sweep_kind == "k":
        data["k_list"] = list(cfg.sweep_values)
    if cfg.rate_window is not None:
        data["rate_window"] = list(cfg.rate_window)
    if cfg.out_dir is not None:
        data["out_dir"] = cfg.out_dir
    return data


def save_config(cfg: ExperimentConfig, path: str) -> None:
    """Write a configuration as JSON (round-trips through load_config)."""
    _write_json(config_to_dict(cfg), path)
