"""Experiment configuration: JSON files, validation, and named presets.

A configuration fixes the model, the prior pair, the grid, the ensemble
size, the random seed, and exactly one sweep: either a list of noise
intensities sigma2_list (the observation noise r = sqrt(sigma2), with
sigma2 = 0 routed to the exact noiseless filter) or a list of observation
gains k_list (the observation row H is scaled by k at unit noise).  A
"workers" field, which older configuration files carry, must still be an
integer >= 1 but is otherwise ignored.

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
from .errors import ConfigError, FilterLabError
from .model import HmmModel, as_simplex, validate_model

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset_config",
    "load_config",
    "save_config",
    "model_for_sweep_value",
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

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    try:
        validate_model(cfg.A, cfg.H, cfg.r, allow_noiseless=True)
    except FilterLabError as exc:
        raise ConfigError(f"model: {exc}") from exc
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
    _require(cfg.T > 0.0, "T", "must be positive")
    _require(cfg.dt > 0.0, "dt", "must be positive")
    n_float = cfg.T / cfg.dt
    _require(
        abs(n_float - round(n_float)) <= 1e-9 * max(1.0, n_float),
        "dt",
        f"must divide T = {cfg.T}",
    )
    _require(cfg.n_paths >= 1, "n_paths", "must be at least 1")
    _require(cfg.master_seed >= 0, "master_seed", "must be a nonnegative integer")
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


def _parse_matrix(raw, d: int, cols: int, field_name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1 and arr.size == d * cols:
        arr = arr.reshape(d, cols)
    if arr.shape != (d, cols):
        raise ConfigError(f"{field_name}: expected {d}x{cols} (row-major), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{field_name}: entries must be finite")
    return arr


def _config_from_dict(data: dict, source: str) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be an object")
    if "preset" in data:
        base = preset_config(data["preset"])
        overrides = {k: v for k, v in data.items() if k != "preset"}
        return _apply_overrides(base, overrides, source)
    model_raw = data.get("model")
    if model_raw is None:
        raise ConfigError(f"{source}: missing 'model' (or 'preset')")
    if isinstance(model_raw, str):
        with open(model_raw) as fh:
            model_raw = json.load(fh)
    for key in ("d", "A", "H", "r"):
        if key not in model_raw:
            raise ConfigError(f"{source}: model: missing key '{key}'")
    for key in ("mu", "nu"):
        if key not in data:
            raise ConfigError(f"{source}: missing prior '{key}'")
    d = int(model_raw["d"])
    m = int(model_raw.get("m", 1))
    base = ExperimentConfig(
        A=_parse_matrix(model_raw["A"], d, d, "model.A"),
        H=_parse_matrix(model_raw["H"], d, m, "model.H"),
        r=float(model_raw["r"]),
        mu=np.asarray(data["mu"], dtype=float),
        nu=np.asarray(data["nu"], dtype=float),
        T=10.0,
        dt=1e-3,
        n_paths=200,
        master_seed=0,
        sweep_kind=None,
        sweep_values=(),
    )
    return _apply_overrides(base, {k: v for k, v in data.items() if k != "model"}, source)


def _parse_window(raw, source: str) -> tuple[float, float] | None:
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{source}: rate_window must be [lo, hi]")
    return (float(raw[0]), float(raw[1]))


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
    }
    kwargs: dict = {}
    for key, value in overrides.items():
        if key in known_scalars:
            kwargs[key] = known_scalars[key](value)
        elif key == "mu":
            kwargs["mu"] = np.asarray(value, dtype=float)
        elif key == "nu":
            kwargs["nu"] = np.asarray(value, dtype=float)
        elif key == "sigma2_list":
            kwargs["sweep_kind"] = "sigma2"
            kwargs["sweep_values"] = tuple(float(v) for v in value)
        elif key == "k_list":
            kwargs["sweep_kind"] = "k"
            kwargs["sweep_values"] = tuple(float(v) for v in value)
        elif key == "workers":
            _require(int(value) >= 1, "workers", "must be at least 1")
        elif key == "rate_window":
            kwargs["rate_window"] = _parse_window(value, source)
        elif key == "T_list":
            kwargs["T_list"] = tuple(float(t) for t in value)
        elif key == "out_dir":
            kwargs["out_dir"] = value
        else:
            raise ConfigError(f"{source}: unknown field '{key}'")
    return _validate(base.with_overrides(**kwargs))


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return _config_from_dict(data, path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a configuration (row-major matrices)."""
    data = {
        "model": {
            "d": cfg.d,
            "m": cfg.H.shape[1],
            "A": [float(v) for v in cfg.A.ravel()],
            "H": [float(v) for v in cfg.H.ravel()],
            "r": cfg.r,
        },
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
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
