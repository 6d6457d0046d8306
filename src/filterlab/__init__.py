"""Simulation and verification laboratory for nonlinear filter stability.

Finite-state signals observed in white noise: Wonham filters, divergence
decay along filter pairs, backward-map variance diagnostics, and
conditional Poincare constants, with reproducible Monte Carlo ensembles.
"""

from .config import (
    PRESET_NAMES,
    ExperimentConfig,
    load_config,
    load_model,
    model_for_sweep_value,
    preset_config,
    save_config,
    save_model,
)
from .divergence import (
    Chi2DriftTerms,
    DivergenceSeries,
    RateFit,
    chi2,
    chi2_drift_terms,
    density_ratio,
    fit_exponential_rate,
    kl,
    tv,
)
from .dual import (
    BackwardMapEstimate,
    DecayDiagnostics,
    EnvelopeReport,
    backward_map_study,
    essential_infimum_ratio,
    theorem2_envelope,
)
from .ensemble import (
    EnsembleDivergence,
    PathBatch,
    run_divergence_ensemble,
    run_divergence_sweep,
    sample_path_batch,
)
from .errors import (
    AbsoluteContinuityViolation,
    AssumptionA1Violated,
    ConfigError,
    DegenerateVarianceForm,
    DimensionMismatch,
    FilterLabError,
    NonPositiveNoise,
    NonUniqueInvariantMeasure,
)
from .filtering import (
    evolve_ensemble,
    evolve_noiseless_ensemble,
    wonham_step,
)
from .model import (
    HmmModel,
    SubspaceBasis,
    carre_du_champ,
    invariant_measure,
    is_ergodic,
    nonergodic_limit_bounds,
    observable_space,
    rate_bounds,
    validate_model,
)
from .pipeline import run_backward_map, run_simulate, run_structure
from .poincare import (
    PiResult,
    classical_pi_constant,
    conditional_pi_constant,
    symmetric_eigensolver,
    trajectory_pi_infimum,
)
from .sim import (
    RngStream,
    StatePath,
    spawn_rng,
)
from .verify import run_verify

__version__ = "1.0.0"

__all__ = [
    "AbsoluteContinuityViolation",
    "AssumptionA1Violated",
    "BackwardMapEstimate",
    "Chi2DriftTerms",
    "ConfigError",
    "DecayDiagnostics",
    "DegenerateVarianceForm",
    "DimensionMismatch",
    "DivergenceSeries",
    "EnsembleDivergence",
    "EnvelopeReport",
    "ExperimentConfig",
    "FilterLabError",
    "HmmModel",
    "NonPositiveNoise",
    "NonUniqueInvariantMeasure",
    "PathBatch",
    "PiResult",
    "PRESET_NAMES",
    "RateFit",
    "RngStream",
    "StatePath",
    "SubspaceBasis",
    "backward_map_study",
    "carre_du_champ",
    "chi2",
    "chi2_drift_terms",
    "classical_pi_constant",
    "conditional_pi_constant",
    "density_ratio",
    "essential_infimum_ratio",
    "evolve_ensemble",
    "evolve_noiseless_ensemble",
    "fit_exponential_rate",
    "invariant_measure",
    "is_ergodic",
    "kl",
    "load_config",
    "load_model",
    "model_for_sweep_value",
    "nonergodic_limit_bounds",
    "observable_space",
    "preset_config",
    "rate_bounds",
    "run_backward_map",
    "run_divergence_ensemble",
    "run_divergence_sweep",
    "run_simulate",
    "run_structure",
    "run_verify",
    "sample_path_batch",
    "save_config",
    "save_model",
    "spawn_rng",
    "symmetric_eigensolver",
    "theorem2_envelope",
    "trajectory_pi_infimum",
    "tv",
    "validate_model",
    "wonham_step",
]
