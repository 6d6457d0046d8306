"""Exception types shared across the package."""


class FilterLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FilterLabError):
    """Array shapes are inconsistent with each other or with the model."""


class NegativeOffDiagonal(FilterLabError):
    """A transition-rate matrix has a negative off-diagonal entry."""


class RowSumNonZero(FilterLabError):
    """A transition-rate matrix row does not sum to zero within tolerance."""


class NonPositiveNoise(FilterLabError):
    """Noise amplitude r < 0 or not finite, or r = 0 where a noisy model is needed."""


class NonUniqueInvariantMeasure(FilterLabError):
    """The generator admits more than one invariant probability vector."""


class GridMismatch(FilterLabError):
    """A time step does not divide the horizon, or two grids disagree."""


class DegenerateMass(FilterLabError):
    """Filter mass collapsed to zero; the step size is too large for h/r."""


class EmptyLevelSet(FilterLabError):
    """Noiseless conditioning annihilated all mass; model and data disagree."""


class AbsoluteContinuityViolation(FilterLabError):
    """p puts mass where q has none, so the divergence is undefined."""


class NonPositiveSeries(FilterLabError):
    """A series that must be strictly positive on the fit window is not."""


class WindowTooShort(FilterLabError):
    """Fewer than divergence.MIN_FIT_POINTS points in the rate-fit window."""


class DegenerateVarianceForm(FilterLabError):
    """No nonconstant direction: the variance form vanishes identically."""


class AssumptionA1Violated(FilterLabError):
    """essinf d(mu)/d(nu) = 0, so the decay envelope constant is undefined."""


class ConfigError(FilterLabError):
    """An experiment configuration is malformed or internally inconsistent."""
