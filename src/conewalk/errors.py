"""Exception types shared across the package."""


class NumericalFailureError(RuntimeError):
    """A kernel met numbers it cannot work with: non-finite input to
    :func:`cone_linalg.psd_factor` or to the eigensolver of a config-time
    matrix, a Haar-block Cholesky pivot that is not finite and positive,
    or a walk accumulation that overflowed.

    Carries the offending array (when available) in ``payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class ConeViolationError(NumericalFailureError):
    """A matrix that should lie in the PSD cone has an eigenvalue or a
    Cholesky pivot below the clamping tolerance.  This signals an
    implementation bug in the caller, not a recoverable state."""


class UnsupportedFieldError(ValueError):
    """Operation is not implemented for the requested base field."""


class DegenerateDataError(ValueError):
    """Sample batch is degenerate (e.g. singular empirical covariance)."""


class ConfigError(ValueError):
    """Experiment configuration failed validation.  ``field`` names the
    offending entry and ``message`` says what is wrong with it."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
        self.message = message
