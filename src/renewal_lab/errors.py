"""Exception types shared across the library."""


class RenewalLabError(Exception):
    """Base class for all library errors."""


class IncompatibleGridsError(RenewalLabError):
    """Two grid objects with different step or horizon were combined."""


class NotNormalizedError(RenewalLabError):
    """An operation requiring probability mass 1 received something else."""


class StepTooCoarseError(RenewalLabError):
    """Grid step too large for a stable implicit Volterra solve (diagonal 1 - h k(0) / 2 <= 0)."""


class SingularBlockError(RenewalLabError):
    """LAPACK rejected a triangular block of the Volterra solve (dtrtrs info != 0)."""


class SupportExhaustedError(RenewalLabError):
    """Hazard requested at a point where the survival function is zero."""


class HorizonExceededError(RenewalLabError):
    """A time argument lies outside [0, horizon], the grid or path horizon."""


class NoComponentFoundError(RenewalLabError):
    """No uniform component of usable mass was found in the scanned powers."""


class NegativeComponentError(RenewalLabError):
    """Subtracting a uniform component produced significantly negative mass."""


class NoCommonComponentError(RenewalLabError):
    """No usable common uniform component of the forward recurrence laws."""


class ThinningError(RenewalLabError):
    """Acceptance probability in the Bernoulli thinning step exceeded one."""


class InsufficientPointsError(RenewalLabError):
    """Too few usable points remain for a least-squares slope fit."""


class FiniteSupportError(RenewalLabError):
    """Cycle-maximum law has finite support; the approximation is degenerate."""


class ConfigError(RenewalLabError):
    """Invalid experiment configuration."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
