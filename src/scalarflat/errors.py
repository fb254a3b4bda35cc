"""Exception hierarchy for the solver suite."""


class ScalarFlatError(Exception):
    """Base class for all package errors."""


class ChartError(ScalarFlatError):
    """Invalid grid construction or mismatched chart references."""


class MetricError(ScalarFlatError):
    """Metric specification or invariant violation."""


class DecayError(MetricError):
    """Measured asymptotic decay slower than declared.

    Carries the measured rate so callers can report it.
    """

    def __init__(self, message, measured_rate=None):
        super().__init__(message)
        self.measured_rate = measured_rate


class PositivityError(ScalarFlatError):
    """A field required to be positive is not."""


class InvalidNormSpec(ScalarFlatError):
    """Weighted-norm specification outside its admissible range."""


class SolveError(ScalarFlatError):
    """Linear or nonlinear solve failure."""


class NonConvergenceError(SolveError):
    """A solve that stopped short of its target: Newton's step cap was
    reached with the boundary map above rounding, or a linear solve's final
    backward error is above ``elliptic.BACKWARD_ERROR_TOL``.

    ``history`` holds the backward-error (or Newton increment) record up to
    the failure.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class DiscreteIsomorphismError(SolveError):
    """Singular or indefinite discrete system.

    Signals that the zeroth-order coefficient is too negative (a kernel
    crossing) or that the input data is inconsistent.
    """


class BarrierError(ScalarFlatError):
    """Sub/supersolution construction failure."""


class NoSupersolutionError(BarrierError):
    """Boundary datum exceeds the threshold of the explicit barrier family.

    This is not a nonexistence statement: the threshold is sufficient only.
    """

    def __init__(self, message, rho_min=None, f_max=None):
        super().__init__(message)
        self.rho_min = rho_min
        self.f_max = f_max


class ConfigError(ScalarFlatError):
    """Bad job configuration (CLI or config file)."""


class StageError(ScalarFlatError):
    """Pipeline stage failure wrapping the underlying error with a stage tag."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
