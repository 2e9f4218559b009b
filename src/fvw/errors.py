"""Exception types shared across the package. An error's class alone decides the CLI exit
code: a ValidationError (invalid input) exits 2, a NumericalFailure (valid input, no result)
exits 3, and any other exception is a bug that surfaces as a traceback."""


class ValidationError(ValueError):
    """Invalid model parameters, options or configuration values."""
    exit_code = 2


class NumericalFailure(RuntimeError):
    """The input is valid, but the computation has no result or cannot finish."""
    exit_code = 3


class HypothesisViolated(ValidationError):
    """A criterion was invoked outside its hypotheses (e.g. nonpositive cubic coefficients)."""


class DegenerateDiffusion(NumericalFailure, ValueError):
    """Operation requires at least one positive diffusion coefficient."""


class NoWaveTrain(NumericalFailure):
    """No wave train exists: the stability discriminant is nonnegative."""


class VarsigmaOutOfRange(ValidationError):
    """Competition strength varsigma must lie strictly between 0 and epsilon."""


class StepFailure(NumericalFailure):
    """Time stepping failed: the adaptive step size underflowed, or an RK4 (ODE or PDE) state went non-finite."""


class SlowDecay(NumericalFailure):
    """Kernel does not decay fast enough to truncate its moment integrals."""


class CFLWarning(UserWarning):
    """Time step was clamped down to the diffusion stability bound."""
