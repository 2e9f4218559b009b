"""Exception types shared across the package. An error's class alone decides the CLI exit
code: a ValidationError (invalid input) exits 2, a NumericalFailure (valid input, no result)
exits 3, and any other exception is a bug that surfaces as a traceback. The two failure
classes are disjoint; the message tells one cause from another."""


class ValidationError(ValueError):
    """Invalid model parameters, options or configuration values, or a criterion invoked outside
    its hypotheses (e.g. nonpositive cubic coefficients, or a competition strength outside (0, epsilon))."""
    exit_code = 2


class NumericalFailure(RuntimeError):
    """The input is valid, but the computation has no result or cannot finish: no diffusion or no
    wave train, a time step that underflowed or a state that went non-finite, a kernel too slow
    to truncate, or a quantity that leaves the float range."""
    exit_code = 3


class CFLWarning(UserWarning):
    """Time step was clamped down to the diffusion stability bound."""
