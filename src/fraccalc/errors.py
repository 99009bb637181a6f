"""Exception types shared across the package."""


class FracCalcError(Exception):
    """Base class for all package-specific errors.

    An oracle call over a sequence of t that refuses some of its points
    raises the error of the first refused point, with outcomes set to one
    entry per point: its result, or the error that a call at that point
    alone raises.  On every other error outcomes is None.
    """

    outcomes: list | None = None


class DomainError(FracCalcError, ValueError):
    """An argument violates a documented precondition."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of the gamma/digamma family."""


class SingularParamError(DomainError):
    """Parameter combination where a formula degenerates to an undefined 0*inf form."""


class StencilError(DomainError):
    """A finite-difference stencil would leave the domain t > 0."""


class ConvergenceError(FracCalcError, ArithmeticError):
    """An iterative evaluation exhausted its budget without meeting tolerance."""


class UnknownSuiteError(FracCalcError, ValueError):
    """Requested verification suite does not exist."""
