"""Fractional integrals and derivatives: closed forms, oracles, verification.

The package evaluates Riemann-Liouville (lower limit 0) and Weyl (lower
limit -inf) fractional integrals and derivatives of four function families

* ``t**g``                (power)
* ``exp(l t)``            (exponential)
* ``t**(n-1) log t``      (power-log)
* ``|t|**(-d)``           (two-sided power, Weyl operators)

twice over: once through exact closed-form expressions, and once through
formula-free quadrature of the defining integrals.  The verify module runs
both routes against each other and against classical identities, including
the falsification of the tabulated (incorrect) Weyl power-function
derivative formula.
"""

from .closed_forms import closed_eval
from .errors import (
    ConvergenceError,
    DomainError,
    FracCalcError,
    PoleError,
    SingularParamError,
    StencilError,
    UnknownSuiteError,
)
from .model import (
    AbsPower,
    EvalResult,
    Exp,
    FunctionFamily,
    OperatorKind,
    Power,
    PowerLog,
    QuadConfig,
    parse_family,
)

__version__ = "0.1.0"

__all__ = [
    "AbsPower",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "Exp",
    "FracCalcError",
    "FunctionFamily",
    "Integrand",
    "OperatorKind",
    "PoleError",
    "Power",
    "PowerLog",
    "QuadConfig",
    "SingularParamError",
    "StencilError",
    "UnknownSuiteError",
    "closed_eval",
    "oracle_eval",
    "parse_family",
    "__version__",
]


def __getattr__(name: str):
    # The oracle, and numpy with it, loads on first use of one of its names, so
    # that importing the package (as `python -m fraccalc` does) stays light.
    # The name is then bound here, as an import would bind it: a lookup through
    # this function costs about 2 us (2-vCPU x86 host), and a tool that patches
    # a function in every fraccalc namespace, like perfbench's tracer, finds
    # the binding.
    if name in ("Integrand", "oracle_eval"):
        from . import oracle

        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
