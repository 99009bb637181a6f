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

from .closed_forms import closed_eval, closed_value
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
    parse_family,
)
from .oracle import Integrand, QuadConfig, oracle_eval

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
    "closed_value",
    "oracle_eval",
    "parse_family",
    "__version__",
]
