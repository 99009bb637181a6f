"""Shared domain types: function families, operator kinds, results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DomainError

__all__ = [
    "AbsPower",
    "DEFAULT_CONFIG",
    "EvalResult",
    "Exp",
    "FunctionFamily",
    "OperatorKind",
    "Power",
    "PowerLog",
    "QuadConfig",
    "parse_family",
]

# machine epsilon of IEEE double precision, 2**-52
_EPS = 2.220446049250313e-16


class _NumpyOnFirstUse:
    """Stands in for numpy until a family value is first computed, then rebinds np to numpy.

    The family value methods are the only numpy code here, and closed-form
    evaluation never calls them, so it runs without numpy loaded.  Once bound,
    np costs nothing per call, where an import statement in each method would
    cost about 0.15 us per call.
    """

    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


# Each family declares its grammar key (the parameter name in 'family:key=VALUE'),
# its scalar parameter, and its behaviour at the origin: f(t) ~ t**power_at_zero
# near 0, times log t when log_at_zero is set.  The quadrature oracle picks its
# Jacobi weights from the origin declaration.


@dataclass(frozen=True)
class Power:
    """f(t) = t**gamma_exp on t > 0, with gamma_exp > -1 for integrability."""

    gamma_exp: float

    key = "gamma"
    log_at_zero = False

    def __post_init__(self) -> None:
        _check_finite("gamma_exp", self.gamma_exp)
        if self.gamma_exp <= -1.0:
            raise DomainError(f"Power requires gamma_exp > -1, got {self.gamma_exp!r}")

    @property
    def param(self) -> float:
        return self.gamma_exp

    @property
    def power_at_zero(self) -> float:
        return self.gamma_exp

    def value(self, t):
        return np.power(t, self.gamma_exp)


@dataclass(frozen=True)
class Exp:
    """f(t) = exp(lam * t)."""

    lam: float

    key = "lambda"
    power_at_zero = 0.0
    log_at_zero = False

    def __post_init__(self) -> None:
        _check_finite("lam", self.lam)

    @property
    def param(self) -> float:
        return self.lam

    def value(self, t):
        return np.exp(self.lam * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PowerLog:
    """f(t) = t**(nu-1) * log(t) on t > 0, with nu > 0."""

    nu: float

    key = "nu"
    log_at_zero = True

    def __post_init__(self) -> None:
        _check_finite("nu", self.nu)
        if self.nu <= 0.0:
            raise DomainError(f"PowerLog requires nu > 0, got {self.nu!r}")

    @property
    def param(self) -> float:
        return self.nu

    @property
    def power_at_zero(self) -> float:
        return self.nu - 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(t, self.nu - 1.0) * np.log(t)


@dataclass(frozen=True)
class AbsPower:
    """f(t) = |t|**(-delta) on the whole line minus 0, with 0 < delta < 1."""

    delta: float

    key = "delta"
    log_at_zero = False

    def __post_init__(self) -> None:
        _check_finite("delta", self.delta)
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"AbsPower requires delta in (0, 1), got {self.delta!r}")

    @property
    def param(self) -> float:
        return self.delta

    @property
    def power_at_zero(self) -> float:
        return -self.delta

    def value(self, t):
        return np.power(np.abs(t), -self.delta)


FunctionFamily = Union[Power, Exp, PowerLog, AbsPower]

_FAMILY_GRAMMAR = {"power": Power, "exp": Exp, "powerlog": PowerLog, "abspower": AbsPower}


def parse_family(text: str) -> FunctionFamily:
    """Parse 'power:gamma=G | exp:lambda=L | powerlog:nu=N | abspower:delta=D'."""
    name, sep, assignment = text.partition(":")
    if not sep or name not in _FAMILY_GRAMMAR:
        raise DomainError(f"unknown function family {text!r}")
    ctor = _FAMILY_GRAMMAR[name]
    param, sep, raw = assignment.partition("=")
    if not sep or param != ctor.key:
        raise DomainError(f"family {name!r} takes '{ctor.key}=VALUE', got {assignment!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise DomainError(f"family parameter {raw!r} is not a number") from exc
    return ctor(value)


class OperatorKind(str, Enum):
    RL_INTEGRAL = "rl-int"
    RL_DERIVATIVE = "rl-der"
    WEYL_INTEGRAL = "weyl-int"
    WEYL_DERIVATIVE = "weyl-der"

    @property
    def is_derivative(self) -> bool:
        return self in (OperatorKind.RL_DERIVATIVE, OperatorKind.WEYL_DERIVATIVE)

    @property
    def is_weyl(self) -> bool:
        return self in (OperatorKind.WEYL_INTEGRAL, OperatorKind.WEYL_DERIVATIVE)

    def check_pairing(self, family: FunctionFamily) -> None:
        """Weyl kinds apply to the two-sided power family only, the others to the rest."""
        if not isinstance(family, (AbsPower,) if self.is_weyl else (Power, Exp, PowerLog)):
            raise DomainError(
                f"{self.value} pairs with {'abspower' if self.is_weyl else 'power/exp/powerlog'} "
                f"functions, got {type(family).__name__}"
            )


@dataclass(frozen=True)
class EvalResult:
    """A single evaluation: value, producing route, and an absolute error bound."""

    value: float
    method: str  # 'closed-form' | 'oracle'
    abs_err_estimate: float

    def __post_init__(self) -> None:
        if self.method not in ("closed-form", "oracle"):
            raise DomainError(f"unknown method tag {self.method!r}")
        if not math.isfinite(self.abs_err_estimate) or self.abs_err_estimate < 0.0:
            raise DomainError(
                f"abs_err_estimate must be finite and nonnegative, got {self.abs_err_estimate!r}"
            )


@dataclass(frozen=True)
class QuadConfig:
    """Accuracy and budget knobs for every oracle evaluation."""

    target_rel_tol: float = 1e-10
    max_nodes: int = 2048

    def __post_init__(self) -> None:
        if not self.target_rel_tol > 0.0:
            raise DomainError(f"target_rel_tol must be > 0, got {self.target_rel_tol!r}")
        # upper bound, as the field can come from a config file: each doubling
        # of max_nodes doubles the memory and about quadruples the time of the
        # largest Gauss-Jacobi rule
        if not 16 <= self.max_nodes <= 4096:
            raise DomainError(f"max_nodes must be in [16, 4096], got {self.max_nodes!r}")


DEFAULT_CONFIG = QuadConfig()


def _fmt(x: float) -> str:
    """The 17-significant-digit form of every number the CLI and reports print."""
    return f"{x:.17g}"
