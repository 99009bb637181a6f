"""Shared domain types: function families, operator kinds, results."""

from __future__ import annotations

import math
from enum import Enum

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


def _check_finite(name: str, value: float) -> float:
    """value as a float, refused by name where it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# sets a field of a record once, in its __init__, past _Record.__setattr__
_set = object.__setattr__


class _Record:
    """Base of the package's immutable records.

    A subclass declares its fields once, as __slots__, and the default
    values of its trailing fields, if any, in _defaults; a subclass of a
    record keeps the fields of its bases and adds its own.  A record that
    validates its fields writes its own __init__, which sets each field once
    through _set.  Any other gets one generated, unless a class in its MRO
    writes one (a subclass of a validating record keeps its base's checks):
    written out as source once per class, as a hand-written one would be,
    since a loop over the fields in one shared __init__ took a CheckRecord
    from about 1.1 to 2.4 us on a 2-vCPU x86 host.  Records compare equal
    only to records of the same type with equal fields, hash consistently
    with that, and repr as 'Power(gamma_exp=0.5)'.  The standard library's
    decorator for frozen records does the same, but importing it (with
    inspect, ast and dis) and running it took about 16 ms of a 102 ms
    closed-form eval on that host, and the __init__ it writes costs about a
    fifth more per record.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())
        if cls.__init__ is not object.__init__ and not hasattr(cls.__init__, "_generated"):
            return  # written by a class in the MRO
        fields, defaults = cls._fields, cls._defaults
        if tuple(defaults) != fields[len(fields) - len(defaults) :]:
            raise TypeError(f"{cls.__qualname__}: _defaults must name the trailing fields of {fields}, in order")
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        namespace = {"_set": _set}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = tuple(defaults.values()) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init._generated = True

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


# Each family declares its grammar key (the parameter name in 'family:key=VALUE'),
# its scalar parameter, and its behaviour at the origin: f(t) ~ t**power_at_zero
# near 0, times log t when log_at_zero is set.  The quadrature oracle picks its
# Jacobi weights from the origin declaration.


class Power(_Record):
    """f(t) = t**gamma_exp on t > 0, with gamma_exp > -1 for integrability."""

    __slots__ = ("gamma_exp",)

    key = "gamma"
    log_at_zero = False

    def __init__(self, gamma_exp: float) -> None:
        _check_finite("gamma_exp", gamma_exp)
        if gamma_exp <= -1.0:
            raise DomainError(f"Power requires gamma_exp > -1, got {gamma_exp!r}")
        _set(self, "gamma_exp", gamma_exp)

    @property
    def param(self) -> float:
        return self.gamma_exp

    @property
    def power_at_zero(self) -> float:
        return self.gamma_exp

    def value(self, t):
        return np.power(t, self.gamma_exp)


class Exp(_Record):
    """f(t) = exp(lam * t)."""

    __slots__ = ("lam",)

    key = "lambda"
    power_at_zero = 0.0
    log_at_zero = False

    def __init__(self, lam: float) -> None:
        _check_finite("lam", lam)
        _set(self, "lam", lam)

    @property
    def param(self) -> float:
        return self.lam

    def value(self, t):
        return np.exp(self.lam * np.asarray(t, dtype=float))


class PowerLog(_Record):
    """f(t) = t**(nu-1) * log(t) on t > 0, with nu > 0."""

    __slots__ = ("nu",)

    key = "nu"
    log_at_zero = True

    def __init__(self, nu: float) -> None:
        _check_finite("nu", nu)
        if nu <= 0.0:
            raise DomainError(f"PowerLog requires nu > 0, got {nu!r}")
        _set(self, "nu", nu)

    @property
    def param(self) -> float:
        return self.nu

    @property
    def power_at_zero(self) -> float:
        return self.nu - 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(t, self.nu - 1.0) * np.log(t)


class AbsPower(_Record):
    """f(t) = |t|**(-delta) on the whole line minus 0, with 0 < delta < 1."""

    __slots__ = ("delta",)

    key = "delta"
    log_at_zero = False

    def __init__(self, delta: float) -> None:
        _check_finite("delta", delta)
        if not 0.0 < delta < 1.0:
            raise DomainError(f"AbsPower requires delta in (0, 1), got {delta!r}")
        _set(self, "delta", delta)

    @property
    def param(self) -> float:
        return self.delta

    @property
    def power_at_zero(self) -> float:
        return -self.delta

    def value(self, t):
        return np.power(np.abs(t), -self.delta)


FunctionFamily = Power | Exp | PowerLog | AbsPower

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
        return self in _DERIVATIVE_KINDS

    @property
    def is_weyl(self) -> bool:
        return self in _WEYL_KINDS

    def check_pairing(self, family: FunctionFamily) -> None:
        """Weyl kinds apply to the two-sided power family only, the others to the rest."""
        if type(family) not in (_WEYL_FAMILIES if self in _WEYL_KINDS else _ZERO_LIMIT_FAMILIES):
            raise DomainError(
                f"{self.value} pairs with {'abspower' if self.is_weyl else 'power/exp/powerlog'} "
                f"functions, got {type(family).__name__}"
            )


# sets, not tuples of members read off the class: each such read
# (OperatorKind.RL_DERIVATIVE) takes about 0.14 us, where a whole power
# closed_eval takes 2.4 us.  check_pairing compares exact types, as
# closed_eval's table of shift functions does
_DERIVATIVE_KINDS = frozenset((OperatorKind.RL_DERIVATIVE, OperatorKind.WEYL_DERIVATIVE))
_WEYL_KINDS = frozenset((OperatorKind.WEYL_INTEGRAL, OperatorKind.WEYL_DERIVATIVE))
_WEYL_FAMILIES = frozenset((AbsPower,))
_ZERO_LIMIT_FAMILIES = frozenset((Power, Exp, PowerLog))


class EvalResult(_Record):
    """A single evaluation: value, producing route, and an absolute error bound."""

    __slots__ = ("value", "method", "abs_err_estimate")

    def __init__(self, value: float, method: str, abs_err_estimate: float) -> None:
        # method: 'closed-form' | 'oracle'
        if method not in ("closed-form", "oracle"):
            raise DomainError(f"unknown method tag {method!r}")
        if not math.isfinite(abs_err_estimate) or abs_err_estimate < 0.0:
            raise DomainError(f"abs_err_estimate must be finite and nonnegative, got {abs_err_estimate!r}")
        _set(self, "value", value)
        _set(self, "method", method)
        _set(self, "abs_err_estimate", abs_err_estimate)


# The largest Gauss-Jacobi rule the oracle builds, and the largest max_nodes.
# Rules are dense eigenproblems: O(n**2) memory (0.5 MB at 256 nodes) and
# O(n**3) time (about 8 ms at 256 nodes on one Xeon core).
JACOBI_MAX_NODES = 256


class QuadConfig(_Record):
    """Accuracy and budget knobs for every oracle evaluation: the relative agreement at which a
    ladder row stops, and the largest rule of every ladder (32, 64, 128 or 256 nodes)."""

    __slots__ = ("target_rel_tol", "max_nodes")

    def __init__(self, target_rel_tol: float = 1e-10, max_nodes: int = JACOBI_MAX_NODES) -> None:
        if not target_rel_tol > 0.0:
            raise DomainError(f"target_rel_tol must be > 0, got {target_rel_tol!r}")
        # bounded, as the field can come from a config file: each doubling of
        # max_nodes quadruples the memory and about octuples the time of the
        # largest Gauss-Jacobi rule.  A power of two, as the Jacobi ladder
        # doubles from 16 nodes: any other value stops it below max_nodes.
        # At least 32, as a row stops only on a rung that agrees with the one
        # below: at 16 the Jacobi ladder has one rung and refuses every row.
        if type(max_nodes) is not int or not 32 <= max_nodes <= JACOBI_MAX_NODES or max_nodes & (max_nodes - 1):
            raise DomainError(f"max_nodes must be a power of two in [32, {JACOBI_MAX_NODES}], got {max_nodes!r}")
        _set(self, "target_rel_tol", target_rel_tol)
        _set(self, "max_nodes", max_nodes)


DEFAULT_CONFIG = QuadConfig()


def _fmt(x: float) -> str:
    """The 17-significant-digit form of every number the CLI and reports print."""
    return f"{x:.17g}"


def _csv(columns: tuple[str, ...], rows) -> bytes:
    """The CSV of every command and report: the header, then one line per row.

    Strings go as they are, bools as true/false, and numbers through _fmt.
    """
    lines = [",".join(columns)]
    for row in rows:
        cells = [x if type(x) is str else ("true" if x else "false") if type(x) is bool else _fmt(x) for x in row]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()
