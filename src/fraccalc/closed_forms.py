"""Closed-form fractional integrals and derivatives of the four families.

Each public function evaluates one exact formula.  The internal ``*_shift``
helpers take a *signed* order so that every derivative formula is literally
its integral counterpart evaluated at the negated order; the verification
suite leans on that symmetry.

``weyl_power_literature`` reproduces a formula that circulates in tables but
is wrong (it omits the cosine ratio); it exists so that the quadrature oracle
can quantify the discrepancy, and must never be used for actual evaluation.
"""

from __future__ import annotations

import math

from . import specfun as sf
from .errors import DomainError, SingularParamError
from .model import (
    _EPS,
    _check_finite,
    AbsPower,
    EvalResult,
    Exp,
    FunctionFamily,
    OperatorKind,
    Power,
    PowerLog,
)

__all__ = [
    "closed_eval",
    "closed_value",
    "digamma_sum_identity_residual",
    "tail_power_integral",
    "log_beta_integral",
    "nth_derivative_power",
    "nth_derivative_powerlog",
    "rl_derivative_exp",
    "rl_derivative_power",
    "rl_derivative_powerlog",
    "rl_integral_exp",
    "rl_integral_power",
    "rl_integral_powerlog",
    "weyl_derivative_abspower",
    "weyl_integral_abspower",
    "weyl_power_literature",
]

def _require_positive_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"evaluation point must satisfy t > 0, got {t!r}")
    return t


# ---------------------------------------------------------------------------
# signed-order expressions (order a may be negative; derivatives use a = -alpha)

def power_shift_expr(a: float, gamma_exp: float, t: float) -> float:
    """gamma(1+g)/gamma(1+g+a) * t**(g+a); 0 on denominator poles."""
    return sf.gamma_ratio(1.0 + gamma_exp, 1.0 + gamma_exp + a) * t ** (gamma_exp + a)


def exp_shift_expr(a: float, lam: float, t: float) -> float:
    """t**a * E_{1,1+a}(lam t)."""
    return t**a * sf.mittag_leffler(1.0, 1.0 + a, lam * t)


def powerlog_shift_expr(a: float, nu: float, t: float) -> float:
    """t**(a+nu-1) * gamma(nu)/gamma(a+nu) * [log t + psi(nu) - psi(a+nu)].

    At a+nu in {0, -1, ...} the coefficient vanishes while the digamma term
    blows up; the limit is not resolved here, so that locus is an error.
    """
    if sf._is_nonpositive_integer(a + nu):
        raise SingularParamError(
            f"power-log formula is a 0*inf form at shifted order a+nu={a + nu!r}"
        )
    coeff = sf.gamma_ratio(nu, a + nu)
    bracket = math.log(t) + sf.digamma(nu) - sf.digamma(a + nu)
    return t ** (a + nu - 1.0) * coeff * bracket


def weyl_power_shift_expr(a: float, delta: float, t: float) -> float:
    """gamma(d-a)/gamma(d) * cos(pi d/2 - pi a)/cos(pi d/2) * t**(a-d)."""
    cos_ratio = sf.cospi(delta / 2.0 - a) / sf.cospi(delta / 2.0)
    return sf.gamma_ratio(delta - a, delta) * cos_ratio * t ** (a - delta)


# ---------------------------------------------------------------------------
# fractional integrals

def rl_integral_power(alpha: float, gamma_exp: float, t: float) -> float:
    """Fractional integral of order alpha of t**gamma_exp from 0."""
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_integral_power requires alpha > 0, got {alpha!r}")
    if gamma_exp <= -1.0:
        raise DomainError(f"rl_integral_power requires gamma_exp > -1, got {gamma_exp!r}")
    return power_shift_expr(alpha, gamma_exp, t)


def rl_integral_exp(alpha: float, lam: float, t: float) -> float:
    """Fractional integral of order alpha of exp(lam t) from 0."""
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_integral_exp requires alpha > 0, got {alpha!r}")
    return exp_shift_expr(alpha, lam, t)


def rl_integral_powerlog(alpha: float, nu: float, t: float) -> float:
    """Fractional integral of order alpha of t**(nu-1) log t from 0."""
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_integral_powerlog requires alpha > 0, got {alpha!r}")
    if nu <= 0.0:
        raise DomainError(f"rl_integral_powerlog requires nu > 0, got {nu!r}")
    return powerlog_shift_expr(alpha, nu, t)


def weyl_integral_abspower(alpha: float, delta: float, t: float) -> float:
    """Weyl (lower limit -inf) fractional integral of |t|**(-delta), t > 0.

    Requires 0 < alpha < delta < 1 for the tail of the defining integral to
    converge.
    """
    t = _require_positive_t(t)
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_integral_abspower requires delta in (0,1), got {delta!r}")
    if not 0.0 < alpha < delta:
        raise DomainError(
            f"weyl_integral_abspower requires 0 < alpha < delta, got alpha={alpha!r}, delta={delta!r}"
        )
    return weyl_power_shift_expr(alpha, delta, t)


# ---------------------------------------------------------------------------
# fractional derivatives

def rl_derivative_power(alpha: float, gamma_exp: float, t: float) -> float:
    """Fractional derivative of order alpha of t**gamma_exp from 0.

    Equals the integral formula at order -alpha; in particular it is exactly 0
    whenever 1+gamma_exp-alpha is a non-positive integer (e.g. the classical
    half-derivative of 1/sqrt(t)).
    """
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_derivative_power requires alpha > 0, got {alpha!r}")
    if gamma_exp <= -1.0:
        raise DomainError(f"rl_derivative_power requires gamma_exp > -1, got {gamma_exp!r}")
    return power_shift_expr(-alpha, gamma_exp, t)


def rl_derivative_exp(alpha: float, lam: float, t: float) -> float:
    """Fractional derivative of order alpha (non-integer) of exp(lam t) from 0.

    Integer orders are plain differentiation, lam**m * exp(lam t); dispatch
    happens in closed_value, not here.
    """
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_derivative_exp requires alpha > 0, got {alpha!r}")
    if alpha == math.floor(alpha):
        raise DomainError(f"rl_derivative_exp requires non-integer alpha, got {alpha!r}")
    return exp_shift_expr(-alpha, lam, t)


def rl_derivative_powerlog(alpha: float, nu: float, t: float) -> float:
    """Fractional derivative of order alpha (non-integer) of t**(nu-1) log t.

    Raises SingularParamError when nu-alpha is a non-positive integer: there
    the formula degenerates to 0*inf and no limit value is assigned.
    """
    t = _require_positive_t(t)
    if alpha <= 0.0:
        raise DomainError(f"rl_derivative_powerlog requires alpha > 0, got {alpha!r}")
    if alpha == math.floor(alpha):
        raise DomainError(f"rl_derivative_powerlog requires non-integer alpha, got {alpha!r}")
    if nu <= 0.0:
        raise DomainError(f"rl_derivative_powerlog requires nu > 0, got {nu!r}")
    return powerlog_shift_expr(-alpha, nu, t)


def weyl_derivative_abspower(alpha: float, delta: float, t: float) -> float:
    """Weyl fractional derivative of |t|**(-delta) for t > 0, corrected form.

    Carries the cosine ratio cos(pi d/2 + pi a)/cos(pi d/2) that the
    literature formula drops; it vanishes exactly on the locus
    delta/2 + alpha in {1/2, 3/2, ...}.
    """
    t = _require_positive_t(t)
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_derivative_abspower requires delta in (0,1), got {delta!r}")
    if alpha <= 0.0:
        raise DomainError(f"weyl_derivative_abspower requires alpha > 0, got {alpha!r}")
    if alpha == math.floor(alpha):
        raise DomainError(f"weyl_derivative_abspower requires non-integer alpha, got {alpha!r}")
    return weyl_power_shift_expr(-alpha, delta, t)


def weyl_power_literature(alpha: float, delta: float, t: float) -> float:
    """The (incorrect) tabulated Weyl derivative gamma(d+a)/gamma(d) |t|**(-a-d).

    Kept only as the comparison target of the falsification suite.  It agrees
    with the corrected formula at alpha = 0 and at integer alpha with even
    parity, and is wrong elsewhere.
    """
    t = _require_positive_t(t)
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_power_literature requires delta in (0,1), got {delta!r}")
    return sf.gamma_ratio(delta + alpha, delta) * t ** (-alpha - delta)


# ---------------------------------------------------------------------------
# auxiliary closed forms

def tail_power_integral(a_exp: float, beta_exp: float, t: float) -> float:
    """Closed value of the tail integral of (t+u)**a_exp * u**beta_exp over (0, inf).

    Requires a_exp < -beta_exp - 1 < 0, i.e. beta_exp > -1 for integrability
    at 0 and a_exp + beta_exp + 1 < 0 for integrability at infinity.
    """
    t = _require_positive_t(t)
    if not a_exp < -beta_exp - 1.0 < 0.0:
        raise DomainError(
            f"tail_power_integral requires a_exp < -beta_exp-1 < 0, got a_exp={a_exp!r}, beta_exp={beta_exp!r}"
        )
    log_coeff = (
        math.lgamma(-1.0 - a_exp - beta_exp)
        + math.lgamma(beta_exp + 1.0)
        - math.lgamma(-a_exp)
    )
    return t ** (a_exp + beta_exp + 1.0) * math.exp(log_coeff)


def log_beta_integral(a: float, b: float) -> float:
    """Integral of t**(a-1) (1-t)**(b-1) log t over (0,1)  =  B(a,b) [psi(a) - psi(a+b)]."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"log_beta_integral requires a, b > 0, got a={a!r}, b={b!r}")
    return sf.beta(a, b) * (sf.digamma(a) - sf.digamma(a + b))


def nth_derivative_power(n: int, a_exp: float, t: float) -> float:
    """d^n/dt^n t**a_exp = a(a-1)...(a-n+1) t**(a-n).

    The falling-factorial product keeps the coefficient exact for every real
    a_exp, including the integer cases where the equivalent gamma ratio sits
    on poles.
    """
    t = _require_positive_t(t)
    if n != int(n) or n < 0:
        raise DomainError(f"derivative order must be a nonnegative integer, got {n!r}")
    coeff = 1.0
    for j in range(int(n)):
        coeff *= a_exp - j
    return coeff * t ** (a_exp - n)


def nth_derivative_powerlog(n: int, beta_exp: float, t: float) -> float:
    """d^n/dt^n [t**b log t] = gamma(b+1)/gamma(b-n+1) t**(b-n) [log t + psi(b+1) - psi(b-n+1)]."""
    t = _require_positive_t(t)
    if n != int(n) or n < 1:
        raise DomainError(f"derivative order must be a positive integer, got {n!r}")
    shifted = beta_exp - n + 1.0
    if sf._is_nonpositive_integer(shifted):
        raise SingularParamError(
            f"nth_derivative_powerlog is a 0*inf form at beta_exp-n+1={shifted!r}"
        )
    coeff = sf.gamma_ratio(beta_exp + 1.0, shifted)
    bracket = math.log(t) + sf.digamma(beta_exp + 1.0) - sf.digamma(shifted)
    return coeff * t ** (beta_exp - n) * bracket


def digamma_sum_identity_residual(n: int, beta_exp: float) -> float:
    """LHS - RHS of the finite alternating sum against its digamma closed form.

    LHS = sum_{k=1..n} (-1)^(k-1) / (k (n-k)! gamma(b-n+k+1)) by direct
    summation; RHS = [psi(b+1) - psi(b-n+1)] / (n! gamma(b-n+1)).  A correct
    implementation leaves a residual at roundoff level.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"sum length must be a positive integer, got {n!r}")
    shifted = beta_exp - n + 1.0
    if sf._is_nonpositive_integer(shifted):
        raise SingularParamError(
            f"digamma sum identity undefined at beta_exp-n+1={shifted!r}"
        )
    lhs = 0.0
    for k in range(1, int(n) + 1):
        sign = 1.0 if (k - 1) % 2 == 0 else -1.0
        lhs += sign * sf.reciprocal_gamma(beta_exp - n + k + 1.0) / (k * math.factorial(n - k))
    rhs = (
        (sf.digamma(beta_exp + 1.0) - sf.digamma(shifted))
        * sf.reciprocal_gamma(shifted)
        / math.factorial(int(n))
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# dispatch over (operator, family)

# Formulas are named, not bound, and looked up in the module globals on every
# call, so that patching one formula (as the mutation-sensitivity checks and
# call tracers do) changes what closed_value evaluates.
_FORMULAS = {
    (OperatorKind.RL_INTEGRAL, Power): "rl_integral_power",
    (OperatorKind.RL_INTEGRAL, Exp): "rl_integral_exp",
    (OperatorKind.RL_INTEGRAL, PowerLog): "rl_integral_powerlog",
    (OperatorKind.RL_DERIVATIVE, Power): "rl_derivative_power",
    (OperatorKind.RL_DERIVATIVE, Exp): "rl_derivative_exp",
    (OperatorKind.RL_DERIVATIVE, PowerLog): "rl_derivative_powerlog",
    (OperatorKind.WEYL_INTEGRAL, AbsPower): "weyl_integral_abspower",
    (OperatorKind.WEYL_DERIVATIVE, AbsPower): "weyl_derivative_abspower",
}

# whole-number derivative orders fall back to the plain m-th derivative
_PLAIN_DERIVATIVES = {
    Power: lambda m, f, t: nth_derivative_power(m, f.gamma_exp, t),
    Exp: lambda m, f, t: f.lam**m * math.exp(f.lam * _require_positive_t(t)),
    PowerLog: lambda m, f, t: nth_derivative_powerlog(m, f.nu - 1.0, t),
    AbsPower: lambda m, f, t: nth_derivative_power(m, -f.delta, t),
}


def closed_value(kind: OperatorKind, alpha: float, family: FunctionFamily, t: float) -> float:
    """Evaluate the closed form for an operator applied to a family member.

    Weyl kinds accept only the AbsPower family (the two-sided power function);
    the lower-limit-zero kinds accept the other three.
    """
    kind = OperatorKind(kind)
    kind.check_pairing(family)
    # before the whole-order test: math.floor raises on nan and inf
    _check_finite("alpha", alpha)
    if kind.is_derivative and alpha > 0.0 and alpha == math.floor(alpha):
        return _PLAIN_DERIVATIVES[type(family)](int(alpha), family, t)
    return globals()[_FORMULAS[kind, type(family)]](alpha, family.param, t)


def closed_eval(kind: OperatorKind, alpha: float, family: FunctionFamily, t: float) -> EvalResult:
    """closed_value wrapped with a few-ulp error bound."""
    value = closed_value(kind, alpha, family, t)
    return EvalResult(value=value, method="closed-form", abs_err_estimate=8.0 * _EPS * abs(value))
