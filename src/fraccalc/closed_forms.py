"""Closed-form fractional integrals and derivatives of the four families.

Each family has one ``*_shift_eval`` function, of a *signed* order, giving
the value and its rounding bound.  closed_eval, the one closed route, checks
its arguments and takes that function at order alpha, or at -alpha for a
derivative.  Each of the eight named formulas (``rl_integral_power`` ...
``weyl_derivative_abspower``) is closed_eval at a fixed (operator, family)
pair, so a formula and closed_eval give the same value and refuse the same
arguments with the same error.

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
    _HUGE,
    _TINY,
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

def _power(t: float, exponent: float) -> float:
    """t**exponent, or nan where it leaves the normal doubles, which makes the value built on it nan.

    No rounding bound counts the digits that an underflowing power loses
    (all of them, at 0), and an overflowing one raises a bare OverflowError;
    _refuse_off_doubles refuses the nan value by name and t instead.
    """
    try:
        power = t**exponent
    except OverflowError:
        return math.nan
    return power if _TINY <= power <= _HUGE else math.nan


def _refuse_off_doubles(value: float, name: str, t: float) -> float:
    """value, or a DomainError naming name and t where it is nan (see _power) or infinite."""
    if not abs(value) <= _HUGE:
        raise DomainError(f"{name}: the closed form leaves the normal doubles at t={t!r}")
    return value


def _rounding(x: float, y: float, total: float) -> float:
    """|x + y - total| for total = fl(x + y), exactly (Knuth's TwoSum)."""
    y_part = total - x
    return abs((x - (total - y_part)) + (y - y_part))


def _trigamma_bound(z: float) -> float:
    """An upper bound on psi'(z) off the poles: 1/z + 1/z**2 for z > 0, else pi**2/sin(pi z)**2.

    For z < 0 the reflection psi'(z) = pi**2/sin(pi z)**2 - psi'(1-z) drops a
    positive term, worth at most 2 of the at least pi**2 kept.
    """
    if z > 0.0:
        return (1.0 + 1.0 / z) / z
    return (math.pi / sf.sinpi(z)) ** 2


def power_shift_eval(a: float, gamma_exp: float, t: float) -> tuple[float, float]:
    """gamma(1+g)/gamma(1+g+a) * t**(g+a), 0 on denominator poles, and a bound on its rounding error.

    Besides 8 eps of the value and the gamma ratio's error where it is taken
    through logarithms, the bound counts the roundings of the three sums.
    x = 1 + g moves gamma(x) by |psi(x)| times its rounding, relative;
    s = x + a carries that rounding and its own, and moves gamma(s) by
    |psi(s)| times both; g + a moves the power by |log t| times its own.  On
    a pole s = -n the value is 0, and a rounded s leaves 1/gamma(s) within
    twice n! times its roundings of 0.
    """
    x = 1.0 + gamma_exp
    s = x + a
    exponent = gamma_exp + a
    power = _power(t, exponent)
    value = sf.gamma_ratio(x, s) * power
    dx = _rounding(1.0, gamma_exp, x)
    ds = dx + _rounding(x, a, s)
    relative = 8.0 * _EPS + sf.gamma_ratio_error(x, s) + abs(math.log(t)) * _rounding(gamma_exp, a, exponent)
    if dx:
        relative += abs(sf.digamma(x)) * dx
    if ds and sf._is_nonpositive_integer(s):
        return value, 2.0 * abs(power) * math.exp(math.lgamma(x) + math.lgamma(1.0 - s)) * ds
    if ds:
        relative += abs(sf.digamma(s)) * ds
    return value, relative * abs(value)


def exp_shift_eval(a: float, lam: float, t: float) -> tuple[float, float]:
    """t**a * E_{1,1+a}(lam t), and a bound on its rounding error."""
    power = _power(t, a)
    series, bound = sf.mittag_leffler_shifted(a, lam * t)
    value = power * series
    # the power and the product each round once
    return value, abs(power) * bound + _EPS * abs(value)


def powerlog_shift_eval(a: float, nu: float, t: float) -> tuple[float, float]:
    """t**(a+nu-1) * gamma(nu)/gamma(a+nu) * [log t + psi(nu) - psi(a+nu)], and a bound on its rounding error.

    At a+nu in {0, -1, ...} the coefficient vanishes while the digamma term
    blows up; the limit is not resolved here, so that locus is an error, as
    is nu or a+nu below about 5.6e-309, where psi (about -1/z) overflows.

    The bracket log t + psi(nu) - psi(a+nu) can cancel (small alpha, t near
    1), leaving an error of a few ulp of its largest term, not of the result;
    so the bound is taken on |prefactor| times the sum of the terms'
    magnitudes, which equals |value| where the terms share a sign.  It also
    counts the gamma ratio's error where it is taken through logarithms, and
    the rounding of s = a + nu, which moves gamma(s) by |psi(s)| times it,
    relative, and psi(s) by psi'(s) times it, and that of s - 1, which with
    the first moves the power by |log t| times both.
    """
    s = a + nu
    if sf._is_nonpositive_integer(s):
        raise SingularParamError(
            f"power-log formula is a 0*inf form at shifted order a+nu={s!r}"
        )
    exponent = s - 1.0
    prefactor = _power(t, exponent) * sf.gamma_ratio(nu, s)
    log_t, psi_nu, psi_shifted = math.log(t), sf.digamma(nu), sf.digamma(s)
    if not (math.isfinite(psi_nu) and math.isfinite(psi_shifted)):
        raise DomainError(f"power-log formula needs finite digamma at nu={nu!r} and a+nu={s!r}")
    value = prefactor * (log_t + psi_nu - psi_shifted)
    scale = abs(prefactor) * (abs(log_t) + abs(psi_nu) + abs(psi_shifted))
    ds = _rounding(a, nu, s)
    d_exponent = ds + _rounding(s, -1.0, exponent)
    relative = sf.gamma_ratio_error(nu, s) + abs(psi_shifted) * ds + abs(log_t) * d_exponent
    bound = 8.0 * _EPS * scale + relative * abs(value)
    if ds:
        bound += abs(prefactor) * _trigamma_bound(s) * ds
    return value, bound


def weyl_power_shift_eval(a: float, delta: float, t: float) -> tuple[float, float]:
    """gamma(d-a)/gamma(d) * cos(pi d/2 - pi a)/cos(pi d/2) * t**(a-d), and a bound on its rounding error.

    Besides 8 eps of the value (and the gamma ratio's error where it is taken
    through logarithms), the bound counts two rounded arguments.  The
    cosine's argument d/2 - a rounds, and so does cospi's reduction of it
    (below 2 in size); they move the cosine by less than pi ulp(d/2 - a) and
    pi ulp(2), taken on M = |gamma(d-a)/gamma(d) t**(a-d) / cos(pi d/2)|
    and not on the value, which vanishes where the cosine ratio does.  The
    exponent a - d rounds too, and moves the power by |log t| ulp(a - d) of
    the value.
    """
    ratio = sf.gamma_ratio(delta - a, delta)
    exponent = a - delta
    power = _power(t, exponent)
    cos_arg = delta / 2.0 - a
    cos_delta = sf.cospi(delta / 2.0)
    value = ratio * (sf.cospi(cos_arg) / cos_delta) * power
    cos_error = math.pi * (math.ulp(cos_arg) + 2.0 * _EPS) * abs(ratio * power / cos_delta)
    power_error = abs(value * math.log(t)) * math.ulp(exponent)
    return value, (8.0 * _EPS + sf.gamma_ratio_error(delta - a, delta)) * abs(value) + cos_error + power_error


# ---------------------------------------------------------------------------
# fractional integrals

def rl_integral_power(alpha: float, gamma_exp: float, t: float) -> float:
    """Fractional integral of order alpha of t**gamma_exp from 0."""
    return closed_eval(OperatorKind.RL_INTEGRAL, alpha, Power(gamma_exp), t).value


def rl_integral_exp(alpha: float, lam: float, t: float) -> float:
    """Fractional integral of order alpha of exp(lam t) from 0."""
    return closed_eval(OperatorKind.RL_INTEGRAL, alpha, Exp(lam), t).value


def rl_integral_powerlog(alpha: float, nu: float, t: float) -> float:
    """Fractional integral of order alpha of t**(nu-1) log t from 0."""
    return closed_eval(OperatorKind.RL_INTEGRAL, alpha, PowerLog(nu), t).value


def weyl_integral_abspower(alpha: float, delta: float, t: float) -> float:
    """Weyl (lower limit -inf) fractional integral of |t|**(-delta), t > 0.

    Requires 0 < alpha < delta < 1 for the tail of the defining integral to
    converge.
    """
    return closed_eval(OperatorKind.WEYL_INTEGRAL, alpha, AbsPower(delta), t).value


# ---------------------------------------------------------------------------
# fractional derivatives

def rl_derivative_power(alpha: float, gamma_exp: float, t: float) -> float:
    """Fractional derivative of order alpha of t**gamma_exp from 0.

    Equals the integral formula at order -alpha; in particular it is exactly 0
    whenever 1+gamma_exp-alpha is a non-positive integer (e.g. the classical
    half-derivative of 1/sqrt(t)).
    """
    return closed_eval(OperatorKind.RL_DERIVATIVE, alpha, Power(gamma_exp), t).value


def rl_derivative_exp(alpha: float, lam: float, t: float) -> float:
    """Fractional derivative of order alpha of exp(lam t) from 0.

    At a whole order m it is the plain derivative, lam**m * exp(lam t).
    """
    return closed_eval(OperatorKind.RL_DERIVATIVE, alpha, Exp(lam), t).value


def rl_derivative_powerlog(alpha: float, nu: float, t: float) -> float:
    """Fractional derivative of order alpha of t**(nu-1) log t, the plain one at a whole order.

    Raises SingularParamError when nu-alpha is a non-positive integer: there
    the formula degenerates to 0*inf and no limit value is assigned.
    """
    return closed_eval(OperatorKind.RL_DERIVATIVE, alpha, PowerLog(nu), t).value


def weyl_derivative_abspower(alpha: float, delta: float, t: float) -> float:
    """Weyl fractional derivative of |t|**(-delta) for t > 0, corrected form.

    Carries the cosine ratio cos(pi d/2 + pi a)/cos(pi d/2) that the
    literature formula drops; it vanishes exactly on the locus
    delta/2 + alpha in {1/2, 3/2, ...}, and is (-1)**m at a whole order m,
    where the value is the plain derivative.
    """
    return closed_eval(OperatorKind.WEYL_DERIVATIVE, alpha, AbsPower(delta), t).value


def weyl_power_literature(alpha: float, delta: float, t: float) -> float:
    """The (incorrect) tabulated Weyl derivative gamma(d+a)/gamma(d) |t|**(-a-d).

    Kept only as the comparison target of the falsification suite.  It agrees
    with the corrected formula at alpha = 0 and at integer alpha with even
    parity, and is wrong elsewhere.
    """
    t = _require_positive_t(t)
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_power_literature requires delta in (0,1), got {delta!r}")
    try:
        ratio = sf.gamma_ratio(delta + alpha, delta)
    except OverflowError:
        raise DomainError(f"weyl_power_literature: the gamma ratio overflows at t={t!r}") from None
    return _refuse_off_doubles(ratio * _power(t, -alpha - delta), "weyl_power_literature", t)


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
    on poles.  A t where t**(a-n) leaves the normal doubles is refused, as
    closed_eval refuses it.
    """
    t = _require_positive_t(t)
    if n != int(n) or n < 0:
        raise DomainError(f"derivative order must be a nonnegative integer, got {n!r}")
    coeff = 1.0
    for j in range(int(n)):
        coeff *= a_exp - j
    return _refuse_off_doubles(coeff * _power(t, a_exp - n), "nth_derivative_power", t)


def nth_derivative_powerlog(n: int, beta_exp: float, t: float) -> float:
    """d^n/dt^n [t**b log t] = gamma(b+1)/gamma(b-n+1) t**(b-n) [log t + psi(b+1) - psi(b-n+1)].

    This is the power-log shift function at order -n with nu = b + 1, which
    never forms b - n + 1, and which raises SingularParamError where that
    sum is a non-positive integer.  A t where t**(b-n) leaves the normal
    doubles is refused, as closed_eval refuses it.
    """
    t = _require_positive_t(t)
    if n != int(n) or n < 1:
        raise DomainError(f"derivative order must be a positive integer, got {n!r}")
    return _refuse_off_doubles(powerlog_shift_eval(-n, beta_exp + 1.0, t)[0], "nth_derivative_powerlog", t)


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

# Each family's shift function is named, not bound, and looked up in the
# module globals on every call, so that patching one (as the mutation-
# sensitivity checks and call tracers do) changes what closed_eval evaluates.
_SHIFT_EVALS = {
    Power: "power_shift_eval",
    Exp: "exp_shift_eval",
    PowerLog: "powerlog_shift_eval",
    AbsPower: "weyl_power_shift_eval",
}


def closed_eval(kind: OperatorKind, alpha: float, family: FunctionFamily, t: float) -> EvalResult:
    """The closed form of an operator applied to a family member, with an error bound.

    Weyl kinds accept only the AbsPower family (the two-sided power function);
    the lower-limit-zero kinds accept the other three.  alpha must be finite
    and positive, and below delta for the Weyl integral, and t finite and
    positive; an alpha out of that range is refused in the name of the
    operator, the token the CLI's --op takes ('rl-int requires alpha > 0,
    got -1.0').  Then the value and its bound come from one evaluation
    of the family's shift function at order alpha, or -alpha for a
    derivative, whole orders included: at alpha = m it is the plain m-th
    derivative.  A t at which the function's power of t leaves the normal
    doubles is refused by operator token and t ('rl-int: ... at t=1e+150'):
    underflow there loses digits that no bound counts.  So is one where a
    gamma factor of the value or of its bound overflows (at
    powerlog:nu=1e-310, or rl-der at alpha = 180).  An exact zero of the
    coefficient is 0 where the power is normal.  Each bound comes from the
    terms of the value and its rounded arguments (exp_shift_eval's from the
    Mittag-Leffler series, powerlog_shift_eval's from the bracket before it
    cancels, weyl_power_shift_eval's from the cosine ratio before it
    vanishes, and power_shift_eval's from a few ulp of the value).
    """
    if type(kind) is not OperatorKind:
        kind = OperatorKind(kind)
    kind.check_pairing(family)
    # inf and nan pass the range checks below, so a non-finite alpha is refused first, by name
    _check_finite("alpha", alpha)
    t = _require_positive_t(t)
    # the Weyl integral's tail converges only below delta
    if kind is OperatorKind.WEYL_INTEGRAL and not 0.0 < alpha < family.delta:
        raise DomainError(f"{kind.value} requires 0 < alpha < delta, got alpha={alpha!r}, delta={family.delta!r}")
    if alpha <= 0.0:
        raise DomainError(f"{kind.value} requires alpha > 0, got {alpha!r}")
    shift_eval = globals()[_SHIFT_EVALS[type(family)]]
    try:
        value, bound = shift_eval(-alpha if kind.is_derivative else alpha, family.param, t)
    except OverflowError:  # a gamma factor of the value or of its bound leaves the doubles
        raise DomainError(f"{kind.value}: the closed form overflows at t={t!r}") from None
    return EvalResult(value=_refuse_off_doubles(value, kind.value, t), method="closed-form", abs_err_estimate=bound)
