"""Error-controlled scalar special functions.

Everything downstream (closed-form coefficients, quadrature prefactors,
verification identities) reduces to the gamma family evaluated on the real
line, plus the Mittag-Leffler function E_{1,1+a}.  All functions here are
pure and thread-safe.

Conventions adopted throughout:

* gamma at negative non-integer arguments is the reflection continuation
  ``gamma(z) = pi / (sin(pi z) * gamma(1 - z))``;
* a reciprocal gamma ``1/gamma(z)`` at a non-positive integer is exactly 0,
  which is how several derivative formulas acquire their zero coefficients.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, PoleError
from .model import _EPS, _check_finite

__all__ = [
    "INCGAMMA_MAX_TERMS",
    "ML_Z_MAX",
    "beta",
    "cospi",
    "digamma",
    "gamma",
    "gamma_ratio",
    "gamma_ratio_error",
    "lower_incomplete_gamma",
    "mittag_leffler_shifted",
    "pochhammer",
    "reciprocal_gamma",
    "sinpi",
]

# The Mittag-Leffler series and its rounding bound grow with |z| (130 terms
# at the cap); beyond this cap the caller gets a DomainError instead of a
# value with a wide bound.
ML_Z_MAX = 50.0

# Terms of the incomplete-gamma series or continued fraction; both need about
# sqrt(alpha) near z = alpha, so the cap is reached only past alpha ~ 10**4,
# where gamma(alpha) has long left double range.
INCGAMMA_MAX_TERMS = 1000


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (exact zeros at integers)."""
    x = _check_finite("x", x)
    r = math.fmod(x, 2.0)
    if r < 0.0:
        r += 2.0
    sign = 1.0
    if r >= 1.0:
        sign = -1.0
        r -= 1.0
    # fold [0,1) onto [0,1/2]; 1-r is exact for r in [1/2,1)
    if r > 0.5:
        r = 1.0 - r
    return sign * math.sin(math.pi * r)


def cospi(x: float) -> float:
    """cos(pi*x) with exact argument reduction (exact zeros at half-integers)."""
    x = _check_finite("x", x)
    r = math.fmod(abs(x), 2.0)
    return sinpi(0.5 - r)


def gamma(z: float) -> float:
    """Gamma function on the reals, continued by reflection for z < 0.

    Raises PoleError at 0, -1, -2, ... and OverflowError once the result
    exceeds double range (z > ~171.6).
    """
    z = _check_finite("z", z)
    try:
        return math.gamma(z)
    except ValueError as exc:
        raise PoleError(f"gamma pole at z={z!r}") from exc


def reciprocal_gamma(z: float) -> float:
    """1/gamma(z); exactly 0 at the poles z = 0, -1, -2, ... and for huge z."""
    z = _check_finite("z", z)
    if _is_nonpositive_integer(z):
        return 0.0
    try:
        return 1.0 / math.gamma(z)
    except OverflowError:
        return 0.0


def _signed_log_gamma(z: float) -> tuple[float, float]:
    """(sign, log|gamma(z)|) for non-pole z; sign from the pole lattice parity."""
    if z > 0.0:
        return 1.0, math.lgamma(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z={z!r}")
    sign = 1.0 if math.floor(z) % 2 == 0 else -1.0
    return sign, math.lgamma(z)


def gamma_ratio(p: float, q: float) -> float:
    """gamma(p)/gamma(q), stable for large and subnormal arguments and across poles.

    Returns exactly 0 when q sits on a gamma pole while p does not (the
    analytic limit of the ratio).  A pole in the numerator alone raises
    PoleError; a pole in both is genuinely undefined here and also raises.
    """
    p = _check_finite("p", p)
    q = _check_finite("q", q)
    p_pole = _is_nonpositive_integer(p)
    q_pole = _is_nonpositive_integer(q)
    if q_pole and not p_pole:
        return 0.0
    if p_pole:
        raise PoleError(f"gamma_ratio has a numerator pole at p={p!r}")
    if _gamma_in_range(p) and _gamma_in_range(q):
        return math.gamma(p) / math.gamma(q)
    sp, lp = _signed_log_gamma(p)
    sq, lq = _signed_log_gamma(q)
    return sp * sq * math.exp(lp - lq)


def _gamma_in_range(x: float) -> bool:
    """Whether gamma_ratio takes math.gamma(x) directly: gamma(x) leaves the doubles below 5.6e-309 and past 171.6."""
    return 1e-307 < x < 170.0


def gamma_ratio_error(p: float, q: float) -> float:
    """A bound on gamma_ratio(p, q)'s relative error beyond the few ulp of two direct gamma values.

    Off the direct path the ratio is exp(lgamma(p) - lgamma(q)), which turns
    the logarithms' absolute errors into relative ones: up to 8 eps
    max(1, |lgamma|) each (at most 7.2 against 40-digit mpmath over
    arguments in (-3.5, 400) and subnormal ones), and the rounding of their
    difference.  0 where the ratio is exactly 0 or taken directly.
    """
    if (_gamma_in_range(p) and _gamma_in_range(q)) or _is_nonpositive_integer(q):
        return 0.0
    lp, lq = math.lgamma(p), math.lgamma(q)
    return _EPS * (8.0 * (max(1.0, abs(lp)) + max(1.0, abs(lq))) + abs(lp - lq))


# psi's positive zero x0, split as _PSI_ZERO + _PSI_ZERO_LO, and the Taylor
# coefficients psi^(k)(x0)/k! = (-1)**(k+1) zeta(k+1, x0), k = 1..26, highest
# first (DLMF 5.4(iii) and 5.15.1; from 50-digit mpmath).  Within
# _PSI_ZERO_RADIUS of x0 the series holds 2 ulp of psi, where the recurrence
# below loses a few ulp of log z ~ 2.5, up to 1e4 ulp of psi next to x0; the
# first omitted term is under 5e-17 of psi there.
_PSI_ZERO = 1.4616321449683622
_PSI_ZERO_LO = 9.549995429965697e-17
_PSI_ZERO_RADIUS = 0.35
_PSI_ZERO_TAYLOR = (
    0.9676722454476212, -0.4427631689835921, 0.258499760955651,
    -0.16394270544240652, 0.10782405069126237, -0.07219956125645471,
    0.04880428816414311, -0.03316112647484736, 0.022597648232218104,
    -0.01542476590494896, 0.010538791616612175, -0.007204534386356869,
    0.004926781395729853, -0.003369801655439328, 0.002305126326734928,
    -0.0015769367714301972, 0.0010788252019162967, -0.0007380709389960052,
    0.000504953265834602, -0.0003454680251063077, 0.00023635601564027053,
    -0.00016170622091974803, 0.0001106337276874741, -7.569179582195066e-05,
    5.178575795222081e-05, -3.5430070947659604e-05,
)[::-1]


def digamma(z: float) -> float:
    """Digamma psi(z): a Taylor series near its positive zero, else upward recurrence.

    Within _PSI_ZERO_RADIUS of the zero x0 = 1.46163... the series about x0
    gives 2 ulp of psi.  Elsewhere psi(z+1) = psi(z) + 1/z lifts the
    argument to z >= 12, where the log-series with Bernoulli coefficients
    through 1/z^12 is accurate to well under 1e-15 absolute.  Valid for all
    real z off the poles 0, -1, -2, ...
    """
    z = _check_finite("z", z)
    h = z - _PSI_ZERO  # exact near x0
    if -_PSI_ZERO_RADIUS <= h <= _PSI_ZERO_RADIUS:
        h -= _PSI_ZERO_LO
        total = 0.0
        for coeff in _PSI_ZERO_TAYLOR:
            total = total * h + coeff
        return total * h
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z={z!r}")
    acc = 0.0
    while z < 12.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = w * (
        1.0 / 12.0
        - w * (1.0 / 120.0 - w * (1.0 / 252.0 - w * (1.0 / 240.0 - w * (1.0 / 132.0 - w * 691.0 / 32760.0))))
    )
    return acc + math.log(z) - 0.5 / z - tail


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x+1) ... (x+n-1) as a direct product; (x)_0 = 1.

    The product form stays exact at negative and zero x, where the
    gamma-ratio form would hit poles.
    """
    x = _check_finite("x", x)
    if n != int(n) or n < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n!r}")
    out = 1.0
    for k in range(int(n)):
        out *= x + k
    return out


def beta(a: float, b: float) -> float:
    """Euler beta B(a, b) = gamma(a) gamma(b) / gamma(a+b) for a, b > 0."""
    a = _check_finite("a", a)
    b = _check_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta requires a > 0 and b > 0, got a={a!r}, b={b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _power_times_exp(a: float, z: float, factor: float) -> float:
    """z**a * exp(-z) * factor for z, factor > 0, to a few ulps, without an intermediate overflow.

    Splits into 2**j equal factors that each stay in range; a power of two
    divides a and z exactly.  Raises OverflowError when the result does not fit.
    """
    m = 1
    while abs(a * math.log(z)) > 700.0 * m or z > 700.0 * m:
        m *= 2
    return (z ** (a / m) * math.exp(-z / m) * factor ** (1.0 / m)) ** m


def lower_incomplete_gamma(alpha: float, z: float) -> float:
    """Lower incomplete gamma integral of t^(alpha-1) e^(-t) over (0, z).

    For z < alpha + 1 the series z**alpha e**-z sum_k z**k / (alpha (alpha+1)
    ... (alpha+k)) (DLMF 8.7.1); otherwise gamma(alpha) minus the upper
    function, from Legendre's continued fraction
    z**alpha e**-z / (z+1-alpha - 1(1-alpha)/(z+3-alpha - 2(2-alpha)/(...)))
    by the modified Lentz method.  Raises ConvergenceError when
    INCGAMMA_MAX_TERMS terms do not settle either, and OverflowError when the
    value exceeds double range.
    """
    alpha = _check_finite("alpha", alpha)
    z = _check_finite("z", z)
    if alpha <= 0.0:
        raise DomainError(f"lower_incomplete_gamma requires alpha > 0, got {alpha!r}")
    if z < 0.0:
        raise DomainError(f"lower_incomplete_gamma requires z >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    if z < alpha + 1.0:
        term = total = 1.0 / alpha
        for k in range(1, INCGAMMA_MAX_TERMS):
            term *= z / (alpha + k)
            total += term
            if term <= 0.5 * _EPS * total:
                return _power_times_exp(alpha, z, total)
        raise _incgamma_unsettled(alpha, z)
    tiny = 1e-300
    b = z + 1.0 - alpha
    c = 1.0 / tiny
    d = 1.0 / b
    fraction = d
    for k in range(1, INCGAMMA_MAX_TERMS):
        an = -k * (k - alpha)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        ratio = c * d
        fraction *= ratio
        if abs(ratio - 1.0) <= _EPS:
            break
    else:
        raise _incgamma_unsettled(alpha, z)
    if alpha < 170.0:
        return math.gamma(alpha) - _power_times_exp(alpha, z, fraction)
    # gamma(alpha) = gamma(alpha - 3) (alpha-1)(alpha-2)(alpha-3), whose first
    # factor stays in range up to alpha = 174.6; the value is at least
    # gamma(alpha)/2, past double range from alpha = 172 on
    base = math.gamma(alpha - 3.0)
    rising = (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0)
    value = base * (rising - _power_times_exp(alpha, z, fraction / base))
    if math.isinf(value):
        raise OverflowError(f"lower_incomplete_gamma({alpha!r}, {z!r}) exceeds double range")
    return value


def _incgamma_unsettled(alpha: float, z: float) -> ConvergenceError:
    return ConvergenceError(
        f"lower_incomplete_gamma did not settle within {INCGAMMA_MAX_TERMS} terms "
        f"(alpha={alpha!r}, z={z!r})"
    )


def mittag_leffler_shifted(a: float, z: float) -> tuple[float, float]:
    """E_{1,1+a}(z) and a bound on its rounding error, from one pass over the terms.

    The order is given as its shift a from 1, so that the factors a + k are
    exact where 1 + a would round (small alpha in the closed forms, which pass
    a = alpha or -alpha).  One gamma call, then term ratios:

    * z >= 0: the defining series, (1/gamma(1+a)) sum z**k / ((1+a)(2+a)...(k+a));
    * z < 0: Kummer's transformation (DLMF 13.2.39),
      E_{1,1+a}(z) = e**z (1 + a sum_{k>=1} (-z)**k / (k! (a + k))) / gamma(1 + a),
      whose sum holds no cancelling terms for a > 0;
    * a a negative integer: 1/gamma(1 + a + k) vanishes for k < -a, and
      E_{1,1+a}(z) = z**-a e**z, its bound counting where z**-a underflows.

    In either series only the terms with a + k < 0 (two at most for a > -3)
    take the other sign, so the direct sum of the defining series, which
    loses 1e-4 of the value at z = -20, is never formed.  The bound covers, per
    term, the roundings of its K factors and K ulp from the rounding of z
    itself (K the number of terms), the K additions, and gamma's few ulp with
    the rounding of 1 + a; it is taken on the sum of the terms' magnitudes, so
    it stays honest where the leading terms cancel.  For |z| <= ML_Z_MAX it
    is at most about 5K + |z| + 20 ulp of that magnitude, K <= 130.  Raises
    DomainError for a non-finite a or z, |1 + a| > 170 or |z| > ML_Z_MAX, and
    ConvergenceError when the terms leave double range.
    """
    a = _check_finite("a", a)
    z = _check_finite("z", z)
    if abs(1.0 + a) > 170.0:
        raise DomainError(f"mittag_leffler_shifted requires |1 + a| <= 170, got {1.0 + a!r}")
    if abs(z) > ML_Z_MAX:
        raise DomainError(f"mittag_leffler_shifted requires |z| <= {ML_Z_MAX}, got z={z!r}")
    u = 0.5 * _EPS  # unit roundoff
    x = abs(z)
    if a < 0.0 and a == math.floor(a):
        growth = math.exp(z)
        value = z**-a * growth
        # where below the normal doubles, the power and the product are good to 2**-1074 and 2**-1075, not relative
        bound = (x - a + 3.0) * u * abs(value) + math.ldexp(growth + 2.0, -1074)
    else:
        # the terms k = 1..lead have a + k < 0; later ratios are all positive
        lead = 0 if a >= 0.0 else math.ceil(-a) - 1
        b = 1.0 + a
        rg = 1.0 / math.gamma(b)
        # gamma is good to 4 ulp, and a rounded 1 + a moves it by up to |b psi(b)| ulp
        gamma_units = 10.0 + abs(b) * math.log1p(abs(b))
        if z >= 0.0:
            term = total = magnitude = 1.0
            for k in range(1, lead + 1):
                term *= z / (a + k)
                total += term
                magnitude += abs(term)
            k = lead
            size, rest = abs(term), 0.0
            while True:
                k += 1
                size *= z / (a + k)
                rest += size
                if size <= u * rest:
                    break
            total += math.copysign(rest, term)
            magnitude += rest
            # term k: 3k roundings and k ulp from the rounding of z; k additions
            value = total * rg
            bound = (5.0 * k + 2.0) * u * magnitude * abs(rg) + (gamma_units + 1.0) * u * abs(value)
        else:
            power, tail, magnitude = 1.0, 0.0, 0.0
            for k in range(1, lead + 1):
                power *= x / k
                term = power / (a + k)
                tail += term
                magnitude -= term
            k = lead
            rest = 0.0
            while True:
                k += 1
                power *= x / k
                term = power / (a + k)
                rest += term
                if term <= u * rest:
                    break
            tail += rest
            magnitude += rest
            summed = 1.0 + a * tail
            scale = math.exp(z) * rg
            value = summed * scale
            # term k: 2k + 2 roundings and k ulp from the rounding of z; k additions;
            # e**z moves by |z| ulp with the rounding of z
            sum_bound = abs(a) * (4.0 * k + 2.0) * u * magnitude + u * (abs(a * tail) + abs(summed))
            bound = abs(scale) * sum_bound + (x + gamma_units + 3.0) * u * abs(value)
    if not math.isfinite(bound):
        raise ConvergenceError(
            f"mittag_leffler_shifted series terms exceed double range before converging (a={a!r}, z={z!r})"
        )
    return value, bound
