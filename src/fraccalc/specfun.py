"""Error-controlled scalar special functions.

Everything downstream (closed-form coefficients, quadrature prefactors,
verification identities) reduces to the gamma family evaluated on the real
line, plus the two-parameter Mittag-Leffler function.  All functions here are
pure and thread-safe.

Conventions adopted throughout:

* gamma at negative non-integer arguments is the reflection continuation
  ``gamma(z) = pi / (sin(pi z) * gamma(1 - z))``;
* a reciprocal gamma ``1/gamma(z)`` at a non-positive integer is exactly 0,
  which is how several derivative formulas acquire their zero coefficients.
"""

from __future__ import annotations

import math

from scipy import special as _sp

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ML_MAX_TERMS",
    "ML_Z_MAX",
    "beta",
    "cospi",
    "digamma",
    "gamma",
    "gamma_ratio",
    "lower_incomplete_gamma",
    "mittag_leffler",
    "pochhammer",
    "reciprocal_gamma",
    "sinpi",
]

# Direct series summation of the Mittag-Leffler function is only trustworthy
# for moderate arguments; beyond this cap the caller gets a DomainError
# instead of a silently inaccurate value.
ML_Z_MAX = 50.0
ML_MAX_TERMS = 400


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (exact zeros at integers)."""
    x = _require_finite("x", x)
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
    x = _require_finite("x", x)
    r = math.fmod(abs(x), 2.0)
    return sinpi(0.5 - r)


def gamma(z: float) -> float:
    """Gamma function on the reals, continued by reflection for z < 0.

    Raises PoleError at 0, -1, -2, ... and OverflowError once the result
    exceeds double range (z > ~171.6).
    """
    z = _require_finite("z", z)
    try:
        return math.gamma(z)
    except ValueError as exc:
        raise PoleError(f"gamma pole at z={z!r}") from exc


def reciprocal_gamma(z: float) -> float:
    """1/gamma(z); exactly 0 at the poles z = 0, -1, -2, ... and for huge z."""
    z = _require_finite("z", z)
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
    """gamma(p)/gamma(q), stable for large arguments and across poles.

    Returns exactly 0 when q sits on a gamma pole while p does not (the
    analytic limit of the ratio).  A pole in the numerator alone raises
    PoleError; a pole in both is genuinely undefined here and also raises.
    """
    p = _require_finite("p", p)
    q = _require_finite("q", q)
    p_pole = _is_nonpositive_integer(p)
    q_pole = _is_nonpositive_integer(q)
    if q_pole and not p_pole:
        return 0.0
    if p_pole:
        raise PoleError(f"gamma_ratio has a numerator pole at p={p!r}")
    if 0.0 < p < 170.0 and 0.0 < q < 170.0:
        return math.gamma(p) / math.gamma(q)
    sp, lp = _signed_log_gamma(p)
    sq, lq = _signed_log_gamma(q)
    return sp * sq * math.exp(lp - lq)


def digamma(z: float) -> float:
    """Digamma psi(z) by upward recurrence into the asymptotic regime.

    psi(z+1) = psi(z) + 1/z lifts the argument to z >= 12, where the
    log-series with Bernoulli coefficients through 1/z^12 is accurate to
    well under 1e-15 absolute.  Valid for all real z off the poles
    0, -1, -2, ...
    """
    z = _require_finite("z", z)
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
    x = _require_finite("x", x)
    if n != int(n) or n < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n!r}")
    out = 1.0
    for k in range(int(n)):
        out *= x + k
    return out


def beta(a: float, b: float) -> float:
    """Euler beta B(a, b) = gamma(a) gamma(b) / gamma(a+b) for a, b > 0."""
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta requires a > 0 and b > 0, got a={a!r}, b={b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def lower_incomplete_gamma(alpha: float, z: float) -> float:
    """Lower incomplete gamma integral of t^(alpha-1) e^(-t) over (0, z)."""
    alpha = _require_finite("alpha", alpha)
    z = _require_finite("z", z)
    if alpha <= 0.0:
        raise DomainError(f"lower_incomplete_gamma requires alpha > 0, got {alpha!r}")
    if z < 0.0:
        raise DomainError(f"lower_incomplete_gamma requires z >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    regularized = float(_sp.gammainc(alpha, z))
    if alpha < 170.0:
        return regularized * math.gamma(alpha)
    if regularized == 0.0:
        return 0.0
    return math.exp(math.lgamma(alpha) + math.log(regularized))


def mittag_leffler(mu: float, nu: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{mu,nu}(z) = sum z^k / gamma(mu k + nu).

    Direct compensated (Kahan) summation of the defining series.  Terms whose
    gamma argument lands on a pole contribute exactly 0.  The summation stops
    once three consecutive terms fall below 1e-16 of the running sum.

    Restricted to |z| <= ML_Z_MAX with at most ML_MAX_TERMS terms; within that
    window the relative error is ~1e-13 for z >= 0.  For negative z the
    alternating terms cancel: with mu = 1 and nu in [1.1, 3.5] the relative
    error is ~3e-13 at z = -5, ~1e-4 at z = -20 and above 1e9 at z = -50.
    The loss comes from direct summation, not from double precision: for
    mu = 1, Kummer's transformation E_{1,nu}(z) = e**z 1F1(nu-1; nu; -z) /
    gamma(nu) gives a series of positive terms for z < 0 and nu > 1.
    """
    mu = _require_finite("mu", mu)
    nu = _require_finite("nu", nu)
    z = _require_finite("z", z)
    if mu <= 0.0:
        raise DomainError(f"mittag_leffler requires mu > 0, got {mu!r}")
    if abs(nu) > 170.0:
        raise DomainError(f"mittag_leffler requires |nu| <= 170, got {nu!r}")
    if abs(z) > ML_Z_MAX:
        raise DomainError(f"mittag_leffler requires |z| <= {ML_Z_MAX}, got z={z!r}")

    log_abs_z = math.log(abs(z)) if z != 0.0 else -math.inf
    total = 0.0
    comp = 0.0  # Kahan compensation
    small_run = 0
    for k in range(ML_MAX_TERMS):
        rg = reciprocal_gamma(mu * k + nu)
        if rg == 0.0:
            term = 0.0
        elif k == 0:
            term = rg
        elif z == 0.0:
            break
        elif abs(z) <= 1.0:
            term = z**k * rg
        else:
            # z^k can overflow doubles long before the gamma growth wins;
            # assemble the term in log space instead.
            log_term = k * log_abs_z + math.log(abs(rg))
            if log_term > 700.0:
                raise ConvergenceError(
                    f"mittag_leffler series terms exceed double range before converging "
                    f"(mu={mu!r}, nu={nu!r}, z={z!r})"
                )
            sign = math.copysign(1.0, rg) * (-1.0 if (z < 0.0 and k % 2) else 1.0)
            term = sign * math.exp(log_term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < 1e-16 * abs(total):
            small_run += 1
            if small_run >= 3:
                return total
        else:
            small_run = 0
    if z == 0.0:
        return total
    raise ConvergenceError(
        f"mittag_leffler series did not settle within {ML_MAX_TERMS} terms "
        f"(mu={mu!r}, nu={nu!r}, z={z!r})"
    )
