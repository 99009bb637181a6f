"""Formula-free quadrature evaluation of the fractional operators.

This module never touches the closed forms: every value comes from the
defining integrals.  The machinery:

* Gauss-Jacobi rules (Golub-Welsch on the symmetric tridiagonal recurrence
  matrix) absorb the algebraic endpoint weights that the convolution kernel
  (t - tau)**(alpha-1) and the power-type integrands force;
* node counts climb a doubling ladder until two successive estimates agree,
  and the last successive difference is the reported error estimate;
* integrands with a logarithmic factor at the origin are split at the
  midpoint, and the lower piece is mapped by s = exp(-x)/2, which turns
  log s into a polynomial factor and leaves an analytic integrand;
* fractional derivatives apply an order-m central difference with Richardson
  extrapolation to the (m - alpha)-order integral, mirroring the defining
  composition instead of differentiating under the integral sign;
* the Weyl tail over (-inf, 0) is mapped to (0, 1) by u = s t/(1-s); for the
  derivative the whole difference stencil is combined into one kernel before
  integrating, which keeps the tail absolutely convergent for every order
  (no truncation cutoff needed) and cancels the divergent bulk exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError, StencilError
from .model import (
    _EPS,
    AbsPower,
    EvalResult,
    FunctionFamily,
    OperatorKind,
)

__all__ = [
    "Integrand",
    "QuadConfig",
    "gauss_jacobi_01",
    "tail_power_quad",
    "oracle_eval",
    "rl_derivative_quad",
    "rl_integral_quad",
    "weyl_derivative_quad",
    "weyl_integral_quad",
]

@dataclass(frozen=True)
class QuadConfig:
    """Accuracy and budget knobs for every oracle evaluation.

    fd_step_factor is the base central-difference step as a fraction of t.
    It defaults to 0.1: the step must stay large enough that evaluation
    noise, amplified by 2**m/h**m, stays under the 1e-9 absolute floor of
    the derivative checks (an order-3 difference of machine-accurate values
    needs h**3 > ~1e-6), while Richardson extrapolation removes the O(h**2)
    truncation error; tiny steps such as 1e-4*t are hopeless for m >= 2.
    """

    target_rel_tol: float = 1e-10
    max_nodes: int = 2048
    fd_step_factor: float = 0.1
    richardson_levels: int = 3

    def __post_init__(self) -> None:
        if not self.target_rel_tol > 0.0:
            raise DomainError(f"target_rel_tol must be > 0, got {self.target_rel_tol!r}")
        # upper bounds, as both fields can come from a config file: max_nodes
        # sizes dense n x n eigenproblems, and 4.0**richardson_levels overflows
        if not 16 <= self.max_nodes <= 4096:
            raise DomainError(f"max_nodes must be in [16, 4096], got {self.max_nodes!r}")
        if not 1 <= self.richardson_levels <= 16:
            raise DomainError(
                f"richardson_levels must be in [1, 16], got {self.richardson_levels!r}"
            )
        if not 0.0 < self.fd_step_factor < 0.25:
            raise DomainError(f"fd_step_factor must be in (0, 0.25), got {self.fd_step_factor!r}")


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class Integrand:
    """A function on (0, inf) with its origin behavior declared.

    The evaluator must accept numpy arrays.  power_at_zero is the exponent p
    with f(tau) ~ tau**p near 0 (times log tau when log_at_zero is set); the
    quadrature uses it to pick the matching Jacobi weight, so the declaration
    must be honest for the accuracy promises to hold.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    power_at_zero: float = 0.0
    log_at_zero: bool = False

    def __post_init__(self) -> None:
        if self.power_at_zero <= -1.0:
            raise DomainError(
                f"integrand must be integrable at 0: power_at_zero > -1, got {self.power_at_zero!r}"
            )

    @classmethod
    def from_family(cls, family: FunctionFamily) -> "Integrand":
        return cls(family.value, family.power_at_zero, family.log_at_zero)


# ---------------------------------------------------------------------------
# quadrature rules

_jacobi_cache: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray]] = {}
_legendre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_jacobi_01(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^1 (1-s)**a s**b phi(s) ds, a, b > -1.

    Golub-Welsch: eigenvalues of the symmetric tridiagonal matrix built from
    the three-term recurrence of the Jacobi polynomials give the nodes, the
    squared first eigenvector components scaled by the zeroth moment give the
    weights.
    """
    key = (n, a, b)
    cached = _jacobi_cache.get(key)
    if cached is not None:
        return cached
    if n < 1:
        raise DomainError(f"rule size must be >= 1, got {n!r}")
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi exponents must exceed -1, got a={a!r}, b={b!r}")
    s = a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    if n > 1:
        k = np.arange(1.0, n)
        diag[1:] = (b * b - a * a) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # k = 1 written separately: the generic formula is 0/0 when a+b = -1
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s)))
        if n > 2:
            k = np.arange(2.0, n)
            num = 4.0 * k * (k + a) * (k + b) * (k + s)
            den = (2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0)
            off[1:] = np.sqrt(num / den)
    x, vec = eigh_tridiagonal(diag, off)
    mu0 = math.exp(
        (s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(s + 2.0)
    )
    # map [-1, 1] -> [0, 1]
    nodes = (x + 1.0) / 2.0
    weights = mu0 * vec[0, :] ** 2 * 2.0 ** (-s - 1.0)
    result = (nodes, weights)
    _jacobi_cache[key] = result
    return result


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _legendre_cache.get(n)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(n)
        _legendre_cache[n] = cached
    return cached


def _ladder_sizes(max_nodes: int) -> list[int]:
    sizes = []
    n = 16
    while n <= max_nodes:
        sizes.append(n)
        n *= 2
    return sizes


def _jacobi_ladder(
    phi: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadConfig,
    abs_floor: float = 0.0,
) -> tuple[float, float]:
    """Double the Gauss-Jacobi rule until two successive estimates agree.

    abs_floor is an absolute noise allowance (used when the integrand itself
    is evaluated with cancellation-limited accuracy); agreement within it
    counts as convergence.
    """
    previous = None
    for n in _ladder_sizes(cfg.max_nodes):
        nodes, weights = gauss_jacobi_01(n, a, b)
        current = float(np.dot(weights, phi(nodes)))
        if previous is not None:
            diff = abs(current - previous)
            if diff <= max(cfg.target_rel_tol * abs(current), abs_floor):
                return current, diff + 16.0 * _EPS * abs(current) + abs_floor
        previous = current
    raise ConvergenceError(
        f"Gauss-Jacobi ladder exhausted {cfg.max_nodes} nodes (weights a={a!r}, b={b!r})"
    )


def _panel_gauss_ladder(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    cfg: QuadConfig,
    panel_len: float = 10.0,
) -> tuple[float, float]:
    """Composite Gauss-Legendre on [lo, hi] with per-panel order doubling."""
    n_panels = max(1, int(math.ceil((hi - lo) / panel_len)))
    edges = np.linspace(lo, hi, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    previous = None
    n = 8
    while n * n_panels <= 4 * cfg.max_nodes:
        x, w = _gauss_legendre(n)
        points = centers[:, None] + half[:, None] * x[None, :]
        current = float(np.sum(half[:, None] * w[None, :] * fn(points)))
        if previous is not None:
            diff = abs(current - previous)
            if diff <= cfg.target_rel_tol * max(abs(current), 1e-300):
                return current, diff + 16.0 * _EPS * abs(current)
        previous = current
        n *= 2
    raise ConvergenceError(f"composite Gauss ladder exhausted its budget on [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# lower-limit-zero operators

def rl_integral_quad(
    f: Integrand, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Order-alpha fractional integral from 0 by weighted quadrature.

    After tau = t s the definition reads
    t**alpha / gamma(alpha) * integral_0^1 (1-s)**(alpha-1) f(t s) ds,
    so the kernel weight is exactly a Jacobi weight at s = 1; the declared
    origin exponent of f supplies the weight at s = 0.
    """
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"rl_integral_quad requires alpha > 0, got {alpha!r}")
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"rl_integral_quad requires t > 0, got {t!r}")
    prefactor = t**alpha / math.gamma(alpha)
    p = f.power_at_zero
    if not f.log_at_zero:
        if p == 0.0:
            value, err = _jacobi_ladder(lambda s: f.evaluator(t * s), alpha - 1.0, 0.0, cfg)
        else:
            value, err = _jacobi_ladder(
                lambda s: f.evaluator(t * s) * s ** (-p), alpha - 1.0, p, cfg
            )
        return EvalResult(prefactor * value, "oracle", prefactor * err)
    # logarithmic origin: split at s = 1/2
    # upper piece keeps the Jacobi weight; f is smooth on [1/2, 1]
    v_hi, e_hi = _jacobi_ladder(
        lambda u: f.evaluator(t * (0.5 + 0.5 * u)), alpha - 1.0, 0.0, cfg
    )
    scale_hi = 0.5**alpha
    # lower piece: s = exp(-x)/2 turns s**p log s into analytic * exp(-(p+1) x);
    # truncation at X leaves a relative tail below exp(-(p+1) X) ~ 1e-18
    x_cut = max(30.0, 42.0 / (p + 1.0))

    def lower(x: np.ndarray) -> np.ndarray:
        s = 0.5 * np.exp(-x)
        return (1.0 - s) ** (alpha - 1.0) * f.evaluator(t * s) * s

    v_lo, e_lo = _panel_gauss_ladder(lower, 0.0, x_cut, cfg)
    value = prefactor * (scale_hi * v_hi + v_lo)
    err = prefactor * (scale_hi * e_hi + e_lo)
    return EvalResult(value, "oracle", err)


def _central_stencil(m: int) -> tuple[list[float], list[float]]:
    """Coefficients and node offsets (in units of h) of the order-m central difference."""
    coeffs = [float((-1) ** k * math.comb(m, k)) for k in range(m + 1)]
    offsets = [m / 2.0 - k for k in range(m + 1)]
    return coeffs, offsets


def _richardson(samples: list[float]) -> tuple[float, float]:
    """Extrapolate central-difference samples at steps h0, h0/2, ... (error ~ h**2)."""
    levels = len(samples)
    table = [[s] for s in samples]
    for j in range(1, levels):
        for i in range(j, levels):
            table[i].append(table[i][j - 1] + (table[i][j - 1] - table[i - 1][j - 1]) / (4.0**j - 1.0))
    value = table[-1][-1]
    if levels == 1:
        return value, abs(value) * 1e-8
    spread = abs(table[-1][-1] - table[-1][-2]) + abs(table[-1][-1] - table[-2][-2])
    return value, spread


def _stencil_derivative(
    name: str,
    f: Integrand,
    alpha: float,
    t: float,
    cfg: QuadConfig,
    tail: Callable[[float, list[float], list[float], float], tuple[float, float]] | None = None,
) -> EvalResult:
    """Order-alpha derivative as the order-m difference of an order (m - alpha) integral.

    m is the smallest integer above alpha.  The differenced integral is the
    one of f from 0 plus, when given, a tail term: tail(beta, coeffs, points, h)
    returns sum_k coeffs[k] * T(points[k]) for the order-beta tail T, and its
    error.  The differences over a symmetric stencil of base width
    cfg.fd_step_factor * t are Richardson-extrapolated over
    cfg.richardson_levels step halvings.
    """
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"{name} requires alpha > 0, got {alpha!r}")
    if alpha == math.floor(alpha):
        raise DomainError(
            f"{name} requires non-integer alpha (got {alpha!r}); "
            "integer orders are plain derivatives"
        )
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"{name} requires t > 0, got {t!r}")
    m = int(math.floor(alpha)) + 1
    beta_order = m - alpha
    coeffs, offsets = _central_stencil(m)
    h0 = cfg.fd_step_factor * t
    if t - m * h0 <= 0.0:
        raise StencilError(f"stencil of width {m}*{h0!r} leaves t > 0 at t={t!r}")
    worst_quad_err = 0.0
    samples = []
    for i in range(cfg.richardson_levels):
        h = h0 / 2.0**i
        points = [t + o * h for o in offsets]
        total = 0.0
        for c, x in zip(coeffs, points):
            g = rl_integral_quad(f, beta_order, x, cfg)
            worst_quad_err = max(worst_quad_err, g.abs_err_estimate)
            total += c * g.value
        if tail is not None:
            tail_value, tail_err = tail(beta_order, coeffs, points, h)
            worst_quad_err = max(worst_quad_err, tail_err)
            total += tail_value
        samples.append(total / h**m)
    value, spread = _richardson(samples)
    h_min = h0 / 2.0 ** (cfg.richardson_levels - 1)
    noise = 2.0**m * worst_quad_err / h_min**m
    return EvalResult(value, "oracle", spread + noise + 64.0 * _EPS * abs(value))


def rl_derivative_quad(
    f: Integrand, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Order-alpha fractional derivative from 0 by differencing the integral.

    With m the smallest integer above alpha, evaluates the order (m - alpha)
    integral on a symmetric stencil of base width cfg.fd_step_factor * t and
    applies the order-m central difference, Richardson-extrapolated over
    cfg.richardson_levels step halvings.
    """
    return _stencil_derivative("rl_derivative_quad", f, alpha, t, cfg)


# ---------------------------------------------------------------------------
# Weyl (lower limit -inf) operators for |t|**(-delta)

def _weyl_tail_map(t: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = s t / (1-s) maps (0,1) -> (0,inf); returns (u, du/ds)."""
    one_minus = 1.0 - s
    return s * t / one_minus, t / one_minus**2


def weyl_integral_quad(
    delta: float, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Weyl fractional integral of |tau|**(-delta) at t > 0, formula-free.

    Split at 0: the (0, t) part is the lower-limit-zero integral of
    tau**(-delta); the (-inf, 0) part becomes, via u = -tau and then
    u = s t/(1-s), a Jacobi-weighted integral on (0, 1) with exponents
    delta-alpha-1 at s=1 (tail decay) and -delta at s=0.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_integral_quad requires delta in (0,1), got {delta!r}")
    if not 0.0 < alpha < delta:
        raise DomainError(
            f"weyl_integral_quad requires 0 < alpha < delta for tail convergence, "
            f"got alpha={alpha!r}, delta={delta!r}"
        )
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"weyl_integral_quad requires t > 0, got {t!r}")
    near = rl_integral_quad(Integrand.from_family(AbsPower(delta)), alpha, t, cfg)
    w_right = delta - alpha - 1.0
    w_left = -delta

    def phi(s: np.ndarray) -> np.ndarray:
        u, du = _weyl_tail_map(t, s)
        raw = (t + u) ** (alpha - 1.0) * u ** (-delta) * du
        return raw * (1.0 - s) ** (-w_right) * s ** (-w_left)

    tail, tail_err = _jacobi_ladder(phi, w_right, w_left, cfg)
    prefactor = 1.0 / math.gamma(alpha)
    return EvalResult(
        near.value + prefactor * tail,
        "oracle",
        near.abs_err_estimate + prefactor * tail_err,
    )


def weyl_derivative_quad(
    delta: float, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Weyl fractional derivative of |tau|**(-delta) at t > 0, formula-free.

    Differences the order (m - alpha) Weyl integral over the same stencil as
    rl_derivative_quad.  The (-inf, 0) tail of that integral diverges once
    m - alpha >= delta, but the order-m difference of it converges: summing
    the stencil kernel sum_k c_k (x_k + u)**(beta-1) *inside* the integral
    cancels the divergent bulk analytically (the kernel decays like
    h**m u**(beta-1-m)), so the tail is evaluated as a single absolutely
    convergent Jacobi-weighted integral for every admissible order.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_derivative_quad requires delta in (0,1), got {delta!r}")
    w_right = alpha + delta - 1.0
    w_left = -delta

    def tail(
        beta_order: float, coeffs: list[float], points: list[float], h: float
    ) -> tuple[float, float]:
        if len(points) == 2:
            # m = 1: first difference of A**(beta-1) via expm1/log1p, no cancellation
            base = min(points)

            def kernel(u: np.ndarray) -> np.ndarray:
                a_low = base + u
                return a_low ** (beta_order - 1.0) * np.expm1(
                    (beta_order - 1.0) * np.log1p(h / a_low)
                )

        else:

            def kernel(u: np.ndarray) -> np.ndarray:
                acc = np.zeros_like(u)
                for c, x in zip(coeffs, points):
                    acc += c * (x + u) ** (beta_order - 1.0)
                return acc

        def phi(s: np.ndarray) -> np.ndarray:
            u, du = _weyl_tail_map(t, s)
            return kernel(u) * u ** (-delta) * du * (1.0 - s) ** (-w_right) * s ** (-w_left)

        def phi_unsigned(s: np.ndarray) -> np.ndarray:
            u, du = _weyl_tail_map(t, s)
            acc = np.zeros_like(u)
            for c, x in zip(coeffs, points):
                acc += abs(c) * (x + u) ** (beta_order - 1.0)
            return acc * u ** (-delta) * du * (1.0 - s) ** (-w_right) * s ** (-w_left)

        # unsigned-kernel magnitude sets the roundoff floor of the signed sum
        nodes, weights = gauss_jacobi_01(32, w_right, w_left)
        unsigned_scale = float(np.dot(weights, phi_unsigned(nodes)))
        floor = 64.0 * _EPS * abs(unsigned_scale)
        value, err = _jacobi_ladder(phi, w_right, w_left, cfg, abs_floor=floor)
        prefactor = 1.0 / math.gamma(beta_order)
        return prefactor * value, prefactor * err

    near = Integrand.from_family(AbsPower(delta))
    return _stencil_derivative("weyl_derivative_quad", near, alpha, t, cfg, tail)


def tail_power_quad(
    a_exp: float, beta_exp: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Direct numerical value of integral_0^inf (t+u)**a_exp u**beta_exp du.

    Same u = s t/(1-s) transform as the Weyl tail; endpoint exponents are
    -a_exp-beta_exp-2 at s=1 and beta_exp at s=0.
    """
    if not a_exp < -beta_exp - 1.0 < 0.0:
        raise DomainError(
            f"tail_power_quad requires a_exp < -beta_exp-1 < 0, got a_exp={a_exp!r}, beta_exp={beta_exp!r}"
        )
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"tail_power_quad requires t > 0, got {t!r}")
    w_right = -a_exp - beta_exp - 2.0
    w_left = beta_exp

    def phi(s: np.ndarray) -> np.ndarray:
        u, du = _weyl_tail_map(t, s)
        raw = (t + u) ** a_exp * u**beta_exp * du
        return raw * (1.0 - s) ** (-w_right) * s ** (-w_left)

    value, err = _jacobi_ladder(phi, w_right, w_left, cfg)
    return EvalResult(value, "oracle", err)


# ---------------------------------------------------------------------------
# dispatch on the operator; the family supplies its own integrand

def oracle_eval(
    kind: OperatorKind,
    alpha: float,
    family: FunctionFamily,
    t: float,
    cfg: QuadConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Quadrature evaluation of an operator applied to a family member."""
    kind = OperatorKind(kind)
    kind.check_pairing(family)
    if kind is OperatorKind.RL_INTEGRAL:
        return rl_integral_quad(Integrand.from_family(family), alpha, t, cfg)
    if kind is OperatorKind.RL_DERIVATIVE:
        return rl_derivative_quad(Integrand.from_family(family), alpha, t, cfg)
    if kind is OperatorKind.WEYL_INTEGRAL:
        return weyl_integral_quad(family.delta, alpha, t, cfg)
    return weyl_derivative_quad(family.delta, alpha, t, cfg)
