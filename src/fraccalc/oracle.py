"""Formula-free quadrature evaluation of the fractional operators.

This module never touches the closed forms: every value comes from the
defining integrals.  The machinery:

* Gauss-Jacobi rules (Golub-Welsch on the symmetric tridiagonal recurrence
  matrix up to DENSE_RULE_MAX_NODES nodes, Newton iteration on the zeros of
  the Jacobi polynomial above) absorb the algebraic endpoint weights that the
  convolution kernel (t - tau)**(alpha-1) and the power-type integrands force;
* node counts climb a doubling ladder until two successive estimates agree,
  and the last successive difference is the reported error estimate;
* integrands with a logarithmic factor at the origin are split at the
  midpoint, and the lower piece is mapped by s = exp(-x)/2, which turns
  log s into a polynomial factor and leaves an analytic integrand;
* fractional derivatives apply an order-m central difference with Richardson
  extrapolation to the (m - alpha)-order integral, mirroring the defining
  composition instead of differentiating under the integral sign; all
  stencil points of all Richardson levels are rows of one shared ladder;
* the Weyl tail over (-inf, 0) is mapped to (0, 1) by u = s t/(1-s); for the
  derivative the whole difference stencil is combined into one kernel before
  integrating, which keeps the tail absolutely convergent for every order
  (no truncation cutoff needed) and cancels the divergent bulk exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, StencilError
from .model import _EPS, DEFAULT_CONFIG, AbsPower, EvalResult, FunctionFamily, OperatorKind, QuadConfig

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

# Gauss-Jacobi rules of up to this many nodes come from the dense eigenproblem
# (O(n**2) memory, O(n**3) time: 7 ms at 256 nodes); larger ones from Newton
# iteration in O(n) memory.  verify --suite all builds rules of 16 and 32 nodes.
DENSE_RULE_MAX_NODES = 256
# From the asymptotic starting values Newton takes 4 passes with exponents near
# 0 and 9 with exponents of 10 (measured up to 4096 nodes), the last step
# between 1e-16 and 2e-14 relative to the distance from the endpoint.
_NEWTON_MAX_PASSES = 12
_NEWTON_REL_TOL = 1e-13

# The base central-difference step, as a fraction of t, and the number of
# Richardson step halvings.  The step must stay large enough that evaluation
# noise, amplified by 2**m/h**m, stays under the 1e-9 absolute floor of the
# derivative checks (an order-3 difference of machine-accurate values needs
# h**3 > ~1e-6), while Richardson extrapolation removes the O(h**2)
# truncation error; tiny steps such as 1e-4*t are hopeless for m >= 2.
FD_STEP_FACTOR = 0.1
RICHARDSON_LEVELS = 3


@dataclass(frozen=True)
class Integrand:
    """A custom function on (0, inf) with its origin behavior declared.

    The four families of model declare the same three attributes, so the
    oracle takes them as integrands directly.  value must act elementwise on
    numpy arrays of any shape: the ladders pass 2-D and 3-D arrays, one row
    per evaluation point.  power_at_zero is the exponent p with f(tau) ~
    tau**p near 0 (times log tau when log_at_zero is set); the quadrature
    uses it to pick the matching Jacobi weight, so the declaration must be
    honest for the accuracy promises to hold.
    """

    value: Callable[[np.ndarray], np.ndarray]
    power_at_zero: float = 0.0
    log_at_zero: bool = False

    def __post_init__(self) -> None:
        if self.power_at_zero <= -1.0:
            raise DomainError(
                f"integrand must be integrable at 0: power_at_zero > -1, got {self.power_at_zero!r}"
            )


# ---------------------------------------------------------------------------
# quadrature rules

_jacobi_cache: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray]] = {}
_legendre_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_jacobi_01(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^1 (1-s)**a s**b phi(s) ds, a, b > -1.

    Rules of up to DENSE_RULE_MAX_NODES nodes come from _golub_welsch, larger
    ones from _newton_jacobi, which needs O(n) memory where the eigenproblem
    needs O(n**2).  Newton starts from the asymptotic zeros and, where those
    miss (exponents above about 10), from bisected ones.
    """
    key = (n, a, b)
    cached = _jacobi_cache.get(key)
    if cached is not None:
        return cached
    if n < 1:
        raise DomainError(f"rule size must be >= 1, got {n!r}")
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi exponents must exceed -1, got a={a!r}, b={b!r}")
    if n <= DENSE_RULE_MAX_NODES:
        result = _golub_welsch(n, a, b)
    else:
        recurrence = _EdgeRecurrence(n, a, b)
        result = _newton_jacobi(recurrence, _asymptotic_zeros(recurrence))
        if result is None:
            result = _newton_jacobi(recurrence, _bisected_zeros(recurrence))
        if result is None:
            raise ConvergenceError(
                f"Newton iteration settled on no Gauss-Jacobi rule of {n} nodes (a={a!r}, b={b!r})"
            )
    _jacobi_cache[key] = result
    return result


def _golub_welsch(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: eigenvalues of the symmetric tridiagonal Jacobi matrix are the
    nodes, squared first eigenvector components times the zeroth moment the weights.

    The matrix is built densely for numpy.linalg.eigh, which gives the same nodes
    and weights, bit for bit, as scipy.linalg.eigh_tridiagonal on the rules
    compared (432 of them, n from 1 to 256, a and b from -0.9 to 4).
    """
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
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp(
        (s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(s + 2.0)
    )
    # map [-1, 1] -> [0, 1]
    nodes = (x + 1.0) / 2.0
    weights = mu0 * vec[0, :] ** 2 * 2.0 ** (-s - 1.0)
    return nodes, weights


class _EdgeRecurrence:
    """P_n^(a,b) in the distance y of its zeros from the nearer endpoint.

    Row 0 holds the (n+1)//2 zeros nearest x = 1, row 1 the others, nearest
    x = -1.  With e the exponent at a row's endpoint, f the other one,
    s = a + b, P = P^(e,f) and Q = P^(e+1,f), each divided by its value at
    that endpoint, P_n comes from the two-term recurrences
        (k+s+1)(k+e+1) Q_k = (2k+s+1)(e+1) P_k + k(k+f) Q_{k-1},
        P_{k+1} = P_k - y (2k+s+2)/(2e+2) Q_k.
    y enters them only as a factor, so rounding moves each zero by a small
    multiple of itself: the zeros next to an endpoint keep their relative
    accuracy, which the three-term recurrence in x = 1 - y loses (about 1e-10
    at n = 2048, a = -0.9).
    """

    def __init__(self, n: int, a: float, b: float) -> None:
        s = a + b
        self.n, self.a, self.b = n, a, b
        self.e = np.array([[a], [b]])  # one exponent per row
        self.f = np.array([[b], [a]])
        k = np.arange(1.0, n)[:, None, None]
        den = (k + s + 1.0) * (k + self.e + 1.0)
        # q carries Q_k (2k+s+2)/(2e+2) in place of Q_k
        self.p_coef = list(
            (2.0 * k + s + 2.0) / (2.0 * self.e + 2.0) * (2.0 * k + s + 1.0) * (self.e + 1.0) / den
        )
        self.q_coef = list((2.0 * k + s + 2.0) / (2.0 * k + s) * k * (k + self.f) / den)
        self.q0 = (s + 2.0) / (2.0 * self.e + 2.0)

    def values(
        self, y: np.ndarray, count_sign_changes: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """(P_{n-1}, P_n) at the distances y, or the sign changes along P_0 ... P_n.

        By the Sturm property of orthogonal polynomials the sign changes count
        the zeros of P_n within distance y of the row's endpoint.
        """
        p_prev, p, q = np.ones_like(y), 1.0 - self.q0 * y, self.q0 * np.ones_like(y)
        t = np.empty_like(y)
        negative = p < 0.0
        changes = negative.astype(np.int64)
        for k, (pc, qc) in enumerate(zip(self.p_coef, self.q_coef), start=1):
            q *= qc
            q += np.multiply(pc, p, out=t)
            p_prev, p = p, p - np.multiply(y, q, out=t)
            if count_sign_changes:
                now = p < 0.0
                changes += now != negative
                negative = now
                if k % 64 == 0:  # only signs matter: keep far-side values in range
                    scale = 1.0 / (np.abs(p) + np.abs(q))
                    p *= scale
                    q *= scale
        return changes if count_sign_changes else (p_prev, p)


def _asymptotic_zeros(rec: _EdgeRecurrence) -> np.ndarray:
    """Starting distances from the interior asymptotics of the zeros (Gatteschi-Pittaluga).

    Close enough for Newton when both exponents are below about 10.
    """
    e, f = rec.e, rec.f
    rho2 = 2.0 * rec.n + rec.a + rec.b + 1.0
    c = (2.0 * np.arange(1.0, (rec.n + 1) // 2 + 1) + e - 0.5) * math.pi / rho2
    theta = c + ((0.25 - e * e) / np.tan(0.5 * c) - (0.25 - f * f) * np.tan(0.5 * c)) / rho2**2
    return 2.0 * np.sin(0.5 * theta) ** 2


def _bisected_zeros(rec: _EdgeRecurrence) -> np.ndarray:
    """Starting distances by bisection of log y on the sign-change counts, for any exponents.

    Zero r of a row (r = 1, 2, ...) lies where the count first reaches r; each
    pass halves every bracket, 17 passes from (1e-30, 2) to a width of 1e-3.
    """
    m = (rec.n + 1) // 2
    rank = np.arange(1, m + 1)
    lo = np.full((2, m), math.log(1e-30))
    hi = np.full((2, m), math.log(2.0))
    with np.errstate(all="ignore"):
        while np.max(hi - lo) > 1e-3:
            mid = 0.5 * (lo + hi)
            below = rec.values(np.exp(mid), count_sign_changes=True) >= rank
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
    return np.exp(0.5 * (lo + hi))


def _newton_jacobi(rec: _EdgeRecurrence, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The rule of gauss_jacobi_01 by Newton iteration from the starting distances y, in O(n) memory.

    After Hale and Townsend (SIAM J. Sci. Comput. 35, 2013): polish the zeros
    of P_n by Newton, take the weights from P_n'.  P_n' comes from
        (1-x**2) P_n' = n((e-f)/(2n+s) - x) P_n + 2n(n+f)/(2n+s) P_{n-1}
    in the variables of _EdgeRecurrence, and the weights, proportional to
    1/((1-x**2) P_n'**2), are scaled to the exact mass B(a+1, b+1).  None
    when the iteration does not settle on n distinct zeros.
    """
    n, a, b = rec.n, rec.a, rec.b
    s = a + b
    m = (n + 1) // 2
    y = y.copy()
    y[1, n - m :] = y[1, 0]  # padding when n is odd, dropped below
    shift = (rec.e - rec.f) / (2.0 * n + s)
    slope = 2.0 * n * (n + rec.f) / (2.0 * n + s)
    with np.errstate(all="ignore"):  # a diverging iteration is caught below
        for _ in range(_NEWTON_MAX_PASSES):
            p_prev, p = rec.values(y)
            # (1 - x**2) P_n' at x = 1 - y; the weights take it from the last pass,
            # whose step is below _NEWTON_REL_TOL
            slope_n = n * (shift - (1.0 - y)) * p + slope * p_prev
            step = p * (y * (2.0 - y)) / slope_n
            y = y + step
            if np.max(np.abs(step) / y) < _NEWTON_REL_TOL:
                break
        else:
            return None
        # P_n^(b,a)(1) / P_n^(a,b)(1) puts both rows on one normalisation
        j = np.arange(1.0, n + 1)
        ratio = np.exp(math.fsum(np.log1p(b / j)) - math.fsum(np.log1p(a / j)))
        v = y * (2.0 - y) / (slope_n * np.array([[1.0], [ratio]])) ** 2
        nodes = np.concatenate([0.5 * y[1, : n - m], 1.0 - 0.5 * y[0, ::-1]])
        v = np.concatenate([v[1, : n - m], v[0, ::-1]])
        mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(s + 2.0))
        weights = mass / np.sum(v) * v
    if not (0.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)):
        return None
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        return None
    return nodes, weights


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _legendre_cache.get(n)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(n)
        _legendre_cache[n] = cached
    return cached


RowFn = Callable[[np.ndarray, Sequence], np.ndarray]  # (points, parameter rows) -> a block per row


def _row_ladder(
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]],
    n: int,
    n_max: int,
    reduce: Callable[[np.ndarray, np.ndarray], float],
    phi: RowFn,
    params: Sequence,
    cfg: QuadConfig,
    floors: Sequence[float] | None = None,
) -> list[tuple[float, float]] | None:
    """Climb rules of n, 2n, ... <= n_max nodes for all rows of params at once.

    rule(n) is a rule (points, weights); phi(points, p) evaluates the rows p of
    params there, one block per row; reduce(weights, block) integrates a block.
    Each row stops at its first rung within max(target_rel_tol * |current|,
    its floor) of the one before.  None when the rungs run out first.
    """
    done: list = [None] * len(params)
    rows = range(len(params))
    previous: list[float] = []
    while n <= n_max:
        points, weights = rule(n)
        values = phi(points, params)
        current, climbing = [], []
        for j, row in enumerate(rows):
            value = float(reduce(weights, values[j]))
            if previous:
                diff = abs(value - previous[j])
                floor = floors[row] if floors else 0.0
                if diff <= max(cfg.target_rel_tol * abs(value), floor):
                    done[row] = (value, diff + 16.0 * _EPS * abs(value) + floor)
                    continue
            current.append(value)
            climbing.append(j)
        if not climbing:
            return done
        if len(climbing) < len(rows):
            rows = [rows[j] for j in climbing]
            params = params[climbing]
        previous = current
        n *= 2
    return None


def _jacobi_ladder(
    phi: RowFn, params: Sequence, a: float, b: float, cfg: QuadConfig, abs_floor: list | None = None
) -> list[tuple[float, float]]:
    """Double the Gauss-Jacobi rule until two successive estimates agree, row by row.

    abs_floor, one per row, is an absolute noise allowance (for integrands evaluated
    with cancellation-limited accuracy); agreement within it counts as convergence.
    """
    rule = lambda n: gauss_jacobi_01(n, a, b)
    # ndarray.dot: the C routine behind np.dot, bit for bit, without its Python-level dispatch
    done = _row_ladder(rule, 16, cfg.max_nodes, np.ndarray.dot, phi, params, cfg, abs_floor)
    if done is None:
        raise ConvergenceError(
            f"Gauss-Jacobi ladder exhausted {cfg.max_nodes} nodes (weights a={a!r}, b={b!r})"
        )
    return done


def _panel_gauss_ladder(
    fn: RowFn, params: Sequence, lo: float, hi: float, cfg: QuadConfig, panel_len: float = 10.0
) -> list[tuple[float, float]]:
    """Composite Gauss-Legendre on [lo, hi], per-panel order doubling; points are (1, panels, n)."""
    first_rung, budget = 8, 4 * cfg.max_nodes
    # checked before the panels are built: a long interval (hi up to inf) has
    # more panels than the budget can give first_rung nodes each
    span = (hi - lo) / panel_len
    if not span <= budget // first_rung:
        raise ConvergenceError(f"composite Gauss ladder exhausted its budget on [{lo}, {hi}]")
    n_panels = max(1, int(math.ceil(span)))
    edges = np.linspace(lo, hi, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]

    def rule(n: int) -> tuple[np.ndarray, np.ndarray]:
        x, w = _gauss_legendre(n)
        return (centers + half * x)[None], half * w

    # np.add.reduce(axis=None) is what np.sum calls, without its Python-level dispatch
    reduce = lambda w, block: np.add.reduce(w * block, axis=None)
    done = _row_ladder(rule, first_rung, budget // n_panels, reduce, fn, params, cfg)
    if done is None:
        raise ConvergenceError(f"composite Gauss ladder exhausted its budget on [{lo}, {hi}]")
    return done


# ---------------------------------------------------------------------------
# lower-limit-zero operators

def rl_integral_quad(
    f: Integrand | FunctionFamily, alpha: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Order-alpha fractional integral from 0 by weighted quadrature.

    After tau = t s the definition reads
    t**alpha / gamma(alpha) * integral_0^1 (1-s)**(alpha-1) f(t s) ds,
    so the kernel weight is exactly a Jacobi weight at s = 1; the declared
    origin exponent of f supplies the weight at s = 0.  A sequence of t gives
    a list of results, its points being rows of the same ladders.
    """
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"rl_integral_quad requires alpha > 0, got {alpha!r}")
    scalar = isinstance(t, float) or np.ndim(t) == 0
    points = [t] if scalar else list(t)
    prefactors = []
    for x in points:
        if not math.isfinite(x) or x <= 0.0:
            raise DomainError(f"rl_integral_quad requires t > 0, got {x!r}")
        prefactors.append(x**alpha / math.gamma(alpha))
    ts = np.array(points)[:, None]
    p = f.power_at_zero
    if not f.log_at_zero:
        if p == 0.0:
            rows = _jacobi_ladder(lambda s, tc: f.value(tc * s), ts, alpha - 1.0, 0.0, cfg)
        else:
            rows = _jacobi_ladder(
                lambda s, tc: f.value(tc * s) * s ** (-p), ts, alpha - 1.0, p, cfg
            )
    else:
        # logarithmic origin: split at s = 1/2
        # upper piece keeps the Jacobi weight; f is smooth on [1/2, 1]
        upper = _jacobi_ladder(
            lambda u, tc: f.value(tc * (0.5 + 0.5 * u)), ts, alpha - 1.0, 0.0, cfg
        )
        scale_hi = 0.5**alpha
        # lower piece: s = exp(-x)/2 turns s**p log s into analytic * exp(-(p+1) x);
        # truncation at X leaves a relative tail below exp(-(p+1) X) ~ 1e-18
        # (p + 1 rounds to 0 when nu is below about 1e-16: the cut is then infinite)
        x_cut = max(30.0, 42.0 / (p + 1.0)) if p > -1.0 else math.inf

        def lower(x: np.ndarray, tc: np.ndarray) -> np.ndarray:
            s = 0.5 * np.exp(-x)
            return (1.0 - s) ** (alpha - 1.0) * f.value(tc * s) * s

        lowers = _panel_gauss_ladder(lower, ts[:, :, None], 0.0, x_cut, cfg)
        rows = [(scale_hi * v + vl, scale_hi * e + el) for (v, e), (vl, el) in zip(upper, lowers)]
    results = [EvalResult(c * v, "oracle", c * e) for c, (v, e) in zip(prefactors, rows)]
    return results[0] if scalar else results


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
    f: Integrand | FunctionFamily,
    alpha: float,
    t: float,
    cfg: QuadConfig,
    tail: Callable[..., list[tuple[float, float]]] | None = None,
) -> EvalResult:
    """Order-alpha derivative as the order-m difference of an order (m - alpha) integral.

    m is the smallest integer above alpha.  The differenced integral is the
    one of f from 0, taken at every stencil point of every level in a single
    rl_integral_quad call, plus, when given, a tail term: tail(beta, coeffs,
    points, steps) returns, for each level i, sum_k coeffs[k] * T(points[i][k])
    for the order-beta tail T, and its error.  The differences over a
    symmetric stencil of base width FD_STEP_FACTOR * t are
    Richardson-extrapolated over RICHARDSON_LEVELS step halvings.
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
    h0 = FD_STEP_FACTOR * t
    if t - m * h0 <= 0.0:
        raise StencilError(f"stencil of width {m}*{h0!r} leaves t > 0 at t={t!r}")
    steps = [h0 / 2.0**i for i in range(RICHARDSON_LEVELS)]
    points = [[t + o * h for o in offsets] for h in steps]
    integrals = rl_integral_quad(f, beta_order, [x for level in points for x in level], cfg)
    tails = tail(beta_order, coeffs, points, steps) if tail is not None else None
    worst_quad_err = 0.0
    samples = []
    for i, h in enumerate(steps):
        total = 0.0
        for c, g in zip(coeffs, integrals[i * (m + 1) : (i + 1) * (m + 1)]):
            worst_quad_err = max(worst_quad_err, g.abs_err_estimate)
            total += c * g.value
        if tails is not None:
            tail_value, tail_err = tails[i]
            worst_quad_err = max(worst_quad_err, tail_err)
            total += tail_value
        samples.append(total / h**m)
    value, spread = _richardson(samples)
    h_min = h0 / 2.0 ** (RICHARDSON_LEVELS - 1)
    noise = 2.0**m * worst_quad_err / h_min**m
    return EvalResult(value, "oracle", spread + noise + 64.0 * _EPS * abs(value))


def rl_derivative_quad(
    f: Integrand | FunctionFamily, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Order-alpha fractional derivative from 0 by differencing the integral.

    With m the smallest integer above alpha, evaluates the order (m - alpha)
    integral on a symmetric stencil of base width FD_STEP_FACTOR * t and
    applies the order-m central difference, Richardson-extrapolated over
    RICHARDSON_LEVELS step halvings.
    """
    return _stencil_derivative("rl_derivative_quad", f, alpha, t, cfg)


# ---------------------------------------------------------------------------
# tails over (0, inf), and the Weyl (lower limit -inf) operators for |t|**(-delta)

def _tail_integrand(t: float, kernel: RowFn, beta_exp: float, w_right: float) -> RowFn:
    """integral_0^inf kernel(u, rows) u**beta_exp du as a Jacobi-weighted integral on (0, 1).

    u = s t/(1-s) maps (0, 1) onto (0, inf).  The returned integrand is
    divided by the weight (1-s)**w_right s**beta_exp, which the rule of the
    caller supplies; w_right is the decay exponent of the whole integrand at
    s = 1, and each caller computes it from its own exponents.
    """

    def phi(s: np.ndarray, rows: Sequence) -> np.ndarray:
        one_minus = 1.0 - s
        u = s * t / one_minus
        du = t / one_minus**2
        return kernel(u, rows) * u**beta_exp * du * one_minus ** (-w_right) * s ** (-beta_exp)

    return phi


def tail_power_quad(
    a_exp: float, beta_exp: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Direct numerical value of integral_0^inf (t+u)**a_exp u**beta_exp du.

    After u = s t/(1-s) the endpoint exponents are -a_exp-beta_exp-2 at s=1
    and beta_exp at s=0.
    """
    if not a_exp < -beta_exp - 1.0 < 0.0:
        raise DomainError(
            f"tail_power_quad requires a_exp < -beta_exp-1 < 0, got a_exp={a_exp!r}, beta_exp={beta_exp!r}"
        )
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"tail_power_quad requires t > 0, got {t!r}")
    w_right = -a_exp - beta_exp - 2.0
    phi = _tail_integrand(t, lambda u, ts: (ts + u) ** a_exp, beta_exp, w_right)
    [(value, err)] = _jacobi_ladder(phi, np.array([[t]]), w_right, beta_exp, cfg)
    return EvalResult(value, "oracle", err)


def weyl_integral_quad(
    delta: float, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult:
    """Weyl fractional integral of |tau|**(-delta) at t > 0, formula-free.

    Split at 0: the (0, t) part is the lower-limit-zero integral of
    tau**(-delta); the (-inf, 0) part becomes, via u = -tau, the tail
    integral of (t+u)**(alpha-1) u**(-delta), with exponents delta-alpha-1
    at s=1 (tail decay) and -delta at s=0.
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
    near = rl_integral_quad(AbsPower(delta), alpha, t, cfg)
    w_right = delta - alpha - 1.0
    phi = _tail_integrand(t, lambda u, ts: (ts + u) ** (alpha - 1.0), -delta, w_right)
    [(tail, tail_err)] = _jacobi_ladder(phi, np.array([[t]]), w_right, -delta, cfg)
    c = 1.0 / math.gamma(alpha)
    return EvalResult(near.value + c * tail, "oracle", near.abs_err_estimate + c * tail_err)


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

    def tail(
        beta_order: float, coeffs: list[float], points: list[list[float]], steps: list[float]
    ) -> list[tuple[float, float]]:
        # one row per Richardson level: its step, the low end of its stencil, its points
        levels = np.array([[h, min(level), *level] for h, level in zip(steps, points)])

        def kernel(u: np.ndarray, rows: np.ndarray, unsigned: bool = False) -> np.ndarray:
            if len(coeffs) == 2 and not unsigned:
                # m = 1: first difference of A**(beta-1) via expm1/log1p, no cancellation
                a_low = rows[:, 1:2] + u
                return a_low ** (beta_order - 1.0) * np.expm1(
                    (beta_order - 1.0) * np.log1p(rows[:, :1] / a_low)
                )
            total = 0.0
            for k, c in enumerate(coeffs):
                weight = abs(c) if unsigned else c
                total = total + weight * (rows[:, k + 2 : k + 3] + u) ** (beta_order - 1.0)
            return total

        # unsigned-kernel magnitude sets the roundoff floor of the signed sum
        nodes, weights = gauss_jacobi_01(32, w_right, -delta)
        scales = _tail_integrand(t, partial(kernel, unsigned=True), -delta, w_right)(nodes, levels)
        floors = [64.0 * _EPS * abs(float(np.dot(weights, row))) for row in scales]
        prefactor = 1.0 / math.gamma(beta_order)
        phi = _tail_integrand(t, kernel, -delta, w_right)
        rows = _jacobi_ladder(phi, levels, w_right, -delta, cfg, abs_floor=floors)
        return [(prefactor * value, prefactor * err) for value, err in rows]

    return _stencil_derivative("weyl_derivative_quad", AbsPower(delta), alpha, t, cfg, tail)


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
        return rl_integral_quad(family, alpha, t, cfg)
    if kind is OperatorKind.RL_DERIVATIVE:
        return rl_derivative_quad(family, alpha, t, cfg)
    if kind is OperatorKind.WEYL_INTEGRAL:
        return weyl_integral_quad(family.delta, alpha, t, cfg)
    return weyl_derivative_quad(family.delta, alpha, t, cfg)
