"""Formula-free quadrature evaluation of the fractional operators.

This module never touches the closed forms: every value comes from the
defining integrals.  The machinery:

* Gauss-Jacobi rules (Golub-Welsch on the symmetric tridiagonal recurrence
  matrix, up to JACOBI_MAX_NODES nodes) absorb the algebraic endpoint weights
  that the convolution kernel (t - tau)**(alpha-1) and the power-type
  integrands force;
* node counts climb a doubling ladder until two successive estimates agree,
  and the last successive difference is the reported error estimate; the
  first rung cannot stop a ladder, so the integrand is evaluated on the first
  two rungs' points in one call;
* rules are cached (at most JACOBI_CACHE_MAX_RULES Jacobi rules; the panel
  rules by node count alone), and with each rule the arrays that depend on
  its nodes alone: the powers of s and 1 - s that divide its weight out of an
  integrand, the maps of the two log pieces, and its points joined to the
  next rung's;
* integrands with a logarithmic factor at the origin are split at the
  midpoint, and the lower piece is mapped by s = exp(-x)/2, which turns
  log s into a polynomial factor and leaves an analytic integrand: panels
  graded toward the kernel's singularity at x = -ln 2 take x in [0, 40], and
  past 40, where f is its declared origin form to rounding, the piece is
  integrated in closed form;
* fractional derivatives apply an order-m central difference with Richardson
  extrapolation to the (m - alpha)-order integral, mirroring the defining
  composition instead of differentiating under the integral sign; all
  stencil points of all Richardson levels of every t are rows of one
  shared ladder;
* the Weyl tail over (-inf, 0) is mapped to (0, 1) by u = s t/(1-s); for the
  derivative the whole difference stencil is combined into one kernel before
  integrating, which keeps the tail absolutely convergent for every order
  (no truncation cutoff needed) and cancels the divergent bulk exactly.

Every *_quad function takes t as one point or as a sequence of points; the
points of a sequence are rows of the same ladders, and each row stops on its
own rung or is refused on its own.  Inside the module a row is a (value,
error estimate) pair, or the FracCalcError that refused it; EvalResults are
built only for the caller.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, FracCalcError, StencilError
from .model import (
    _EPS,
    DEFAULT_CONFIG,
    JACOBI_MAX_NODES,
    AbsPower,
    EvalResult,
    FunctionFamily,
    OperatorKind,
    QuadConfig,
    _Record,
    _set,
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

# The base central-difference step, as a fraction of t, and the number of
# Richardson step halvings.  The step must stay large enough that evaluation
# noise, amplified by 2**m/h**m, stays under the 1e-9 absolute floor of the
# derivative checks (an order-3 difference of machine-accurate values needs
# h**3 > ~1e-6), while Richardson extrapolation removes the O(h**2)
# truncation error; tiny steps such as 1e-4*t are hopeless for m >= 2.
FD_STEP_FACTOR = 0.1
RICHARDSON_LEVELS = 3


class Integrand(_Record):
    """A custom function on (0, inf) with its origin behavior declared.

    The four families of model declare the same three attributes, so the
    oracle takes them as integrands directly.  value must act elementwise on
    numpy arrays of any shape: the ladders pass 2-D and 3-D arrays, one row
    per evaluation point.  power_at_zero is the exponent p with f(tau) ~
    tau**p near 0 (times log tau when log_at_zero is set); the quadrature
    uses it to pick the matching Jacobi weight, so the declaration must be
    honest for the accuracy promises to hold.
    """

    __slots__ = ("value", "power_at_zero", "log_at_zero")

    def __init__(
        self, value: Callable[[np.ndarray], np.ndarray], power_at_zero: float = 0.0, log_at_zero: bool = False
    ) -> None:
        if not power_at_zero > -1.0:  # false for nan as well
            raise DomainError(f"integrand must be integrable at 0: power_at_zero > -1, got {power_at_zero!r}")
        if power_at_zero == math.inf:
            raise DomainError(f"power_at_zero must be finite, got {power_at_zero!r}")
        _set(self, "value", value)
        _set(self, "power_at_zero", power_at_zero)
        _set(self, "log_at_zero", log_at_zero)


# ---------------------------------------------------------------------------
# quadrature rules

# gauss_jacobi_01 keeps at most this many rules and drops the oldest past it.
# The keys are float (n, a, b), so a sweep over alpha in a long-lived process
# builds new rules without end (about 2.6 per sweep evaluation); the verify
# grid needs about 200, so neither verify nor a grid ever drops one.  Panel
# rules are keyed by n alone, one per rung, and need no bound.
JACOBI_CACHE_MAX_RULES = 4096

_jacobi_cache: dict = {}  # rules by (n, a, b), oldest first
_panel_cache: dict = {}  # rules by n
_rule_cache_lock = threading.Lock()  # held to insert into and evict from the Jacobi cache, not to look up


class _Nodes:
    """A rule's points, and the arrays that depend on the points alone.

    Each array is computed on first use (threads that race compute the same
    bytes, and one copy stays).  A cached rule keeps its _Nodes, so every
    ladder that climbs through the rule shares the arrays, and evicting the
    rule drops them.  a and b are the rule's Jacobi exponents: s**(-b) and
    (1-s)**(-a) divide its weight out of an integrand.  A panel rule has none.
    """

    def __init__(self, points: np.ndarray, a: float = 0.0, b: float = 0.0) -> None:
        self.points = points
        self.a = a
        self.b = b

    @cached_property
    def s_pow_neg_b(self) -> np.ndarray:
        return self.points ** (-self.b)

    @cached_property
    def one_minus(self) -> np.ndarray:
        return 1.0 - self.points

    @cached_property
    def one_minus_sq(self) -> np.ndarray:
        return self.one_minus**2

    @cached_property
    def one_minus_pow_neg_a(self) -> np.ndarray:
        return self.one_minus ** (-self.a)

    @cached_property
    def upper_half(self) -> np.ndarray:  # s = 1/2 + u/2 on the upper log piece
        return 0.5 + 0.5 * self.points

    @cached_property
    def half_exp_neg(self) -> np.ndarray:  # s = exp(-x)/2 on the lower log piece
        return 0.5 * np.exp(-self.points)


class _Rule:
    """One rung of a ladder: its _Nodes and weights; pair is (points, weights)."""

    __slots__ = ("nodes", "weights", "pair", "_joined")

    def __init__(self, nodes: _Nodes, weights: np.ndarray) -> None:
        self.nodes = nodes
        self.weights = weights
        self.pair = (nodes.points, weights)
        self._joined = None

    def joined(self, upper: _Rule) -> _Nodes:
        """The _Nodes of this rung's points followed by upper's along the last axis.

        upper is always the next rung of the same ladder, so the joined nodes
        are kept with this rule.
        """
        joined = self._joined
        if joined is None:
            points = np.concatenate((self.nodes.points, upper.nodes.points), axis=-1)
            joined = self._joined = _Nodes(points, self.nodes.a, self.nodes.b)
        return joined


def gauss_jacobi_01(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^1 (1-s)**a s**b phi(s) ds, a, b > -1, n <= JACOBI_MAX_NODES.

    DomainError where the construction has no rule in floating point: its
    zeroth moment 2**(a+b+1) B(a+1, b+1) overflows past about a + b = 1030
    when one exponent is near 0, and its recurrence past about 1e77.
    """
    key = (n, a, b)
    cached = _jacobi_cache.get(key)
    if cached is not None:
        return cached.pair
    # checked before the O(n**2) matrix is built
    if not 1 <= n <= JACOBI_MAX_NODES:
        raise DomainError(f"rule size must be in [1, {JACOBI_MAX_NODES}], got {n!r}")
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):  # false for nan as well
        raise DomainError(f"Jacobi exponents must exceed -1 and be finite, got a={a!r}, b={b!r}")
    try:
        # a recurrence that overflows, or divides inf by inf, gives no finite rule
        with np.errstate(over="raise", invalid="raise"):
            nodes, weights = _golub_welsch(n, a, b)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # FloatingPointError and math's OverflowError
        raise DomainError(f"no {n}-node Gauss-Jacobi rule for a={a!r}, b={b!r}: {exc}") from None
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise DomainError(f"no {n}-node Gauss-Jacobi rule for a={a!r}, b={b!r}: not finite")
    rule = _Rule(_Nodes(nodes, a, b), weights)
    with _rule_cache_lock:
        _jacobi_cache[key] = rule
        while len(_jacobi_cache) > JACOBI_CACHE_MAX_RULES:
            del _jacobi_cache[next(iter(_jacobi_cache))]  # dicts keep insertion order
    return rule.pair


def _jacobi_rule(n: int, a: float, b: float) -> _Rule:
    """The cached rule of gauss_jacobi_01(n, a, b), looked up through that function once."""
    points, weights = gauss_jacobi_01(n, a, b)
    rule = _jacobi_cache.get((n, a, b))
    # None once another thread has evicted the rule: its arrays then serve one ladder
    return rule if rule is not None else _Rule(_Nodes(points, a, b), weights)


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


RowFn = Callable[[_Nodes, Sequence], np.ndarray]  # (nodes, parameter rows) -> a block per row
# a ladder row's (value, error estimate), or the error that refused it
Row = "tuple[float, float] | FracCalcError"

# The integral of each row of a (rows, n) block under a Gauss-Jacobi rule's
# weights.  np.vecdot calls the BLAS ddot of np.dot once per row, so each value
# is that row's np.dot bit for bit; blocks @ weights (gemv) sums in another order.
_jacobi_sums = np.vecdot


def _panel_sums(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The integral of each row of a (rows, panels, n) block under (panels, n) weights.

    The two contiguous inner axes of the product coalesce into one pairwise sum
    per row, the sum that np.sum (np.add.reduce, axis=None) gives one row's
    (panels, n) block.  The product is a new array, so blocks may be a slice.
    """
    return np.add.reduce(weights * blocks, axis=(1, 2))


def _row_ladder(
    rule: Callable[[int], _Rule],
    n: int,
    n_max: int,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    phi: RowFn,
    params: Sequence,
    cfg: QuadConfig,
    floors: Sequence[float] | None = None,
) -> list[tuple[float, float] | None]:
    """Climb rules of n, 2n, ... <= n_max nodes for all rows of params at once.

    rule(n) is a _Rule; phi(nodes, p) evaluates the rows p of params at the
    _Nodes nodes, one block per row, stacked along the first axis, each point
    on its own; reduce(blocks, weights) integrates every block in one call,
    one value per row, each bit for bit what integrating its block alone gives.
    The first rung has nothing to agree with, so it never stops a row: phi
    evaluates it together with the second rung, on their points joined along
    the last axis, and each rung's slice of the block is reduced on its own.
    Each row stops at its first rung within max(target_rel_tol * |current|,
    its floor) of the one before, and its error estimate is that difference
    plus rounding.  A row still climbing when the rungs run out is None.
    """
    done: list = [None] * len(params)
    rows = range(len(params))
    previous = None  # one value per row still climbing, from the rung below
    while n <= n_max:
        rung = rule(n)
        if previous is not None:
            block = phi(rung.nodes, params)
        elif 2 * n > n_max:  # a lone rung cannot stop a row; it is looked up as every rung is
            return done
        else:  # the first two rungs, in one call of phi
            upper = rule(2 * n)
            joined = phi(rung.joined(upper), params)
            previous = reduce(joined[..., :n], rung.weights).tolist()
            rung, block = upper, joined[..., n:]
            n *= 2
        values = reduce(block, rung.weights).tolist()
        n *= 2
        current, climbing = [], []
        for j, (row, value, below) in enumerate(zip(rows, values, previous)):
            diff = abs(value - below)
            if diff <= max(cfg.target_rel_tol * abs(value), floors[row] if floors else 0.0):
                done[row] = (value, diff + 16.0 * _EPS * abs(value))
            else:
                current.append(value)
                climbing.append(j)
        if not climbing:
            return done
        if len(climbing) < len(rows):
            rows = [rows[j] for j in climbing]
            params = params[climbing]
        previous = current
    return done


def _refuse(done: list, message: str) -> list[Row]:
    """The rows of a ladder, each row that ran out of rungs (None) refused with message."""
    refused = ConvergenceError(message)
    return [refused if row is None else row for row in done]


def _jacobi_ladder(
    phi: RowFn,
    params: Sequence,
    a: float,
    b: float,
    cfg: QuadConfig,
    floors: list | None = None,
) -> list[Row]:
    """Double the Gauss-Jacobi rule until two successive estimates agree, row by row.

    floors, one per row, are absolute tolerances: agreement within a row's floor
    counts as convergence.  A row that runs out of rungs is refused on its own.
    """
    rule = lambda n: _jacobi_rule(n, a, b)
    done = _row_ladder(rule, 16, cfg.max_nodes, _jacobi_sums, phi, params, cfg, floors)
    if None in done:
        message = f"Gauss-Jacobi ladder exhausted {cfg.max_nodes} nodes (weights a={a!r}, b={b!r})"
        done = _refuse(done, message)
    return done


# The lower log piece, in x with s = exp(-x)/2, is Gauss-Legendre panels on
# [0, LOG_HEAD_END] and closed form past it (_log_tails).  Its integrand is
# analytic but at x = -ln 2, where s = 1 and (1-s)**(alpha-1) is singular, and a
# panel's rule converges like rho**(-2n), rho growing with that point's distance
# from the panel in half-lengths.  The 8 panels grow geometrically in x + ln 2,
# each half-length under a quarter of its centre's distance from -ln 2 (rho about
# 7.9), so that 8 nodes per panel are nearly exact.  Their rules are cached by n.
LOG_HEAD_END = 40.0
_PANEL_EDGES = np.geomspace(math.log(2.0), LOG_HEAD_END + math.log(2.0), 9) - math.log(2.0)


def _panel_gauss_ladder(fn: RowFn, params: Sequence, cfg: QuadConfig, floors: list) -> list[Row]:
    """Composite Gauss-Legendre on [0, LOG_HEAD_END] to max_nodes per panel; floors, refusals as in _jacobi_ladder."""
    done = _row_ladder(_panel_rule, 8, cfg.max_nodes, _panel_sums, fn, params, cfg, floors)
    if None in done:
        done = _refuse(done, f"composite Gauss ladder exhausted {cfg.max_nodes} nodes per panel")
    return done


def _panel_rule(n: int) -> _Rule:
    """Gauss-Legendre of n nodes on each panel between _PANEL_EDGES; points are (1, panels, n).

    Each rung looks up its rule here, as a Jacobi rung does through
    gauss_jacobi_01.  The rules are cached by n.
    """
    rule = _panel_cache.get(n)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * np.diff(_PANEL_EDGES)[:, None]
        rule = _Rule(_Nodes((_PANEL_EDGES[:-1, None] + half * (1.0 + x))[None]), half * w)
        rule = _panel_cache.setdefault(n, rule)  # the rule of the first thread to build it
    return rule


# s at the head's end and 30 further, where _log_tails samples f
_TAIL_S = (0.5 * math.exp(-LOG_HEAD_END), 0.5 * math.exp(-LOG_HEAD_END - 30.0))
_LOG_TAIL_S2 = math.log(_TAIL_S[1])
_LOG_TINY = -1022.0 * math.log(2.0)  # of the smallest normal double


def _log_tails(f: Integrand | FunctionFamily, ts: list[float]) -> list[tuple[float, float]]:
    """The lower log piece past x = LOG_HEAD_END at each t of ts: (value, error estimate).

    There s < 2.2e-18, so (1-s)**(alpha-1) is 1 in double, and an honest
    declaration (its remainder O(tau)) makes g(tau) = f(tau) tau**-p equal
    A + B log tau to rounding.  With tau = t s and c = p + 1 the piece is
    integral_0^tau1 tau**p g(tau) dtau / t = s1 tau1**p (g1/c - B/c**2),
    where tau1 = t s1 is the head's end and B = (g1 - g2)/30 is fitted from
    f at tau1 and at tau2 = t s2, 30 further on, in one call of f for all t.

    f evaluates tau**p with p rounded, which moves the piece by up to 2/c
    times that rounding, relative to its two terms: the estimate adds it,
    and the same 16 eps of rounding as a ladder's.  The piece is 0, and f is
    not sampled, where e**(-40 c) or (t s2)**p is below the normal doubles:
    c > 1.8 there, so the piece is about e**(-40 c) of the head's, and f at
    tau2 would have lost its digits.
    """
    p = f.power_at_zero
    c = p + 1.0
    tails = [(0.0, 0.0)] * len(ts)
    if c * LOG_HEAD_END > -_LOG_TINY:
        return tails
    fit = [i for i, t in enumerate(ts) if p * (math.log(t) + _LOG_TAIL_S2) >= _LOG_TINY]  # t s2 may underflow
    if fit:
        s1, s2 = _TAIL_S
        ratio = (s1 / s2) ** p  # (tau1/tau2)**p: tau1**p g2 = v2 ratio
        error = 2.0 * math.ulp(p) / c + 16.0 * _EPS
        samples = f.value(np.array([ts[i] for i in fit])[:, None] * _TAIL_S).tolist()
        for i, (v1, v2) in zip(fit, samples):
            level, slope = v1 / c, (v1 - v2 * ratio) / (30.0 * c * c)  # tau1**p times g1/c and B/c**2
            tails[i] = (s1 * (level - slope), s1 * (abs(level) + abs(slope)) * error)
    return tails


# ---------------------------------------------------------------------------
# rows of many points, and the results the caller sees


def _points(name: str, t: float | Sequence[float]) -> tuple[list, bool]:
    """t as a list of points, and whether it came as one number.

    One point that is not finite and positive refuses the whole call, with
    the message a call at that point alone gives.
    """
    # np.ndim of a list would build an array from it
    scalar = isinstance(t, float) or (not isinstance(t, (list, tuple)) and np.ndim(t) == 0)
    points = [t] if scalar else list(t)
    for x in points:
        if not math.isfinite(x) or x <= 0.0:
            raise DomainError(f"{name} requires t > 0, got {x!r}")
    return points, scalar


class _GroupedPoints(list):
    """Points that the oracle passes to rl_integral_quad for its own use: it returns rows for them, not EvalResults."""

    __slots__ = ()


def _results(rows: list[Row], scalar: bool) -> EvalResult | list[EvalResult]:
    """The EvalResults of rows, one per point of t, for the caller.

    A refused point, or one whose estimate no EvalResult accepts, raises its
    error when t is one number.  A sequence of t raises the error of its
    first such point, with outcomes set (see FracCalcError).
    """
    if scalar:
        [row] = rows
        if isinstance(row, FracCalcError):
            raise row
        return EvalResult(row[0], "oracle", row[1])
    outcomes: list = []
    for row in rows:
        if not isinstance(row, FracCalcError):
            try:
                row = EvalResult(row[0], "oracle", row[1])
            except DomainError as exc:
                row = exc
        outcomes.append(row)
    refused = [row for row in outcomes if isinstance(row, FracCalcError)]
    if refused:
        error = type(refused[0])(*refused[0].args)
        error.outcomes = outcomes
        raise error
    return outcomes


# ---------------------------------------------------------------------------
# lower-limit-zero operators

def rl_integral_quad(
    f: Integrand | FunctionFamily, alpha: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Order-alpha fractional integral from 0 by weighted quadrature.

    After tau = t s the definition reads
    t**alpha / gamma(alpha) * integral_0^1 (1-s)**(alpha-1) f(t s) ds,
    so the kernel weight is exactly a Jacobi weight at s = 1; the declared
    origin exponent of f supplies the weight at s = 0.  A sequence of t
    gives a list of results, its points being rows of the same ladders.
    When the ladders refuse some of its points, the call raises the error of
    the first one, with every point's result or error in its outcomes (see
    FracCalcError).
    """
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"rl_integral_quad requires alpha > 0, got {alpha!r}")
    points, scalar = _points("rl_integral_quad", t)
    grouped = isinstance(t, _GroupedPoints)
    try:
        gamma = math.gamma(alpha)
    except OverflowError:
        raise DomainError(f"rl_integral_quad: gamma(alpha) overflows at alpha={alpha!r}") from None
    try:
        prefactors = [x**alpha / gamma for x in points]
    except OverflowError:  # the largest t overflows first
        raise DomainError(f"rl_integral_quad: t**alpha overflows at t={max(points)!r}, alpha={alpha!r}") from None
    ts = np.array(points)[:, None]
    p = f.power_at_zero
    if not f.log_at_zero:
        if p == 0.0:  # no weight s**p to divide out
            phi = lambda nodes, tc: f.value(tc * nodes.points)
        else:
            phi = lambda nodes, tc: f.value(tc * nodes.points) * nodes.s_pow_neg_b
        rows = _jacobi_ladder(phi, ts, alpha - 1.0, p, cfg)
    else:
        if p + 1.0 == 0.0:
            raise DomainError(f"rl_integral_quad requires power_at_zero + 1 > 0 in floating point, got {p!r}")
        # logarithmic origin: split at s = 1/2
        # upper piece keeps the Jacobi weight; f is smooth on [1/2, 1]
        rows = _jacobi_ladder(lambda nodes, tc: f.value(tc * nodes.upper_half), ts, alpha - 1.0, 0.0, cfg)
        scale_hi = 0.5**alpha

        # lower piece: s = exp(-x)/2 turns s**p log s into analytic * exp(-(p+1) x)
        def lower(nodes: _Nodes, tc: np.ndarray) -> np.ndarray:
            s = nodes.half_exp_neg
            return (1.0 - s) ** (alpha - 1.0) * f.value(tc * s) * s

        # the lower piece changes sign where t s = 1 and can cancel to nearly 0, so it
        # needs accuracy relative to the whole integral, not to itself
        live = [i for i, row in enumerate(rows) if not isinstance(row, FracCalcError)]
        if live:
            floors = [cfg.target_rel_tol * scale_hi * abs(rows[i][0]) for i in live]
            live_ts = ts if len(live) == len(ts) else ts[live]
            heads = _panel_gauss_ladder(lower, live_ts[:, :, None], cfg, floors)
            tails = _log_tails(f, [points[i] for i in live])
            for i, head, (vt, et) in zip(live, heads, tails):
                if isinstance(head, FracCalcError):
                    rows[i] = head
                else:
                    (v, e), (vh, eh) = rows[i], head
                    rows[i] = (scale_hi * v + vh + vt, scale_hi * e + eh + et)
    rows = [
        row if isinstance(row, FracCalcError) else (c * row[0], c * row[1])
        for c, row in zip(prefactors, rows)
    ]
    return rows if grouped else _results(rows, scalar)


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
    spread = abs(table[-1][-1] - table[-1][-2]) + abs(table[-1][-1] - table[-2][-2])
    return value, spread


def _stencil_derivative(
    name: str,
    f: Integrand | FunctionFamily,
    alpha: float,
    t: float | Sequence[float],
    cfg: QuadConfig,
    tail: Callable[..., list] | None = None,
) -> EvalResult | list[EvalResult]:
    """Order-alpha derivative as the order-m difference of an order (m - alpha) integral.

    m is the smallest integer above alpha.  The differenced integral is the
    one of f from 0, taken at every stencil point of every level of every t
    in a single rl_integral_quad call, plus, when given, a tail term:
    tail(beta, coeffs, stencils) takes one (t, steps, points) per t, points
    holding the stencil of each level, and returns its rows flat,
    RICHARDSON_LEVELS per t: for level i of a t, sum_k coeffs[k] *
    T(points[i][k]) for the order-beta tail T and its error, or the error
    that refused the row.  A t takes the error of its first refused row,
    its integrals' rows in stencil order before its tail's; otherwise the
    differences over a symmetric stencil of base width FD_STEP_FACTOR * t
    are Richardson-extrapolated over RICHARDSON_LEVELS step halvings.
    """
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"{name} requires alpha > 0, got {alpha!r}")
    if alpha == math.floor(alpha):
        raise DomainError(
            f"{name} requires non-integer alpha (got {alpha!r}); "
            "integer orders are plain derivatives"
        )
    points, scalar = _points(name, t)
    m = int(math.floor(alpha)) + 1
    beta_order = m - alpha
    coeffs, offsets = _central_stencil(m)
    tiny, huge = math.exp(_LOG_TINY / m), math.exp(-_LOG_TINY / m)  # the steps h whose h**m is a normal double
    rows: list = []
    stencils = {}  # (t, steps, points of each level) by row, for each t whose stencil fits
    flat = []
    for x in points:
        h0 = FD_STEP_FACTOR * x
        if x - m * h0 <= 0.0:
            rows.append(StencilError(f"stencil of width {m}*{h0!r} leaves t > 0 at t={x!r}"))
            continue
        steps = [h0 / 2.0**i for i in range(RICHARDSON_LEVELS)]
        if not tiny < steps[-1] < h0 < huge:  # each level divides by h**m
            rows.append(DomainError(f"{name}: the step powers h**{m} of the stencil leave the doubles at t={x!r}"))
            continue
        levels = [[x + o * h for o in offsets] for h in steps]
        stencils[len(rows)] = (x, steps, levels)
        for level in levels:
            flat += level
        rows.append(None)
    if stencils:
        integrals = rl_integral_quad(f, beta_order, _GroupedPoints(flat), cfg)
        tails = tail(beta_order, coeffs, list(stencils.values())) if tail is not None else []
        n = (m + 1) * RICHARDSON_LEVELS  # integral rows per t
        for k, (i, (_, steps, _)) in enumerate(stencils.items()):
            block = integrals[k * n : (k + 1) * n]
            levels = tails[k * RICHARDSON_LEVELS : (k + 1) * RICHARDSON_LEVELS]
            refused = [row for row in block + levels if isinstance(row, FracCalcError)]
            rows[i] = refused[0] if refused else _difference(coeffs, steps, block, levels)
    return _results(rows, scalar)


def _difference(coeffs: list[float], steps: list[float], integrals: list, tails: list) -> tuple[float, float]:
    """The extrapolated difference of one t, and its error, from its stencil rows and its tail rows, if any."""
    m = len(coeffs) - 1
    worst_quad_err = 0.0
    samples = []
    for i, h in enumerate(steps):
        total = 0.0
        for c, (g, err) in zip(coeffs, integrals[i * (m + 1) : (i + 1) * (m + 1)]):
            worst_quad_err = max(worst_quad_err, err)
            total += c * g
        if tails:
            tail_value, tail_err = tails[i]
            worst_quad_err = max(worst_quad_err, tail_err)
            total += tail_value
        samples.append(total / h**m)
    value, spread = _richardson(samples)
    noise = 2.0**m * worst_quad_err / steps[-1] ** m
    return value, spread + noise + 64.0 * _EPS * abs(value)


def rl_derivative_quad(
    f: Integrand | FunctionFamily, alpha: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Order-alpha fractional derivative from 0 by differencing the integral.

    With m the smallest integer above alpha, evaluates the order (m - alpha)
    integral on a symmetric stencil of base width FD_STEP_FACTOR * t and
    applies the order-m central difference, Richardson-extrapolated over
    RICHARDSON_LEVELS step halvings.  A sequence of t gives a list, as in
    rl_integral_quad.
    """
    return _stencil_derivative("rl_derivative_quad", f, alpha, t, cfg)


# ---------------------------------------------------------------------------
# tails over (0, inf), and the Weyl (lower limit -inf) operators for |t|**(-delta)

def _tail_integrand(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray], beta_exp: float) -> RowFn:
    """integral_0^inf kernel(u, rows) u**beta_exp du as a Jacobi-weighted integral on (0, 1).

    u = s t/(1-s) maps (0, 1) onto (0, inf), t being the first column of each
    row, so one integrand serves rows of many t.  The returned integrand is
    divided by the weight (1-s)**a s**b of the rule it is evaluated on, which
    the caller picks: b is beta_exp, and a the decay exponent of the whole
    integrand at s = 1, which each caller computes from its own exponents.
    """

    def phi(nodes: _Nodes, rows: np.ndarray) -> np.ndarray:
        t = rows[:, :1]
        u = nodes.points * t / nodes.one_minus
        du = t / nodes.one_minus_sq
        return kernel(u, rows) * u**beta_exp * du * nodes.one_minus_pow_neg_a * nodes.s_pow_neg_b

    return phi


def tail_power_quad(
    a_exp: float, beta_exp: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Direct numerical value of integral_0^inf (t+u)**a_exp u**beta_exp du.

    After u = s t/(1-s) the endpoint exponents are -a_exp-beta_exp-2 at s=1
    and beta_exp at s=0.  A sequence of t gives a list, as in
    rl_integral_quad.
    """
    if not a_exp < -beta_exp - 1.0 < 0.0:
        raise DomainError(
            f"tail_power_quad requires a_exp < -beta_exp-1 < 0, got a_exp={a_exp!r}, beta_exp={beta_exp!r}"
        )
    points, scalar = _points("tail_power_quad", t)
    w_right = -a_exp - beta_exp - 2.0
    phi = _tail_integrand(lambda u, ts: (ts + u) ** a_exp, beta_exp)
    return _results(_jacobi_ladder(phi, np.array(points)[:, None], w_right, beta_exp, cfg), scalar)


def weyl_integral_quad(
    delta: float, alpha: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Weyl fractional integral of |tau|**(-delta) at t > 0, formula-free.

    Split at 0: the (0, t) part is the lower-limit-zero integral of
    tau**(-delta); the (-inf, 0) part becomes, via u = -tau, the tail
    integral of (t+u)**(alpha-1) u**(-delta), with exponents delta-alpha-1
    at s=1 (tail decay) and -delta at s=0.  A sequence of t gives a list,
    as in rl_integral_quad.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_integral_quad requires delta in (0,1), got {delta!r}")
    if not 0.0 < alpha < delta:
        raise DomainError(
            f"weyl_integral_quad requires 0 < alpha < delta for tail convergence, "
            f"got alpha={alpha!r}, delta={delta!r}"
        )
    points, scalar = _points("weyl_integral_quad", t)
    rows = rl_integral_quad(AbsPower(delta), alpha, _GroupedPoints(points), cfg)
    live = [i for i, row in enumerate(rows) if not isinstance(row, FracCalcError)]
    if live:
        w_right = delta - alpha - 1.0
        phi = _tail_integrand(lambda u, ts: (ts + u) ** (alpha - 1.0), -delta)
        tails = _jacobi_ladder(phi, np.array([points[i] for i in live])[:, None], w_right, -delta, cfg)
        c = 1.0 / math.gamma(alpha)
        for i, tail in zip(live, tails):
            (v, e) = rows[i]
            rows[i] = tail if isinstance(tail, FracCalcError) else (v + c * tail[0], e + c * tail[1])
    return _results(rows, scalar)


def weyl_derivative_quad(
    delta: float, alpha: float, t: float | Sequence[float], cfg: QuadConfig = DEFAULT_CONFIG
) -> EvalResult | list[EvalResult]:
    """Weyl fractional derivative of |tau|**(-delta) at t > 0, formula-free.

    Differences the order (m - alpha) Weyl integral over the same stencil as
    rl_derivative_quad.  The (-inf, 0) tail of that integral diverges once
    m - alpha >= delta, but the order-m difference of it converges: summing
    the stencil kernel sum_k c_k (x_k + u)**(beta-1) *inside* the integral
    cancels the divergent bulk analytically (the kernel decays like
    h**m u**(beta-1-m)), so the tail is evaluated as a single absolutely
    convergent Jacobi-weighted integral for every admissible order.  A
    sequence of t gives a list, as in rl_integral_quad.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"weyl_derivative_quad requires delta in (0,1), got {delta!r}")
    w_right = alpha + delta - 1.0

    def tail(beta_order: float, coeffs: list[float], stencils: list[tuple]) -> list:
        # one row per Richardson level of each t: t, the step, the low end of the stencil, its points
        levels = np.array(
            [[x, h, min(level), *level] for x, steps, points in stencils for h, level in zip(steps, points)]
        )

        def kernel(u: np.ndarray, rows: np.ndarray, unsigned: bool = False) -> np.ndarray:
            if len(coeffs) == 2 and not unsigned:
                # m = 1: first difference of A**(beta-1) via expm1/log1p, no cancellation
                a_low = rows[:, 2:3] + u
                return a_low ** (beta_order - 1.0) * np.expm1(
                    (beta_order - 1.0) * np.log1p(rows[:, 1:2] / a_low)
                )
            total = 0.0
            for k, c in enumerate(coeffs):
                weight = abs(c) if unsigned else c
                total = total + weight * (rows[:, k + 3 : k + 4] + u) ** (beta_order - 1.0)
            return total

        # unsigned-kernel magnitude sets the roundoff floor of the signed sum
        rule = _jacobi_rule(32, w_right, -delta)
        scales = _tail_integrand(partial(kernel, unsigned=True), -delta)(rule.nodes, levels)
        floors = [64.0 * _EPS * abs(scale) for scale in _jacobi_sums(scales, rule.weights).tolist()]
        prefactor = 1.0 / math.gamma(beta_order)
        phi = _tail_integrand(kernel, -delta)
        rows = _jacobi_ladder(phi, levels, w_right, -delta, cfg, floors)
        # the floor is evaluation noise that the ladder's differences need not show
        return [
            row if isinstance(row, FracCalcError) else (prefactor * row[0], prefactor * (row[1] + floor))
            for row, floor in zip(rows, floors)
        ]

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
