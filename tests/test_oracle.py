"""Quadrature oracle: rule exactness, convergence, and agreement targets.

The oracle must reproduce known values without ever touching the closed-form
module; every expected value here is either elementary or a frozen constant
re-derived in test_closed_forms.py from independent routes.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fraccalc import oracle as orc
from fraccalc.errors import ConvergenceError, DomainError, StencilError
from fraccalc.model import _EPS, JACOBI_MAX_NODES, AbsPower, Exp, OperatorKind, Power, PowerLog
from fraccalc.oracle import Integrand, QuadConfig
from fraccalc.verify import ATOL_DERIVATIVE, TOL_DERIVATIVE

CFG = QuadConfig()

T4_HALF_ONE_ONE = -0.69249265764135724
T2_QUARTER_HALF_ONE = 2.8928181692641543
T6_HALF_QUARTER_ONE = -0.13999967745248263
# powerlog nu = 1.5 at points where one lower log piece nearly cancels to 0
T4_CANCELLING = 2.6807390824790617  # alpha 0.24, t 3.594375
T8_CANCELLING = 1.2426388388897313  # alpha 0.76, t 3.55


class TestGaussJacobiRule:
    @pytest.mark.parametrize("n", (4, 8, 16, 64))
    @pytest.mark.parametrize("a", (-0.5, -0.1, 0.0, 0.7, 1.5))
    def test_polynomial_exactness_against_beta(self, n, a):
        # integral_0^1 (1-s)^a s^k ds = B(k+1, a+1), exact up to degree 2n-1
        nodes, weights = orc.gauss_jacobi_01(n, a, 0.0)
        for k in (0, 1, n, 2 * n - 1):
            estimate = float(np.dot(weights, nodes**k))
            exact = math.exp(math.lgamma(k + 1.0) + math.lgamma(a + 1.0) - math.lgamma(k + a + 2.0))
            assert estimate == pytest.approx(exact, rel=1e-13)

    def test_two_sided_weights(self):
        # integral_0^1 (1-s)^(-1/2) s^(1/2) ds = B(3/2, 1/2) = pi/2
        nodes, weights = orc.gauss_jacobi_01(16, -0.5, 0.5)
        assert float(np.sum(weights)) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_degenerate_recurrence_case(self):
        # a + b = -1 hits the 0/0 branch of the generic recurrence coefficient
        nodes, weights = orc.gauss_jacobi_01(8, -0.5, -0.5)
        assert float(np.sum(weights)) == pytest.approx(math.pi, rel=1e-14)

    def test_matches_scipy_reference(self):
        from scipy.special import roots_jacobi

        a, b = 0.3, -0.4
        # roots_jacobi's weights next to the endpoints are off by 1.4e-9
        # relative at n = 256 (against 40-digit mpmath, where these are within 8e-13)
        for n, weight_rtol in ((24, 1e-12), (256, 2e-9)):
            mine_x, mine_w = orc.gauss_jacobi_01(n, a, b)
            ref_x, ref_w = roots_jacobi(n, a, b)
            assert np.allclose(mine_x, (ref_x + 1.0) / 2.0, rtol=1e-12, atol=1e-14)
            assert np.allclose(mine_w, ref_w * 2.0 ** (-a - b - 1.0), rtol=weight_rtol, atol=1e-16)

    # the largest rule there is, and above it the oracle's ladder, which stops there
    @pytest.mark.parametrize("n", (JACOBI_MAX_NODES, 257, 1024, 2048))
    @pytest.mark.parametrize("a", (-0.9, 0.0, 1.5))
    @pytest.mark.parametrize("b", (-0.9, 0.0, 1.5))
    def test_polynomial_exactness_large_n(self, n, a, b):
        # integral_0^1 (1-s)^a s^(k+b) ds = B(k+b+1, a+1); k = 2n-1 leans on the nodes
        # next to s = 1, k = 0 on all weights
        degrees = (0, 1, n, 2 * n - 1)
        if n <= JACOBI_MAX_NODES:
            nodes, weights = orc.gauss_jacobi_01(n, a, b)
            rows = [(float(np.dot(weights, nodes**k)), 0.0) for k in degrees]
        else:
            # no rule has n nodes: each degree is the ladder's value or its refusal
            rows = orc._jacobi_ladder(lambda s, k: s**k, np.array(degrees, float)[:, None], a, b, CFG)
        for k, row in zip(degrees, rows):
            if isinstance(row, ConvergenceError):
                # the largest rule is exact up to degree 2 * JACOBI_MAX_NODES - 1
                assert k >= 2 * JACOBI_MAX_NODES
                continue
            exact = math.exp(math.lgamma(k + b + 1.0) + math.lgamma(a + 1.0) - math.lgamma(k + a + b + 2.0))
            assert row[0] == pytest.approx(exact, rel=1e-11)

    # the cap on gauss_jacobi_01 is one of memory: above it the dense construction
    # still gives the zeros of P_n, the rule a large-rule path would have to match
    @pytest.mark.parametrize("n", (257, 512))
    @pytest.mark.parametrize("a, b", ((-0.9, 0.3), (0.0, 0.0), (1.5, -0.9), (4.0, 2.5), (30.0, 0.5)))
    def test_newton_rule_matches_dense(self, n, a, b):
        from scipy.special import eval_jacobi, roots_jacobi

        # Newton on P_n^(a,b) over [-1, 1], from scipy's nodes; P_n' = (n+a+b+1)/2 P_(n-1)^(a+1,b+1)
        x = roots_jacobi(n, a, b)[0]
        for _ in range(3):
            x = x - eval_jacobi(n, a, b, x) / ((n + a + b + 1.0) / 2.0 * eval_jacobi(n - 1, a + 1.0, b + 1.0, x))
        dense_x, dense_w = orc._golub_welsch(n, a, b)
        assert np.max(np.abs((x + 1.0) / 2.0 - dense_x)) <= 1e-15
        assert np.all(np.diff(dense_x) > 0.0)
        # the weights only by their mass: the weight formula at a double node next to an
        # endpoint of exponent -0.9 is off by 1e-10 relative (against 40-digit mpmath, where
        # the dense weights are within 3e-12), so it is no reference for them
        mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
        assert float(np.sum(dense_w)) == pytest.approx(mass, rel=1e-13)

    def test_bad_exponents(self):
        with pytest.raises(DomainError):
            orc.gauss_jacobi_01(8, -1.0, 0.0)

    # nan passed a <= -1 and b <= -1, and eigh raised LinAlgError, which is no FracCalcError
    @pytest.mark.parametrize("a, b", ((math.nan, 0.0), (0.0, math.nan)))
    def test_nan_exponents_are_domain_errors(self, a, b):
        with pytest.raises(DomainError, match="exponents must exceed -1"):
            orc.gauss_jacobi_01(16, a, b)

    def test_rule_above_the_ceiling_is_refused_before_allocating(self):
        with pytest.raises(DomainError, match=f"rule size must be in \\[1, {JACOBI_MAX_NODES}\\], got 257"):
            orc.gauss_jacobi_01(JACOBI_MAX_NODES + 1, 0.0, 0.0)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="got 4096"):
                orc.gauss_jacobi_01(4096, 0.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the dense matrix would take 128 MB


class TestJacobiRuleCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        """A fresh, empty rule cache, so that the test neither sees nor evicts the others' rules."""
        fresh = {}
        monkeypatch.setattr(orc, "_jacobi_cache", fresh)
        return fresh

    def test_stays_at_its_bound_over_distinct_alphas(self, cache):
        bound = orc.JACOBI_CACHE_MAX_RULES
        first = orc.gauss_jacobi_01(2, -0.5, 0.0)
        kept = tuple(x.copy() for x in first)
        for i in range(1, bound + 500):
            orc.gauss_jacobi_01(2, -0.5 + i * 1e-6, 0.0)
            assert len(cache) <= bound
        assert len(cache) == bound
        # the oldest rules went first; the newest are still there
        assert (2, -0.5, 0.0) not in cache
        assert (2, -0.5 + (bound + 499) * 1e-6, 0.0) in cache
        rebuilt = orc.gauss_jacobi_01(2, -0.5, 0.0)
        assert rebuilt is not first
        for new, old in zip(rebuilt, kept):
            assert new.tobytes() == old.tobytes()

    def test_a_hit_is_the_cached_rule_and_keeps_its_age(self, cache, monkeypatch):
        monkeypatch.setattr(orc, "JACOBI_CACHE_MAX_RULES", 3)
        oldest = orc.gauss_jacobi_01(4, 0.1, 0.0)
        orc.gauss_jacobi_01(4, 0.2, 0.0)
        orc.gauss_jacobi_01(4, 0.3, 0.0)
        assert orc.gauss_jacobi_01(4, 0.1, 0.0) is oldest
        # the hit did not make the rule younger: the next new rule evicts it
        orc.gauss_jacobi_01(4, 0.4, 0.0)
        assert list(cache) == [(4, 0.2, 0.0), (4, 0.3, 0.0), (4, 0.4, 0.0)]

    def test_threads_building_rules_keep_the_bound(self, cache, monkeypatch):
        monkeypatch.setattr(orc, "JACOBI_CACHE_MAX_RULES", 16)
        errors = []

        def build(k):
            try:
                for i in range(300):
                    orc.gauss_jacobi_01(2, 0.1 * k + i * 1e-6, 0.0)
            except Exception as exc:  # reported below: a lost eviction raises KeyError here
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) == 16


def _one_row_ladder(rule, n, n_max, integrate, block, tol, floor):
    """The ladder of one row, one reduction per rung: (value, estimate, nodes) or None."""
    below = None
    while n <= n_max:
        points, weights = rule(n)
        value = float(integrate(weights, block(points)))
        if below is not None:
            diff = abs(value - below)
            if diff <= max(tol * abs(value), floor):
                return value, diff + 16.0 * _EPS * abs(value), n
        below = value
        n *= 2
    return None


def _wide_block(row, shape):
    """A seeded block of one row: random signs and magnitudes over eight decades
    about a scale of the row's own, shrinking 1e-3-fold per doubling of the nodes,
    so that each row's rungs converge."""
    scale = 10.0 ** np.random.default_rng(row).uniform(-50, 50) * 1e-3 ** math.log2(shape[-1])
    rng = np.random.default_rng([row, shape[-1]])
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape) * scale


class TestRowReductions:
    """Every row of a ladder is what the same row gives alone, one reduction per rung."""

    def _ladders(self, rows, rule, n, n_max, reduce, integrate, shape):
        """The ladder of all rows at once, and each row's alone; shape(points) is a row's block shape."""
        ids = np.arange(float(rows))[:, None]
        # floors between 1e-12 and 1e-3 of each row's first value: the rows stop on different rungs
        rng = np.random.default_rng(rows)
        points, weights = rule(n)
        floors = [
            abs(float(integrate(weights, _wide_block(r, shape(points))))) * 10.0 ** -rng.uniform(3, 12)
            for r in range(rows)
        ]
        phi = lambda points, p: np.stack([_wide_block(int(r), shape(points)) for r in p[:, 0]])
        done = orc._row_ladder(rule, n, n_max, reduce, phi, ids, CFG, floors)
        alone = [
            _one_row_ladder(rule, n, n_max, integrate, lambda points: _wide_block(r, shape(points)),
                            CFG.target_rel_tol, floors[r])
            for r in range(rows)
        ]
        assert None not in alone
        if rows > 1:
            assert len({nodes for _, _, nodes in alone}) > 1
        return done, [(value, estimate) for value, estimate, _ in alone]

    @pytest.mark.parametrize("rows", (1, 3, 48))
    def test_jacobi_rows_are_their_own_dot(self, rows):
        rule = lambda n: orc.gauss_jacobi_01(n, -0.5, 0.3)
        # from 4 nodes, so that every row stops by the largest rule (16 to 256 nodes here)
        done, alone = self._ladders(rows, rule, 4, JACOBI_MAX_NODES, orc._jacobi_sums, np.ndarray.dot, np.shape)
        assert done == alone

    @pytest.mark.parametrize("rows", (1, 3, 48))
    def test_panel_rows_are_their_own_pairwise_sum(self, rows):
        # 40 panels: rows that climb to 256 nodes hold 10240 values, past numpy's buffer of 8192
        def rule(n):
            x, w = np.polynomial.legendre.leggauss(n)
            half = np.linspace(0.5, 3.0, 40)[:, None]
            return (half * x)[None], half * w

        sum_alone = lambda w, block: np.add.reduce(w * block, axis=None)
        done, alone = self._ladders(rows, rule, 8, 4096, orc._panel_sums, sum_alone, lambda p: p.shape[1:])
        assert done == alone


class TestRlIntegralQuad:
    def test_constant(self):
        r = orc.rl_integral_quad(Integrand(lambda s: np.ones_like(s)), 0.5, 1.0, CFG)
        assert r.value == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)
        assert r.method == "oracle"

    def test_exponential(self):
        r = orc.rl_integral_quad(Exp(1.0), 1.0, 1.0, CFG)
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_powerlog(self):
        r = orc.rl_integral_quad(PowerLog(1.0), 0.5, 1.0, CFG)
        assert r.value == pytest.approx(T4_HALF_ONE_ONE, rel=1e-9)

    def test_singular_power(self):
        r = orc.rl_integral_quad(Power(-0.5), 0.5, 1.0, CFG)
        assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_domain(self):
        f = Exp(1.0)
        with pytest.raises(DomainError):
            orc.rl_integral_quad(f, 0.0, 1.0, CFG)
        with pytest.raises(DomainError):
            orc.rl_integral_quad(f, 0.5, -1.0, CFG)

    def test_error_estimate_honest(self):
        r = orc.rl_integral_quad(Exp(1.0), 1.0, 1.0, CFG)
        assert abs(r.value - (math.e - 1.0)) <= 10.0 * r.abs_err_estimate

    def test_convergence_error_when_budget_too_small(self):
        tiny = QuadConfig(max_nodes=16)
        with pytest.raises(ConvergenceError):
            orc.rl_integral_quad(Exp(1.0), 0.5, 1.0, tiny)

    def test_powerlog_lower_piece_cancelling_to_zero(self):
        # the lower log piece changes sign at t s = 1 and here nearly cancels to 0,
        # so it converges to a tolerance set by the whole integral, not by itself
        r = orc.rl_integral_quad(PowerLog(1.5), 0.24, 3.594375, CFG)
        assert abs(r.value - T4_CANCELLING) <= r.abs_err_estimate + 4e-16 * T4_CANCELLING
        assert r.abs_err_estimate <= CFG.target_rel_tol * abs(r.value)


# the four integrand kinds of rl_integral_quad: p = 0, p != 0, log at the origin,
# and a custom evaluator; each grows fast enough that t = 40 needs more nodes than t = 1
VECTOR_KINDS = {
    "p=0": Exp(1.0),
    "p!=0": Integrand(lambda x: np.sqrt(x) * np.exp(x), power_at_zero=0.5),
    "log-origin": Integrand(lambda x: np.log(x) * np.exp(x), log_at_zero=True),
    "custom": Integrand(np.cos),
}
VECTOR_TS = (1.0, 40.0, 0.5, 5.0)


def _outcome(call):
    """What call() returns, or the error it raises."""
    try:
        return call()
    except (ConvergenceError, DomainError) as exc:
        return exc


def _rule_sizes(monkeypatch, call):
    """Node counts of every rule that call() asks for, in order; call may raise."""
    sizes = []
    jacobi, legendre = orc.gauss_jacobi_01, orc._gauss_legendre
    with monkeypatch.context() as patch:
        patch.setattr(orc, "gauss_jacobi_01", lambda n, a, b: sizes.append(n) or jacobi(n, a, b))
        patch.setattr(orc, "_gauss_legendre", lambda n: sizes.append(n) or legendre(n))
        _outcome(call)
    return sizes


class TestRlIntegralQuadVector:
    @pytest.mark.parametrize("kind", sorted(VECTOR_KINDS))
    def test_rows_equal_single_point_calls(self, kind, monkeypatch):
        f = VECTOR_KINDS[kind]
        # the rows converge on different rungs, so the batch must stop each on its own
        rungs = [_rule_sizes(monkeypatch, lambda: orc.rl_integral_quad(f, 0.5, t, CFG)) for t in VECTOR_TS]
        assert len({len(r) for r in rungs}) > 1
        singles = [orc.rl_integral_quad(f, 0.5, t, CFG) for t in VECTOR_TS]
        assert orc.rl_integral_quad(f, 0.5, list(VECTOR_TS), CFG) == singles
        assert orc.rl_integral_quad(f, 0.5, np.array(VECTOR_TS), CFG) == singles

    def test_scalar_and_one_element_sequence(self):
        f = VECTOR_KINDS["p=0"]
        single = orc.rl_integral_quad(f, 0.5, 2.0, CFG)
        assert single.method == "oracle"
        assert orc.rl_integral_quad(f, 0.5, [2.0], CFG) == [single]
        assert orc.rl_integral_quad(f, 0.5, (2.0,), CFG) == [single]

    @pytest.mark.parametrize("bad", (-1.0, 0.0, math.nan, math.inf))
    def test_any_bad_point_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="t > 0"):
            orc.rl_integral_quad(VECTOR_KINDS["p=0"], 0.5, [1.0, bad, 2.0], CFG)

    def test_row_that_cannot_converge(self):
        f = VECTOR_KINDS["p=0"]
        with pytest.raises(ConvergenceError):
            orc.rl_integral_quad(f, 0.5, [1.0, 2.0], QuadConfig(max_nodes=16))
        # t = 1 converges within 32 nodes on its own, t = 40 does not
        orc.rl_integral_quad(f, 0.5, 1.0, QuadConfig(max_nodes=32))
        with pytest.raises(ConvergenceError):
            orc.rl_integral_quad(f, 0.5, [1.0, 40.0], QuadConfig(max_nodes=32))


class TestStencilBatching:
    @pytest.mark.parametrize("alpha", (0.5, 1.5, 2.5))  # m = 1, 2, 3
    def test_one_integral_call_per_derivative(self, alpha, monkeypatch):
        calls = []
        real = orc.rl_integral_quad

        def counting(f, beta, t, cfg=CFG):
            calls.append(len(t))
            return real(f, beta, t, cfg)

        monkeypatch.setattr(orc, "rl_integral_quad", counting)
        rows = (math.floor(alpha) + 2) * orc.RICHARDSON_LEVELS
        orc.rl_derivative_quad(Exp(1.0), alpha, 2.0, CFG)
        assert calls == [rows]
        calls.clear()
        orc.weyl_derivative_quad(0.5, alpha, 2.0, CFG)
        assert calls == [rows]


    @pytest.mark.parametrize("alpha", (0.5, 1.5, 2.5))
    def test_one_integral_call_for_every_t(self, alpha, monkeypatch):
        calls = []
        real = orc.rl_integral_quad

        def counting(f, beta, t, cfg=CFG):
            calls.append(len(t))
            return real(f, beta, t, cfg)

        monkeypatch.setattr(orc, "rl_integral_quad", counting)
        rows = (math.floor(alpha) + 2) * orc.RICHARDSON_LEVELS
        orc.rl_derivative_quad(Exp(1.0), alpha, [0.5, 2.0, 8.0], CFG)
        assert calls == [3 * rows]
        calls.clear()
        orc.weyl_derivative_quad(0.5, alpha, [0.5, 2.0, 8.0], CFG)
        assert calls == [3 * rows]


def _same(got, want):
    """Equal results, or errors of one type and message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


SPREAD_TS = (0.5, 2.0, 8.0, 40.0)
# |t|**(-delta) and the power tail are homogeneous in t, so their integrands
# differ between points only by rounding; a tolerance near rounding level makes
# the points climb different rungs, and makes some of them refuse
HOMOGENEOUS_TS = (0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0, 8.0)
NEAR_ROUNDING = {tol: QuadConfig(tol, 256) for tol in (2e-16, 5e-16, 1e-15)}
# (function, its arguments before t, config, points)
SEQUENCE_CASES = {
    "rl-der m=1": (orc.rl_derivative_quad, (Exp(1.0), 0.5), CFG, SPREAD_TS),
    "rl-der m=2": (orc.rl_derivative_quad, (Exp(1.0), 1.5), CFG, SPREAD_TS),
    "rl-der m=3": (orc.rl_derivative_quad, (Exp(1.0), 2.5), CFG, SPREAD_TS),
    "weyl-der m=1": (orc.weyl_derivative_quad, (0.5, 0.25), NEAR_ROUNDING[2e-16], HOMOGENEOUS_TS),
    "weyl-der m=2": (orc.weyl_derivative_quad, (0.6, 1.5), NEAR_ROUNDING[2e-16], HOMOGENEOUS_TS),
    "weyl-der m=3": (orc.weyl_derivative_quad, (0.8, 2.5), NEAR_ROUNDING[2e-16], HOMOGENEOUS_TS),
    "weyl-int": (orc.weyl_integral_quad, (0.5, 0.25), NEAR_ROUNDING[5e-16], HOMOGENEOUS_TS),
    "tail-power": (orc.tail_power_quad, (-1.7, -0.3), NEAR_ROUNDING[1e-15], HOMOGENEOUS_TS),
}


class TestSequenceOfT:
    @pytest.mark.parametrize("case", sorted(SEQUENCE_CASES))
    def test_sequence_equals_one_point_calls(self, case, monkeypatch):
        quad, args, cfg, ts = SEQUENCE_CASES[case]
        # the points converge on different rungs, so the batch must stop each on its own
        assert len({len(_rule_sizes(monkeypatch, lambda: quad(*args, t, cfg))) for t in ts}) > 1
        singles = [_outcome(lambda: quad(*args, t, cfg)) for t in ts]
        refused = [r for r in singles if isinstance(r, Exception)]
        batch = _outcome(lambda: quad(*args, list(ts), cfg))
        if not refused:
            assert batch == singles
            assert quad(*args, np.array(ts), cfg) == singles
            return
        # a refused point fails alone: the call raises the first refusal and
        # carries every point's own outcome
        assert _same(batch, refused[0])
        assert len(batch.outcomes) == len(ts)
        assert all(_same(got, want) for got, want in zip(batch.outcomes, singles))

    def test_some_cases_refuse_points(self):
        quad, args, cfg, ts = SEQUENCE_CASES["weyl-der m=2"]
        outcomes = [_outcome(lambda: quad(*args, t, cfg)) for t in ts]
        assert any(isinstance(r, ConvergenceError) for r in outcomes)
        assert any(not isinstance(r, Exception) for r in outcomes)

    def test_refused_rl_integral_point_keeps_the_others(self):
        f, cfg = VECTOR_KINDS["p=0"], QuadConfig(max_nodes=32)
        with pytest.raises(ConvergenceError) as info:
            orc.rl_integral_quad(f, 0.5, [1.0, 40.0, 2.0], cfg)
        first, refused, last = info.value.outcomes
        assert first == orc.rl_integral_quad(f, 0.5, 1.0, cfg)
        assert last == orc.rl_integral_quad(f, 0.5, 2.0, cfg)
        assert _same(refused, _outcome(lambda: orc.rl_integral_quad(f, 0.5, 40.0, cfg)))

    def test_stencil_error_is_per_point(self):
        # m = 11 steps of FD_STEP_FACTOR * t reach past the origin at every t
        with pytest.raises(StencilError) as info:
            orc.rl_derivative_quad(Exp(1.0), 10.5, [1.0, 2.0], CFG)
        for t, got in zip((1.0, 2.0), info.value.outcomes):
            assert _same(got, _outcome(lambda: orc.rl_derivative_quad(Exp(1.0), 10.5, t, CFG)))

    @pytest.mark.parametrize("bad", (-1.0, 0.0, math.nan, math.inf))
    @pytest.mark.parametrize(
        "name, call",
        (
            ("rl_derivative_quad", lambda t: orc.rl_derivative_quad(Exp(1.0), 0.5, t, CFG)),
            ("weyl_derivative_quad", lambda t: orc.weyl_derivative_quad(0.5, 0.25, t, CFG)),
            ("weyl_integral_quad", lambda t: orc.weyl_integral_quad(0.5, 0.25, t, CFG)),
            ("tail_power_quad", lambda t: orc.tail_power_quad(-1.7, -0.3, t, CFG)),
        ),
    )
    def test_any_bad_point_is_domain_error(self, name, call, bad):
        with pytest.raises(DomainError) as single:
            call(bad)
        with pytest.raises(DomainError) as batch:
            call([1.0, bad, 2.0])
        assert str(batch.value) == str(single.value) == f"{name} requires t > 0, got {bad!r}"


class TestFamiliesAsIntegrands:
    @pytest.mark.parametrize("family", (Power(-0.5), Power(2.0), Exp(-1.0), PowerLog(0.3), AbsPower(0.4)))
    def test_family_equals_its_integrand(self, family):
        integrand = Integrand(family.value, family.power_at_zero, family.log_at_zero)
        for quad in (orc.rl_integral_quad, orc.rl_derivative_quad):
            assert quad(family, 1.5, 2.0, CFG) == quad(integrand, 1.5, 2.0, CFG)


class TestRlDerivativeQuad:
    def test_square(self):
        r = orc.rl_derivative_quad(Power(2.0), 0.5, 1.0, CFG)
        assert r.value == pytest.approx(1.5045055561273501, rel=1e-5)

    def test_constant(self):
        r = orc.rl_derivative_quad(Integrand(lambda s: np.ones_like(s)), 0.5, 4.0, CFG)
        assert r.value == pytest.approx(1.0 / (2.0 * math.gamma(0.5)), rel=1e-6)

    def test_exponential(self):
        r = orc.rl_derivative_quad(Exp(1.0), 0.5, 1.0, CFG)
        assert r.value == pytest.approx(2.8548878358509945, rel=1e-5)

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError):
            orc.rl_derivative_quad(Exp(1.0), 1.0, 1.0, CFG)

    def test_powerlog_whose_lower_piece_cancels(self):
        # one stencil point's integral has a lower log piece of nearly 0
        r = orc.oracle_eval(OperatorKind.RL_DERIVATIVE, 0.76, PowerLog(1.5), 3.55, CFG)
        gap = abs(r.value - T8_CANCELLING)
        assert gap <= max(TOL_DERIVATIVE * T8_CANCELLING, ATOL_DERIVATIVE)
        assert gap <= r.abs_err_estimate

    def test_stencil_check(self):
        # m = 11 steps of FD_STEP_FACTOR * t reach past the origin
        with pytest.raises(StencilError):
            orc.rl_derivative_quad(Exp(1.0), 10.5, 1.0, CFG)


class TestWeylIntegralQuad:
    def test_headline_point(self):
        r = orc.weyl_integral_quad(0.5, 0.25, 1.0, CFG)
        assert r.value == pytest.approx(T2_QUARTER_HALF_ONE, rel=1e-9)

    def test_homogeneity(self):
        alpha, delta = 0.25, 0.5
        one = orc.weyl_integral_quad(delta, alpha, 1.0, CFG).value
        two = orc.weyl_integral_quad(delta, alpha, 2.0, CFG).value
        assert two / one == pytest.approx(2.0 ** (alpha - delta), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            orc.weyl_integral_quad(0.5, 0.6, 1.0, CFG)
        with pytest.raises(DomainError):
            orc.weyl_integral_quad(1.1, 0.5, 1.0, CFG)


    def test_tail_is_the_power_tail_lemma(self):
        # the (-inf, 0) part is integral_0^inf (t+u)**(alpha-1) u**(-delta) du / gamma(alpha)
        from fraccalc.verify import ALPHAS, DELTAS, TS

        points = [(d, a, t) for d in DELTAS for a in ALPHAS if a < d for t in TS]
        assert len(points) == 48
        for delta, alpha, t in points:
            whole = orc.weyl_integral_quad(delta, alpha, t, CFG)
            near = orc.rl_integral_quad(AbsPower(delta), alpha, t, CFG)
            tail = orc.tail_power_quad(alpha - 1.0, -delta, t, CFG)
            c = 1.0 / math.gamma(alpha)
            bound = whole.abs_err_estimate + near.abs_err_estimate + c * tail.abs_err_estimate
            assert abs(whole.value - near.value - c * tail.value) <= bound


class TestWeylDerivativeQuad:
    def test_cosine_zero_locus(self):
        # the corrected closed form is exactly 0 here; the incorrect
        # literature value is ~0.69, which the oracle must contradict
        r = orc.weyl_derivative_quad(0.5, 0.25, 1.0, CFG)
        assert abs(r.value) < 1e-6
        assert abs(r.value) <= 10.0 * r.abs_err_estimate

    def test_negative_value_point(self):
        r = orc.weyl_derivative_quad(0.25, 0.5, 1.0, CFG)
        assert r.value == pytest.approx(T6_HALF_QUARTER_ONE, rel=1e-5)

    def test_order_above_one(self):
        # m = 2 branch; frozen reference from the 40-digit cosine-ratio value
        r = orc.weyl_derivative_quad(0.6, 1.5, 1.0, CFG)
        assert r.value == pytest.approx(0.96721172218460257, rel=1e-8)
        # the Richardson spread is an upper bound, conservative by ~h**2
        assert abs(r.value - 0.96721172218460257) <= 10.0 * r.abs_err_estimate
        assert r.abs_err_estimate < 1e-2

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError):
            orc.weyl_derivative_quad(0.5, 1.0, 1.0, CFG)

    def test_domain(self):
        with pytest.raises(DomainError):
            orc.weyl_derivative_quad(1.5, 0.5, 1.0, CFG)


class TestTailPowerQuad:
    def test_exact_two(self):
        r = orc.tail_power_quad(-1.5, -0.5, 1.0, CFG)
        assert r.value == pytest.approx(2.0, rel=1e-9)

    def test_exact_half_pi(self):
        r = orc.tail_power_quad(-2.0, -0.5, 1.0, CFG)
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_generic_point(self):
        r = orc.tail_power_quad(-1.7, -0.3, 2.0, CFG)
        assert r.value == pytest.approx(10.0 / 7.0 / 2.0, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            orc.tail_power_quad(-0.4, -0.5, 1.0, CFG)


class TestOracleBehavior:
    def test_deterministic(self):
        f = PowerLog(0.3)
        a = orc.rl_integral_quad(f, 0.9, 2.0, CFG)
        b = orc.rl_integral_quad(f, 0.9, 2.0, CFG)
        assert a == b

    def test_self_consistency_under_tolerance_tightening(self):
        # halving the target tolerance must not move the value by more than
        # the previously reported error estimate
        f = Exp(-1.0)
        loose = orc.rl_integral_quad(f, 0.75, 2.0, QuadConfig(target_rel_tol=1e-8))
        tight = orc.rl_integral_quad(f, 0.75, 2.0, QuadConfig(target_rel_tol=5e-9))
        assert abs(tight.value - loose.value) <= max(loose.abs_err_estimate, 1e-15)

    def test_dispatch_matches_direct_calls(self):
        fam = AbsPower(0.5)
        direct = orc.weyl_derivative_quad(0.5, 0.25, 1.0, CFG)
        routed = orc.oracle_eval(OperatorKind.WEYL_DERIVATIVE, 0.25, fam, 1.0, CFG)
        assert routed == direct

    def test_dispatch_family_pairing(self):
        with pytest.raises(DomainError):
            orc.oracle_eval(OperatorKind.WEYL_INTEGRAL, 0.25, Exp(1.0), 1.0, CFG)
        with pytest.raises(DomainError):
            orc.oracle_eval(OperatorKind.RL_INTEGRAL, 0.25, AbsPower(0.5), 1.0, CFG)

    def test_integrand_rejects_nonintegrable_origin(self):
        with pytest.raises(DomainError):
            Integrand(lambda s: s, power_at_zero=-1.5)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadConfig(target_rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadConfig(max_nodes=8)

    def test_config_upper_bounds_name_the_field(self):
        QuadConfig(max_nodes=JACOBI_MAX_NODES)
        with pytest.raises(DomainError, match="max_nodes"):
            QuadConfig(max_nodes=2 * JACOBI_MAX_NODES)


class TestPowerLogTinyNu:
    # x_cut = 42/nu made ceil(x_cut/10) panels before the budget check: nu = 1e-7
    # peaked at 1.28 GB, 1e-9 asked for 31 GiB, and 1e-300 (nu - 1 + 1 == 0)
    # divided by zero
    @pytest.mark.parametrize("nu", (1e-7, 1e-9, 1e-300))
    def test_budget_is_checked_before_allocating(self, nu):
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="budget"):
                orc.oracle_eval(OperatorKind.RL_INTEGRAL, 0.5, PowerLog(nu), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("nu", ("1e-7", "1e-9", "1e-300"))
    def test_cli_exits_four(self, nu, capsys):
        from fraccalc.cli import main

        argv = ["eval", "--op", "rl-int", "--alpha", "0.5", "--fn", f"powerlog:nu={nu}", "--t", "1",
                "--method", "oracle"]
        assert main(argv) == 4
        assert "convergence error" in capsys.readouterr().err


class TestErrorEstimateHonesty:
    def test_true_error_within_ten_times_estimate(self):
        """On a grid with known values, true error <= 10x estimate >= 95% of the time."""
        from fraccalc import closed_forms as cf

        total, honest = 0, 0
        for alpha in (0.25, 0.5, 0.9, 1.5):
            for t in (0.5, 1.0, 2.0):
                for fam, closed in (
                    (Power(0.5), cf.rl_integral_power(alpha, 0.5, t)),
                    (Exp(1.0), cf.rl_integral_exp(alpha, 1.0, t)),
                    (PowerLog(1.0), cf.rl_integral_powerlog(alpha, 1.0, t)),
                ):
                    r = orc.rl_integral_quad(fam, alpha, t, CFG)
                    total += 1
                    honest += abs(r.value - closed) <= 10.0 * r.abs_err_estimate
                der = orc.rl_derivative_quad(Exp(1.0), alpha, t, CFG)
                closed_der = cf.rl_derivative_exp(alpha, 1.0, t)
                total += 1
                honest += abs(der.value - closed_der) <= 10.0 * der.abs_err_estimate
        assert honest / total >= 0.95
