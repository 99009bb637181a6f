"""Quadrature oracle: rule exactness, convergence, and agreement targets.

The oracle must reproduce known values without ever touching the closed-form
module; every expected value here is either elementary or a frozen constant
re-derived in test_closed_forms.py from independent routes.
"""

import math
import tracemalloc

import numpy as np
import pytest

from fraccalc import oracle as orc
from fraccalc.errors import ConvergenceError, DomainError, StencilError
from fraccalc.model import AbsPower, Exp, OperatorKind, Power, PowerLog
from fraccalc.oracle import Integrand, QuadConfig

CFG = QuadConfig()

T4_HALF_ONE_ONE = -0.69249265764135724
T2_QUARTER_HALF_ONE = 2.8928181692641543
T6_HALF_QUARTER_ONE = -0.13999967745248263


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
        # one rule from each route; roots_jacobi's weights next to the endpoints
        # are off by up to 1e-9 relative at n = 300 (against mpmath, where these
        # are within 2e-14)
        for n, weight_rtol in ((24, 1e-12), (300, 2e-9)):
            mine_x, mine_w = orc.gauss_jacobi_01(n, a, b)
            ref_x, ref_w = roots_jacobi(n, a, b)
            assert np.allclose(mine_x, (ref_x + 1.0) / 2.0, rtol=1e-12, atol=1e-14)
            assert np.allclose(mine_w, ref_w * 2.0 ** (-a - b - 1.0), rtol=weight_rtol, atol=1e-16)

    # both routes: dense eigenproblem up to DENSE_RULE_MAX_NODES = 256, Newton above
    @pytest.mark.parametrize("n", (256, 257, 1024, 2048))
    @pytest.mark.parametrize("a", (-0.9, 0.0, 1.5))
    @pytest.mark.parametrize("b", (-0.9, 0.0, 1.5))
    def test_polynomial_exactness_large_n(self, n, a, b):
        # integral_0^1 (1-s)^a s^(k+b) ds = B(k+b+1, a+1); k = 2n-1 leans on the nodes
        # next to s = 1, k = 0 on all weights
        nodes, weights = orc.gauss_jacobi_01(n, a, b)
        for k in (0, 1, n, 2 * n - 1):
            estimate = float(np.dot(weights, nodes**k))
            exact = math.exp(math.lgamma(k + b + 1.0) + math.lgamma(a + 1.0) - math.lgamma(k + a + b + 2.0))
            assert estimate == pytest.approx(exact, rel=1e-11)

    @staticmethod
    def _newton(n, a, b, start):
        rec = orc._EdgeRecurrence(n, a, b)
        return orc._newton_jacobi(rec, start(rec))

    @pytest.mark.parametrize("n", (257, 512))
    @pytest.mark.parametrize("a, b", ((-0.9, 0.3), (0.0, 0.0), (1.5, -0.9), (4.0, 2.5), (30.0, 0.5)))
    def test_newton_rule_matches_dense(self, n, a, b):
        # the asymptotic starting values miss the zeros next to an endpoint of
        # exponent 30; the bisected ones serve every case
        asymptotic = self._newton(n, a, b, orc._asymptotic_zeros)
        assert (asymptotic is None) == (a == 30.0)
        dense_x, dense_w = orc._golub_welsch(n, a, b)
        for rule in filter(None, (asymptotic, self._newton(n, a, b, orc._bisected_zeros))):
            assert np.max(np.abs(rule[0] - dense_x)) <= 1e-15
            # the dense weights next to an endpoint are themselves off by up to
            # 5e-10 relative (against mpmath), so they count against the mass
            assert np.allclose(rule[1], dense_w, rtol=1e-12, atol=1e-12 * float(np.sum(dense_w)))
        assert orc.gauss_jacobi_01(n, a, b)[0] == pytest.approx(dense_x, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("start, n", (("_asymptotic_zeros", 2048), ("_bisected_zeros", 1024)))
    def test_newton_rule_memory_is_linear(self, start, n):
        import tracemalloc

        tracemalloc.start()
        try:
            assert self._newton(n, 0.3, -0.4, getattr(orc, start)) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # the dense matrix alone is 8 n**2 bytes

    def test_exponent_out_of_range_is_convergence_error(self):
        # scaled to 1 at x = 1, P_n leaves double range in the middle by
        # a = 150 at 1024 nodes
        with pytest.raises(ConvergenceError, match="1024 nodes"):
            orc.gauss_jacobi_01(1024, 150.0, -0.5)

    def test_bad_exponents(self):
        with pytest.raises(DomainError):
            orc.gauss_jacobi_01(8, -1.0, 0.0)


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


# the four integrand kinds of rl_integral_quad: p = 0, p != 0, log at the origin,
# and a custom evaluator; each grows fast enough that t = 40 needs more nodes than t = 1
VECTOR_KINDS = {
    "p=0": Exp(1.0),
    "p!=0": Integrand(lambda x: np.sqrt(x) * np.exp(x), power_at_zero=0.5),
    "log-origin": Integrand(lambda x: np.log(x) * np.exp(x), log_at_zero=True),
    "custom": Integrand(np.cos),
}
VECTOR_TS = (1.0, 40.0, 0.5, 5.0)


def _rule_sizes(monkeypatch, f, alpha, t):
    """Node counts of every rule one single-point call asks for, in order."""
    sizes = []
    jacobi, legendre = orc.gauss_jacobi_01, orc._gauss_legendre
    with monkeypatch.context() as patch:
        patch.setattr(orc, "gauss_jacobi_01", lambda n, a, b: sizes.append(n) or jacobi(n, a, b))
        patch.setattr(orc, "_gauss_legendre", lambda n: sizes.append(n) or legendre(n))
        orc.rl_integral_quad(f, alpha, t, CFG)
    return sizes


class TestRlIntegralQuadVector:
    @pytest.mark.parametrize("kind", sorted(VECTOR_KINDS))
    def test_rows_equal_single_point_calls(self, kind, monkeypatch):
        f = VECTOR_KINDS[kind]
        # the rows converge on different rungs, so the batch must stop each on its own
        rungs = [_rule_sizes(monkeypatch, f, 0.5, t) for t in VECTOR_TS]
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
        QuadConfig(max_nodes=4096)
        with pytest.raises(DomainError, match="max_nodes"):
            QuadConfig(max_nodes=4097)


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
