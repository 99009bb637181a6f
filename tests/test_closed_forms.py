"""Closed-form evaluators: exact examples, frozen derived values, invariants.

Derived reference values were computed from independent routes (50-digit
series/quadrature, classical error-function identities) and frozen here; the
quadrature cross-checks live in test_oracle.py and the verification suites.
"""

import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccalc import closed_forms as cf
from fraccalc import specfun as sf
from fraccalc import verify
from fraccalc.errors import DomainError, PoleError, SingularParamError
from fraccalc.model import AbsPower, Exp, OperatorKind, Power, PowerLog

# frozen derived values (independent oracles; see module docstring)
T1_HALF_ONE_ONE = 0.75225277806367505  # gamma(2)/gamma(2.5)
E_1_15_AT_1 = 2.2906982523032382  # = e * erf(1)
E_1_05_AT_1 = 2.8548878358509945  # = e * erf(1) + 1/sqrt(pi)
T4_HALF_ONE_ONE = -0.69249265764135724  # (psi(1) - psi(1.5)) / gamma(1.5)
T8_HALF_ONE_ONE = 0.78213283827483395  # 2 ln 2 / sqrt(pi)
T2_QUARTER_HALF_ONE = 2.8928181692641543  # sqrt(2) gamma(1/4) / sqrt(pi)
T6_HALF_QUARTER_ONE = -0.13999967745248263  # -tan(pi/8) gamma(3/4)/gamma(1/4)
LIT_QUARTER_HALF_ONE = 0.69136733903629335  # gamma(3/4)/gamma(1/2)
# powerlog nu = 1.5; the integral also from 40-digit quadrature, the derivative
# also as the numerical derivative of the order-0.24 integral (agreeing to 1e-14)
T4_CANCELLING = 2.6807390824790617  # alpha 0.24, t 3.594375
T8_CANCELLING = 1.2426388388897313  # alpha 0.76, t 3.55


# each named formula, its family, a parameter in its domain, and parameters outside it
NAMED_FORMULAS = (
    (cf.rl_integral_power, Power, 0.5, (-1.0, -2.5, math.nan)),
    (cf.rl_integral_exp, Exp, 1.0, (math.inf, math.nan)),
    (cf.rl_integral_powerlog, PowerLog, 2.0, (0.0, -1.0, math.inf)),
    (cf.weyl_integral_abspower, AbsPower, 0.5, (0.0, 1.0, math.nan)),
    (cf.rl_derivative_power, Power, 0.5, (-1.0, -2.5, math.nan)),
    (cf.rl_derivative_exp, Exp, 1.0, (math.inf, math.nan)),
    (cf.rl_derivative_powerlog, PowerLog, 2.0, (0.0, -1.0, math.inf)),
    (cf.weyl_derivative_abspower, AbsPower, 0.5, (0.0, 1.0, math.nan)),
)


class TestNamedFormulasAreClosedEval:
    """A named formula refuses an argument as closed_eval and the family constructors do."""

    @pytest.mark.parametrize("alpha", (math.inf, -math.inf, math.nan))
    @pytest.mark.parametrize("formula, family_type, param, bad_params", NAMED_FORMULAS)
    def test_non_finite_alpha_is_refused_by_name(self, formula, family_type, param, bad_params, alpha):
        with pytest.raises(DomainError, match=f"^{re.escape(f'alpha must be finite, got {alpha!r}')}$"):
            formula(alpha, param, 1.0)

    @pytest.mark.parametrize("formula, family_type, param, bad_params", NAMED_FORMULAS)
    def test_out_of_domain_parameter_is_the_family_constructors_error(self, formula, family_type, param, bad_params):
        for bad in bad_params:
            with pytest.raises(DomainError) as expected:
                family_type(bad)
            with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
                formula(0.25, bad, 1.0)

    @pytest.mark.parametrize("formula, family_type, param, bad_params", NAMED_FORMULAS)
    def test_out_of_range_alpha_is_refused_by_operator_token(self, formula, family_type, param, bad_params):
        # the token of the CLI's --op, where the refusal named the formula
        token = formula.__name__.replace("_integral_", "-int/").replace("_derivative_", "-der/").split("/")[0]
        refusals = {-1.0: f"{token} requires alpha > 0, got -1.0"}
        if token == "weyl-int":
            refusals = {a: f"weyl-int requires 0 < alpha < delta, got alpha={a!r}, delta=0.5" for a in (-1.0, 0.7)}
        for alpha, message in refusals.items():
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                formula(alpha, param, 1.0)


class TestPowerIntegral:
    def test_plain_antiderivative(self):
        assert cf.rl_integral_power(1.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_gamma_ratio_simplifies(self):
        assert cf.rl_integral_power(0.5, -0.5, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_frozen_value(self):
        assert cf.rl_integral_power(0.5, 1.0, 1.0) == pytest.approx(T1_HALF_ONE_ONE, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.rl_integral_power(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            cf.rl_integral_power(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            cf.rl_integral_power(0.5, 0.5, 0.0)

    def test_order_one_is_classical(self):
        for g in (-0.5, 0.0, 0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                assert cf.rl_integral_power(1.0, g, t) == pytest.approx(
                    t ** (g + 1.0) / (g + 1.0), rel=1e-14
                )

    @settings(max_examples=100, derandomize=True)
    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=-0.9, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_semigroup(self, a, b, g, t):
        # applying order a then order b, with the first coefficient kept as a
        # gamma ratio, reproduces the single application of order a+b
        two_step = sf.gamma_ratio(1.0 + g, 1.0 + g + a) * cf.rl_integral_power(b, g + a, t)
        assert two_step == pytest.approx(cf.rl_integral_power(a + b, g, t), rel=1e-12)

    def test_zero_order_continuity(self):
        alpha = 1e-8
        for g in (-0.5, 0.0, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                assert cf.rl_integral_power(alpha, g, t) == pytest.approx(t**g, rel=1e-6)


class TestZeroOrderContinuity:
    """Near order 0 every integral form collapses to the function itself."""

    ALPHA = 1e-8

    def test_exponential(self):
        for lam in (-1.0, 0.5, 1.0):
            for t in (0.5, 1.0, 2.0):
                assert cf.rl_integral_exp(self.ALPHA, lam, t) == pytest.approx(
                    math.exp(lam * t), rel=1e-6
                )

    def test_powerlog(self):
        for nu in (0.3, 2.0):
            for t in (0.5, 2.0):
                assert cf.rl_integral_powerlog(self.ALPHA, nu, t) == pytest.approx(
                    t ** (nu - 1.0) * math.log(t), rel=1e-6
                )

    def test_weyl(self):
        for delta in (0.2, 0.5, 0.8):
            for t in (0.5, 1.0, 2.0):
                assert cf.weyl_integral_abspower(self.ALPHA, delta, t) == pytest.approx(
                    t**-delta, rel=1e-6
                )


class TestPowerDerivative:
    def test_ordinary_derivative(self):
        for t in (0.5, 1.0, 3.0):
            assert cf.rl_derivative_power(1.0, 2.0, t) == pytest.approx(2.0 * t, rel=1e-14)

    def test_pole_kills_coefficient(self):
        # the classical half-derivative of 1/sqrt(t) vanishes identically
        for t in (0.5, 1.0, 3.0):
            assert cf.rl_derivative_power(0.5, -0.5, t) == 0.0

    def test_half_derivative_of_sqrt(self):
        assert cf.rl_derivative_power(0.5, 0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14
        )

    def test_equals_integral_expression_at_negated_order(self):
        for alpha in (0.1, 0.5, 0.9, 1.5, 2.5):
            for g in (-0.5, 0.0, 0.5, 2.0):
                for t in (0.5, 1.0, 5.0):
                    assert cf.rl_derivative_power(alpha, g, t) == cf.power_shift_eval(-alpha, g, t)[0]


class TestExpIntegral:
    def test_order_one(self):
        assert cf.rl_integral_exp(1.0, 1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_zero_rate_reduces_to_power(self):
        assert cf.rl_integral_exp(0.5, 0.0, 4.0) == pytest.approx(
            2.0 / math.gamma(1.5), rel=1e-14
        )

    def test_frozen_value(self):
        assert cf.rl_integral_exp(0.5, 1.0, 1.0) == pytest.approx(E_1_15_AT_1, rel=1e-12)

    def test_half_order_is_erf_form(self):
        # I^(1/2) exp at t: e^t erf(sqrt t)
        for t in (0.25, 1.0, 2.0):
            assert cf.rl_integral_exp(0.5, 1.0, t) == pytest.approx(
                math.exp(t) * math.erf(math.sqrt(t)), rel=1e-12
            )


class TestExpDerivative:
    def test_derivative_of_constant_one(self):
        assert cf.rl_derivative_exp(0.5, 0.0, 1.0) == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-14
        )

    def test_frozen_value_and_erf_crosscheck(self):
        value = cf.rl_derivative_exp(0.5, 1.0, 1.0)
        assert value == pytest.approx(E_1_05_AT_1, rel=1e-12)
        assert value == pytest.approx(math.e * math.erf(1.0) + 1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_equals_integral_expression_at_negated_order(self):
        for alpha in (0.25, 0.75, 1.5):
            for lam in (-1.0, 0.5, 1.0):
                for t in (0.5, 2.0):
                    assert cf.rl_derivative_exp(alpha, lam, t) == cf.exp_shift_eval(-alpha, lam, t)[0]

    def test_whole_order_is_the_plain_derivative(self):
        # E_{1,1-m}(z) = z**m e**z, so the formula at order m is lam**m e**(lam t)
        for m in (1, 2, 3):
            for lam in (-1.0, 0.5, 1.5):
                for t in (0.5, 2.0):
                    assert cf.rl_derivative_exp(float(m), lam, t) == pytest.approx(
                        lam**m * math.exp(lam * t), rel=1e-14
                    )

    @pytest.mark.parametrize("alpha", (1.0, 2.0))
    @pytest.mark.parametrize("t", (-1.0, 0.0))
    def test_whole_order_requires_positive_t(self, alpha, t):
        # whole orders take the formula's checks, like every other order
        with pytest.raises(DomainError, match="t > 0"):
            cf.closed_eval(OperatorKind.RL_DERIVATIVE, alpha, Exp(1.0), t)


class TestPowerLogIntegral:
    def test_order_one_antiderivative(self):
        for t in (0.5, 1.0, 2.0):
            assert cf.rl_integral_powerlog(1.0, 1.0, t) == pytest.approx(
                t * (math.log(t) - 1.0), rel=1e-13, abs=1e-15
            )

    def test_zero_at_e(self):
        assert cf.rl_integral_powerlog(1.0, 1.0, math.e) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_value(self):
        assert cf.rl_integral_powerlog(0.5, 1.0, 1.0) == pytest.approx(T4_HALF_ONE_ONE, rel=1e-13)
        assert cf.rl_integral_powerlog(0.24, 1.5, 3.594375) == pytest.approx(T4_CANCELLING, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.rl_integral_powerlog(0.5, 0.0, 1.0)

    @pytest.mark.parametrize(
        "alpha, nu, shifted", ((5e-324, 5e-324, "1e-323"), (1e-320, 1e-310, "1.0000000001e-310"))
    )
    def test_digamma_off_the_doubles_is_a_domain_error(self, alpha, nu, shifted):
        # psi(nu) and psi(a + nu) are both -inf there, and the bracket inf - inf gave nan
        message = f"power-log formula needs finite digamma at nu={nu!r} and a+nu={shifted}"
        with pytest.raises(DomainError, match=re.escape(message)):
            cf.rl_integral_powerlog(alpha, nu, 1.0)
        with pytest.raises(DomainError, match=re.escape(message)):
            cf.closed_eval(OperatorKind.RL_INTEGRAL, alpha, PowerLog(nu), 1.0)

    def test_gamma_overflow_keeps_its_type(self):
        # gamma(nu) overflows before either digamma is taken
        with pytest.raises(OverflowError):
            cf.closed_eval(OperatorKind.RL_INTEGRAL, 0.5, PowerLog(1e-310), 1.0)


class TestPowerLogDerivative:
    def test_frozen_value(self):
        # uses psi(1) - psi(1/2) = 2 ln 2
        assert cf.rl_derivative_powerlog(0.5, 1.0, 1.0) == pytest.approx(
            T8_HALF_ONE_ONE, rel=1e-13
        )
        assert cf.rl_derivative_powerlog(0.76, 1.5, 3.55) == pytest.approx(T8_CANCELLING, rel=1e-13)

    def test_equals_integral_expression_at_negated_order(self):
        for alpha in (0.25, 0.9, 1.5):
            for nu in (0.3, 1.0, 2.0):
                for t in (0.5, 2.0):
                    assert cf.rl_derivative_powerlog(alpha, nu, t) == cf.powerlog_shift_eval(
                        -alpha, nu, t
                    )[0]

    def test_singular_parameter_locus(self):
        with pytest.raises(SingularParamError):
            cf.rl_derivative_powerlog(0.5, 0.5, 1.0)
        with pytest.raises(SingularParamError):
            cf.rl_derivative_powerlog(1.5, 0.5, 1.0)

    def test_whole_order_is_the_plain_derivative(self):
        # PowerLog(nu=2) is f(t) = t log t, so d/dt = log t + 1
        assert cf.rl_derivative_powerlog(1.0, 2.0, 2.0) == pytest.approx(math.log(2.0) + 1.0, rel=1e-14)
        # nth_derivative_powerlog is the same shift function at -m, so the plain derivative
        # comes from Leibniz's rule, which takes no gamma or digamma
        for m in (1, 2, 3):
            for nu in (0.3, 0.5, 2.5):
                for t in (0.5, 2.0):
                    assert cf.rl_derivative_powerlog(float(m), nu, t) == pytest.approx(
                        verify._leibniz_powerlog(m, nu - 1.0, t), rel=1e-13
                    )


class TestWeylIntegral:
    def test_frozen_value(self):
        value = cf.weyl_integral_abspower(0.25, 0.5, 1.0)
        assert value == pytest.approx(T2_QUARTER_HALF_ONE, rel=1e-13)
        assert value == pytest.approx(
            math.sqrt(2.0) * math.gamma(0.25) / math.sqrt(math.pi), rel=1e-13
        )

    def test_homogeneity(self):
        alpha, delta = 0.25, 0.6
        base = cf.weyl_integral_abspower(alpha, delta, 1.0)
        for t in (0.5, 2.0, 5.0):
            assert cf.weyl_integral_abspower(alpha, delta, t) == pytest.approx(
                t ** (alpha - delta) * base, rel=1e-13
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.weyl_integral_abspower(0.5, 0.5, 1.0)  # alpha < delta violated
        with pytest.raises(DomainError):
            cf.weyl_integral_abspower(0.25, 1.2, 1.0)


class TestWeylDerivative:
    def test_cosine_zero_locus_is_exact(self):
        # delta/2 + alpha = 1/2 makes the corrected coefficient exactly 0
        assert cf.weyl_derivative_abspower(0.25, 0.5, 1.0) == 0.0
        assert cf.weyl_derivative_abspower(0.375, 0.25, 2.0) == 0.0
        # next cosine zero: delta/2 + alpha = 3/2
        assert cf.weyl_derivative_abspower(1.25, 0.5, 1.0) == 0.0

    def test_frozen_value(self):
        assert cf.weyl_derivative_abspower(0.5, 0.25, 1.0) == pytest.approx(
            T6_HALF_QUARTER_ONE, rel=1e-13
        )

    def test_equals_integral_expression_at_negated_order(self):
        for alpha in (0.1, 0.75, 1.5):
            for delta in (0.2, 0.5, 0.8):
                for t in (0.5, 2.0):
                    assert cf.weyl_derivative_abspower(alpha, delta, t) == cf.weyl_power_shift_eval(
                        -alpha, delta, t
                    )[0]

    def test_whole_order_is_the_plain_derivative(self):
        # the cosine ratio is (-1)**m there, and the value d**m/dt**m t**(-delta)
        for m in (1, 2, 3):
            for delta in (0.2, 0.5, 0.8):
                for t in (0.5, 2.0):
                    assert cf.weyl_derivative_abspower(float(m), delta, t) == pytest.approx(
                        cf.nth_derivative_power(m, -delta, t), rel=1e-13
                    )


class TestWeylLiterature:
    def test_frozen_value(self):
        assert cf.weyl_power_literature(0.25, 0.5, 1.0) == pytest.approx(
            LIT_QUARTER_HALF_ONE, rel=1e-13
        )

    def test_zero_order_agrees_with_corrected(self):
        # at alpha = 0 both formulas are the identity operator
        for delta in (0.2, 0.5, 0.8):
            for t in (0.5, 1.0, 2.0):
                assert cf.weyl_power_literature(0.0, delta, t) == pytest.approx(
                    t**-delta, rel=1e-14
                )

    def test_discrepancy_from_corrected(self):
        lit = cf.weyl_power_literature(0.25, 0.5, 1.0)
        corrected = cf.weyl_derivative_abspower(0.25, 0.5, 1.0)
        assert corrected == 0.0
        assert abs(lit - corrected) == pytest.approx(LIT_QUARTER_HALF_ONE, rel=1e-13)


class TestTailPowerIntegral:
    def test_exact_values(self):
        assert cf.tail_power_integral(-1.5, -0.5, 1.0) == pytest.approx(2.0, rel=1e-14)
        # B(1/2, 3/2) = pi/2
        assert cf.tail_power_integral(-2.0, -0.5, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
        # gamma(1) gamma(0.7) / gamma(1.7) = 1/0.7
        assert cf.tail_power_integral(-1.7, -0.3, 1.0) == pytest.approx(10.0 / 7.0, rel=1e-14)

    def test_scaling_in_t(self):
        a, b = -1.7, -0.3
        base = cf.tail_power_integral(a, b, 1.0)
        for t in (0.5, 2.0, 4.0):
            assert cf.tail_power_integral(a, b, t) == pytest.approx(
                t ** (a + b + 1.0) * base, rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.tail_power_integral(-0.4, -0.5, 1.0)  # a >= -b-1: tail diverges
        with pytest.raises(DomainError):
            cf.tail_power_integral(-2.0, -1.5, 1.0)  # b <= -1: origin diverges


class TestLogBetaIntegral:
    def test_exact_points(self):
        assert cf.log_beta_integral(1.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
        assert cf.log_beta_integral(2.0, 1.0) == pytest.approx(-0.25, rel=1e-14)
        assert cf.log_beta_integral(0.5, 0.5) == pytest.approx(
            -2.0 * math.pi * math.log(2.0), rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.log_beta_integral(0.0, 1.0)


class TestNthDerivativePower:
    def test_examples(self):
        assert cf.nth_derivative_power(2, 3.0, 2.0) == pytest.approx(12.0, rel=1e-15)
        assert cf.nth_derivative_power(1, 0.5, 4.0) == pytest.approx(0.25, rel=1e-15)
        assert cf.nth_derivative_power(3, 2.5, 1.0) == pytest.approx(1.875, rel=1e-15)

    def test_vanishes_past_polynomial_degree(self):
        assert cf.nth_derivative_power(2, 1.0, 1.0) == 0.0
        assert cf.nth_derivative_power(4, 3.0, 2.0) == 0.0

    def test_negative_integer_exponent(self):
        # d/dt t^-1 = -t^-2: both gammas sit on poles, the product form is exact
        assert cf.nth_derivative_power(1, -1.0, 2.0) == pytest.approx(-0.25, rel=1e-15)

    def test_zeroth_derivative(self):
        assert cf.nth_derivative_power(0, 1.7, 3.0) == pytest.approx(3.0**1.7, rel=1e-15)


class TestNthDerivativePowerLog:
    def test_first_derivative_of_log(self):
        for t in (0.5, 1.0, 2.0):
            assert cf.nth_derivative_powerlog(1, 1.0, t) == pytest.approx(
                math.log(t) + 1.0, rel=1e-13, abs=1e-14
            )

    def test_digamma_cancellation_case(self):
        # psi(3/2) = psi(-1/2), so the bracket reduces to log t alone
        for t in (0.5, 2.0):
            assert cf.nth_derivative_powerlog(2, 0.5, t) == pytest.approx(
                -0.25 * t**-1.5 * math.log(t), rel=1e-12, abs=1e-14
            )

    def test_product_rule_case(self):
        for t in (0.5, 1.0, 3.0):
            assert cf.nth_derivative_powerlog(1, 2.0, t) == pytest.approx(
                2.0 * t * math.log(t) + t, rel=1e-13, abs=1e-14
            )

    def test_near_the_rounded_shifted_exponent_against_mpmath(self):
        # b - n + 1 = 0.0345 rounds; a copy of the formula that formed it erred 2.4e-12 here
        mpmath = pytest.importorskip("mpmath")
        b, t = -0.9655273434079169, 2.9260813060109303
        with mpmath.workdps(40):
            exact = mpmath.diff(lambda x: x ** mpmath.mpf(b) * mpmath.log(x), mpmath.mpf(t), 1)
        assert cf.nth_derivative_powerlog(1, b, t) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_singular_parameters(self):
        with pytest.raises(SingularParamError):
            cf.nth_derivative_powerlog(3, 2.0, 1.0)
        with pytest.raises(SingularParamError):
            cf.nth_derivative_powerlog(2, 1.0, 1.0)


@pytest.mark.parametrize("name", ("nth_derivative_power", "nth_derivative_powerlog"))
@pytest.mark.parametrize("t", (1e-200, 1e250))
def test_nth_derivative_power_off_the_doubles_is_refused_by_t(name, t):
    # t**-2.5 overflows at 1e-200 and underflows at 1e250: a bare OverflowError, or 0
    with pytest.raises(DomainError, match=rf"^{name}: .* at t={re.escape(repr(t))}$"):
        getattr(cf, name)(3, 0.5, t)


class TestDigammaSumIdentity:
    def test_single_term(self):
        assert cf.digamma_sum_identity_residual(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("beta_exp", (0.5, 1.3, 2.5, 4.1))
    def test_residual_small(self, n, beta_exp):
        residual = cf.digamma_sum_identity_residual(n, beta_exp)
        rhs = (
            (sf.digamma(beta_exp + 1.0) - sf.digamma(beta_exp - n + 1.0))
            * sf.reciprocal_gamma(beta_exp - n + 1.0)
            / math.factorial(n)
        )
        lhs = rhs + residual
        # absolute floor for points where the identity value itself is 0
        # (e.g. n=6, beta=2.5 has psi(3.5) = psi(-2.5) exactly)
        assert abs(residual) <= max(1e-12 * max(abs(lhs), abs(rhs)), 1e-15)

    def test_singular_parameters(self):
        with pytest.raises(SingularParamError):
            cf.digamma_sum_identity_residual(2, 1.0)


class TestDispatch:
    def test_integer_order_derivative_routes_to_plain_derivative(self):
        # a whole order m takes the shift function at -m, which is the plain m-th derivative
        assert cf.closed_eval(OperatorKind.RL_DERIVATIVE, 1.0, Power(2.0), 3.0).value == pytest.approx(
            6.0, rel=1e-15
        )
        assert cf.closed_eval(OperatorKind.RL_DERIVATIVE, 2.0, Exp(1.5), 1.0).value == pytest.approx(
            1.5**2 * math.exp(1.5), rel=1e-14
        )
        # PowerLog(nu=2) is f(t) = t log t, so d/dt = log t + 1
        assert cf.closed_eval(
            OperatorKind.RL_DERIVATIVE, 1.0, PowerLog(2.0), 2.0
        ).value == pytest.approx(math.log(2.0) + 1.0, rel=1e-14)

    def test_integer_order_weyl_derivative_matches_cosine_parity(self):
        # at whole orders the corrected cosine ratio collapses to (-1)^m,
        # which makes the shift function the plain derivative
        delta, t = 0.4, 1.3
        for m in (1, 2):
            plain = cf.closed_eval(OperatorKind.WEYL_DERIVATIVE, float(m), AbsPower(delta), t).value
            expected = (-1.0) ** m * sf.gamma_ratio(delta + m, delta) * t ** (-m - delta)
            assert plain == pytest.approx(expected, rel=1e-13)

    def test_family_pairing_enforced(self):
        with pytest.raises(DomainError):
            cf.closed_eval(OperatorKind.WEYL_INTEGRAL, 0.25, Power(0.5), 1.0)
        with pytest.raises(DomainError):
            cf.closed_eval(OperatorKind.RL_INTEGRAL, 0.25, AbsPower(0.5), 1.0)

    def test_eval_wrapper_carries_error_bound(self):
        result = cf.closed_eval(OperatorKind.RL_INTEGRAL, 0.5, Exp(1.0), 1.0)
        assert result.method == "closed-form"
        assert result.abs_err_estimate < 1e-13


class TestPowerLogErrorBound:
    # small alpha and t near 1: log t + psi(nu) - psi(a+nu) cancels, and 8 eps |value|
    # fell 10- to 250-fold below the true error
    @pytest.mark.parametrize(
        "op, alpha, nu, t",
        (
            ("rl-int", 0.02168, 0.92015, 1.04093),
            ("rl-int", 0.02, 0.9, 1.04),
            ("rl-int", 0.03, 0.95, 1.05),
            ("rl-int", 0.01, 0.8, 1.02),
            ("rl-der", 0.02, 0.9, 0.96),
            ("rl-der", 0.03, 1.0, 0.97),
            ("rl-der", 0.05, 2.0, 0.98),
            ("rl-der", 0.01, 0.5, 0.99),
            # nu or a+nu near 1.4616, the zero of psi, where digamma's upward
            # recurrence erred by a few ulp of 1, not of psi: 3.5- to 18-fold short
            ("rl-int", 0.0807, 1.4363, 1.0646),
            ("rl-int", 0.02, 1.45, 1.01),
            ("rl-der", 0.03, 1.48, 0.98),
            ("rl-der", 0.05, 1.5, 1.03),
        ),
    )
    def test_bound_covers_cancelling_bracket(self, op, alpha, nu, t):
        mpmath = pytest.importorskip("mpmath")
        result = cf.closed_eval(OperatorKind(op), alpha, PowerLog(nu), t)
        a = alpha if op == "rl-int" else -alpha
        with mpmath.workdps(40):
            a, nu, t = mpmath.mpf(a), mpmath.mpf(nu), mpmath.mpf(t)
            exact = (
                t ** (a + nu - 1) * mpmath.gamma(nu) / mpmath.gamma(a + nu)
                * (mpmath.log(t) + mpmath.digamma(nu) - mpmath.digamma(a + nu))
            )
            error = abs(mpmath.mpf(result.value) - exact)
        assert error <= result.abs_err_estimate <= 1e3 * max(error, 1e-16 * abs(result.value))

    # every term of the bracket has one sign, so its magnitude is their sum: the
    # bound is 8 eps of the value, and the gamma ratio's error where nu + a < 0
    # takes it through logarithms; the last case rounds s - 1 = -1.2 as well,
    # which moves the power by |log t| times that rounding, under 1 eps here
    @pytest.mark.parametrize(
        "op, alpha, nu, t",
        (("rl-der", 1.5, 2.0, 2.0), ("rl-int", 1.5, 0.5, 0.5), ("rl-der", 0.5, 0.3, 0.5)),
    )
    def test_bound_is_few_ulp_of_value_without_cancellation(self, op, alpha, nu, t):
        result = cf.closed_eval(OperatorKind(op), alpha, PowerLog(nu), t)
        shifted = nu + (alpha if op == "rl-int" else -alpha)
        eps = sys.float_info.epsilon
        few_ulp = (8.0 * eps + sf.gamma_ratio_error(nu, shifted)) * abs(result.value)
        assert few_ulp <= result.abs_err_estimate <= few_ulp + eps * abs(result.value)


class TestGammaRatioPoleInteraction:
    def test_literature_formula_pole(self):
        # gamma(delta + alpha) pole with alpha chosen to land on 0
        with pytest.raises(PoleError):
            cf.weyl_power_literature(-0.5, 0.5, 1.0)
