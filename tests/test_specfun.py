"""Special-function kernel: frozen reference values and identity properties.

Reference values were produced by the independent oracles implemented in
this file (high-precision series, singularity-free quadrature), frozen as
literals, and are re-derived live where cheap.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraccalc import specfun as sf
from fraccalc.errors import ConvergenceError, DomainError, PoleError

# oracle: Euler-Maclaurin tail of the harmonic sum, independent of digamma
EULER_MASCHERONI = 0.5772156649015329

# oracle: 50-digit brute-force series of sum z^k / gamma(k + 3/2) at z = 1,
# cross-checked against e*erf(1) below
E_1_15_AT_1 = 2.2906982523032382

# oracle: quadrature of t^(-1/2) e^(-t) on (0, 1) after t = u^2
LOWER_GAMMA_HALF_AT_1 = 1.4936482656248541


def euler_mascheroni_oracle(n: int = 200_000) -> float:
    """gamma_EM = H_n - ln n - 1/(2n) + 1/(12 n^2) - 1/(120 n^4) + O(n^-6)."""
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    return harmonic - math.log(n) - 0.5 / n + 1.0 / (12.0 * n * n) - 1.0 / (120.0 * n**4)


def unit_mu_reference(a: float, z: float) -> mpmath.mpf:
    """E_{1,1+a}(z) = 1F1(1; 1+a; z) / gamma(1+a) in 40-digit mpmath, from the exact a."""
    with mpmath.workdps(40):
        b, x = 1 + mpmath.mpf(a), mpmath.mpf(z)
        if b <= 0 and b == int(b):  # 1/gamma(b + k) vanishes for k < 1 - b
            return x ** (1 - b) * mpmath.exp(x)
        return mpmath.hyp1f1(1, b, x) * mpmath.rgamma(b)


def lower_gamma_half_oracle() -> float:
    # int_0^1 t^(-1/2) e^(-t) dt = 2 int_0^1 e^(-u^2) du, a smooth integrand
    x, w = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (x + 1.0)
    return float(np.sum(0.5 * w * 2.0 * np.exp(-(u**2))))


class TestGamma:
    def test_one(self):
        assert sf.gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert sf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_negative_half(self):
        assert sf.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.gamma(0.0)
        with pytest.raises(PoleError):
            sf.gamma(-3.0)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            sf.gamma(200.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            sf.gamma(float("nan"))

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_reflection(self, z):
        assert sf.gamma(z) * sf.gamma(1.0 - z) * sf.sinpi(z) / math.pi == pytest.approx(
            1.0, rel=1e-12
        )

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_recurrence(self, z):
        if abs(z - round(z)) < 1e-3 or abs(z + 1 - round(z + 1)) < 1e-3:
            return
        assert sf.gamma(z + 1.0) == pytest.approx(z * sf.gamma(z), rel=1e-12)


class TestDigamma:
    def test_recurrence_at_one(self):
        assert sf.digamma(2.0) - sf.digamma(1.0) == pytest.approx(1.0, abs=1e-13)

    def test_duplication(self):
        assert sf.digamma(1.0) - sf.digamma(0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-13)

    def test_euler_mascheroni_frozen(self):
        assert sf.digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)

    def test_euler_mascheroni_oracle_agrees(self):
        assert euler_mascheroni_oracle() == pytest.approx(EULER_MASCHERONI, abs=1e-13)

    def test_negative_argument(self):
        # psi(-1/2) = psi(1/2) + 2 by the recurrence
        assert sf.digamma(-0.5) == pytest.approx(sf.digamma(0.5) + 2.0, abs=1e-13)

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.digamma(z)

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(min_value=-9.5, max_value=9.5))
    def test_recurrence_property(self, z):
        if abs(z - round(z)) < 1e-3:
            return
        assert sf.digamma(z + 1.0) - sf.digamma(z) - 1.0 / z == pytest.approx(0.0, abs=1e-12)

    # near its zero x0 = 1.46163... the upward recurrence erred by a few ulp of
    # log z ~ 2.5, not of psi: 1e4 ulp of psi at 1.46, and above 8 ulp on most
    # of [1.3, 1.62]; the Taylor series about x0 holds 2 ulp of psi itself
    @settings(max_examples=300, derandomize=True)
    @given(st.floats(min_value=1.4616321449683622 - 0.35, max_value=1.4616321449683622 + 0.35))
    @example(1.4616321449683622)  # the double nearest x0
    @example(1.46163214496836)
    @example(1.3)
    @example(1.62)
    def test_relative_accuracy_near_the_zero(self, z):
        with mpmath.workdps(40):
            exact = mpmath.digamma(mpmath.mpf(z))
            error = abs(mpmath.mpf(sf.digamma(z)) - exact)
        assert error <= 2.0 * sys.float_info.epsilon * abs(exact)


class TestPochhammer:
    def test_examples(self):
        assert sf.pochhammer(3.0, 2) == 12.0
        assert sf.pochhammer(123.456, 0) == 1.0
        assert sf.pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_exact_at_negative_integers(self):
        assert sf.pochhammer(-2.0, 3) == 0.0
        assert sf.pochhammer(-3.0, 2) == 6.0

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            sf.pochhammer(1.0, -1)

    @settings(max_examples=100, derandomize=True)
    @given(st.floats(min_value=0.1, max_value=20.0), st.integers(min_value=0, max_value=8))
    def test_gamma_ratio_consistency(self, x, n):
        assert sf.pochhammer(x, n) == pytest.approx(sf.gamma_ratio(x + n, x), rel=1e-12)


class TestBeta:
    def test_examples(self):
        assert sf.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert sf.beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)
        assert sf.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.beta(0.0, 1.0)
        with pytest.raises(DomainError):
            sf.beta(1.0, -2.0)

    @settings(max_examples=100, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=30.0), st.floats(min_value=0.05, max_value=30.0))
    def test_symmetry(self, a, b):
        assert sf.beta(a, b) == pytest.approx(sf.beta(b, a), rel=1e-13)


class TestLowerIncompleteGamma:
    def test_alpha_one_closed_form(self):
        for z in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert sf.lower_incomplete_gamma(1.0, z) == pytest.approx(-math.expm1(-z), rel=1e-13)

    def test_zero(self):
        assert sf.lower_incomplete_gamma(2.3, 0.0) == 0.0

    def test_half_at_one_frozen(self):
        assert sf.lower_incomplete_gamma(0.5, 1.0) == pytest.approx(
            LOWER_GAMMA_HALF_AT_1, rel=1e-11
        )

    def test_half_at_one_oracle_agrees(self):
        assert lower_gamma_half_oracle() == pytest.approx(LOWER_GAMMA_HALF_AT_1, rel=1e-13)

    def test_limit_is_gamma(self):
        assert sf.lower_incomplete_gamma(2.5, 60.0) == pytest.approx(sf.gamma(2.5), rel=1e-12)

    def test_monotone_in_z(self):
        for alpha in (0.5, 1.0, 2.3):
            values = [sf.lower_incomplete_gamma(alpha, 0.25 * k) for k in range(81)]
            assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            sf.lower_incomplete_gamma(1.0, -0.5)

    # a in [0.05, 200], z in [0, 1000]; "near" draws z = a * ratio, around the
    # series / continued-fraction switch at z = a + 1.  The examples pin both
    # sides of it at a >= 170, where gamma(a) nears double range.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=200.0),
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.booleans(),
    )
    @example(a=180.0, z_free=30.0, ratio=0.0, near=False)
    @example(a=171.5, z_free=200.0, ratio=0.0, near=False)
    @example(a=170.5, z_free=0.0, ratio=1.0, near=True)
    @example(a=172.5, z_free=0.0, ratio=1.1, near=True)
    def test_against_mpmath(self, a, z_free, ratio, near):
        z = min(a * ratio, 1000.0) if near else z_free
        with mpmath.workdps(40):
            exact = mpmath.gammainc(a, 0, z)
        if exact > sys.float_info.max:
            with pytest.raises(OverflowError):
                sf.lower_incomplete_gamma(a, z)
            return
        value = sf.lower_incomplete_gamma(a, z)
        if exact < sys.float_info.min:  # zero or subnormal: no relative accuracy to hold
            assert 0.0 <= value < sys.float_info.min
            return
        assert abs(value - exact) <= 1e-14 * exact

    def test_term_cap_raises(self, monkeypatch):
        # z ~ a needs about sqrt(a) terms: at a = 1e6 the series outruns the cap
        with pytest.raises(ConvergenceError):
            sf.lower_incomplete_gamma(1e6, 1e6 - 1.0)
        monkeypatch.setattr(sf, "INCGAMMA_MAX_TERMS", 3)
        for z in (1.0, 10.0):  # series, continued fraction (it ends early at whole a)
            with pytest.raises(ConvergenceError, match="3 terms"):
                sf.lower_incomplete_gamma(2.5, z)


class TestMittagLeffler:
    @settings(max_examples=100, derandomize=True)
    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_reduces_to_exp(self, z):
        assert sf.mittag_leffler_shifted(0.0, z)[0] == pytest.approx(math.exp(z), rel=1e-10)

    def test_shifted_exponential(self):
        for z in (-2.0, 0.5, 1.0, 3.0):
            assert sf.mittag_leffler_shifted(1.0, z)[0] == pytest.approx(math.expm1(z) / z, rel=1e-12)

    def test_frozen_value_and_erf_crosscheck(self):
        value = sf.mittag_leffler_shifted(0.5, 1.0)[0]
        assert value == pytest.approx(E_1_15_AT_1, rel=1e-12)
        # classical half-order integral of exp: E_{1,3/2}(t) = e^t erf(sqrt t)/sqrt t
        assert value == pytest.approx(math.e * math.erf(1.0), rel=1e-13)

    def test_brute_force_series_oracle_agrees(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            series = sum(mpmath.mpf(1) / mpmath.gamma(k + mpmath.mpf("1.5")) for k in range(80))
        assert float(series) == pytest.approx(E_1_15_AT_1, rel=1e-15)

    def test_pole_terms_drop_out(self):
        # a = -2: the k = 0 and k = 1 terms hit gamma poles and contribute 0
        z = 0.7
        expected = sum(z**k / math.gamma(k - 1.0) for k in range(2, 40))
        assert sf.mittag_leffler_shifted(-2.0, z)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_argument(self):
        assert sf.mittag_leffler_shifted(1.5, 0.0)[0] == pytest.approx(1.0 / math.gamma(2.5), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.mittag_leffler_shifted(0.0, 50.5)

    # mu = 1 against 40-digit mpmath, E_{1,b}(z) = 1F1(1; b; z) / gamma(b), for b from
    # -1.5 to 3.5 (near 0 and 1 too) and z in [-50, 50]: direct summation lost 1e-4
    # of the value at z = -20 and all of it at z = -50.  Each value lies within
    # the bound of the series that produced it.
    @pytest.mark.parametrize(
        "a",
        (-2.5, -2.0, -1.9, -1.5, -1.0 - 1e-9, -1.0, -1.0 + 1e-9, -0.9, -0.5, -1e-9, 0.0,
         1e-9, 0.0054, 0.1, 0.5, 1.5, 2.5),
    )
    def test_unit_mu_against_mpmath(self, a):
        for z in (-50.0, -49.0, -35.5, -20.0, -5.0, -1.0, -0.01, 0.0, 0.01, 1.0, 5.0, 20.0, 35.5, 50.0):
            value, bound = sf.mittag_leffler_shifted(a, z)
            assert abs(mpmath.mpf(value) - unit_mu_reference(a, z)) <= bound, (a, z)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(min_value=-2.5, max_value=2.5), st.floats(min_value=-50.0, max_value=50.0))
    def test_unit_mu_bound_is_honest(self, a, z):
        value, bound = sf.mittag_leffler_shifted(a, z)
        assert abs(mpmath.mpf(value) - unit_mu_reference(a, z)) <= bound

    @pytest.mark.parametrize("a, z", ((-2.0, 2.4657596168331184e-237), (-1.0, -1e-310), (-3.0, 1e-120)))
    def test_unit_mu_bound_counts_underflow(self, a, z):
        # at a negative integer a the value is z**-a e**z, below the normal doubles for
        # tiny z; the bound was a multiple of the value, so 0 where the value rounds to 0
        value, bound = sf.mittag_leffler_shifted(a, z)
        assert abs(mpmath.mpf(value) - unit_mu_reference(a, z)) <= bound

    def test_refusals(self):
        with pytest.raises(DomainError, match=r"\|z\| <= 50.0, got z=50.5"):
            sf.mittag_leffler_shifted(0.5, 50.5)
        with pytest.raises(DomainError, match=r"^mittag_leffler_shifted requires \|1 \+ a\| <= 170, got 200.5$"):
            sf.mittag_leffler_shifted(199.5, 1.0)
        with pytest.raises(DomainError, match="z must be finite"):
            sf.mittag_leffler_shifted(0.5, math.inf)
        with pytest.raises(DomainError, match="a must be finite"):
            sf.mittag_leffler_shifted(math.nan, 1.0)
        # 50**169 e**50 leaves double range
        with pytest.raises(ConvergenceError, match="exceed double range"):
            sf.mittag_leffler_shifted(-169.0, 50.0)


class TestGammaRatio:
    def test_denominator_pole_gives_zero(self):
        assert sf.gamma_ratio(1.0, 0.0) == 0.0
        assert sf.gamma_ratio(2.5, -3.0) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            sf.gamma_ratio(-1.0, 0.5)
        with pytest.raises(PoleError):
            sf.gamma_ratio(-2.0, -5.0)

    def test_negative_arguments(self):
        assert sf.gamma_ratio(1.5, -0.5) == pytest.approx(
            math.gamma(1.5) / math.gamma(-0.5), rel=1e-13
        )

    def test_large_arguments_log_space(self):
        assert sf.gamma_ratio(301.0, 300.0) == pytest.approx(300.0, rel=1e-12)

    @settings(max_examples=150, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=160.0), st.floats(min_value=0.05, max_value=160.0))
    def test_matches_direct_quotient(self, p, q):
        assert sf.gamma_ratio(p, q) == pytest.approx(math.gamma(p) / math.gamma(q), rel=1e-12)

    @pytest.mark.parametrize("p, q", ((0.5, 1e-310), (1e-310, 2e-310), (0.5, 5e-324), (1e-320, 0.5)))
    def test_subnormal_arguments_take_the_log_path(self, p, q):
        # gamma of a subnormal argument leaves the doubles; the ratio need not
        with mpmath.workdps(40):
            exact = mpmath.gamma(mpmath.mpf(p)) / mpmath.gamma(mpmath.mpf(q))
            if abs(exact) > sys.float_info.max:
                with pytest.raises(OverflowError):
                    sf.gamma_ratio(p, q)
                return
            error = abs(sf.gamma_ratio(p, q) - exact)
        # a subnormal ratio keeps fewer digits: its last place is 2**-1074
        assert error <= (4.0 * sf._EPS + sf.gamma_ratio_error(p, q)) * abs(exact) + 2.0**-1074

    @settings(max_examples=300, derandomize=True)
    @given(
        st.one_of(st.floats(min_value=-3.5, max_value=400.0), st.floats(min_value=1e-320, max_value=1e-300)),
        st.one_of(st.floats(min_value=-3.5, max_value=400.0), st.floats(min_value=1e-320, max_value=1e-300)),
    )
    @example(1.5, -0.9999999999)  # next to a pole: lgamma(q) = 23
    @example(0.673224554441326, -0.11692812365956118)
    def test_error_bound_is_honest(self, p, q):
        assume(not sf._is_nonpositive_integer(p) and not sf._is_nonpositive_integer(q))
        with mpmath.workdps(40):
            exact = mpmath.gamma(mpmath.mpf(p)) / mpmath.gamma(mpmath.mpf(q))
            assume(sys.float_info.min < abs(exact) < sys.float_info.max)
            error = abs(sf.gamma_ratio(p, q) - exact)
        # the direct path's two gamma values and quotient: a few ulp
        assert error <= (8.0 * sf._EPS + sf.gamma_ratio_error(p, q)) * abs(exact)

    def test_error_bound_is_zero_on_the_direct_path(self):
        assert sf.gamma_ratio_error(1.5, 0.5) == 0.0
        assert sf.gamma_ratio_error(1.5, -2.0) == 0.0  # exactly 0 on a pole
        assert sf.gamma_ratio_error(1.5, -0.5) > 0.0
        assert sf.gamma_ratio_error(0.5, 1e-310) > 0.0


class TestTrigPi:
    def test_exact_zeros(self):
        assert sf.sinpi(0.0) == 0.0
        assert sf.sinpi(3.0) == 0.0
        assert sf.cospi(0.5) == 0.0
        assert sf.cospi(1.5) == 0.0
        assert sf.cospi(-2.5) == 0.0

    def test_exact_units(self):
        assert sf.cospi(0.0) == 1.0
        assert sf.cospi(1.0) == -1.0
        assert sf.sinpi(0.5) == 1.0

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_matches_library_trig(self, x):
        assert sf.sinpi(x) == pytest.approx(math.sin(math.pi * x), abs=1e-10)
        assert sf.cospi(x) == pytest.approx(math.cos(math.pi * x), abs=1e-10)
