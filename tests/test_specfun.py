"""Special-function kernel: frozen reference values and identity properties.

Reference values were produced by the independent oracles implemented in
this file (high-precision series, singularity-free quadrature), frozen as
literals, and are re-derived live where cheap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestMittagLeffler:
    @settings(max_examples=100, derandomize=True)
    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_reduces_to_exp(self, z):
        assert sf.mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-10)

    def test_shifted_exponential(self):
        for z in (-2.0, 0.5, 1.0, 3.0):
            assert sf.mittag_leffler(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-12)

    def test_even_series_is_cosh(self):
        for z in (0.25, 1.0, 2.0, 4.0):
            assert sf.mittag_leffler(2.0, 1.0, z * z) == pytest.approx(math.cosh(z), rel=1e-13)

    def test_frozen_value_and_erf_crosscheck(self):
        value = sf.mittag_leffler(1.0, 1.5, 1.0)
        assert value == pytest.approx(E_1_15_AT_1, rel=1e-12)
        # classical half-order integral of exp: E_{1,3/2}(t) = e^t erf(sqrt t)/sqrt t
        assert value == pytest.approx(math.e * math.erf(1.0), rel=1e-13)

    def test_brute_force_series_oracle_agrees(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            series = sum(mpmath.mpf(1) / mpmath.gamma(k + mpmath.mpf("1.5")) for k in range(80))
        assert float(series) == pytest.approx(E_1_15_AT_1, rel=1e-15)

    def test_pole_terms_drop_out(self):
        # nu = -1: the k = 0 and k = 1 terms hit gamma poles and contribute 0
        z = 0.7
        expected = sum(z**k / math.gamma(k - 1.0) for k in range(2, 40))
        assert sf.mittag_leffler(1.0, -1.0, z) == pytest.approx(expected, rel=1e-12)

    def test_zero_argument(self):
        assert sf.mittag_leffler(1.0, 2.5, 0.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            sf.mittag_leffler(1.0, 1.0, 50.5)

    def test_slow_series_raises(self):
        with pytest.raises(ConvergenceError):
            sf.mittag_leffler(0.05, 1.0, 40.0)


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
