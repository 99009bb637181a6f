"""Closed-form error estimates held against a third reference, 40-digit mpmath.

The double-entry rule tells when the closed form and the oracle disagree,
not which of them is wrong.  Here the closed forms are evaluated again in
mpmath, from the same double inputs, so that each estimate can be checked
in both directions: never below the true error, and not wildly above it.
This tests the rounding honesty of the closed route, not its formulas;
checking the formulas is the ledger's job.
"""

import re
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraccalc import closed_eval, closed_value
from fraccalc import verify
from fraccalc.model import AbsPower, Exp, OperatorKind, Power, PowerLog

EPS = sys.float_info.epsilon

# the documented domain of the exponential family
ALPHA_MAX = 2.5
T_RANGE = (0.5, 5.0)
LAMBDA_T_MAX = 50.0

# an honest estimate may exceed the true error, but not by more than this
# factor of the error or of eps |value|, whichever is larger
MAX_OVERSHOOT = 1e4

# the smallest subnormal: a value below it rounds to 0 in any evaluation
TINY = sys.float_info.min * EPS


def exp_reference(op: str, alpha: float, lam: float, t: float) -> mpmath.mpf:
    """t**a E_{1,1+a}(lam t) with a = alpha or -alpha, E_{1,b}(z) = 1F1(1; b; z) / gamma(b).

    At a whole derivative order m, where 1F1 has a pole, it is lam**m e**(lam t).
    """
    with mpmath.workdps(40):
        lam, t = mpmath.mpf(lam), mpmath.mpf(t)
        if op == "rl-der" and alpha == int(alpha):
            return lam ** int(alpha) * mpmath.exp(lam * t)
        a = mpmath.mpf(alpha) if op == "rl-int" else -mpmath.mpf(alpha)
        return t**a * mpmath.hyp1f1(1, 1 + a, lam * t) * mpmath.rgamma(1 + a)


def weyl_reference(op: str, alpha: float, delta: float, t: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The Weyl formula at a = alpha or -alpha, and M = |gamma(d-a)/gamma(d) t**(a-d) / cos(pi d/2)|.

    The value is M times cos(pi (d/2 - a)), so M is the scale of its rounding
    error where that cosine vanishes.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) if op == "weyl-int" else -mpmath.mpf(alpha)
        d, t = mpmath.mpf(delta), mpmath.mpf(t)
        scale = mpmath.gamma(d - a) / mpmath.gamma(d) * t ** (a - d) / mpmath.cos(mpmath.pi * d / 2)
        return scale * mpmath.cos(mpmath.pi * (d / 2 - a)), abs(scale)


@st.composite
def weyl_points(draw):
    """(op, alpha, delta, t): alpha in (0, delta) for the integral, in (0, ALPHA_MAX] for the derivative."""
    op = draw(st.sampled_from(("weyl-int", "weyl-der")))
    # from 1e-9: near double's underflow, gamma(delta) leaves the range
    delta = draw(st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
    integral = op == "weyl-int"
    alpha = draw(st.floats(min_value=0.0, max_value=delta if integral else ALPHA_MAX,
                           exclude_min=True, exclude_max=integral))
    return op, alpha, delta, draw(st.floats(min_value=T_RANGE[0], max_value=T_RANGE[1]))


class TestExpEstimates:
    # lambda t, not lambda, is drawn uniformly, as in the benchmark's sweep
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.sampled_from(("rl-int", "rl-der")),
        st.floats(min_value=0.0, max_value=ALPHA_MAX, exclude_min=True),
        st.floats(min_value=-LAMBDA_T_MAX, max_value=LAMBDA_T_MAX),
        st.floats(min_value=T_RANGE[0], max_value=T_RANGE[1]),
    )
    @example("rl-int", 1e-9, -50.0, 1.0)  # alpha -> 0
    @example("rl-der", 1e-9, -50.0, 1.0)
    @example("rl-int", 0.0054, -35.0, 2.0)  # 1 + alpha rounds, alpha does not
    @example("rl-der", 0.99978, -49.0, 1.0)  # 1 - alpha is 2.2e-4
    @example("rl-der", 1.0 + 1e-9, -20.0, 3.0)  # near the whole orders
    @example("rl-der", 2.0 - 1e-9, 20.0, 3.0)
    @example("rl-int", 0.5, -40.0, 5.0)
    @example("rl-der", 2.5, 50.0, 5.0)
    @example("rl-der", 1.0, 49.5, 4.5)  # whole orders take the plain derivative
    @example("rl-der", 2.0, -49.5, 4.5)
    def test_estimate_is_honest_and_not_wild(self, op, alpha, lam_t, t):
        lam = lam_t / t
        assume(abs(lam * t) <= LAMBDA_T_MAX)
        result = closed_eval(OperatorKind(op), alpha, Exp(lam), t)
        exact = exp_reference(op, alpha, lam, t)
        with mpmath.workdps(40):
            error = abs(mpmath.mpf(result.value) - exact)
            floor = max(error, EPS * abs(exact))
        assert error <= result.abs_err_estimate + TINY
        assert result.abs_err_estimate <= MAX_OVERSHOOT * floor


class TestWeylEstimates:
    # the cosine ratio vanishes on delta/2 + alpha in {1/2, 3/2, ...}, where the
    # true value is 0 and its error a few ulp of M; so the overshoot is
    # measured against eps M as well
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(weyl_points())
    @example(("weyl-int", 1e-9, 0.5, 1.0))  # alpha -> 0
    @example(("weyl-der", 1e-9, 0.5, 1.0))
    @example(("weyl-der", 0.1, 0.8, 0.5))  # on the zero locus: the value rounds to exactly 0
    @example(("weyl-der", 0.1, 0.8, 2.0))
    @example(("weyl-der", 0.38745130105220377, 0.22565324200520231, 2.898528528519859))
    @example(("weyl-der", 2.1205576669320485, 0.7589089301359269, 3.3002374308206326))
    @example(("weyl-int", 4.01264665566004e-08, 0.9999665318776211, 1.0817318761322046))
    @example(("weyl-der", 1.0, 0.5, 4.5))  # whole orders take the plain derivative
    @example(("weyl-der", 2.5, 0.8, 5.0))
    def test_estimate_is_honest_and_not_wild(self, point):
        op, alpha, delta, t = point
        result = closed_eval(OperatorKind(op), alpha, AbsPower(delta), t)
        exact, scale = weyl_reference(op, alpha, delta, t)
        with mpmath.workdps(40):
            error = abs(mpmath.mpf(result.value) - exact)
            floor = max(error, EPS * abs(exact), EPS * scale)
        assert error <= result.abs_err_estimate + TINY
        assert result.abs_err_estimate <= MAX_OVERSHOOT * floor


class TestShiftedGammaRounding:
    # the derivative formulas take gamma at 1 + g - alpha or nu - alpha, an
    # argument that rounds; the estimate does not count that rounding yet
    @pytest.mark.parametrize(
        "family, alpha, t, exact",
        (
            pytest.param(
                Power(-0.326775445558674), 0.7901526781008872, 1.1123537471845166,
                lambda a, g, t: mpmath.gamma(1 + g) / mpmath.gamma(1 + g - a) * t ** (g - a),
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: rounded 1 + g - alpha, 1.21x"),
                id="power",
            ),
            pytest.param(
                PowerLog(0.0348), 2.0599, 2.366,
                lambda a, nu, t: t ** (nu - a - 1) * mpmath.gamma(nu) / mpmath.gamma(nu - a)
                * (mpmath.log(t) + mpmath.digamma(nu) - mpmath.digamma(nu - a)),
                marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: rounded nu - alpha, 1.15x"),
                id="powerlog",
            ),
        ),
    )
    def test_derivative_estimate_is_honest(self, family, alpha, t, exact):
        result = closed_eval(OperatorKind.RL_DERIVATIVE, alpha, family, t)
        with mpmath.workdps(40):
            error = abs(mpmath.mpf(result.value) - exact(*map(mpmath.mpf, (alpha, family.param, t))))
        assert error <= result.abs_err_estimate


def _grid():
    """Every operator and family of the verify grid, at its orders and the whole ones."""
    rl = ((Power, verify.GAMMAS), (Exp, verify.LAMBDAS), (PowerLog, verify.NUS))
    pairs = [(kind, family, params) for kind in (OperatorKind.RL_INTEGRAL, OperatorKind.RL_DERIVATIVE)
             for family, params in rl]
    pairs += [(kind, AbsPower, verify.DELTAS) for kind in (OperatorKind.WEYL_INTEGRAL, OperatorKind.WEYL_DERIVATIVE)]
    for kind, family, params in pairs:
        for alpha in verify.ALPHAS + (1.0, 2.0):
            for param in params:
                for t in verify.TS:
                    yield kind, alpha, family(param), t


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the two routes must raise alike
        return type(exc), str(exc)


class TestOneEvaluation:
    def test_eval_value_is_closed_value(self):
        # closed_eval evaluates the exp and power-log formulas through their
        # shift functions, so that the bound comes from the value's own terms;
        # the value must still be closed_value's, bit for bit
        for kind, alpha, family, t in _grid():
            result = _outcome(closed_eval, kind, alpha, family, t)
            value = _outcome(closed_value, kind, alpha, family, t)
            if isinstance(value, float):
                assert result.value.hex() == value.hex(), (kind, alpha, family, t)
            else:
                assert result == value, (kind, alpha, family, t)

    @pytest.mark.parametrize("kind", ("rl-int", "rl-der", "weyl-int", "weyl-der"))
    def test_checks_run_before_the_shift_functions(self, kind):
        # the formula's own checks, in its order: t first, then alpha; the
        # Weyl integral's alpha also below delta
        families = (AbsPower(0.5),) if kind.startswith("weyl") else (Exp(-1.0), PowerLog(0.5))
        alphas = (-0.5, 0.5, 0.7) if kind == "weyl-int" else (-0.5,)
        for family in families:
            for alpha in alphas:
                for t in (0.0, 1.0):
                    with pytest.raises(Exception) as closed_error:
                        closed_value(kind, alpha, family, t)
                    with pytest.raises(type(closed_error.value), match=re.escape(str(closed_error.value))):
                        closed_eval(kind, alpha, family, t)
