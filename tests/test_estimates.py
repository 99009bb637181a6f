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

    @pytest.mark.parametrize("kind", ("rl-int", "rl-der"))
    def test_checks_run_before_the_shift_functions(self, kind):
        # the formula's own checks, in its order: t first, then alpha
        for family in (Exp(-1.0), PowerLog(0.5)):
            for t in (0.0, 1.0):
                with pytest.raises(Exception) as closed_error:
                    closed_value(kind, -0.5, family, t)
                with pytest.raises(type(closed_error.value), match=re.escape(str(closed_error.value))):
                    closed_eval(kind, -0.5, family, t)
