"""Double entry at extreme t: where the oracle answers, it agrees with the closed form.

Far from t = 1 the prefactor t**alpha of the order-alpha integral, the
integral it scales, or the integrand itself can leave the normal doubles and
lose its digits to underflow, down to 0, which no ladder difference shows.
The oracle refuses such a point (a DomainError naming t) instead of
returning 0 +- 0.  The scan holds every point of a grid over t in
1e+-100 ... 1e+-300 to the double-entry rule: refused, or the two routes
within the sum of their estimates.
"""

import itertools
import math

import pytest

from fraccalc import closed_eval, oracle_eval
from fraccalc.cli import main
from fraccalc.errors import DomainError, FracCalcError
from fraccalc.model import AbsPower, Exp, OperatorKind, Power, PowerLog

RL_FAMILIES = (
    *(Power(g) for g in (-0.5, 0.0, 0.5, 2.0)),
    *(Exp(lam) for lam in (1e-3, -1e-3)),
    *(PowerLog(nu) for nu in (0.3, 1.0, 2.0)),
)
SCAN_CASES = [
    *((kind, f) for kind in (OperatorKind.RL_INTEGRAL, OperatorKind.RL_DERIVATIVE) for f in RL_FAMILIES),
    *((kind, AbsPower(d)) for kind in (OperatorKind.WEYL_INTEGRAL, OperatorKind.WEYL_DERIVATIVE) for d in (0.3, 0.6, 0.9)),
]
SCAN_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5)
SCAN_TS = tuple(10.0 ** (sign * e) for e in (100, 150, 200, 250, 280, 300) for sign in (1, -1))

# the two points where the oracle's estimate falls short for another reason, pinned in
# test_oracle.py's TestOpenDefects under ROADMAP item 4f
ITEM_4F = {(OperatorKind.RL_INTEGRAL, PowerLog(0.3), 2.5, 1e100), (OperatorKind.RL_INTEGRAL, PowerLog(0.3), 2.5, 1e-100)}

# one point of each class that returned 0 +- 0, or a wrong value, before the oracle refused rows
# outside the normal doubles: t**alpha underflows; the scaled integral underflows; the integrand
# underflows at every node (0 before scaling); the scaled integral is subnormal
UNDERFLOW_CLASSES = (
    (OperatorKind.RL_INTEGRAL, Power(-0.5), 1.5, 1e-300),
    (OperatorKind.RL_DERIVATIVE, Power(0.5), 0.25, 1e-300),
    (OperatorKind.RL_DERIVATIVE, PowerLog(2.0), 0.1, 1e-200),
    (OperatorKind.RL_DERIVATIVE, Power(2.0), 0.75, 1e-200),
    (OperatorKind.RL_DERIVATIVE, Power(2.0), 0.5, 1e-150),
    (OperatorKind.RL_INTEGRAL, PowerLog(0.3), 1.5, 1e-250),
    (OperatorKind.RL_INTEGRAL, PowerLog(2.0), 0.25, 1e-250),
)


def _apart(kind, alpha, family, t):
    """Whether the oracle answers at the point and lands outside the two routes' estimates."""
    closed = closed_eval(kind, alpha, family, t)
    try:
        oracle = oracle_eval(kind, alpha, family, t)
    except FracCalcError:
        return False
    return abs(closed.value - oracle.value) > closed.abs_err_estimate + oracle.abs_err_estimate


def test_scan_has_no_double_entry_violation():
    apart, answered = [], 0
    for (kind, family), alpha, t in itertools.product(SCAN_CASES, SCAN_ALPHAS, SCAN_TS):
        try:
            closed_eval(kind, alpha, family, t)
        except (FracCalcError, OverflowError):  # the closed form refuses the point
            continue
        answered += 1
        if (kind, family, alpha, t) not in ITEM_4F and _apart(kind, alpha, family, t):
            apart.append((kind.value, family, alpha, t))
    assert answered == 1444
    assert apart == []


@pytest.mark.parametrize("kind, family, alpha, t", UNDERFLOW_CLASSES)
def test_underflow_is_refused_by_t(kind, family, alpha, t):
    with pytest.raises(DomainError, match="leaves the normal doubles at t="):
        oracle_eval(kind, alpha, family, t)
    assert not _apart(kind, alpha, family, t)


@pytest.mark.parametrize(
    "argv",
    (
        ["--op", "rl-der", "--alpha", "0.25", "--fn", "power:gamma=0.5", "--t", "1e-300"],
        ["--op", "rl-int", "--alpha", "1.5", "--fn", "power:gamma=-0.5", "--t", "1e-300"],
    ),
)
def test_cli_both_exits_three_instead_of_zero(argv, capsys):
    # each printed the closed value beside an oracle 0 +- 0 and exited 0
    assert main(["eval", *argv, "--method", "both"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fraccalc: domain error: ") and err.count("\n") == 1 and "t=" in err


def test_derivative_past_the_doubles_names_the_function_and_t():
    # the integrals at the stencil points about t = 1e300 overflow once scaled; the
    # derivative's refusal said "abs_err_estimate must be finite and nonnegative, got nan"
    with pytest.raises(DomainError, match=r"^rl_integral_quad: .* at t=1\.0\d*e\+300$"):
        oracle_eval(OperatorKind.RL_DERIVATIVE, 0.25, Power(0.5), 1e300)


def test_prefactor_in_range_keeps_a_subnormal_estimate():
    # the value 1e-300 is a normal double, so the point is answered; its estimate is below them
    result = oracle_eval(OperatorKind.RL_INTEGRAL, 1.0, Power(0.0), 1e-300)
    assert result.abs_err_estimate < 2.0**-1022
    assert abs(result.value - 1e-300) <= result.abs_err_estimate + math.ulp(1e-300)
