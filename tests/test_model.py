"""Domain types: family invariants, operator kinds, parsing, pairing."""

import pytest

from fraccalc import closed_forms as cf
from fraccalc.errors import DomainError
from fraccalc.model import (
    AbsPower,
    EvalResult,
    Exp,
    OperatorKind,
    Power,
    PowerLog,
    parse_family,
)
from fraccalc.oracle import oracle_eval
from fraccalc.verify import ATOL_DERIVATIVE, ATOL_INTEGRAL, TOL_DERIVATIVE, TOL_INTEGRAL


class TestFamilyInvariants:
    def test_power_requires_integrable_exponent(self):
        Power(-0.99)
        with pytest.raises(DomainError):
            Power(-1.0)

    def test_powerlog_requires_positive_nu(self):
        with pytest.raises(DomainError):
            PowerLog(0.0)

    def test_abspower_requires_open_unit_interval(self):
        with pytest.raises(DomainError):
            AbsPower(1.0)
        with pytest.raises(DomainError):
            AbsPower(0.0)

    def test_finite_parameters(self):
        with pytest.raises(DomainError):
            Exp(float("inf"))

    def test_values(self):
        assert Power(2.0).value(3.0) == 9.0
        assert AbsPower(0.5).value(4.0) == 0.5
        assert float(PowerLog(1.0).value(1.0)) == 0.0


class TestParseFamily:
    def test_each_variant(self):
        assert parse_family("power:gamma=0.5") == Power(0.5)
        assert parse_family("exp:lambda=-1") == Exp(-1.0)
        assert parse_family("powerlog:nu=2") == PowerLog(2.0)
        assert parse_family("abspower:delta=0.3") == AbsPower(0.3)

    def test_rejects_unknown_name_and_wrong_key(self):
        for bad in ("gauss:sigma=1", "power:delta=1", "power", "power:gamma=abc"):
            with pytest.raises(DomainError):
                parse_family(bad)

    def test_param_extraction(self):
        assert parse_family("exp:lambda=0.25").param == 0.25

    def test_origin_declarations(self):
        assert (Power(-0.5).power_at_zero, Power(-0.5).log_at_zero) == (-0.5, False)
        assert (Exp(3.0).power_at_zero, Exp(3.0).log_at_zero) == (0.0, False)
        assert (PowerLog(0.3).power_at_zero, PowerLog(0.3).log_at_zero) == (0.3 - 1.0, True)
        assert (AbsPower(0.4).power_at_zero, AbsPower(0.4).log_at_zero) == (-0.4, False)


class TestOperatorKind:
    def test_kind_predicates(self):
        assert OperatorKind.WEYL_DERIVATIVE.is_weyl
        assert OperatorKind.WEYL_DERIVATIVE.is_derivative
        assert not OperatorKind.RL_INTEGRAL.is_derivative


class TestEvalResult:
    def test_invariants(self):
        EvalResult(1.0, "oracle", 0.0)
        EvalResult(1.0, "closed-form", 0.0)
        for tag in ("guess", "literature"):
            with pytest.raises(DomainError):
                EvalResult(1.0, tag, 0.0)
        with pytest.raises(DomainError):
            EvalResult(1.0, "oracle", -1.0)
        with pytest.raises(DomainError):
            EvalResult(1.0, "oracle", float("nan"))


# one member of each family, and the closed form each valid operator pairs it with
FAMILIES = (Power(0.5), Exp(-1.0), PowerLog(2.0), AbsPower(0.4))
FORMULAS = {
    (OperatorKind.RL_INTEGRAL, Power): "rl_integral_power",
    (OperatorKind.RL_INTEGRAL, Exp): "rl_integral_exp",
    (OperatorKind.RL_INTEGRAL, PowerLog): "rl_integral_powerlog",
    (OperatorKind.RL_DERIVATIVE, Power): "rl_derivative_power",
    (OperatorKind.RL_DERIVATIVE, Exp): "rl_derivative_exp",
    (OperatorKind.RL_DERIVATIVE, PowerLog): "rl_derivative_powerlog",
    (OperatorKind.WEYL_INTEGRAL, AbsPower): "weyl_integral_abspower",
    (OperatorKind.WEYL_DERIVATIVE, AbsPower): "weyl_derivative_abspower",
}


class TestPairing:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("kind", tuple(OperatorKind), ids=lambda k: k.value)
    def test_every_operator_family_pair(self, kind, family):
        if (kind, type(family)) not in FORMULAS:
            with pytest.raises(DomainError, match="pairs with"):
                cf.closed_value(kind, 0.25, family, 1.0)
            with pytest.raises(DomainError, match="pairs with"):
                oracle_eval(kind, 0.25, family, 1.0)
            return
        # 0.25 < delta keeps the Weyl integral's tail convergent; 0.75 is a
        # fractional order with a nonzero Weyl derivative at delta = 0.4
        alpha = 0.75 if kind.is_derivative else 0.25
        closed = cf.closed_value(kind, alpha, family, 1.5)
        oracle = oracle_eval(kind, alpha, family, 1.5).value
        if kind.is_derivative:
            tol, atol = TOL_DERIVATIVE, ATOL_DERIVATIVE
        else:
            tol, atol = TOL_INTEGRAL, ATOL_INTEGRAL
        assert abs(oracle - closed) <= max(tol * abs(closed), atol)

    @pytest.mark.parametrize("pair", tuple(FORMULAS), ids=lambda p: f"{p[0].value}-{p[1].__name__}")
    def test_closed_value_looks_up_the_formula_at_call_time(self, monkeypatch, pair):
        kind, family_type = pair
        family = next(f for f in FAMILIES if type(f) is family_type)
        monkeypatch.setattr(cf, FORMULAS[pair], lambda alpha, param, t: (alpha, param, t))
        assert cf.closed_value(kind, 0.25, family, 1.5) == (0.25, family.param, 1.5)

    def test_non_family_is_rejected(self):
        with pytest.raises(DomainError):
            cf.closed_value(OperatorKind.RL_INTEGRAL, 0.5, "power", 1.0)
        with pytest.raises(DomainError):
            oracle_eval(OperatorKind.RL_DERIVATIVE, 0.5, "power", 1.0)
