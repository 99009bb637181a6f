"""Domain types: family invariants, operator kinds, parsing, pairing, record semantics."""

import copy
import pickle

import pytest

from fraccalc import closed_forms as cf
from fraccalc.errors import DomainError
from fraccalc.model import (
    DEFAULT_CONFIG,
    AbsPower,
    EvalResult,
    Exp,
    OperatorKind,
    Power,
    PowerLog,
    QuadConfig,
    parse_family,
)
from fraccalc.oracle import Integrand, oracle_eval
from fraccalc.verify import (
    ATOL_DERIVATIVE,
    ATOL_INTEGRAL,
    TOL_DERIVATIVE,
    TOL_INTEGRAL,
    CheckRecord,
    FalsificationMargin,
    SkippedCheck,
    VerificationReport,
)


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


# Every record type with all its fields as (name, value) pairs, in declaration
# order, and its repr, which reads as the frozen-dataclass repr of earlier
# versions did.
_CHECK_FIELDS = (
    ("check_id", "c/1"), ("inputs", {"t": 0.5}), ("lhs", 1.0), ("rhs", 1.5), ("abs_diff", 0.5),
    ("rel_diff", 0.25), ("tol", 1e-09), ("passed", False), ("note", "n"),
)
_SKIP_FIELDS = (("check_id", "c/2"), ("inputs", {"t": 2.0}), ("reason", "outside"))
_CHECK_REPR = (
    "CheckRecord(check_id='c/1', inputs={'t': 0.5}, lhs=1.0, rhs=1.5, abs_diff=0.5, rel_diff=0.25, "
    "tol=1e-09, passed=False, note='n')"
)
_SKIP_REPR = "SkippedCheck(check_id='c/2', inputs={'t': 2.0}, reason='outside')"
RECORDS = (
    (Power, (("gamma_exp", 0.5),), "Power(gamma_exp=0.5)"),
    (Exp, (("lam", -1.0),), "Exp(lam=-1.0)"),
    (PowerLog, (("nu", 2.0),), "PowerLog(nu=2.0)"),
    (AbsPower, (("delta", 0.25),), "AbsPower(delta=0.25)"),
    (
        EvalResult,
        (("value", 1.5), ("method", "oracle"), ("abs_err_estimate", 1e-12)),
        "EvalResult(value=1.5, method='oracle', abs_err_estimate=1e-12)",
    ),
    (
        QuadConfig,
        (("target_rel_tol", 1e-9), ("max_nodes", 128)),
        "QuadConfig(target_rel_tol=1e-09, max_nodes=128)",
    ),
    (
        Integrand,
        (("value", abs), ("power_at_zero", 0.5), ("log_at_zero", True)),
        "Integrand(value=<built-in function abs>, power_at_zero=0.5, log_at_zero=True)",
    ),
    (CheckRecord, _CHECK_FIELDS, _CHECK_REPR),
    (SkippedCheck, _SKIP_FIELDS, _SKIP_REPR),
    (
        VerificationReport,
        (
            ("suite", "s"), ("grid_spec", "g"), ("records", [CheckRecord(**dict(_CHECK_FIELDS))]),
            ("skipped", [SkippedCheck(**dict(_SKIP_FIELDS))]), ("n_pass", 0), ("n_fail", 1), ("n_skip", 1),
            ("wall_time_seconds", 0.25),
        ),
        f"VerificationReport(suite='s', grid_spec='g', records=[{_CHECK_REPR}], skipped=[{_SKIP_REPR}], "
        "n_pass=0, n_fail=1, n_skip=1, wall_time_seconds=0.25)",
    ),
    (
        FalsificationMargin,
        (
            ("delta", 0.5), ("alpha", 0.25), ("t", 1.0), ("corrected", 2.0), ("literature", 3.0),
            ("oracle", 2.0), ("oracle_err", 1e-10), ("verdict", "corrected"),
        ),
        "FalsificationMargin(delta=0.5, alpha=0.25, t=1.0, corrected=2.0, literature=3.0, oracle=2.0, "
        "oracle_err=1e-10, verdict='corrected')",
    ),
)
_IDS = [cls.__name__ for cls, _, _ in RECORDS]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
    def test_positional_and_keyword_construction_agree(self, cls, fields, text):
        positional = cls(*(value for _, value in fields))
        keyword = cls(**dict(fields))
        assert positional == keyword
        assert repr(positional) == repr(keyword) == text
        for name, value in fields:
            assert getattr(positional, name) is value

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        record = cls(**dict(fields))
        for name in [name for name, _ in fields] + ["other"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
    def test_equality_is_strict_by_type(self, cls, fields, text):
        record = cls(**dict(fields))
        assert record == cls(**dict(fields))
        assert not record != cls(**dict(fields))
        values = tuple(value for _, value in fields)
        assert record != values
        assert record != list(values)
        assert record != dict(fields)
        # a subclass keeps the fields, and its records differ from the base's
        twin_type = type("Twin", (cls,), {"__slots__": ()})
        twin = twin_type(*values)
        assert record != twin and twin != record
        assert twin == twin_type(*values)
        assert repr(twin) == "Twin" + text[len(cls.__name__):]

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
    def test_hash_matches_equality(self, cls, fields, text):
        record = cls(**dict(fields))
        if any(isinstance(value, (dict, list)) for _, value in fields):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(cls(**dict(fields)))
            assert len({record, cls(**dict(fields))}) == 1

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_IDS)
    def test_copy_and_pickle_round_trip(self, cls, fields, text):
        record = cls(**dict(fields))
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_families_differ_from_each_other(self):
        assert Power(0.5) != Exp(0.5)
        assert Power(0.5) != AbsPower(0.5)
        assert Power(0.5) != (0.5,)
        assert Power(0.5) != Power(0.25)
        assert EvalResult(1.0, "oracle", 0.0) != EvalResult(1.0, "closed-form", 0.0)

    def test_defaults(self):
        assert QuadConfig() == DEFAULT_CONFIG
        assert QuadConfig(1e-10, 256) == DEFAULT_CONFIG
        assert QuadConfig(max_nodes=128) != DEFAULT_CONFIG
        assert repr(QuadConfig()) == "QuadConfig(target_rel_tol=1e-10, max_nodes=256)"
        assert repr(Integrand(abs)) == (
            "Integrand(value=<built-in function abs>, power_at_zero=0.0, log_at_zero=False)"
        )
        assert CheckRecord(*(value for _, value in _CHECK_FIELDS[:-1])).note == ""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Power(-1.0), "Power requires gamma_exp > -1, got -1.0"),
            (lambda: Power(float("nan")), "gamma_exp must be finite, got nan"),
            (lambda: Exp(float("inf")), "lam must be finite, got inf"),
            (lambda: PowerLog(0.0), "PowerLog requires nu > 0, got 0.0"),
            (lambda: PowerLog(float("-inf")), "nu must be finite, got -inf"),
            (lambda: AbsPower(1.0), "AbsPower requires delta in (0, 1), got 1.0"),
            (lambda: AbsPower(float("nan")), "delta must be finite, got nan"),
            (lambda: EvalResult(1.0, "guess", 0.0), "unknown method tag 'guess'"),
            (lambda: EvalResult(1.0, "oracle", -1.0), "abs_err_estimate must be finite and nonnegative, got -1.0"),
            (lambda: EvalResult(1.0, "oracle", float("inf")), "abs_err_estimate must be finite and nonnegative, got inf"),
            (lambda: QuadConfig(0.0), "target_rel_tol must be > 0, got 0.0"),
            (lambda: QuadConfig(max_nodes=8), "max_nodes must be a power of two in [16, 256], got 8"),
            (lambda: QuadConfig(max_nodes=512), "max_nodes must be a power of two in [16, 256], got 512"),
            (lambda: QuadConfig(max_nodes=100), "max_nodes must be a power of two in [16, 256], got 100"),
            (lambda: QuadConfig(max_nodes=16.5), "max_nodes must be a power of two in [16, 256], got 16.5"),
            (lambda: QuadConfig(max_nodes=True), "max_nodes must be a power of two in [16, 256], got True"),
            (lambda: Integrand(abs, -1.0), "integrand must be integrable at 0: power_at_zero > -1, got -1.0"),
            # nan passed power_at_zero <= -1, and rl_integral_quad on it raised numpy's LinAlgError
            (lambda: Integrand(abs, float("nan")), "integrand must be integrable at 0: power_at_zero > -1, got nan"),
            # inf reached eigh as a Jacobi exponent, and numpy's LinAlgError
            (lambda: Integrand(abs, float("inf")), "power_at_zero must be finite, got inf"),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Power(), "missing 1 required positional argument: 'gamma_exp'"),
            (lambda: Power(1.0, 2.0), "takes 2 positional arguments but 3 were given"),
            (lambda: Power(gamma=1.0), "unexpected keyword argument 'gamma'"),
            (lambda: SkippedCheck("c", {}), "missing 1 required positional argument: 'reason'"),
        ],
    )
    def test_wrong_arguments_are_type_errors(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert message in str(info.value)
