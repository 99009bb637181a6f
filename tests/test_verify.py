"""Verification harness: suite outcomes, report formats, arbitration logic."""

import inspect
import json
import math
import textwrap
from collections import defaultdict

import pytest

from fraccalc import closed_forms as cf
from fraccalc import oracle, verify
from fraccalc.errors import DomainError, FracCalcError, UnknownSuiteError
from fraccalc.model import JACOBI_MAX_NODES, AbsPower, EvalResult, OperatorKind
from fraccalc.oracle import QuadConfig
from fraccalc.verify import (
    CheckRecord,
    SkippedCheck,
    VerificationReport,
    emit_report,
    falsification_margin,
    parse_report_json,
    run_suite,
)


class TestSuiteOutcomes:
    @pytest.mark.parametrize(
        "name", ("specfun", "rl-power", "rl-exp", "rl-log", "weyl", "d-equals-i-neg", "lemmas")
    )
    def test_suite_is_clean(self, name):
        report = run_suite(name)
        failing = [r.check_id for r in report.records if not r.passed]
        assert report.n_fail == 0, failing
        assert report.n_pass == len(report.records)
        assert report.suite == name

    def test_falsification_suite_never_sides_with_literature(self):
        report = run_suite("literature-falsification")
        assert report.n_fail == 0
        assert all("verdict=corrected" in r.note for r in report.records)
        assert not any("verdict=literature" in r.note for r in report.records)
        # one point per (delta, alpha, t) combination
        assert len(report.records) == 5 * 5 * 3

    def test_all_contains_every_check_exactly_once(self):
        whole = run_suite("all")
        ids = [r.check_id for r in whole.records]
        assert len(ids) == len(set(ids))
        parts = sum(
            len(run_suite(n).records)
            for n in ("specfun", "rl-power", "rl-exp", "rl-log", "weyl", "d-equals-i-neg",
                      "literature-falsification", "lemmas")
        )
        assert len(ids) == parts

    def test_counts_invariant(self):
        report = run_suite("lemmas")
        assert report.n_pass + report.n_fail == len(report.records)
        assert report.n_skip == len(report.skipped)

    def test_out_of_domain_points_are_skipped_not_failed(self):
        report = run_suite("weyl")
        assert report.n_skip > 0
        assert all(isinstance(s, SkippedCheck) for s in report.skipped)
        assert all("alpha < delta" in s.reason for s in report.skipped)

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("does-not-exist")

    def test_error_inside_domain_becomes_failed_record(self, monkeypatch):
        def broken(a, b):
            raise DomainError("injected failure")

        monkeypatch.setattr(cf, "log_beta_integral", broken)
        report = run_suite("lemmas")
        failed = [r for r in report.records if not r.passed]
        assert failed and all("DomainError" in r.note for r in failed)
        assert math.isnan(failed[0].lhs)


class TestFalsificationMargin:
    def test_headline_point(self):
        m = falsification_margin(0.5, 0.25, 1.0)
        assert m.verdict == "corrected"
        assert m.corrected == 0.0
        assert m.literature == pytest.approx(0.69136733903629335, rel=1e-12)
        assert abs(m.oracle) < 1e-6

    def test_sign_disagreement_point(self):
        m = falsification_margin(0.25, 0.5, 1.0)
        assert m.verdict == "corrected"
        assert m.corrected == pytest.approx(-0.13999967745248263, rel=1e-12)
        assert m.corrected < 0.0 < m.literature
        assert m.literature == pytest.approx(
            math.gamma(0.75) / math.gamma(0.25), rel=1e-12
        )

    def test_degenerate_small_order_not_literature(self):
        # as alpha -> 0 both formulas converge to t**-delta; the verdict may
        # become inconclusive but must never flip to the literature side
        m = falsification_margin(0.5, 1e-8, 1.0)
        assert m.verdict in ("corrected", "inconclusive")

    def test_domain(self):
        with pytest.raises(DomainError):
            falsification_margin(1.5, 0.25, 1.0)


class TestReportFormats:
    def test_json_round_trip(self):
        report = run_suite("lemmas")
        parsed = parse_report_json(emit_report(report, "json"))
        assert parsed == report

    def test_json_text(self):
        # the text a frozen-dataclass report gave through dataclasses.asdict
        report = VerificationReport(
            "s", "g", [CheckRecord("s/x", {"t": 0.5, "a": 2.0}, 1.0, math.nan, 0.5, 0.25, 1e-09, False, "n")],
            [SkippedCheck("s/y", {"t": 2.0}, "outside")], 0, 1, 1, 0.125,
        )
        assert emit_report(report, "json") == (
            b'{\n  "suite": "s",\n  "grid_spec": "g",\n  "records": [\n    {\n      "check_id": "s/x",\n'
            b'      "inputs": {\n        "t": 0.5,\n        "a": 2.0\n      },\n      "lhs": 1.0,\n'
            b'      "rhs": NaN,\n      "abs_diff": 0.5,\n      "rel_diff": 0.25,\n      "tol": 1e-09,\n'
            b'      "passed": false,\n      "note": "n"\n    }\n  ],\n  "skipped": [\n    {\n'
            b'      "check_id": "s/y",\n      "inputs": {\n        "t": 2.0\n      },\n'
            b'      "reason": "outside"\n    }\n  ],\n  "n_pass": 0,\n  "n_fail": 1,\n  "n_skip": 1,\n'
            b'  "wall_time_seconds": 0.125\n}\n'
        )

    def test_json_keys_follow_the_record_fields(self):
        raw = json.loads(emit_report(run_suite("lemmas"), "json"))
        assert list(raw) == [
            "suite", "grid_spec", "records", "skipped", "n_pass", "n_fail", "n_skip", "wall_time_seconds"
        ]
        record_keys = ["check_id", "inputs", "lhs", "rhs", "abs_diff", "rel_diff", "tol", "passed", "note"]
        assert raw["records"] and all(list(r) == record_keys for r in raw["records"])

    def test_csv_is_deterministic(self):
        report = run_suite("specfun")
        assert emit_report(report, "csv") == emit_report(report, "csv")

    def test_csv_excludes_wall_time_and_reruns_identical(self):
        first = emit_report(run_suite("lemmas"), "csv")
        second = emit_report(run_suite("lemmas"), "csv")
        assert first == second

    def test_csv_shape(self):
        report = run_suite("lemmas")
        lines = emit_report(report, "csv").decode().splitlines()
        assert lines[0] == "check_id,inputs,lhs,rhs,abs_diff,rel_diff,tol,passed"
        assert len(lines) == 1 + len(report.records)
        # numbers parse back losslessly at 17 significant digits
        row = lines[1].split(",")
        record = report.records[0]
        assert float(row[2]) == record.lhs
        assert float(row[3]) == record.rhs

    def test_text_summary(self):
        report = run_suite("specfun")
        text = emit_report(report, "text").decode()
        assert "suite: specfun" in text
        assert "worst 5 records" in text

    def test_empty_report(self):
        empty = VerificationReport(
            suite="empty", grid_spec="none", records=[], skipped=[],
            n_pass=0, n_fail=0, n_skip=0, wall_time_seconds=0.0,
        )
        payload = emit_report(empty, "json")
        assert parse_report_json(payload) == empty
        assert emit_report(empty, "csv").decode() == "check_id,inputs,lhs,rhs,abs_diff,rel_diff,tol,passed\n"

    def test_csv_bytes(self):
        # the header, then per record: the id, the inputs sorted by name, six numbers at
        # 17 significant digits and the verdict; the note is left out
        nan = float("nan")
        report = VerificationReport(
            suite="two", grid_spec="none",
            records=[
                CheckRecord("two/x", {"t": 1.0, "alpha": 0.1}, 2.0, 2.0, 0.0, 0.0, 1e-9, True, note="kept out"),
                CheckRecord("two/y", {"t": 2.0}, nan, nan, nan, nan, 1e-12, False),
            ],
            skipped=[], n_pass=1, n_fail=1, n_skip=0, wall_time_seconds=0.0,
        )
        assert emit_report(report, "csv") == (
            b"check_id,inputs,lhs,rhs,abs_diff,rel_diff,tol,passed\n"
            b"two/x,alpha=0.10000000000000001;t=1,2,2,0,0,1.0000000000000001e-09,true\n"
            b"two/y,t=2,nan,nan,nan,nan,9.9999999999999998e-13,false\n"
        )

    def test_single_record_csv(self):
        one = VerificationReport(
            suite="one", grid_spec="none",
            records=[CheckRecord("one/x", {"t": 1.0}, 2.0, 2.0, 0.0, 0.0, 1e-9, True)],
            skipped=[], n_pass=1, n_fail=0, n_skip=0, wall_time_seconds=0.0,
        )
        lines = emit_report(one, "csv").decode().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("one/x,t=1,2,2,0,0,")

    def test_unknown_format(self):
        report = run_suite("lemmas")
        with pytest.raises(DomainError):
            emit_report(report, "xml")


class TestMutationSensitivity:
    """Perturbing any closed-form coefficient must trip its suite."""

    def test_scaled_power_integral_fails_rl_power(self, monkeypatch):
        # closed_eval takes every power value from power_shift_eval
        original = cf.power_shift_eval
        monkeypatch.setattr(
            cf, "power_shift_eval", lambda a, g, t: (original(a, g, t)[0] * (1.0 + 1e-3), original(a, g, t)[1])
        )
        assert run_suite("rl-power").n_fail > 0

    @staticmethod
    def _scale_power_shift_at_negative_orders(monkeypatch):
        # scales the value, not the bound, at a < 0 only: the derivatives and not the integrals
        original = cf.power_shift_eval

        def scaled(a, g, t):
            value, bound = original(a, g, t)
            return (value * (1.0 + 1e-3) if a < 0.0 else value), bound

        monkeypatch.setattr(cf, "power_shift_eval", scaled)

    def test_power_shift_scaled_at_negative_orders_fails_rl_power(self, monkeypatch):
        self._scale_power_shift_at_negative_orders(monkeypatch)
        assert run_suite("rl-power").n_fail > 0

    def test_item_13_power_shift_scaled_at_negative_orders_fails_d_equals_i_neg(self, monkeypatch):
        self._scale_power_shift_at_negative_orders(monkeypatch)
        assert run_suite("d-equals-i-neg").n_fail > 0

    @pytest.mark.parametrize(
        "shift, label, rows",
        (
            # of 140 power and 140 Weyl rows, those whose coefficient is exactly 0 (on a
            # gamma pole, or at a zero of the cosine ratio) stay 0 when scaled
            ("power_shift_eval", "power", 120),
            ("exp_shift_eval", "exp", 84),
            ("powerlog_shift_eval", "log", 84),
            ("weyl_power_shift_eval", "abspower", 132),
        ),
    )
    def test_shift_scaled_at_negative_orders_fails_its_composed_rows(self, monkeypatch, shift, label, rows):
        # d-equals-i-neg takes each shift function at the positive order m - alpha only, so a
        # 1e-9 scaling at a < 0, where closed_eval takes the derivatives, fails that family's rows
        original = getattr(cf, shift)

        def scaled(a, p, t):
            value, bound = original(a, p, t)
            return (value * (1.0 + 1e-9) if a < 0.0 else value), bound

        monkeypatch.setattr(cf, shift, scaled)
        failed = [r.check_id for r in run_suite("d-equals-i-neg").records if not r.passed]
        assert {check_id.split("/")[1] for check_id in failed} == {label}
        assert len(failed) == rows

    def test_dropped_cosine_ratio_fails_falsification(self, monkeypatch):
        # replaces the corrected Weyl derivative with the literature formula
        monkeypatch.setattr(cf, "weyl_derivative_abspower", cf.weyl_power_literature)
        report = run_suite("literature-falsification")
        assert report.n_fail > 0

    def test_dropped_cosine_ratio_fails_weyl(self, monkeypatch):
        # the literature formula at order -a is the Weyl shift function without its cosine ratio
        monkeypatch.setattr(cf, "weyl_power_shift_eval", lambda a, d, t: (cf.weyl_power_literature(-a, d, t), 0.0))
        assert run_suite("weyl").n_fail > 0

    def test_scaled_closed_eval_fails_rl_exp_and_weyl(self, monkeypatch):
        # the suites check the values that eval prints
        original = cf.closed_eval
        monkeypatch.setattr(
            cf, "closed_eval", lambda *args: EvalResult(original(*args).value * (1.0 + 1e-3), "closed-form", 0.0)
        )
        assert run_suite("rl-exp").n_fail > 0
        assert run_suite("weyl").n_fail > 0

    def test_swapped_oracle_dispatch_fails_rl_power(self, monkeypatch):
        # verify takes every operator's oracle value from oracle_eval, which looks its quadrature up in _QUADS
        monkeypatch.setitem(oracle._QUADS, OperatorKind.RL_INTEGRAL, "rl_derivative_quad")
        monkeypatch.setitem(oracle._QUADS, OperatorKind.RL_DERIVATIVE, "rl_integral_quad")
        assert run_suite("rl-power").n_fail > 0

    def test_swapped_weyl_dispatch_fails_weyl_and_falsification(self, monkeypatch):
        # both suites take their Weyl oracle values through _QUADS, so the ledger's numbers move
        monkeypatch.setitem(oracle._QUADS, OperatorKind.WEYL_INTEGRAL, "weyl_derivative_quad")
        monkeypatch.setitem(oracle._QUADS, OperatorKind.WEYL_DERIVATIVE, "weyl_integral_quad")
        assert run_suite("weyl").n_fail > 0
        assert run_suite("literature-falsification").n_fail > 0

    def test_family_for_delta_fails_weyl(self, monkeypatch):
        # oracle_eval's own code, with its one change: the Weyl quadratures get the family, not its exponent
        source = textwrap.dedent(inspect.getsource(oracle.oracle_eval))
        mutated = source.replace("family.delta if kind.is_weyl else family", "family")
        assert mutated != source
        namespace = {}
        exec(mutated, vars(oracle), namespace)
        monkeypatch.setattr(oracle.oracle_eval, "__code__", namespace["oracle_eval"].__code__)
        with pytest.raises(TypeError, match="AbsPower"):
            run_suite("weyl")


class TestConfigPropagation:
    def test_suite_accepts_custom_config(self):
        report = run_suite("lemmas", cfg=QuadConfig(target_rel_tol=1e-9))
        assert report.n_fail == 0

    def test_log_panels_follow_max_nodes(self, monkeypatch):
        # the lower log piece's panel ladder stops at max_nodes per panel, as the Jacobi
        # ladders do, and every rl-log check passes at 32
        sizes = set()
        real = oracle._panel_rule
        monkeypatch.setattr(oracle, "_panel_rule", lambda n: sizes.add(n) or real(n))
        report = run_suite("rl-log", cfg=QuadConfig(max_nodes=32))
        assert report.n_fail == 0
        assert report.n_pass == 168
        assert max(sizes) <= 32


class TestRuleHeadroom:
    def test_verify_builds_no_rule_above_a_quarter_of_the_ceiling(self, monkeypatch):
        sizes = set()
        real = oracle.gauss_jacobi_01
        monkeypatch.setattr(oracle, "gauss_jacobi_01", lambda n, a, b, *exact: sizes.add(n) or real(n, a, b, *exact))
        run_suite("all")
        assert max(sizes) <= JACOBI_MAX_NODES // 4, (
            f"verify --suite all built a Gauss-Jacobi rule of {max(sizes)} nodes, past a quarter of the "
            f"{JACOBI_MAX_NODES}-node ceiling: re-measure the rule sizes of the verify grid and the "
            "oracle-sweep workload against that cap, and bring back a large-rule path if a workload needs one"
        )


# the names through which verify reaches the oracle
ORACLE_NAMES = ("oracle_eval", "tail_power_quad")


def _one_point_call(record, cfg):
    """The oracle module's call at the record's point alone; None for checks of no oracle value."""
    suite, op = record.check_id.split("/")[:2]
    x = record.inputs
    families = {name: family for name, family, _ in verify._RL_SUITES}
    if suite in families:
        family = families[suite]
        return lambda: oracle.oracle_eval(f"rl-{op}", x["alpha"], family(x[family.key]), x["t"], cfg)
    if suite == "weyl":
        return lambda: oracle.oracle_eval(f"weyl-{op}", x["alpha"], AbsPower(x["delta"]), x["t"], cfg)
    if suite == "literature-falsification":
        return lambda: oracle.oracle_eval("weyl-der", x["alpha"], AbsPower(x["delta"]), x["t"], cfg)
    if op == "tail-power":
        return lambda: oracle.tail_power_quad(x["a_exp"], x["beta_exp"], x["t"], cfg)
    return None


class TestOracleBatching:
    """verify evaluates each t-group in one call and shares values across suites."""

    def test_records_equal_one_point_calls_where_points_are_refused(self):
        cfg = QuadConfig(target_rel_tol=1e-15, max_nodes=256)
        report = run_suite("all", cfg)
        assert report.n_fail == 11
        # t-groups where some points are refused and the others pass
        outcomes = defaultdict(set)
        for record in report.records:
            if record.check_id.startswith("rl-log/"):
                outcomes[record.check_id.rsplit("/", 1)[0]].add(record.passed)
        assert sum(len(seen) == 2 for seen in outcomes.values()) == 3
        compared = 0
        for record in report.records:
            call = _one_point_call(record, cfg)
            if call is None:
                continue
            compared += 1
            try:
                value = call().value
            except FracCalcError as exc:
                assert record.note == f"{type(exc).__name__}: {exc}", record.check_id
                assert math.isnan(record.lhs)
            else:
                assert record.lhs.hex() == value.hex(), record.check_id
        assert compared == 939

    def test_each_oracle_point_is_evaluated_once(self, monkeypatch):
        points = []
        for name in ORACLE_NAMES:

            def counting(*args, name=name, real=getattr(verify, name)):
                *lead, ts, cfg = args
                points.extend((name, *lead, t) for t in (ts if isinstance(ts, list) else [ts]))
                return real(*args)

            monkeypatch.setattr(verify, name, counting)
        report = run_suite("all")
        assert len(points) == len(set(points))
        # every oracle check but those of literature-falsification, whose
        # points the weyl suite evaluates, has a point of its own
        oracle_records = [r for r in report.records if _one_point_call(r, QuadConfig()) is not None]
        falsification = [r for r in report.records if r.check_id.startswith("literature-falsification/")]
        assert len(points) == len(oracle_records) - len(falsification) == 864

    def test_falsification_alone_equals_its_part_of_all(self):
        whole = run_suite("all")
        inside = [r for r in whole.records if r.check_id.startswith("literature-falsification/")]
        assert run_suite("literature-falsification").records == inside

    def test_a_run_keeps_no_values_for_the_next(self, monkeypatch):
        calls = []
        real = verify.tail_power_quad
        monkeypatch.setattr(verify, "tail_power_quad", lambda *args: calls.append(args) or real(*args))
        run_suite("lemmas")
        first = len(calls)
        run_suite("lemmas")
        assert first > 0 and len(calls) == 2 * first


class TestLemmaDerivatives:
    """The derivative lemma rows hold each formula against an exact route, not a difference."""

    def test_rows_pass_at_the_identity_tolerance(self):
        rows = [r for r in run_suite("lemmas").records if "derivative/" in r.check_id]
        assert len(rows) == 22
        assert all(r.passed and r.tol == verify.TOL_IDENTITY for r in rows)

    @pytest.mark.parametrize(
        "name, family",
        (("nth_derivative_power", "power-derivative"), ("nth_derivative_powerlog", "powerlog-derivative")),
    )
    def test_a_1e_9_mutation_fails_its_rows(self, monkeypatch, name, family):
        # the differenced rows held the formulas to 1e-6 only
        original = getattr(cf, name)
        monkeypatch.setattr(cf, name, lambda n, b, t: original(n, b, t) * (1.0 + 1e-9))
        report = run_suite("lemmas")
        assert {r.check_id.split("/")[1] for r in report.records if not r.passed} == {family}
        assert all(not r.passed for r in report.records if r.check_id.split("/")[1] == family)

    def test_leibniz_expansion_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 2, 3):
            for b in (0.5, 1.3, 2.0):
                for t in (0.7, 1.3):
                    with mpmath.workdps(30):
                        exact = mpmath.diff(lambda x: x**b * mpmath.log(x), t, n)
                    assert verify._leibniz_powerlog(n, b, t) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)

    def test_verify_reaches_nothing_private_in_the_oracle(self):
        assert [
            name for name, obj in vars(verify).items()
            if name.startswith("_") and getattr(obj, "__module__", None) == oracle.__name__
        ] == []
