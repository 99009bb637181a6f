"""Verification harness: suite outcomes, report formats, arbitration logic."""

import math

import pytest

from fraccalc import closed_forms as cf
from fraccalc import verify
from fraccalc.errors import DomainError, UnknownSuiteError
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
        assert emit_report(empty, "csv").decode().strip() == verify.CSV_HEADER

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
        original = cf.rl_integral_power
        monkeypatch.setattr(
            cf, "rl_integral_power", lambda a, g, t: original(a, g, t) * (1.0 + 1e-3)
        )
        assert run_suite("rl-power").n_fail > 0

    def test_dropped_cosine_ratio_fails_falsification(self, monkeypatch):
        # replaces the corrected Weyl derivative with the literature formula
        monkeypatch.setattr(cf, "weyl_derivative_abspower", cf.weyl_power_literature)
        report = run_suite("literature-falsification")
        assert report.n_fail > 0

    def test_dropped_cosine_ratio_fails_weyl(self, monkeypatch):
        monkeypatch.setattr(cf, "weyl_derivative_abspower", cf.weyl_power_literature)
        assert run_suite("weyl").n_fail > 0


class TestConfigPropagation:
    def test_suite_accepts_custom_config(self):
        report = run_suite("lemmas", cfg=QuadConfig(target_rel_tol=1e-9))
        assert report.n_fail == 0
