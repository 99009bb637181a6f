"""Acceptance gate: seven quantitative criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion computes its result first, prints the line, then
asserts, so a failing criterion still reports itself.
"""

import math
import subprocess
import sys
import time

import pytest

from fraccalc import closed_forms as cf
from fraccalc import specfun as sf
from fraccalc.model import Exp, Power, PowerLog
from fraccalc.oracle import DEFAULT_CONFIG, tail_power_quad, rl_derivative_quad, rl_integral_quad, weyl_derivative_quad, weyl_integral_quad
from fraccalc.verify import (
    ALPHAS,
    DELTAS,
    FALSIFICATION_ALPHAS,
    FALSIFICATION_TS,
    GAMMAS,
    LAMBDAS,
    NUS,
    TS,
    falsification_margin,
    run_suite,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_special_function_suite():
    started = time.perf_counter()
    suite = run_suite("specfun")
    elapsed = time.perf_counter() - started
    passed = suite.n_fail == 0 and elapsed < 5.0
    report(
        1,
        passed,
        f"special-function identities (reflection/recurrence at 1e-12, "
        f"incomplete-gamma identity at 1e-9): {suite.n_pass}/{len(suite.records)} "
        f"checks in {elapsed:.2f} s (< 5 s)",
    )
    assert suite.n_fail == 0, [r.check_id for r in suite.records if not r.passed]
    assert elapsed < 5.0


def test_criterion_2_closed_forms_vs_oracle():
    started = time.perf_counter()
    worst_int = 0.0
    worst_der = 0.0
    n_checks = 0
    families = (
        [(Power(g), lambda a, t, g=g: cf.rl_integral_power(a, g, t),
          lambda a, t, g=g: cf.rl_derivative_power(a, g, t)) for g in GAMMAS]
        + [(Exp(l), lambda a, t, l=l: cf.rl_integral_exp(a, l, t),
            lambda a, t, l=l: cf.rl_derivative_exp(a, l, t)) for l in LAMBDAS]
        + [(PowerLog(n), lambda a, t, n=n: cf.rl_integral_powerlog(a, n, t),
            lambda a, t, n=n: cf.rl_derivative_powerlog(a, n, t)) for n in NUS]
    )
    for family, closed_int, closed_der in families:
        for alpha in ALPHAS:
            for t in TS:
                oi = rl_integral_quad(family, alpha, t).value
                ci = closed_int(alpha, t)
                worst_int = max(worst_int, abs(oi - ci) / max(abs(ci), 1e-9 / 1e-7))
                od = rl_derivative_quad(family, alpha, t).value
                cd = closed_der(alpha, t)
                diff = abs(od - cd)
                if diff > 1e-9:  # absolute floor
                    worst_der = max(worst_der, diff / abs(cd) if cd != 0.0 else math.inf)
                n_checks += 2
    elapsed = time.perf_counter() - started
    passed = worst_int <= 1e-7 and worst_der <= 1e-4 and elapsed < 30.0
    report(
        2,
        passed,
        f"{n_checks} closed-vs-oracle checks: integral worst rel {worst_int:.2e} "
        f"(tol 1e-7), derivative worst rel {worst_der:.2e} (tol 1e-4, abs floor 1e-9), "
        f"{elapsed:.1f} s (< 30 s)",
    )
    assert worst_int <= 1e-7
    assert worst_der <= 1e-4
    assert elapsed < 30.0


def test_criterion_3_weyl_correction():
    worst_int = 0.0
    worst_der = 0.0
    for delta in DELTAS:
        for alpha in ALPHAS:
            for t in TS:
                if 0.0 < alpha < delta:
                    oi = weyl_integral_quad(delta, alpha, t).value
                    ci = cf.weyl_integral_abspower(alpha, delta, t)
                    worst_int = max(worst_int, abs(oi - ci) / abs(ci))
                od = weyl_derivative_quad(delta, alpha, t).value
                cd = cf.weyl_derivative_abspower(alpha, delta, t)
                diff = abs(od - cd)
                if diff > 1e-9:
                    worst_der = max(worst_der, diff / abs(cd) if cd != 0.0 else math.inf)
    verdicts = [
        falsification_margin(d, a, t).verdict
        for d in DELTAS
        for a in FALSIFICATION_ALPHAS
        for t in FALSIFICATION_TS
    ]
    n_corrected = verdicts.count("corrected")
    n_literature = verdicts.count("literature")
    headline = falsification_margin(0.5, 0.25, 1.0)
    headline_ok = (
        headline.corrected == 0.0
        and abs(headline.oracle) < 1e-6
        and abs(headline.literature - 0.6914) < 5e-4
    )
    passed = (
        worst_int <= 1e-7
        and worst_der <= 1e-4
        and n_corrected >= 0.95 * len(verdicts)
        and n_literature == 0
        and headline_ok
    )
    report(
        3,
        passed,
        f"Weyl correction: integral worst rel {worst_int:.2e} (1e-7), derivative "
        f"worst rel {worst_der:.2e} (1e-4); verdicts corrected {n_corrected}/{len(verdicts)} "
        f"(>= 95%), literature {n_literature} (= 0); headline point corrected=0, "
        f"|oracle|={abs(headline.oracle):.1e} (< 1e-6), literature={headline.literature:.4f}",
    )
    assert worst_int <= 1e-7
    assert worst_der <= 1e-4
    assert n_corrected >= 0.95 * len(verdicts)
    assert n_literature == 0
    assert headline_ok


def test_criterion_4_derivative_equals_negated_integral():
    suite = run_suite("d-equals-i-neg")
    worst = max((r.rel_diff for r in suite.records), default=0.0)
    passed = suite.n_fail == 0 and worst <= 1e-12
    report(
        4,
        passed,
        f"derivative formulas equal integral expressions at negated order on "
        f"{len(suite.records)} in-domain grid points, worst rel {worst:.2e} (tol 1e-12)",
    )
    assert suite.n_fail == 0
    assert worst <= 1e-12


def test_criterion_5_auxiliary_formula_suite():
    worst_tail = 0.0
    for a_exp in (-1.5, -1.8, -2.0, -2.6):
        for b_exp in (-0.5, -0.3, 0.0, 0.6):
            if not a_exp < -b_exp - 1.0 < 0.0:
                continue
            for t in TS:
                q = tail_power_quad(a_exp, b_exp, t).value
                c = cf.tail_power_integral(a_exp, b_exp, t)
                worst_tail = max(worst_tail, abs(q - c) / abs(c))
    exact_log_beta = (
        abs(cf.log_beta_integral(1.0, 1.0) + 1.0) < 1e-12
        and abs(cf.log_beta_integral(2.0, 1.0) + 0.25) < 1e-12
        and abs(cf.log_beta_integral(0.5, 0.5) + 2.0 * math.pi * math.log(2.0)) < 1e-11
    )
    worst_residual = 0.0
    for n in range(1, 9):
        for b in (0.5, 1.3, 2.5, 4.1):
            residual = cf.digamma_sum_identity_residual(n, b)
            rhs = (
                (sf.digamma(b + 1.0) - sf.digamma(b - n + 1.0))
                * sf.reciprocal_gamma(b - n + 1.0)
                / math.factorial(n)
            )
            scale = max(abs(rhs + residual), abs(rhs), 1e-3)
            worst_residual = max(worst_residual, abs(residual) / scale)
    aux = run_suite("lemmas")
    fd_check_failures = [
        r.check_id for r in aux.records if not r.passed and "powerlog-derivative" in r.check_id
    ]
    passed = (
        worst_tail <= 1e-8
        and exact_log_beta
        and worst_residual <= 1e-12
        and not fd_check_failures
        and aux.n_fail == 0
    )
    report(
        5,
        passed,
        f"lemmas: tail-power closed-vs-quadrature worst rel {worst_tail:.2e} (1e-8); "
        f"log-beta exact points {'ok' if exact_log_beta else 'BAD'}; digamma-sum worst "
        f"residual {worst_residual:.2e} (1e-12, n <= 8); derivative-formula "
        f"finite-difference checks {'ok' if not fd_check_failures else fd_check_failures}",
    )
    assert worst_tail <= 1e-8
    assert exact_log_beta
    assert worst_residual <= 1e-12
    assert aux.n_fail == 0


MUTATIONS = (
    ("rl_integral_power", lambda orig: (lambda a, g, t: orig(a, g, t) * (1.0 + 1e-3)), "rl-power"),
    ("rl_derivative_exp", lambda orig: (lambda a, l, t: orig(a, l, t) * (1.0 + 1e-3)), "rl-exp"),
    ("rl_integral_powerlog", lambda orig: (lambda a, n, t: orig(a, n, t) * (1.0 + 1e-3)), "rl-log"),
    ("tail_power_integral", lambda orig: (lambda a, b, t: orig(a, b, t) * (1.0 + 1e-3)), "lemmas"),
    # dropping the cosine ratio reproduces the incorrect literature formula
    ("weyl_derivative_abspower", lambda orig: cf.weyl_power_literature, "literature-falsification"),
)


def test_criterion_6_mutation_sensitivity(monkeypatch):
    outcomes = []
    for name, wrap, suite_name in MUTATIONS:
        original = getattr(cf, name)
        monkeypatch.setattr(cf, name, wrap(original))
        n_fail = run_suite(suite_name).n_fail
        monkeypatch.setattr(cf, name, original)
        outcomes.append((name, suite_name, n_fail))
    passed = all(n_fail > 0 for _, _, n_fail in outcomes)
    summary = ", ".join(f"{name}->{suite}:{n}" for name, suite, n in outcomes)
    report(6, passed, f"5 seeded single-coefficient mutations each trip their suite ({summary})")
    assert passed


def test_criterion_7_end_to_end_determinism(tmp_path):
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    started = time.perf_counter()
    proc1 = subprocess.run(
        [sys.executable, "-m", "fraccalc", "verify", "--suite", "all", "--format", "csv",
         "--out", str(first)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    proc2 = subprocess.run(
        [sys.executable, "-m", "fraccalc", "verify", "--suite", "all", "--format", "csv",
         "--out", str(second)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    identical = first.read_bytes() == second.read_bytes()
    passed = proc1.returncode == 0 and proc2.returncode == 0 and elapsed < 60.0 and identical
    report(
        7,
        passed,
        f"verify --suite all exits {proc1.returncode} in {elapsed:.1f} s (< 60 s); "
        f"CSV byte-identical across two runs: {identical}",
    )
    assert proc1.returncode == 0, proc1.stderr
    assert proc2.returncode == 0
    assert elapsed < 60.0
    assert identical
