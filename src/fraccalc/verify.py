"""Executable verification: identity suites, oracle cross-checks, falsification.

Every suite walks a fixed parameter grid, makes one check per grid point,
and collects CheckRecords into a VerificationReport.  A check that raises
inside its stated domain becomes a *failed* record (with the error noted),
never a crash; grid points outside a formula's domain are recorded as
skipped.  Report content is deterministic for fixed inputs; wall time is
measured but excluded from the CSV rendering so repeated runs are
byte-identical.

The oracle checks of one operator, argument and order differ only in t.  The
first of them to run evaluates the whole t-group in one sequence call, and
within one run_suite call each oracle value is computed once and shared by
every check, in any suite, that asks for it.

Closed forms are always resolved late through the module object so that the
mutation-sensitivity tests can patch a single function and watch the matching
suite fail.  The oracle suites check closed_eval against oracle_eval, the two
routes that eval prints: closed_eval looks up each family's shift function
when called, and oracle_eval its operator's quadrature.
"""

from __future__ import annotations

import json
import math
import time
from functools import partial
from typing import Callable

from . import closed_forms as cf
from . import specfun as sf
from .errors import DomainError, FracCalcError, UnknownSuiteError
from .model import (
    DEFAULT_CONFIG,
    AbsPower,
    EvalResult,
    Exp,
    FunctionFamily,
    OperatorKind,
    Power,
    PowerLog,
    QuadConfig,
    _csv,
    _fmt,
    _Record,
)
# rl_integral_quad is not called here; perfbench's tracer test reads it as a name that verify imports
from .oracle import _central_stencil, _richardson, oracle_eval, rl_integral_quad, tail_power_quad  # noqa: F401

__all__ = [
    "CheckRecord",
    "FalsificationMargin",
    "SkippedCheck",
    "SUITE_NAMES",
    "VerificationReport",
    "emit_report",
    "falsification_margin",
    "parse_report_json",
    "run_suite",
]

# default verification grid
ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.5, 2.5)
GAMMAS = (-0.5, 0.0, 0.5, 1.0, 2.0)
LAMBDAS = (-1.0, 0.5, 1.0)
NUS = (0.3, 1.0, 2.0)
DELTAS = (0.2, 0.4, 0.5, 0.6, 0.8)
TS = (0.5, 1.0, 2.0, 5.0)
FALSIFICATION_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
FALSIFICATION_TS = (0.5, 1.0, 2.0)

# default tolerances: identities are exact algebra, integral oracles carry
# quadrature error, derivative oracles additionally lose digits to differencing
TOL_IDENTITY = 1e-12
TOL_INCGAMMA_IDENTITY = 1e-9
TOL_INTEGRAL, ATOL_INTEGRAL = 1e-7, 1e-9
TOL_DERIVATIVE, ATOL_DERIVATIVE = 1e-4, 1e-9
TOL_TAIL_POWER = 1e-8
TOL_FD_DERIVATIVE = 1e-6

EULER_MASCHERONI = 0.5772156649015329

_TINY = 1e-300


class CheckRecord(_Record):
    """One executed check: both sides, their discrepancy, and the verdict."""

    __slots__ = ("check_id", "inputs", "lhs", "rhs", "abs_diff", "rel_diff", "tol", "passed", "note")
    _defaults = {"note": ""}


class SkippedCheck(_Record):
    """A grid point outside a formula's stated domain; not a failure."""

    __slots__ = ("check_id", "inputs", "reason")


class VerificationReport(_Record):
    __slots__ = ("suite", "grid_spec", "records", "skipped", "n_pass", "n_fail", "n_skip", "wall_time_seconds")


class FalsificationMargin(_Record):
    """The oracle's verdict between the corrected and the literature formula: corrected, literature or inconclusive."""

    __slots__ = ("delta", "alpha", "t", "corrected", "literature", "oracle", "oracle_err", "verdict")


class _Check(_Record):
    """A check not yet run: thunk returns (lhs, rhs) or (lhs, rhs, forced verdict, note)."""

    __slots__ = ("check_id", "inputs", "thunk", "tol", "atol", "skip_reason")
    _defaults = {"atol": 0.0, "skip_reason": ""}


class _Run:
    """One run_suite call: its config and the oracle outcomes it has computed.

    An oracle check asks for its point with the t-group it belongs to.  The
    first ask for a point evaluates every point of its group not known yet
    in one sequence call; a refused point keeps the error that a call at
    that point alone raises, and only its own check fails.
    """

    __slots__ = ("cfg", "_known")

    def __init__(self, cfg: QuadConfig) -> None:
        self.cfg = cfg
        self._known: dict[tuple, dict[float, EvalResult | Exception]] = {}

    def oracle(self, evaluate: Callable, args: tuple, t: float, group: tuple[float, ...]) -> EvalResult:
        """evaluate(*args, t, cfg), from the one call that evaluates its t-group."""
        known = self._known.setdefault((evaluate, *args), {})
        if t not in known:
            todo = [x for x in group if x not in known]
            try:
                outcomes = evaluate(*args, todo, self.cfg)
            except (FracCalcError, OverflowError) as exc:
                # an error with no outcomes is one that a call at any point of the group raises
                outcomes = getattr(exc, "outcomes", None) or [exc] * len(todo)
            known.update(zip(todo, outcomes))
        outcome = known[t]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def falsification_margin(
    delta: float, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> FalsificationMargin:
    """Evaluate both candidate formulas and let the quadrature oracle decide.

    A formula wins only when the oracle lands within 10x its own error bound
    of that formula and clearly away from the rival; anything else is
    inconclusive.
    """
    return _arbitrate(_Run(cfg), delta, alpha, t, (t,))


def _arbitrate(run: _Run, delta: float, alpha: float, t: float, group: tuple[float, ...]) -> FalsificationMargin:
    """falsification_margin, with the oracle value from run, which evaluates it with its t-group."""
    corrected = cf.weyl_derivative_abspower(alpha, delta, t)
    literature = cf.weyl_power_literature(alpha, delta, t)
    est = run.oracle(oracle_eval, (OperatorKind.WEYL_DERIVATIVE, alpha, AbsPower(delta)), t, group)
    oracle_value, oracle_err = est.value, est.abs_err_estimate
    corr_hit = abs(oracle_value - corrected) <= 10.0 * oracle_err
    lit_hit = abs(oracle_value - literature) <= 10.0 * oracle_err
    if corr_hit and not lit_hit:
        verdict = "corrected"
    elif lit_hit and not corr_hit:
        verdict = "literature"
    else:
        verdict = "inconclusive"
    return FalsificationMargin(delta, alpha, t, corrected, literature, oracle_value, oracle_err, verdict)


# ---------------------------------------------------------------------------
# suite builders


def _suite_specfun(run: _Run) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []

    def reflection() -> tuple:
        worst = 0.0
        worst_z = 0.0
        for k in range(1000):
            z = (k + 0.5) / 1000.0
            residual = abs(sf.gamma(z) * sf.gamma(1.0 - z) * sf.sinpi(z) / math.pi - 1.0)
            if residual > worst:
                worst, worst_z = residual, z
        return worst, 0.0, None, f"worst at z={worst_z:g}"

    checks.append(_Check("specfun/reflection", {"points": 1000.0}, reflection, 0.0, TOL_IDENTITY))

    z_grid = [-10.0 + 0.125 + 0.25 * k for k in range(80)]
    for z in z_grid:
        checks.append(
            _Check(
                f"specfun/gamma-recurrence/z={z:g}",
                {"z": z},
                lambda z=z: (sf.gamma(z + 1.0), z * sf.gamma(z)),
                TOL_IDENTITY,
            )
        )
        checks.append(
            _Check(
                f"specfun/digamma-recurrence/z={z:g}",
                {"z": z},
                lambda z=z: (sf.digamma(z + 1.0), sf.digamma(z) + 1.0 / z),
                TOL_IDENTITY,
                atol=TOL_IDENTITY,
            )
        )

    checks.append(
        _Check(
            "specfun/digamma-euler-constant",
            {"z": 1.0},
            lambda: (sf.digamma(1.0), -EULER_MASCHERONI),
            0.0,
            atol=TOL_IDENTITY,
        )
    )
    checks.append(
        _Check(
            "specfun/digamma-duplication",
            {"z": 0.5},
            lambda: (sf.digamma(1.0) - sf.digamma(0.5), 2.0 * math.log(2.0)),
            TOL_IDENTITY,
        )
    )
    checks.append(
        _Check(
            "specfun/gamma-half",
            {"z": 0.5},
            lambda: (sf.gamma(0.5), math.sqrt(math.pi)),
            TOL_IDENTITY,
        )
    )
    checks.append(
        _Check(
            "specfun/gamma-negative-half",
            {"z": -0.5},
            lambda: (sf.gamma(-0.5), -2.0 * math.sqrt(math.pi)),
            TOL_IDENTITY,
        )
    )

    for x in (0.5, 2.7):
        for n in (0, 3, 6):
            checks.append(
                _Check(
                    f"specfun/pochhammer-gamma/x={x:g}/n={n}",
                    {"x": x, "n": float(n)},
                    lambda x=x, n=n: (sf.pochhammer(x, n), sf.gamma_ratio(x + n, x)),
                    TOL_IDENTITY,
                )
            )

    ml_zs = (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    for a in (0.3, 0.7, 1.5):
        for z in ml_zs:
            checks.append(
                _Check(
                    f"specfun/incgamma-mittag-leffler/a={a:g}/z={z:g}",
                    {"alpha": a, "z": z},
                    lambda a=a, z=z: (
                        sf.lower_incomplete_gamma(a, z),
                        z**a * sf.gamma(a) * math.exp(-z) * sf.mittag_leffler_shifted(a, z)[0],
                    ),
                    TOL_INCGAMMA_IDENTITY,
                )
            )

    def monotone(a: float) -> Callable[[], tuple]:
        def thunk() -> tuple:
            zs = [0.25 * k for k in range(81)]
            values = [sf.lower_incomplete_gamma(a, z) for z in zs]
            worst = min(b - x for x, b in zip(values, values[1:]))
            return min(0.0, worst), 0.0, None, "smallest increment over z in [0, 20]"

        return thunk

    for a in (0.5, 1.0, 2.3):
        checks.append(
            _Check(f"specfun/incgamma-monotone/a={a:g}", {"alpha": a}, monotone(a), 0.0, 1e-13)
        )

    spec = "reflection z in (0,1) x1000; recurrences z in [-10,10] step 0.25; identity alpha in {0.3,0.7,1.5}, z in (0,20]"
    return spec, checks


def _ledger_check(
    run: _Run, suite: str, kind: OperatorKind, alpha: float, family: FunctionFamily, t: float, skip_reason: str = ""
) -> _Check:
    """The check of closed_eval against oracle_eval at one point, whose t-group is TS."""
    if kind.is_weyl:
        # the weyl suite's outer loop is over delta, and its ids lead with it
        point = f"delta={family.delta:g}/alpha={alpha:g}/t={t:g}"
        inputs = {"delta": family.delta, "alpha": alpha, "t": t}
    else:
        point = f"alpha={alpha:g}/{family.key}={family.param:g}/t={t:g}"
        inputs = {"alpha": alpha, family.key: family.param, "t": t}
    tol, atol = (TOL_DERIVATIVE, ATOL_DERIVATIVE) if kind.is_derivative else (TOL_INTEGRAL, ATOL_INTEGRAL)
    args = (kind, alpha, family)

    def thunk() -> tuple:
        return run.oracle(oracle_eval, args, t, TS).value, cf.closed_eval(*args, t).value

    return _Check(f"{suite}/{kind.value.partition('-')[2]}/{point}", inputs, thunk, tol, atol, skip_reason)


# (suite, family, grid): closed form against oracle for the lower-limit-zero operators
_RL_SUITES = (("rl-power", Power, GAMMAS), ("rl-exp", Exp, LAMBDAS), ("rl-log", PowerLog, NUS))


def _suite_rl(
    suite: str, family_type: type, params: tuple[float, ...], run: _Run
) -> tuple[str, list[_Check]]:
    key = family_type.key
    checks: list[_Check] = []
    for alpha in ALPHAS:
        for p in params:
            family = family_type(p)
            for t in TS:
                for kind in (OperatorKind.RL_INTEGRAL, OperatorKind.RL_DERIVATIVE):
                    checks.append(_ledger_check(run, suite, kind, alpha, family, t))
    return f"alpha in {ALPHAS}; {key} in {params}; t in {TS}", checks


def _suite_weyl(run: _Run) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []
    for delta in DELTAS:
        family = AbsPower(delta)
        for alpha in ALPHAS:
            skip_int = "" if 0.0 < alpha < delta else "requires 0 < alpha < delta"
            for t in TS:
                for kind, skip_reason in ((OperatorKind.WEYL_INTEGRAL, skip_int), (OperatorKind.WEYL_DERIVATIVE, "")):
                    checks.append(_ledger_check(run, "weyl", kind, alpha, family, t, skip_reason))
    return f"delta in {DELTAS}; alpha in {ALPHAS}; t in {TS}", checks


# (id label, family, grid, derivative formula, shift function of the integral at signed order)
_D_EQUALS_I_NEG = (
    ("power", Power, GAMMAS, "rl_derivative_power", "power_shift_eval"),
    ("exp", Exp, LAMBDAS, "rl_derivative_exp", "exp_shift_eval"),
    ("log", PowerLog, NUS, "rl_derivative_powerlog", "powerlog_shift_eval"),
    ("abspower", AbsPower, DELTAS, "weyl_derivative_abspower", "weyl_power_shift_eval"),
)


def _suite_d_equals_i_neg(run: _Run) -> tuple[str, list[_Check]]:
    """Derivative closed forms vs the integral shift functions taken at -alpha."""
    checks: list[_Check] = []
    for alpha in ALPHAS:
        for t in TS:
            for label, family_type, params, derivative, shifted in _D_EQUALS_I_NEG:
                key = family_type.key
                for p in params:
                    checks.append(
                        _Check(
                            f"d-equals-i-neg/{label}/alpha={alpha:g}/{key}={p:g}/t={t:g}",
                            {"alpha": alpha, key: p, "t": t},
                            lambda a=alpha, p=p, t=t, d=derivative, e=shifted: (
                                getattr(cf, d)(a, p, t),
                                getattr(cf, e)(-a, p, t)[0],
                            ),
                            TOL_IDENTITY,
                            atol=1e-15,
                        )
                    )
    return f"alpha in {ALPHAS}; all family parameters; t in {TS}", checks


def _suite_falsification(run: _Run) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []
    for delta in DELTAS:
        for alpha in FALSIFICATION_ALPHAS:
            for t in FALSIFICATION_TS:

                def thunk(d=delta, a=alpha, t=t) -> tuple:
                    # every point is one of the weyl suite's too, which 'all' runs first
                    margin = _arbitrate(run, d, a, t, FALSIFICATION_TS)
                    note = (
                        f"verdict={margin.verdict} literature={margin.literature:.6g} "
                        f"oracle_err={margin.oracle_err:.3g}"
                    )
                    return margin.oracle, margin.corrected, margin.verdict == "corrected", note

                checks.append(
                    _Check(
                        f"literature-falsification/delta={delta:g}/alpha={alpha:g}/t={t:g}",
                        {"delta": delta, "alpha": alpha, "t": t},
                        thunk,
                        TOL_DERIVATIVE,
                        ATOL_DERIVATIVE,
                    )
                )
    return (
        f"delta in {DELTAS}; alpha in {FALSIFICATION_ALPHAS}; t in {FALSIFICATION_TS}",
        checks,
    )


def _fd_nth_derivative(fn: Callable[[float], float], n: int, t: float) -> float:
    """Order-n central difference with Richardson extrapolation (test-grade)."""
    coeffs, offsets = _central_stencil(n)
    h0 = 0.05 * t
    samples = []
    for level in range(4):
        h = h0 / 2.0**level
        samples.append(sum(c * fn(t + o * h) for c, o in zip(coeffs, offsets)) / h**n)
    return _richardson(samples)[0]


def _suite_lemmas(run: _Run) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []
    a_exps = (-1.5, -1.8, -2.0, -2.6)
    b_exps = (-0.5, -0.3, 0.0, 0.6)
    for a_exp in a_exps:
        for b_exp in b_exps:
            if not a_exp < -b_exp - 1.0 < 0.0:
                continue
            for t in TS:
                checks.append(
                    _Check(
                        f"lemmas/tail-power/a={a_exp:g}/b={b_exp:g}/t={t:g}",
                        {"a_exp": a_exp, "beta_exp": b_exp, "t": t},
                        lambda a=a_exp, b=b_exp, t=t: (
                            run.oracle(tail_power_quad, (a, b), t, TS).value,
                            cf.tail_power_integral(a, b, t),
                        ),
                        TOL_TAIL_POWER,
                        atol=1e-12,
                    )
                )

    log_beta_points = (
        (1.0, 1.0, -1.0),
        (2.0, 1.0, -0.25),
        (0.5, 0.5, -2.0 * math.pi * math.log(2.0)),
    )
    for a, b, expected in log_beta_points:
        checks.append(
            _Check(
                f"lemmas/log-beta/a={a:g}/b={b:g}",
                {"a": a, "b": b},
                lambda a=a, b=b, e=expected: (cf.log_beta_integral(a, b), e),
                TOL_IDENTITY,
            )
        )

    for n in range(1, 9):
        for b in (0.5, 1.3, 2.5, 4.1):

            def thunk(n=n, b=b) -> tuple:
                residual = cf.digamma_sum_identity_residual(n, b)
                rhs = (
                    (sf.digamma(b + 1.0) - sf.digamma(b - n + 1.0))
                    * sf.reciprocal_gamma(b - n + 1.0)
                    / math.factorial(n)
                )
                return rhs + residual, rhs

            checks.append(
                _Check(
                    f"lemmas/digamma-sum/n={n}/beta={b:g}",
                    {"n": float(n), "beta": b},
                    thunk,
                    TOL_IDENTITY,
                    atol=1e-15,
                )
            )

    for n in (1, 2, 3):
        for b in (0.5, 1.3, 2.0):
            shifted = b - n + 1.0
            singular = shifted <= 0.0 and shifted == math.floor(shifted)
            for t in (0.7, 1.3):
                checks.append(
                    _Check(
                        f"lemmas/powerlog-derivative/n={n}/beta={b:g}/t={t:g}",
                        {"n": float(n), "beta": b, "t": t},
                        lambda n=n, b=b, t=t: (
                            _fd_nth_derivative(lambda x: x**b * math.log(x), n, t),
                            cf.nth_derivative_powerlog(n, b, t),
                        ),
                        TOL_FD_DERIVATIVE,
                        skip_reason=(
                            "formula undefined at beta-n+1 non-positive integer" if singular else ""
                        ),
                    )
                )
        for a in (0.5, 2.5):
            checks.append(
                _Check(
                    f"lemmas/power-derivative/n={n}/a={a:g}",
                    {"n": float(n), "a_exp": a, "t": 1.3},
                    lambda n=n, a=a: (
                        _fd_nth_derivative(lambda x: x**a, n, 1.3),
                        cf.nth_derivative_power(n, a, 1.3),
                    ),
                    TOL_FD_DERIVATIVE,
                )
            )

    spec = "tail-power over admissible (a,b) pairs; digamma-sum n in 1..8, beta in {0.5,1.3,2.5,4.1}; derivative formulas n in {1,2,3}"
    return spec, checks


_SUITE_BUILDERS: dict[str, Callable[[_Run], tuple[str, list[_Check]]]] = {
    "specfun": _suite_specfun,
    **{suite: partial(_suite_rl, suite, family, grid) for suite, family, grid in _RL_SUITES},
    "weyl": _suite_weyl,
    "d-equals-i-neg": _suite_d_equals_i_neg,
    "literature-falsification": _suite_falsification,
    "lemmas": _suite_lemmas,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS) + ("all",)


def _execute(check: _Check) -> CheckRecord | SkippedCheck:
    if check.skip_reason:
        return SkippedCheck(check.check_id, check.inputs, check.skip_reason)
    try:
        outcome = check.thunk()
    except (FracCalcError, OverflowError) as exc:
        nan = float("nan")
        return CheckRecord(
            check.check_id, check.inputs, nan, nan, nan, nan, check.tol,
            passed=False, note=f"{type(exc).__name__}: {exc}",
        )
    if len(outcome) == 2:
        lhs, rhs = outcome
        forced, note = None, ""
    else:
        lhs, rhs, forced, note = outcome
    lhs, rhs = float(lhs), float(rhs)
    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / max(abs(lhs), abs(rhs), _TINY)
    passed = (rel_diff <= check.tol or abs_diff <= check.atol) if forced is None else bool(forced)
    return CheckRecord(
        check.check_id, check.inputs, lhs, rhs, abs_diff, rel_diff, check.tol, passed, note
    )


def run_suite(name: str, cfg: QuadConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Run one named suite (or 'all') over the default grid."""
    started = time.perf_counter()
    run = _Run(cfg)
    if name == "all":
        parts = []
        checks: list[_Check] = []
        for sub_name, builder in _SUITE_BUILDERS.items():
            spec, sub_checks = builder(run)
            parts.append(f"{sub_name}: {spec}")
            checks.extend(sub_checks)
        grid_spec = " | ".join(parts)
    else:
        builder = _SUITE_BUILDERS.get(name)
        if builder is None:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        grid_spec, checks = builder(run)
    records: list[CheckRecord] = []
    skipped: list[SkippedCheck] = []
    for check in checks:
        result = _execute(check)
        if isinstance(result, SkippedCheck):
            skipped.append(result)
        else:
            records.append(result)
    n_pass = sum(1 for r in records if r.passed)
    return VerificationReport(
        suite=name,
        grid_spec=grid_spec,
        records=records,
        skipped=skipped,
        n_pass=n_pass,
        n_fail=len(records) - n_pass,
        n_skip=len(skipped),
        wall_time_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# report rendering


def _fmt_inputs(inputs: dict[str, float]) -> str:
    return ";".join(f"{k}={_fmt(float(v))}" for k, v in sorted(inputs.items()))


# every CheckRecord field but the trailing note
_CSV_COLUMNS = CheckRecord._fields[:-1]
CSV_HEADER = ",".join(_CSV_COLUMNS)


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """Serialize a report as 'text', 'json', or 'csv'.

    CSV carries one executed record per row with 17-significant-digit numbers
    and no wall time, so consecutive runs are byte-identical.  JSON carries
    the full report object.
    """
    if fmt == "json":
        fields = report._asdict()
        fields["records"] = [r._asdict() for r in report.records]
        fields["skipped"] = [s._asdict() for s in report.skipped]
        return (json.dumps(fields, indent=2) + "\n").encode()
    if fmt == "csv":
        rows = (
            (r.check_id, _fmt_inputs(r.inputs), r.lhs, r.rhs, r.abs_diff, r.rel_diff, r.tol, r.passed)
            for r in report.records
        )
        return _csv(_CSV_COLUMNS, rows)
    if fmt == "text":
        lines = [
            f"suite: {report.suite}",
            f"grid: {report.grid_spec}",
            f"checks: {len(report.records)}  pass: {report.n_pass}  fail: {report.n_fail}  "
            f"skip: {report.n_skip}",
            f"wall time: {report.wall_time_seconds:.3f} s",
        ]
        failing = [r for r in report.records if not r.passed]
        if failing:
            lines.append("failing checks:")
            for r in failing[:20]:
                lines.append(f"  {r.check_id}: lhs={r.lhs:.9g} rhs={r.rhs:.9g} rel={r.rel_diff:.3g} {r.note}")
        worst = sorted(
            (r for r in report.records if math.isfinite(r.rel_diff)),
            key=lambda r: r.rel_diff,
            reverse=True,
        )[:5]
        lines.append("worst 5 records by relative discrepancy:")
        for r in worst:
            lines.append(
                f"  {r.check_id}: lhs={r.lhs:.9g} rhs={r.rhs:.9g} rel={r.rel_diff:.3g} tol={r.tol:g}"
            )
        return ("\n".join(lines) + "\n").encode()
    raise DomainError(f"unknown report format {fmt!r}")


def parse_report_json(data: bytes) -> VerificationReport:
    """Inverse of emit_report(..., 'json')."""
    raw = json.loads(data.decode())
    records = [CheckRecord(**r) for r in raw.pop("records")]
    skipped = [SkippedCheck(**s) for s in raw.pop("skipped")]
    return VerificationReport(records=records, skipped=skipped, **raw)
