"""Executable verification: identity suites, oracle cross-checks, falsification.

Every suite walks a fixed parameter grid, evaluates one check per grid point,
and collects CheckRecords into a VerificationReport.  A check that raises
inside its stated domain becomes a *failed* record (with the error noted),
never a crash; grid points outside a formula's domain are recorded as
skipped.  Report content is deterministic for fixed inputs; wall time is
measured but excluded from the CSV rendering so repeated runs are
byte-identical.

Closed forms are always resolved late through the module object so that the
mutation-sensitivity tests can patch a single formula and watch the matching
suite fail.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

from . import closed_forms as cf
from . import specfun as sf
from .errors import DomainError, FracCalcError, UnknownSuiteError
from .model import DEFAULT_CONFIG, AbsPower, Exp, OperatorKind, Power, PowerLog, QuadConfig, _fmt
from .oracle import (
    _central_stencil,
    _richardson,
    tail_power_quad,
    rl_derivative_quad,
    rl_integral_quad,
    weyl_derivative_quad,
    weyl_integral_quad,
)

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


@dataclass(frozen=True)
class CheckRecord:
    """One executed check: both sides, their discrepancy, and the verdict."""

    check_id: str
    inputs: dict[str, float]
    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    tol: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class SkippedCheck:
    """A grid point outside a formula's stated domain; not a failure."""

    check_id: str
    inputs: dict[str, float]
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    grid_spec: str
    records: list[CheckRecord]
    skipped: list[SkippedCheck]
    n_pass: int
    n_fail: int
    n_skip: int
    wall_time_seconds: float


@dataclass(frozen=True)
class FalsificationMargin:
    """Oracle arbitration between the corrected and the literature formula."""

    delta: float
    alpha: float
    t: float
    corrected: float
    literature: float
    oracle: float
    oracle_err: float
    verdict: str  # 'corrected' | 'literature' | 'inconclusive'


@dataclass(frozen=True)
class _Check:
    check_id: str
    inputs: dict[str, float]
    thunk: Callable[[], tuple]
    tol: float
    atol: float = 0.0
    skip_reason: str = ""


def falsification_margin(
    delta: float, alpha: float, t: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> FalsificationMargin:
    """Evaluate both candidate formulas and let the quadrature oracle decide.

    A formula wins only when the oracle lands within 10x its own error bound
    of that formula and clearly away from the rival; anything else is
    inconclusive.
    """
    corrected = cf.weyl_derivative_abspower(alpha, delta, t)
    literature = cf.weyl_power_literature(alpha, delta, t)
    est = weyl_derivative_quad(delta, alpha, t, cfg)
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


def _suite_specfun(cfg: QuadConfig) -> tuple[str, list[_Check]]:
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
                        z**a * sf.gamma(a) * math.exp(-z) * sf.mittag_leffler(1.0, 1.0 + a, z),
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


# (suite, family, grid): closed form against oracle for the lower-limit-zero operators
_RL_SUITES = (("rl-power", Power, GAMMAS), ("rl-exp", Exp, LAMBDAS), ("rl-log", PowerLog, NUS))


def _suite_rl(
    suite: str, family_type: type, params: tuple[float, ...], cfg: QuadConfig
) -> tuple[str, list[_Check]]:
    key = family_type.key
    checks: list[_Check] = []
    for alpha in ALPHAS:
        for p in params:
            family = family_type(p)
            for t in TS:
                inputs = {"alpha": alpha, key: p, "t": t}
                for op, kind, quad, tol, atol in (
                    ("int", OperatorKind.RL_INTEGRAL, rl_integral_quad, TOL_INTEGRAL, ATOL_INTEGRAL),
                    ("der", OperatorKind.RL_DERIVATIVE, rl_derivative_quad,
                     TOL_DERIVATIVE, ATOL_DERIVATIVE),
                ):
                    checks.append(
                        _Check(
                            f"{suite}/{op}/alpha={alpha:g}/{key}={p:g}/t={t:g}",
                            inputs,
                            lambda a=alpha, t=t, fam=family, k=kind, q=quad: (
                                q(fam, a, t, cfg).value,
                                cf.closed_value(k, a, fam, t),
                            ),
                            tol,
                            atol,
                        )
                    )
    return f"alpha in {ALPHAS}; {key} in {params}; t in {TS}", checks


def _suite_weyl(cfg: QuadConfig) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []
    for delta in DELTAS:
        for alpha in ALPHAS:
            for t in TS:
                inputs = {"delta": delta, "alpha": alpha, "t": t}
                checks.append(
                    _Check(
                        f"weyl/int/delta={delta:g}/alpha={alpha:g}/t={t:g}",
                        inputs,
                        lambda d=delta, a=alpha, t=t: (
                            weyl_integral_quad(d, a, t, cfg).value,
                            cf.weyl_integral_abspower(a, d, t),
                        ),
                        TOL_INTEGRAL,
                        ATOL_INTEGRAL,
                        skip_reason="" if 0.0 < alpha < delta else "requires 0 < alpha < delta",
                    )
                )
                checks.append(
                    _Check(
                        f"weyl/der/delta={delta:g}/alpha={alpha:g}/t={t:g}",
                        inputs,
                        lambda d=delta, a=alpha, t=t: (
                            weyl_derivative_quad(d, a, t, cfg).value,
                            cf.weyl_derivative_abspower(a, d, t),
                        ),
                        TOL_DERIVATIVE,
                        ATOL_DERIVATIVE,
                    )
                )
    return f"delta in {DELTAS}; alpha in {ALPHAS}; t in {TS}", checks


# (id label, family, grid, derivative formula, integral expression at signed order)
_D_EQUALS_I_NEG = (
    ("power", Power, GAMMAS, "rl_derivative_power", "power_shift_expr"),
    ("exp", Exp, LAMBDAS, "rl_derivative_exp", "exp_shift_expr"),
    ("log", PowerLog, NUS, "rl_derivative_powerlog", "powerlog_shift_expr"),
    ("abspower", AbsPower, DELTAS, "weyl_derivative_abspower", "weyl_power_shift_expr"),
)


def _suite_d_equals_i_neg(cfg: QuadConfig) -> tuple[str, list[_Check]]:
    """Derivative closed forms vs the integral expressions taken at -alpha."""
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
                                getattr(cf, e)(-a, p, t),
                            ),
                            TOL_IDENTITY,
                            atol=1e-15,
                        )
                    )
    return f"alpha in {ALPHAS}; all family parameters; t in {TS}", checks


def _suite_falsification(cfg: QuadConfig) -> tuple[str, list[_Check]]:
    checks: list[_Check] = []
    for delta in DELTAS:
        for alpha in FALSIFICATION_ALPHAS:
            for t in FALSIFICATION_TS:

                def thunk(d=delta, a=alpha, t=t) -> tuple:
                    margin = falsification_margin(d, a, t, cfg)
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


def _suite_lemmas(cfg: QuadConfig) -> tuple[str, list[_Check]]:
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
                            tail_power_quad(a, b, t, cfg).value,
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


_SUITE_BUILDERS: dict[str, Callable[[QuadConfig], tuple[str, list[_Check]]]] = {
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
    if name == "all":
        parts = []
        checks: list[_Check] = []
        for sub_name, builder in _SUITE_BUILDERS.items():
            spec, sub_checks = builder(cfg)
            parts.append(f"{sub_name}: {spec}")
            checks.extend(sub_checks)
        grid_spec = " | ".join(parts)
    else:
        builder = _SUITE_BUILDERS.get(name)
        if builder is None:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        grid_spec, checks = builder(cfg)
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


CSV_HEADER = "check_id,inputs,lhs,rhs,abs_diff,rel_diff,tol,passed"


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """Serialize a report as 'text', 'json', or 'csv'.

    CSV carries one executed record per row with 17-significant-digit numbers
    and no wall time, so consecutive runs are byte-identical.  JSON carries
    the full report object.
    """
    if fmt == "json":
        return (json.dumps(asdict(report), indent=2) + "\n").encode()
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in report.records:
            out.write(
                ",".join(
                    (
                        r.check_id,
                        _fmt_inputs(r.inputs),
                        _fmt(r.lhs),
                        _fmt(r.rhs),
                        _fmt(r.abs_diff),
                        _fmt(r.rel_diff),
                        _fmt(r.tol),
                        "true" if r.passed else "false",
                    )
                )
                + "\n"
            )
        return out.getvalue().encode()
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
