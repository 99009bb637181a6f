"""Command-line interface.

Subcommands:

* ``eval``     one operator application, closed form and/or oracle
* ``verify``   run a verification suite, emit text/json/csv, exit 0 iff clean
* ``table``    closed-vs-oracle CSV sweep over alpha and t ranges
* ``compare``  corrected vs literature Weyl derivative with oracle verdicts

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error, 4 convergence error.  Numbers on the command line are plain decimal
literals; ranges are ``start:stop:step`` with both ends included (stop
within ``step * 1e-9``).

Only the commands that use them import the quadrature oracle and the
verifier, and with them numpy: a closed-form ``eval`` runs on the ``math``
module alone.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .closed_forms import closed_eval
from .errors import ConvergenceError, DomainError
from .model import DEFAULT_CONFIG, EvalResult, FunctionFamily, OperatorKind, QuadConfig, _csv, _fmt, parse_family

_OP_TOKENS = tuple(kind.value for kind in OperatorKind)

# Points per range: table crosses two ranges, so its rows, held in memory until
# written, stay below a million.
RANGE_MAX_POINTS = 1000


def _family_arg(text: str) -> FunctionFamily:
    try:
        return parse_family(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _range_arg(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range {text!r} is not start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range {text!r} has a non-numeric part") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"range {text!r} has a non-finite part")
    if step <= 0.0:
        raise argparse.ArgumentTypeError(f"range step must be > 0, got {step!r}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty (stop < start)")
    eps = step * 1e-9
    span = (stop + eps - start) / step
    if not span < RANGE_MAX_POINTS:
        count = f"{span + 1.0:.0f}" if math.isfinite(span) else "over 1e308"
        raise argparse.ArgumentTypeError(f"range {text!r} has {count} points, more than {RANGE_MAX_POINTS}")
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + eps:
            break
        values.append(v)
        i += 1
    return values


def _load_config(path: str | None) -> QuadConfig:
    """QuadConfig from a plain 'key = value' file layered over the defaults."""
    if path is None:
        return DEFAULT_CONFIG
    # each key takes the type of its default value
    field_types = {name: type(value) for name, value in DEFAULT_CONFIG._asdict().items()}
    overrides: dict[str, float | int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                key, sep, raw = (part.strip() for part in text.partition("="))
                if not sep or not key or not raw:
                    raise ValueError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
                if key not in field_types:
                    raise ValueError(f"line {lineno}: unknown config key {key!r}")
                overrides[key] = field_types[key](raw)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    return QuadConfig(**overrides)


def _write_out(path: str, payload: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraccalc",
        description="Fractional integrals/derivatives: closed forms, quadrature oracles, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one operator application")
    p_eval.add_argument("--op", required=True, choices=_OP_TOKENS)
    p_eval.add_argument("--alpha", required=True, type=float)
    p_eval.add_argument(
        "--fn",
        required=True,
        type=_family_arg,
        metavar="FAMILY",
        help="power:gamma=G | exp:lambda=L | powerlog:nu=N | abspower:delta=D",
    )
    p_eval.add_argument("--t", required=True, type=float)
    p_eval.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    p_eval.add_argument("--config", metavar="PATH")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, help="a suite or 'all'; an unknown name lists the suites")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", metavar="PATH")
    p_verify.add_argument("--config", metavar="PATH")

    p_table = sub.add_parser("table", help="closed-vs-oracle sweep as CSV")
    p_table.add_argument("--op", required=True, choices=_OP_TOKENS)
    p_table.add_argument("--fn", required=True, type=_family_arg, metavar="FAMILY")
    p_table.add_argument("--alpha-range", required=True, type=_range_arg, metavar="a:b:s")
    p_table.add_argument("--t-range", required=True, type=_range_arg, metavar="a:b:s")
    p_table.add_argument("--out", required=True, metavar="PATH")
    p_table.add_argument("--config", metavar="PATH")

    p_cmp = sub.add_parser("compare", help="corrected vs literature Weyl derivative")
    p_cmp.add_argument("--delta", required=True, type=float)
    p_cmp.add_argument("--alpha", required=True, type=float)
    p_cmp.add_argument("--t-range", required=True, type=_range_arg, metavar="a:b:s")
    p_cmp.add_argument("--out", required=True, metavar="PATH")
    p_cmp.add_argument("--config", metavar="PATH")

    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    kind = OperatorKind(args.op)
    results: list[EvalResult] = []
    if args.method in ("closed", "both"):
        results.append(closed_eval(kind, args.alpha, args.fn, args.t))
    if args.method in ("oracle", "both"):
        from .oracle import oracle_eval

        results.append(oracle_eval(kind, args.alpha, args.fn, args.t, cfg))
    for r in results:
        print(f"{_fmt(r.value)}\t{_fmt(r.abs_err_estimate)}\t{r.method}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import emit_report, run_suite

    cfg = _load_config(args.config)
    report = run_suite(args.suite, cfg)
    payload = emit_report(report, args.format)
    if args.out:
        _write_out(args.out, payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0 if report.n_fail == 0 else 1


def _cmd_table(args: argparse.Namespace) -> int:
    from .oracle import oracle_eval

    cfg = _load_config(args.config)
    kind = OperatorKind(args.op)
    param = args.fn.param
    rows = []
    for alpha in args.alpha_range:
        for t in args.t_range:
            closed = closed_eval(kind, alpha, args.fn, t).value
            oracle = oracle_eval(kind, alpha, args.fn, t, cfg).value
            rows.append((alpha, t, param, closed, oracle, abs(closed - oracle)))
    _write_out(args.out, _csv(("alpha", "t", "param", "value_closed", "value_oracle", "abs_diff"), rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .verify import FalsificationMargin, falsification_margin

    cfg = _load_config(args.config)
    rows = (falsification_margin(args.delta, args.alpha, t, cfg)._astuple() for t in args.t_range)
    _write_out(args.out, _csv(FalsificationMargin._fields, rows))
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        if isinstance(exc, DomainError):
            print(f"fraccalc: domain error: {exc}", file=sys.stderr)
            return 3
        print(f"fraccalc: error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"fraccalc: convergence error: {exc}", file=sys.stderr)
        return 4
    except OverflowError as exc:
        print(f"fraccalc: domain error: overflow: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The ``fraccalc`` command: main(), then exit with its status.

    numpy's BLAS/LAPACK runs on one thread unless ``OPENBLAS_NUM_THREADS`` is
    already set.  Every BLAS call here is small (1-D dot products, ``eigh`` of
    at most 256 nodes), so a second thread never helps; it only spins between
    calls, which took about 280 ms of CPU beyond the wall time of a ``verify``
    run.  numpy is first imported inside a command, after this point, so
    OpenBLAS reads the setting when it loads.  Only the command sets it: a
    program that imports fraccalc keeps its own threading.

    A command leaves about 200 objects of cyclic garbage (the parser), however
    many points it evaluates, so the process runs without the cyclic
    collector: its passes only walk the modules being imported, 7 ms of an
    ``eval`` that loads numpy.  The objects alive at the end are frozen, so
    the collections of interpreter shutdown skip them too: they took 16 ms of
    a closed ``eval`` and 30 ms of one that loads numpy.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
