"""Benchmark worker: the process that imports fraccalc and does the work.

Modes (each started by run.py, one process at a time):

  oracle  set up, print READY, then run timed in-process requests of an
          oracle-* workload and print one JSON result line
  setup   set up, print READY and exit (a repeat of the set-up measurement)
  expect  print the expected stdout of the first --count cli-eval requests
  cli     traced CLI runner: install the span wrappers, then call
          fraccalc.cli.main(argv) and write the spans

Set-up is `import fraccalc` plus warm-up requests, which fill the rule cache
and finish any lazy set-up before timing starts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the closed-vs-oracle gates of the verification harness
TOL_INTEGRAL, TOL_DERIVATIVE, ATOL = 1e-7, 1e-4, 1e-9
MIN_SAMPLES = 11  # the tail percentile needs 10 samples beyond it
RSS_AFTER = 4000  # peak RSS is read after this many timed requests
WARMUP_REQUESTS = 50  # continuous sweeps: requests to finish lazy set-up
KERNEL_EVERY_S = 0.1  # the reference kernel runs once per this much timed wall time


def import_fraccalc():
    """Import fraccalc from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fraccalc

    if not Path(fraccalc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"worker: fraccalc imported from {fraccalc.__file__}, not from {src}")
    return fraccalc


def reference_kernel() -> float:
    """Fixed work of the package's kind, scalar math and small numpy arrays, from outside it.

    Its fastest run in a timed loop gives the host's speed during that loop.
    numpy is already imported when it runs.
    """
    import numpy as np

    s = 0.0
    for i in range(1, 3000):
        s += math.sqrt(i) * math.log(i) / (i + 1.0)
    x = np.linspace(0.01, 1.0, 32)
    for _ in range(100):
        s += float(np.dot(np.cos(x) * x**0.5, np.exp(-x)))
    return s


def agree(op: str, closed: float, oracle: float) -> bool:
    """The double-entry check: both routes agree within the verify gates."""
    tol = TOL_INTEGRAL if op.endswith("-int") else TOL_DERIVATIVE
    diff = abs(closed - oracle)
    return diff <= tol * max(abs(closed), abs(oracle), 1e-300) or diff <= ATOL


def cli_line(result) -> str:
    """One line of `fraccalc eval` output, in the CLI's 17-digit format."""
    return f"{result.value:.17g}\t{result.abs_err_estimate:.17g}\t{result.method}"


class Evaluator:
    """Runs requests in process against the imported package."""

    def __init__(self, fraccalc) -> None:
        from fraccalc.model import AbsPower, Exp, OperatorKind, Power, PowerLog

        self.fc = fraccalc
        self.kind = OperatorKind
        self.family = {"power": Power, "exp": Exp, "powerlog": PowerLog, "abspower": AbsPower}

    def both(self, req):
        kind = self.kind(req.op)
        family = self.family[req.family](req.param)
        return (
            self.fc.closed_eval(kind, req.alpha, family, req.t),
            self.fc.oracle_eval(kind, req.alpha, family, req.t),
        )

    def request(self, req) -> str:
        """One oracle-* request: 'ok', 'mismatch' or 'error'."""
        try:
            closed, oracle = self.both(req)
        except Exception:  # every raise inside the domain counts as an error
            return "error"
        return "ok" if agree(req.op, closed.value, oracle.value) else "mismatch"

    def expected_stdout(self, req) -> str | None:
        """What `fraccalc eval` should print, or None when the in-process call raises."""
        try:
            closed, oracle = self.both(req)
        except Exception:  # the CLI must then exit non-zero; any output is a mismatch
            return None
        lines = [cli_line(closed)] + ([cli_line(oracle)] if req.method == "both" else [])
        return "\n".join(lines) + "\n"


def run_oracle(args, fraccalc) -> dict:
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    ev = Evaluator(fraccalc)
    for req in workloads.warmup_requests(args.workload, args.seed, WARMUP_REQUESTS):
        ev.request(req)
    print("READY", flush=True)
    if args.mode == "setup":
        return {}

    latencies: list[float] = []
    cpu: list[float] = []
    keys: list[int] = []
    key_of: dict = {}  # request -> its key, numbered in order of first occurrence
    kernel: list[float] = []
    outcomes = {"ok": 0, "mismatch": 0, "error": 0}
    examples: list[list] = []
    rss_kb = None
    clock, cpu_clock = time.perf_counter, time.process_time
    started = next_kernel = clock()
    deadline = started + args.seconds
    for i, req in enumerate(workloads.stream(args.workload, args.seed)):
        now = clock()
        if i >= args.max_requests or (i >= MIN_SAMPLES and now >= deadline):
            break
        if now >= next_kernel:
            reference_kernel()
            kernel.append(clock() - now)
            next_kernel = now + KERNEL_EVERY_S
        if tracer is not None:
            tracer.request = i
            tracer.recording = True
        c0, t0 = cpu_clock(), clock()
        outcome = ev.request(req)
        t1, c1 = clock(), cpu_clock()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        keys.append(key_of.setdefault(req, len(key_of)))
        if tracer is not None:
            tracer.recording = False
        outcomes[outcome] += 1
        if outcome != "ok" and len(examples) < 5:
            examples.append([outcome, *req])
        if i + 1 == RSS_AFTER:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "latencies": latencies,
        "cpu": cpu,
        "keys": keys,
        "kernel": kernel,
        "rss_kb": rss_kb if rss_kb is not None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mismatches": outcomes["mismatch"],
        "errors": outcomes["error"],
        "examples": examples,
    }
    if tracer is not None:
        write_spans(args.spans, tracer.spans)
    return result


def run_expect(args, fraccalc) -> list[str | None]:
    ev = Evaluator(fraccalc)
    reqs = workloads.warmup_requests(args.workload, args.seed, 1)
    reqs += itertools.islice(workloads.stream(args.workload, args.seed), args.count)
    return [ev.expected_stdout(req) for req in reqs]


def run_cli(args, fraccalc) -> int:
    tracer = Tracer()
    tracer.install()  # also imports fraccalc.cli
    tracer.request = args.request
    tracer.recording = True
    try:
        return fraccalc.cli.main(args.argv)
    finally:
        tracer.recording = False
        sys.stdout.flush()
        write_spans(args.spans, tracer.spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("mode", choices=("oracle", "setup", "expect", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=math.inf)
    parser.add_argument("--max-requests", type=int, default=sys.maxsize)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--request", type=int, default=0)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]  # cli mode: the fraccalc CLI arguments after --
    fraccalc = import_fraccalc()
    if args.mode == "cli":
        return run_cli(args, fraccalc)
    if args.mode == "expect":
        print(json.dumps(run_expect(args, fraccalc)), flush=True)
        return 0
    result = run_oracle(args, fraccalc)
    if args.mode == "oracle":
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
