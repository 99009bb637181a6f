"""fraccalc benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload is a closed loop with one
client: this process and at most one child process at a time.

  cli-eval      sequential `python -m fraccalc eval` processes on verify-grid
                inputs, a quarter of them with --method both
  cli-verify    sequential `python -m fraccalc verify --suite all --format csv`
  oracle-grid   in-process closed_eval + oracle_eval + agreement check on
                verify-grid inputs (rule cache read path)
  oracle-sweep  the same request on continuous parameters over the whole
                documented domain (rule cache write path); it reports the
                defects the package has there as they stand

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run over the requests that an
untraced run of the same seed completed in half the time.  Each run prints
the sha256 of its request stream; spans, the self-time table of each module
and the result are written under .perfbench_out/<workload>/ in the checkout.

Every time is reported at a fixed host speed (see REFERENCE and KERNEL_S).
On the oracle-* workloads each request's wall and CPU time is also the least
that any request with the same inputs took in the run (see settle).
Throughput is requests over the sum of their reported wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import MIN_SAMPLES, agree  # noqa: E402

WORKLOADS = ("cli-eval", "cli-verify", "oracle-grid", "oracle-sweep")
SETUP_REPEATS = 5  # set-up is measured this many times per run; the median is reported
MAX_CLI_EVAL = 400  # cli-eval requests with precomputed expected output
TRACE_MAX_REQUESTS = 3000  # cap on the in-process traced requests
TRACE_MAX_CLI = 10  # cap on the traced CLI processes (a verify run records ~40k spans)
CHILD_TIMEOUT_S = 150  # a child still running after this long is killed
# The shared host's speed drifts by up to 40% within minutes, which moves a
# run's median time more than any bound allows.  Times are therefore scaled to
# a fixed host speed, measured by work from outside the program.  Process
# start and imports: the REFERENCE process, run just before each CLI request
# and each set-up, scaled to take REFERENCE_S.  In-process work: the fastest
# run of worker.reference_kernel during an oracle-* loop, scaled to KERNEL_S.
REFERENCE = [sys.executable, "-c", "import numpy, scipy.special"]
REFERENCE_S = 0.5
KERNEL_S = 0.9e-3

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_request", "ms"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run: the checkout or a child process is broken."""


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"a tail percentile needs at least {MIN_SAMPLES} samples, got {len(samples)}")
    ordered = sorted(samples)
    k = len(ordered) - MIN_SAMPLES
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def settle(keys: list[int], values: list[float]) -> list[float]:
    """Each request's value replaced by the least value any request with its key took.

    On a shared machine a request's time is its own cost plus whatever the
    host took from it meanwhile, in waves of seconds to minutes.  The fastest
    of a repeated request's timings is the one least disturbed, as timeit
    reports its best repeat.  A request whose key occurs once keeps its value.
    """
    best: dict[int, float] = {}
    for key, value in zip(keys, values):
        if value < best.get(key, math.inf):
            best[key] = value
    return [best[key] for key in keys]


def end_to_end(
    latencies: list[float], wall_s: float, cpu_s: float, rss_kb: float, setups: list[float]
) -> dict:
    n = len(latencies)
    tail_s, pct = tail(latencies)
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_rps": n / wall_s,
        "cpu_ms_per_request": cpu_s * 1e3 / n,
        "rss_peak_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {"values": values, "tail_percentile": pct, "samples": n}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], stderr_path: Path) -> tuple[int, bytes, float, float, int]:
    """Run one child to completion: exit code, stdout, wall seconds, CPU seconds, peak RSS in KB.

    os.wait4 reaps the child and returns its own resource usage.
    """
    started = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    return proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def reference_speed(run: "Run") -> float:
    """REFERENCE_S over the wall time of the REFERENCE process, run now."""
    path = run.out / "reference.stderr"
    rc, _, wall, _, _ = run_child(REFERENCE, path)
    if rc != 0:
        raise BenchError(f"reference process exited {rc}; see {path}")
    return REFERENCE_S / wall


def worker_cmd(mode: str, *extra: str, importtime: bool = False) -> list[str]:
    head = [sys.executable] + (["-X", "importtime"] if importtime else [])
    return head + [str(HERE / "worker.py"), mode, *extra]


class Worker:
    """One worker process: READY marks the end of its set-up, then one result line."""

    def __init__(self, cmd: list[str], stderr_path: Path) -> None:
        self.started = time.perf_counter()
        self._err = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._err, cwd=ROOT, env=child_env(), text=True
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def wait_ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.close()
            raise BenchError(
                f"worker failed during set-up (exit {self.proc.returncode}); see {self._err.name}"
            )
        return time.perf_counter() - self.started

    def result(self):
        line = self.proc.stdout.readline()
        self.close()
        if self.proc.returncode != 0 or not line:
            raise BenchError(f"worker exited {self.proc.returncode}; see {self._err.name}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdout.close()
        self.proc.wait()  # the watchdog bounds the wait
        self._watchdog.cancel()
        self._err.close()


# ---------------------------------------------------------------------------
# import timing


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative import times (ms) of fraccalc, scipy and numpy from -X importtime.

    A package's time is the sum over its outermost entries: those with no
    entry of the same package above them in the import tree.
    """
    rows = []
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    out = {}
    for pkg in ("fraccalc", "scipy", "numpy"):
        total_us, stack = 0, []  # rows are in post-order; walk them parent-first
        for cumulative, depth, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            mine = name == pkg or name.startswith(pkg + ".")
            if mine and not any(n == pkg or n.startswith(pkg + ".") for _, n in stack):
                total_us += cumulative
            stack.append((depth, name))
        out[f"import.{pkg}_ms"] = total_us / 1e3
    return out


# ---------------------------------------------------------------------------
# workloads


class Run:
    """One benchmark run: its output directory and the outcome of every request."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = ROOT / ".perfbench_out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.examples: list = []

    def count(self, outcome: str, detail) -> None:
        self.attempted += 1
        if outcome == "error":
            self.errors += 1
        elif outcome == "mismatch":
            self.mismatches += 1
        if outcome != "ok" and len(self.examples) < 5:
            self.examples.append([outcome, detail])

    def absorb(self, res: dict) -> None:
        """Add the outcomes counted by an in-process worker."""
        self.attempted += len(res["latencies"])
        self.errors += res["errors"]
        self.mismatches += res["mismatches"]
        self.examples += res["examples"][: 5 - len(self.examples)]


# -- in-process oracle workloads


def oracle_worker(run: Run, mode: str, tag: str, *extra: str, importtime: bool = False) -> Worker:
    cmd = worker_cmd(mode, "--workload", run.workload, "--seed", str(run.seed), *extra, importtime=importtime)
    return Worker(cmd, run.out / f"worker-{tag}.stderr")


def oracle_measure(run: Run) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        speed = reference_speed(run)
        w = oracle_worker(run, "setup", "setup")
        setups.append(w.wait_ready() * speed)
        w.close()
    speed = reference_speed(run)
    w = oracle_worker(run, "oracle", "run", "--seconds", repr(run.seconds))
    setups.append(w.wait_ready() * speed)
    res = w.result()
    run.absorb(res)
    # a grid point repeats over 100 times in a 30 s run; each counts at its least disturbed timing
    speed = KERNEL_S / min(res["kernel"])
    latencies = [t * speed for t in settle(res["keys"], res["latencies"])]
    cpu = sum(settle(res["keys"], res["cpu"])) * speed
    return end_to_end(latencies, sum(latencies), cpu, res["rss_kb"], setups)


def oracle_trace(run: Run) -> tuple[dict, str]:
    """Untraced pass for half the time, then a traced pass over the same requests."""
    w = oracle_worker(run, "oracle", "plain", "--seconds", repr(run.seconds / 2),
                      "--max-requests", str(TRACE_MAX_REQUESTS), importtime=True)
    w.wait_ready()
    plain = w.result()
    run.absorb(plain)
    n = len(plain["latencies"])
    span_path = run.out / "spans.jsonl.gz"
    w = oracle_worker(run, "oracle", "traced", "--max-requests", str(n), "--spans", str(span_path))
    w.wait_ready()
    traced = w.result()
    run.absorb(traced)
    span_list = spans.read_spans(span_path)
    metrics = spans.layer_metrics(span_list, n)
    metrics.update(import_times((run.out / "worker-plain.stderr").read_text()))
    metrics["cli.process_ms"] = 0.0
    metrics["trace.overhead_frac"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0
    return metrics, spans.module_tables(span_list, n)


# -- CLI workloads


def cli_cmd(argv: list[str], importtime: bool = False) -> list[str]:
    return [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "fraccalc", *argv]


class CliWorkload:
    """Set-up, requests and output checks of cli-eval and cli-verify."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.csv_path = run.out / "verify.csv"
        self.expected: list[str] = []  # [warm-up request, then the timed stream]
        self.reference: bytes | None = None  # the first CSV of the run

    def argv(self, req) -> list[str]:
        if req.op == "verify":
            return ["verify", "--suite", "all", "--format", "csv", "--out", str(self.csv_path)]
        return req.eval_argv()

    def outcome(self, expected_index: int, req, rc: int, stdout: bytes) -> str:
        if rc != 0:
            return "error"
        if self.run.workload == "cli-verify":
            try:
                got = self.csv_path.read_bytes()
            except FileNotFoundError:
                return "mismatch"
            self.csv_path.unlink()  # a later request must write its own
            if self.reference is None:
                self.reference = got
            return "ok" if got == self.reference else "mismatch"
        text = stdout.decode(errors="replace")
        if text != self.expected[expected_index]:
            return "mismatch"
        if req.method == "both":  # the double-entry check on the two printed values
            closed, oracle = (float(line.split("\t")[0]) for line in text.splitlines())
            return "ok" if agree(req.op, closed, oracle) else "mismatch"
        return "ok"

    def setup_once(self) -> float:
        """Expected outputs (cli-eval) and one warm-up invocation; returns the wall time."""
        started = time.perf_counter()
        stderr_path = self.run.out / "setup.stderr"
        if self.run.workload == "cli-eval":
            cmd = worker_cmd(
                "expect", "--workload", "cli-eval", "--seed", str(self.run.seed), "--count", str(MAX_CLI_EVAL)
            )
            rc, out, *_ = run_child(cmd, stderr_path)
            if rc != 0:
                raise BenchError(f"expected-output worker exited {rc}; see {stderr_path}")
            expected = json.loads(out)
            if self.expected and expected != self.expected:
                raise BenchError("expected cli-eval outputs differ between set-ups")
            self.expected = expected
            warm = workloads.warmup_requests("cli-eval", self.run.seed, 1)[0]
        else:
            warm = next(workloads.stream("cli-verify", self.run.seed))
        rc, out, *_ = run_child(cli_cmd(self.argv(warm)), stderr_path)
        if self.outcome(0, warm, rc, out) != "ok":
            raise BenchError(f"warm-up invocation failed (exit {rc}); see {stderr_path}")
        return time.perf_counter() - started

    def loop(
        self, seconds: float, limit: int, command, min_samples: int = MIN_SAMPLES, reference: bool = False
    ) -> list[tuple[float, float, int, float]]:
        """Sequential requests until `seconds` pass (and min_samples are done) or `limit` are done.

        command(i, argv) gives the child's command line and its stderr file.
        With `reference`, the REFERENCE process runs just before each request.
        Returns (wall seconds, CPU seconds, peak RSS in KB, reference_speed
        or 1) per request.
        """
        samples = []
        if self.run.workload == "cli-eval":
            limit = min(limit, MAX_CLI_EVAL)
        started = time.perf_counter()
        for i, req in enumerate(workloads.stream(self.run.workload, self.run.seed)):
            if i >= limit or (i >= min_samples and time.perf_counter() - started >= seconds):
                break
            speed = reference_speed(self.run) if reference else 1.0
            argv = self.argv(req)
            rc, out, wall, cpu, rss = run_child(*command(i, argv))
            self.run.count(self.outcome(i + 1, req, rc, out), argv)
            samples.append((wall, cpu, rss, speed))
        return samples


def cli_measure(run: Run) -> dict:
    wl = CliWorkload(run)
    setups = []
    for _ in range(SETUP_REPEATS):
        speed = reference_speed(run)
        setups.append(wl.setup_once() * speed)
    stderr_path = run.out / "cli.stderr"
    samples = wl.loop(run.seconds, sys.maxsize, lambda i, argv: (cli_cmd(argv), stderr_path), reference=True)
    latencies = [wall * speed for wall, _, _, speed in samples]
    cpu = sum(cpu * speed for _, cpu, _, speed in samples)
    rss = statistics.median(s[2] for s in samples)
    return end_to_end(latencies, sum(latencies), cpu, rss, setups)


def cli_trace(run: Run) -> tuple[dict, str]:
    """Untraced invocations for half the time, then traced runners on the same requests."""
    wl = CliWorkload(run)
    wl.setup_once()
    plain_err = [run.out / f"plain-{i}.stderr" for i in range(TRACE_MAX_CLI)]

    def untraced(i: int, argv: list[str]):
        return cli_cmd(argv, importtime=True), plain_err[i]

    plain = wl.loop(run.seconds / 2, TRACE_MAX_CLI, untraced, min_samples=1)
    n = len(plain)
    imports = [import_times(p.read_text()) for p in plain_err[:n]]
    span_files = [run.out / f"spans-{i}.jsonl.gz" for i in range(n)]

    def runner(i: int, argv: list[str]):
        cmd = worker_cmd("cli", "--request", str(i), "--spans", str(span_files[i]), "--", *argv)
        return cmd, run.out / "traced.stderr"

    traced = wl.loop(0.0, n, runner, min_samples=n)
    # a runner that failed wrote no spans; its request is already counted as an error
    span_list = spans.merge([spans.read_spans(p) for p in span_files if p.exists()])
    for p in span_files + plain_err[:n]:
        p.unlink(missing_ok=True)
    spans.write_spans(run.out / "spans.jsonl.gz", span_list)
    metrics = spans.layer_metrics(span_list, n)
    for name in imports[0]:
        metrics[name] = statistics.median(d[name] for d in imports)
    metrics["cli.process_ms"] = statistics.mean(s[0] for s in traced) * 1e3
    metrics["trace.overhead_frac"] = sum(s[0] for s in traced) / sum(s[0] for s in plain) - 1.0
    return metrics, spans.module_tables(span_list, n)


# ---------------------------------------------------------------------------


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            facts[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            facts[dist] = None
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fraccalc" / "__init__.py").is_file():
        print(f"run.py: no fraccalc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    digest = workloads.stream_hash(args.workload, args.seed)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} requests_sha256={digest}")
    print(f"machine {json.dumps(machine())}")
    is_cli = args.workload.startswith("cli-")
    try:
        if args.trace:
            metrics, tables = (cli_trace if is_cli else oracle_trace)(run)
            (run.out / "self_time.txt").write_text(tables)
            print(tables, end="")
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            summary = (cli_measure if is_cli else oracle_measure)(run)
            metrics = summary["values"]
            units = dict(END_TO_END)
            print(
                f"latency_tail_ms is p{summary['tail_percentile']:.3f} "
                f"({MIN_SAMPLES - 1} samples beyond it) of {summary['samples']} samples"
            )
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failed = run.errors + run.mismatches
    print(f"error_frac {run.errors / run.attempted:.6g} ({run.errors}/{run.attempted})")
    print(f"mismatch_frac {run.mismatches / run.attempted:.6g} ({run.mismatches}/{run.attempted})")
    for example in run.examples:
        print(f"failed request: {json.dumps(example)}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (run.out / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
