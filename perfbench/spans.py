"""Span tracing of fraccalc's public functions, and the per-layer metrics.

The tracer wraps every public function of the traced modules by replacing
module attributes, in the defining module and in every fraccalc namespace
that imported the name (verify, for one, imports the quadrature functions
by name).  Each call records a span: name, parent span, start, end, request
id and a little call information.  Spans stay in memory until the caller
writes them out.

Self time is a span's duration minus the part of it that its child spans
cover.  The layer self time of a span is the sum of the self times of the
spans of its own module in its subtree: the time the call spent in its
layer, outside the layers it called into.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("specfun", "closed_forms", "oracle", "verify", "cli")

# verify._execute runs a single check and is the only place a check's suite
# is visible; it is private, so the per-suite timing degrades to zero when a
# later version of the package drops it.
HOOKS = (("verify", "_execute"),)

SUITES = (
    "specfun",
    "rl-power",
    "rl-exp",
    "rl-log",
    "weyl",
    "d-equals-i-neg",
    "literature-falsification",
    "lemmas",
)
OPS = ("rl-int", "rl-der", "weyl-int", "weyl-der")
_OP_OF_FUNCTION = {
    "oracle.rl_integral_quad": "rl-int",
    "oracle.rl_derivative_quad": "rl-der",
    "oracle.weyl_integral_quad": "weyl-int",
    "oracle.weyl_derivative_quad": "weyl-der",
}
_DERIVATIVES = ("oracle.rl_derivative_quad", "oracle.weyl_derivative_quad")
RULE = "oracle.gauss_jacobi_01"

# (name, unit, better); every value except import.*, cli.process_ms and
# trace.overhead_frac is averaged over the traced requests
PER_LAYER = (
    ("import.fraccalc_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("specfun.calls", "calls/req", "lower"),
    ("specfun.self_ms", "ms/req", "lower"),
    ("specfun.mittag_leffler.calls", "calls/req", "lower"),
    ("specfun.mittag_leffler.self_ms", "ms/req", "lower"),
    ("closed_forms.closed_eval.calls", "calls/req", "lower"),
    ("closed_forms.closed_eval.self_ms", "ms/req", "lower"),
    ("oracle.gauss_jacobi_01.calls", "calls/req", "lower"),
    ("oracle.gauss_jacobi_01.misses", "calls/req", "lower"),
    ("oracle.gauss_jacobi_01.hit_ratio", "ratio", "higher"),
    ("oracle.gauss_jacobi_01.self_ms", "ms/req", "lower"),
    ("oracle.gauss_jacobi_01.max_n", "nodes", "lower"),
    ("oracle.nodes_evaluated", "nodes/req", "lower"),
    ("oracle.rungs_per_integral", "rungs/ladder", "lower"),
    ("oracle.integrals_per_eval", "calls/eval", "lower"),
    ("oracle.rl_integral_quad.self_ms", "ms/req", "lower"),
    *((f"oracle.oracle_eval.{op}.self_ms", "ms/req", "lower") for op in OPS),
    *((f"verify.run_suite.{suite}.ms", "ms/req", "lower") for suite in SUITES),
    ("verify.emit_report.ms", "ms/req", "lower"),
    ("verify.checks", "checks/req", "higher"),
    ("cli.main.ms", "ms/req", "lower"),
    ("cli.process_ms", "ms/req", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# span fields
NAME, PARENT, START, END, REQUEST, INFO = range(6)


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self.recording = False
        self._stack: list[int] = []
        self._rule_keys: set[tuple] = set()

    def _rule_info(self, args: tuple, kwargs: dict) -> list:
        n, a, b = _bind(args, kwargs, ("n", "a", "b"))
        miss = (n, a, b) not in self._rule_keys
        self._rule_keys.add((n, a, b))
        return [n, a, b, miss]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        describe = {
            RULE: self._rule_info,
            "oracle.oracle_eval": _op_info,
            "verify._execute": _suite_info,
        }.get(name)

        def traced(*args, **kwargs):
            info = describe(args, kwargs) if describe is not None else None
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.request, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name == "verify.run_suite":
                span[INFO] = len(result.records)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every traced function in every fraccalc namespace; returns how many."""
        replacements: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fraccalc.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    replacements[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for layer, attr in HOOKS:
            value = getattr(importlib.import_module(f"fraccalc.{layer}"), attr, None)
            if inspect.isfunction(value):
                replacements[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fraccalc" or mod_name.startswith("fraccalc.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    setattr(module, attr, wrapped)
        return len(replacements)


def _bind(args: tuple, kwargs: dict, names: tuple[str, ...]) -> tuple:
    return tuple(args[i] if i < len(args) else kwargs[k] for i, k in enumerate(names))


def _op_info(args: tuple, kwargs: dict) -> str:
    (kind,) = _bind(args, kwargs, ("kind",))
    return str(getattr(kind, "value", kind))


def _suite_info(args: tuple, kwargs: dict) -> str:
    (check,) = _bind(args, kwargs, ("check",))
    return str(getattr(check, "check_id", "")).split("/")[0]


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of the intervals its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
            reach = max(reach, end)
        out.append(span[END] - span[START] - covered)
    return out


def _layer_subtree_self(spans: list[list], selfs: list[float], layer: str) -> list[float]:
    """Per span: summed self time of the spans of `layer` in its subtree."""
    acc = [selfs[i] if span[NAME].split(".")[0] == layer else 0.0 for i, span in enumerate(spans)]
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent >= 0:
            acc[parent] += acc[i]
    return acc


def _ladders(spans: list[list]) -> int:
    """Rule-call ladders: runs of calls with one (a, b) and growing n under one parent."""
    last: dict[int, list] = {}
    count = 0
    for span in spans:
        if span[NAME] != RULE:
            continue
        n, a, b, _ = span[INFO]
        prev = last.get(span[PARENT])
        if prev is None or (prev[1], prev[2]) != (a, b) or not prev[0] < n:
            count += 1
        last[span[PARENT]] = span[INFO]
    return count


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer metrics from spans, averaged over `requests` requests.

    The import.*, cli.process_ms and trace.overhead_frac entries are measured
    outside the spans and are left for the caller.
    """
    per = 1.0 / max(requests, 1)
    selfs = self_times(spans)
    names = [span[NAME] for span in spans]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for name, s in zip(names, selfs):
        calls[name] += 1
        self_s[name] += s
    out: dict[str, float] = {}

    specfun = [n for n in calls if n.startswith("specfun.")]
    out["specfun.calls"] = sum(calls[n] for n in specfun) * per
    out["specfun.self_ms"] = sum(self_s[n] for n in specfun) * 1e3 * per
    out["specfun.mittag_leffler.calls"] = calls["specfun.mittag_leffler"] * per
    out["specfun.mittag_leffler.self_ms"] = self_s["specfun.mittag_leffler"] * 1e3 * per

    closed_acc = _layer_subtree_self(spans, selfs, "closed_forms")
    out["closed_forms.closed_eval.calls"] = calls["closed_forms.closed_eval"] * per
    out["closed_forms.closed_eval.self_ms"] = (
        sum(a for n, a in zip(names, closed_acc) if n == "closed_forms.closed_eval") * 1e3 * per
    )

    rules = [span[INFO] for span in spans if span[NAME] == RULE]
    misses = sum(1 for info in rules if info[3])
    out["oracle.gauss_jacobi_01.calls"] = len(rules) * per
    out["oracle.gauss_jacobi_01.misses"] = misses * per
    out["oracle.gauss_jacobi_01.hit_ratio"] = 1.0 - misses / len(rules) if rules else 0.0
    out["oracle.gauss_jacobi_01.self_ms"] = self_s[RULE] * 1e3 * per
    out["oracle.gauss_jacobi_01.max_n"] = float(max((info[0] for info in rules), default=0))
    out["oracle.nodes_evaluated"] = sum(info[0] for info in rules) * per
    ladders = _ladders(spans)
    out["oracle.rungs_per_integral"] = len(rules) / ladders if ladders else 0.0

    # stencil fan-out, and oracle-layer time per operator at the outermost oracle span
    under_der = [False] * len(spans)
    under_oracle = [False] * len(spans)
    integrals_in_der = 0
    oracle_acc = _layer_subtree_self(spans, selfs, "oracle")
    op_ms = dict.fromkeys(OPS, 0.0)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            under_der[i] = under_der[parent] or names[parent] in _DERIVATIVES
            under_oracle[i] = under_oracle[parent] or names[parent].startswith("oracle.")
        if names[i] == "oracle.rl_integral_quad" and under_der[i]:
            integrals_in_der += 1
        if names[i].startswith("oracle.") and not under_oracle[i]:
            op = span[INFO] if names[i] == "oracle.oracle_eval" else _OP_OF_FUNCTION.get(names[i])
            if op in op_ms:
                op_ms[op] += oracle_acc[i]
    derivatives = sum(calls[n] for n in _DERIVATIVES)
    out["oracle.integrals_per_eval"] = integrals_in_der / derivatives if derivatives else 0.0
    out["oracle.rl_integral_quad.self_ms"] = self_s["oracle.rl_integral_quad"] * 1e3 * per
    for op in OPS:
        out[f"oracle.oracle_eval.{op}.self_ms"] = op_ms[op] * 1e3 * per

    suite_s = dict.fromkeys(SUITES, 0.0)
    for span in spans:
        if span[NAME] == "verify._execute" and span[INFO] in suite_s:
            suite_s[span[INFO]] += span[END] - span[START]
    for suite in SUITES:
        out[f"verify.run_suite.{suite}.ms"] = suite_s[suite] * 1e3 * per
    out["verify.emit_report.ms"] = _total_ms(spans, "verify.emit_report") * per
    out["verify.checks"] = sum(span[INFO] for span in spans if span[NAME] == "verify.run_suite") * per
    out["cli.main.ms"] = _total_ms(spans, "cli.main") * per
    return out


def _total_ms(spans: list[list], name: str) -> float:
    return sum(span[END] - span[START] for span in spans if span[NAME] == name) * 1e3


def module_tables(spans: list[list], requests: int) -> str:
    """One self-time table per module: calls and self time per request, by function."""
    per = 1.0 / max(requests, 1)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += s
    lines = []
    for layer in LAYERS:
        names = sorted((n for n in calls if n.split(".")[0] == layer), key=lambda n: -self_s[n])
        total = sum(self_s[n] for n in names)
        lines.append(f"== {layer}: self {total * 1e3 * per:.4f} ms/req")
        lines.append(f"{'function':<36} {'calls/req':>12} {'self ms/req':>12} {'us/call':>10}")
        for n in names:
            lines.append(
                f"{n.split('.', 1)[1]:<36} {calls[n] * per:>12.3f} {self_s[n] * 1e3 * per:>12.4f} "
                f"{self_s[n] * 1e6 / calls[n]:>10.2f}"
            )
    return "\n".join(lines) + "\n"


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate the spans of several processes, shifting parent indices in place."""
    out: list[list] = []
    for spans in span_lists:
        offset = len(out)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
        out.extend(spans)
    return out


def write_spans(path, spans: list[list]) -> None:
    """Gzipped JSON lines: a header naming the fields, then one array per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write(json.dumps(["name", "parent", "start", "end", "request", "info"]) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        next(handle)  # field names
        for line in handle:
            span = json.loads(line)
            span[NAME] = sys.intern(span[NAME])
            spans.append(span)
    return spans
