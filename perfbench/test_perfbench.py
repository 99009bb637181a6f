"""Tests of the benchmark itself:  python -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


# -- generator


@pytest.mark.parametrize("workload", ["cli-eval", "oracle-grid", "oracle-sweep"])
def test_stream_is_deterministic_per_seed(workload):
    first = list(itertools.islice(W.stream(workload, 7), 500))
    assert first == list(itertools.islice(W.stream(workload, 7), 500))
    assert first != list(itertools.islice(W.stream(workload, 8), 500))
    assert W.stream_hash(workload, 7) == W.stream_hash(workload, 7) != W.stream_hash(workload, 8)


def _in_sweep_domain(req: W.Request) -> bool:
    if (req.op, req.family) not in W.PAIRS or not 0.5 <= req.t <= 5.0:
        return False
    if not 0.0 < req.alpha <= 2.5:
        return False
    if req.op.endswith("-der") and req.alpha == math.floor(req.alpha):
        return False
    if req.family == "power":
        return -1.0 < req.param <= 3.0
    if req.family == "exp":
        return abs(req.param * req.t) <= 50.0
    if req.family == "powerlog":
        return 0.0 < req.param <= 3.0
    return 0.0 < req.param < 1.0 and (req.op != "weyl-int" or req.alpha < req.param)


def test_sweeps_stay_inside_the_domain_and_cover_it():
    sweep = list(itertools.islice(W.stream("oracle-sweep", 3), 20000))
    assert all(_in_sweep_domain(r) for r in sweep)
    assert {(r.op, r.family) for r in sweep} == set(W.PAIRS)
    # the domain is not narrowed: exp reaches lambda*t near -50 and +50
    lam_t = [r.param * r.t for r in sweep if r.family == "exp"]
    assert min(lam_t) < -45.0 and max(lam_t) > 45.0


def test_grid_draws_come_from_the_verify_grid():
    grid = set(W.grid_requests())
    assert len(grid) == 804
    drawn = list(itertools.islice(W.stream("oracle-grid", 1), 5000))
    assert all(r in grid for r in drawn)
    cli = list(itertools.islice(W.stream("cli-eval", 1), 4000))
    assert all(r._replace(method="closed") in grid for r in cli)
    share = sum(r.method == "both" for r in cli) / len(cli)
    assert 0.2 < share < 0.3


def test_eval_argv_round_trips_every_digit():
    req = next(W.stream("oracle-sweep", 5))
    argv = req._replace(method="both").eval_argv()
    assert float(argv[argv.index("--alpha") + 1]) == req.alpha
    assert float(argv[argv.index("--fn") + 1].split("=")[1]) == req.param
    assert argv[-2:] == ["--method", "both"]


# -- statistics and spans


def test_tail_needs_ten_samples_beyond_the_percentile():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
    value, pct = run.tail([float(i) for i in range(11)])
    assert value == 0.0 and pct == pytest.approx(100.0 / 11)
    samples = [float(i) for i in range(100, 0, -1)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_settle_counts_each_key_at_its_fastest_repeat():
    keys = [0, 1, 0, 2, 1, 0]
    values = [3.0, 5.0, 2.0, 7.0, 6.0, 4.0]
    assert run.settle(keys, values) == [2.0, 5.0, 2.0, 7.0, 5.0, 2.0]
    assert run.settle([], []) == []


def _span(name, parent, start, end, info=None):
    return [name, parent, start, end, 0, info]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("oracle.oracle_eval", -1, 0.0, 10.0, "rl-der"),  # 0
        _span("oracle.rl_derivative_quad", 0, 1.0, 9.0),  # 1
        _span("oracle.rl_integral_quad", 1, 2.0, 4.0),  # 2
        _span("oracle.gauss_jacobi_01", 2, 2.5, 3.0, [16, -0.5, 0.0, True]),  # 3
        _span("oracle.gauss_jacobi_01", 2, 3.0, 3.5, [32, -0.5, 0.0, False]),  # 4
        _span("oracle.rl_integral_quad", 1, 5.0, 6.0),  # 5
        _span("oracle.gauss_jacobi_01", 5, 5.0, 5.5, [16, -0.5, 0.0, False]),  # 6
        _span("specfun.gamma", 1, 6.5, 8.5),  # 7
    ]
    selfs = spans.self_times(tree)
    assert selfs[:4] == pytest.approx([2.0, 3.0, 1.0, 0.5])
    # children that overlap count once: the union of [1,4], [3,6] and [8,9] is 6
    overlapping = [_span("a.f", -1, 0.0, 10.0)] + [_span("a.g", 0, s, e) for s, e in ((1, 4), (3, 6), (8, 9))]
    assert spans.self_times(overlapping)[0] == pytest.approx(4.0)
    m = spans.layer_metrics(tree, requests=2)
    assert m["oracle.gauss_jacobi_01.calls"] == 1.5
    assert m["oracle.gauss_jacobi_01.misses"] == 0.5
    assert m["oracle.gauss_jacobi_01.hit_ratio"] == pytest.approx(2 / 3)
    assert m["oracle.gauss_jacobi_01.max_n"] == 32.0
    assert m["oracle.nodes_evaluated"] == 32.0
    assert m["oracle.rungs_per_integral"] == 1.5  # ladders (16, 32) and (16)
    assert m["oracle.integrals_per_eval"] == 2.0
    # the operator's oracle-layer self time leaves out the specfun call
    assert m["oracle.oracle_eval.rl-der.self_ms"] == pytest.approx((10.0 - 2.0) * 1e3 / 2)
    assert m["specfun.self_ms"] == pytest.approx(2.0 * 1e3 / 2)
    merged = spans.merge([[list(s) for s in tree[:2]], [list(s) for s in tree[:2]]])
    assert [s[spans.PARENT] for s in merged] == [-1, 0, -1, 2]


def test_import_times_take_outermost_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |        350 |   scipy",
            "import time:        10 |         10 |   scipy.special._ufuncs",
            "import time:        40 |        400 | fraccalc",
        ]
    )
    expected = {"import.fraccalc_ms": 0.4, "import.scipy_ms": 0.36, "import.numpy_ms": 0.3}
    assert run.import_times(text) == expected


def test_benchmark_json_lists_the_metrics_the_code_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    spec = json.loads((HERE / "spec.json").read_text())
    assert set(spec["workloads"]) == set(run.WORKLOADS)
    gated = {name for name, w in spec["workloads"].items() if w["gated"]}
    assert gated == {w["name"] for w in bench["workloads"]}
    assert list(spec["per_layer"]) == [name for name, _, _ in spans.PER_LAYER]


# -- correctness accounting


def _result(value):
    return SimpleNamespace(value=value, abs_err_estimate=0.0, method="m")


def test_a_wrong_oracle_value_is_a_mismatch():
    fake = SimpleNamespace(closed_eval=lambda *a: _result(1.0), oracle_eval=lambda *a: _result(1.0 + 1e-6))
    ev = worker.Evaluator(fake)
    integral = W.Request("rl-int", 0.5, "power", 1.0, 1.0)
    derivative = integral._replace(op="rl-der")
    assert ev.request(integral) == "mismatch"  # 1e-6 relative is outside the 1e-7 integral gate
    assert ev.request(derivative) == "ok"  # and inside the 1e-4 derivative gate

    def boom(*a):
        raise ArithmeticError("no convergence")

    broken = worker.Evaluator(SimpleNamespace(closed_eval=boom, oracle_eval=boom))
    assert broken.request(integral) == "error"
    assert broken.expected_stdout(integral) is None


def test_wrong_cli_output_counts_in_mismatch_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    r = run.Run("cli-eval", 1, 1.0)
    wl = run.CliWorkload(r)
    closed = W.Request("rl-int", 0.5, "power", 1.0, 1.0)
    both = closed._replace(method="both")
    apart = "1\t0\tclosed-form\n1.001\t0\toracle\n"  # byte-identical, but the routes disagree
    wl.expected = ["1\t0\tclosed-form\n", "2\t0\tclosed-form\n", "3\t0\tclosed-form\n", None, apart]
    r.count(wl.outcome(1, closed, 0, b"2\t0\tclosed-form\n"), "right")
    r.count(wl.outcome(2, closed, 0, b"3.0000000000000004\t0\tclosed-form\n"), "wrong digit")
    r.count(wl.outcome(2, closed, 2, b""), "exit 2")
    r.count(wl.outcome(3, closed, 0, b"4\t0\tclosed-form\n"), "output where the package raises")
    r.count(wl.outcome(4, both, 0, apart.encode()), "closed and oracle disagree")
    assert (r.attempted, r.mismatches, r.errors) == (5, 3, 1)


def test_tracer_patches_every_namespace_that_imported_a_name():
    import fraccalc
    from fraccalc import oracle, verify

    tracer = spans.Tracer()
    try:
        assert tracer.install() > 40
        assert verify.rl_integral_quad is oracle.rl_integral_quad
        assert fraccalc.oracle_eval is oracle.oracle_eval
        assert hasattr(oracle.oracle_eval, "__wrapped__")
        tracer.recording = True
        fraccalc.oracle_eval("rl-der", 0.5, fraccalc.Power(1.0), 1.0)
        names = {s[spans.NAME] for s in tracer.spans}
        expected = {"oracle.oracle_eval", "oracle.rl_derivative_quad", "oracle.rl_integral_quad", spans.RULE}
        assert expected <= names
    finally:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("fraccalc"):
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) == "spans":
                        setattr(module, attr, value.__wrapped__)
