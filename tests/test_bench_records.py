"""Committed benchmark records: every BENCH_*.json at the root of the repository.

A record holds the figures behind a speed claim: per workload, the
parent's and the change's median and quartiles of each metric over
alternated pairs of runs.  It may name only the workloads and metrics that
BENCHMARK.json declares, so that each figure can be measured again with the
benchmark's one command.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared() -> tuple[set[str], set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {w["name"] for w in spec["workloads"]},
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    workloads, end_to_end, per_layer = _declared()
    assert record["workloads"]
    # end-to-end figures under "workloads", per-layer ones from traced runs under "trace"
    for section, metrics in (("workloads", end_to_end), ("trace", per_layer)):
        for workload, runs in record.get(section, {}).items():
            assert workload in workloads
            assert runs["pairs"] == len(runs["seeds"]) > 0
            assert runs["seconds"] > 0
            assert runs["metrics"]
            for name, figures in runs["metrics"].items():
                assert name in metrics, f"{path.name}: {workload} {name}"
                for side in ("parent", "change"):
                    quartiles = [figures[side][key] for key in ("q1", "median", "q3")]
                    assert all(isinstance(q, (int, float)) for q in quartiles)
                    assert quartiles == sorted(quartiles)
                assert 0 <= figures.get("change_better_pairs", 0) <= runs["pairs"]
