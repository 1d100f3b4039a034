"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload, untraced and traced, on a few dialogues and checks
that each run passes its own correctness checks and reports exactly the
metrics BENCHMARK.json declares.
"""

import json
from dataclasses import replace

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(w: run.Workload) -> run.Workload:
    return replace(w, n_train=16, epochs=1, n_dev=6, n_cli=3, n_ref=16, ref_epochs=1,
                   n_quality=6)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_and_reports_declared_metrics(name, trace):
    result, info = run.execute(tiny(run.WORKLOADS[name]), seed=3, seconds=0, trace=trace)
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])
