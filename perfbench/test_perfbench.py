"""The benchmark's own tests (smoke-sized; not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q

Each workload runs end to end at smoke size against a real server, with
and without tracing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from workloads import WORKLOADS, RequestPlan

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200
        assert workload["why"] == WORKLOADS[workload["name"]].why
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads(
        (ROOT / "perfbench" / "layer_map.json").read_text()
    )["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(WORKLOADS)
        assert entry["source"] in ("http", "trace")


def test_request_plans_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        first, second = (RequestPlan.make(workload, 7) for _ in range(2))
        assert first.warmup == second.warmup
        for a, b in zip(first.clients, second.clients):
            assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]
        other = RequestPlan.make(workload, 8)
        assert other.warmup != first.warmup


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric_and_passes_the_gate(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in expected
    }
    record = json.loads((
        ROOT / ".perfbench-work" / "results"
        / f"{workload}-seed3-trace{trace}.json"
    ).read_text())
    assert record["identity_checked"] >= 2
    assert all(stop["drained"] and not stop["leftover_processes"]
               for stop in record["stops"].values())
    assert not record["failures"]


def test_tracer_records_spans_and_restores_every_target():
    import numpy as np
    from repro.api.requests import SampleRequest
    from repro.api.session import Session
    from repro.graphs.families import build_family

    before = tracing.current_targets()
    graph, __ = build_family("complete", 40, np.random.default_rng(0))
    session = Session(graph, "fast-audit", seed=0)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            session.run(SampleRequest(seed=1, variant="approximate"))
            raise RuntimeError("unwind through the restore path")
    assert tracing.current_targets() == before
    assert tracing.leaked_wrappers() == []
    layers = {span.layer for span in tracer.spans}
    assert {"api", "engine", "linalg", "store", "walk"} <= layers
    own = tracer.self_times()
    assert all(seconds >= -1e-6 for seconds in own)
    top = [s for s in tracer.spans if s.parent < 0]
    assert sum(own) == pytest.approx(
        sum(s.end - s.start for s in top), rel=1e-6
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fresh-dense", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
