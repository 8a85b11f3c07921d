"""Sparse/dense numerics crossover on the sparse graph families.

Both backends build the derived graphs with one eliminated-block kernel
(:mod:`repro.linalg.eliminate`): a solve against the ``|C| x |C|``
block, with ``|C| ~ sqrt(n)`` for a phase-2-shaped subset. The dense
backend solves it with LAPACK and materializes every derived-graph
object as an ``n x n`` numpy array; the sparse backend solves it with
SuperLU and stores everything as CSR.

This bench builds one phase-2-shaped derived-graph bundle (ShortCut,
Schur transition, and an ``ell = 64`` power ladder over it) per
(family, n, backend) and records wall-clock seconds plus tracemalloc
peak bytes. Families are the bounded-degree sparse trio the paper's
round bounds care about (cycle, grid, 4-regular expander); the
eliminated region is a BFS ball around vertex 0 of ``floor(sqrt n)``
vertices, mirroring what a real phase 2 eliminates.

Wall-clock is the best of :data:`TIMING_REPEATS` rounds, each timing
every cell once (after one untimed warm-up build) in a freshly spawned
process. A process whose OpenBLAS worker thread lands on the main
thread's core keeps it there, and every small dense build it runs then
waits out the spinning worker's time slice (~0.1 s at n <= 256 on a
2-core host), so repeats inside one process cannot escape it.

Acceptance gate (full mode): at n >= 512 at least one sparse family
shows >= 3x wall-clock improvement or >= 4x peak-memory reduction.
Results land in ``BENCH_sparse_scaling.json`` next to this file. Every
build is computed from scratch with no derived-graph cache in the loop,
so the JSON carries ``"scenario": "cold"``, plus the ``"host"`` it was
measured on (timings only compare within one host).

Runs standalone (the CI smoke job) or under pytest-benchmark like the
other benches::

    PYTHONPATH=src python benchmarks/bench_sparse_scaling.py --smoke
    pytest benchmarks/bench_sparse_scaling.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import time
import tracemalloc
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.graphs.core import WeightedGraph
from repro.graphs.families import build_family
from repro.linalg.backend import DenseLinalg, SparseLinalg
from repro.linalg.matpow import PowerLadder

FAMILIES = ["cycle", "grid", "expander"]
FULL_NS = [128, 256, 512, 1024]
SMOKE_NS = [64, 128]
LADDER_ELL = 64
TIMING_REPEATS = 5
BACKENDS = {"dense": DenseLinalg, "sparse": SparseLinalg}
OUTPUT = Path(__file__).resolve().parent / "BENCH_sparse_scaling.json"


def _phase2_subset(graph: WeightedGraph) -> list[int]:
    """An S shaped like phase 2's: everything except a visited BFS ball.

    The sampler's first phase visits ~sqrt(n) vertices around the start;
    phase 2 then eliminates them (minus the current endpoint). A BFS
    ball reproduces that locality, which is what gives the eliminated
    block its small boundary.
    """
    n = graph.n
    ball_size = max(2, int(np.sqrt(n)))
    ball: list[int] = []
    seen = {0}
    queue = deque([0])
    while queue and len(ball) < ball_size:
        u = queue.popleft()
        ball.append(u)
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    current = ball[-1]  # the walk's endpoint stays in S
    eliminated = set(ball) - {current}
    return sorted(set(range(n)) - eliminated)


def _build_numerics(graph: WeightedGraph, subset: list[int], backend) -> None:
    """One phase-2 derived-graph bundle: shortcut + Schur + ladder."""
    backend.shortcut_matrix(graph, subset)
    transition, __ = backend.schur_transition(graph, subset)
    PowerLadder(transition, LADDER_ELL)


def _instance(family: str, n: int) -> tuple[WeightedGraph, list[int]]:
    graph, __ = build_family(family, n, np.random.default_rng(9000 + n))
    return graph, _phase2_subset(graph)


def _timing_round(cells: list[tuple[str, int]]) -> dict:
    """Wall-clock per (family, n, backend), after one untimed warm-up
    build of the cell (first-call costs); runs in a spawned child."""
    seconds = {}
    for family, n in cells:
        graph, subset = _instance(family, n)
        for name, backend in BACKENDS.items():
            _build_numerics(graph, subset, backend())
            start = time.perf_counter()
            _build_numerics(graph, subset, backend())
            seconds[family, n, name] = time.perf_counter() - start
    return seconds


def _best_seconds(cells: list[tuple[str, int]]) -> dict:
    """Best of TIMING_REPEATS rounds, each in a freshly spawned process."""
    best: dict = {}
    spawn = multiprocessing.get_context("spawn")
    for __ in range(TIMING_REPEATS):
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            seconds = pool.submit(_timing_round, cells).result()
        for cell, value in seconds.items():
            best[cell] = min(best.get(cell, float("inf")), value)
    return best


def _peak_bytes(graph: WeightedGraph, subset: list[int], backend) -> int:
    """tracemalloc peak of one build, after an untimed warm-up build."""
    _build_numerics(graph, subset, backend)
    tracemalloc.start()
    _build_numerics(graph, subset, backend)
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def _host() -> dict:
    """What the timings were measured on."""
    import scipy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_benchmark(ns: list[int], families: list[str] | None = None) -> dict:
    """The full measurement grid; returns the JSON payload."""
    families = families or FAMILIES
    cells = [(family, n) for family in families for n in ns]
    best = _best_seconds(cells)
    rows = []
    for family, n in cells:
        graph, subset = _instance(family, n)
        dense_peak = _peak_bytes(graph, subset, DenseLinalg())
        sparse_peak = _peak_bytes(graph, subset, SparseLinalg())
        dense_seconds = best[family, n, "dense"]
        sparse_seconds = best[family, n, "sparse"]
        rows.append(
            {
                "family": family,
                "n": int(graph.n),
                "eliminated": int(graph.n - len(subset)),
                "dense_seconds": round(dense_seconds, 6),
                "sparse_seconds": round(sparse_seconds, 6),
                "dense_peak_mb": round(dense_peak / 2**20, 3),
                "sparse_peak_mb": round(sparse_peak / 2**20, 3),
                "speedup": round(dense_seconds / max(sparse_seconds, 1e-12), 3),
                "memory_ratio": round(dense_peak / max(sparse_peak, 1), 3),
            }
        )
    crossover = {}
    for family in families:
        hits = [
            row["n"]
            for row in rows
            if row["family"] == family
            and (row["speedup"] >= 3.0 or row["memory_ratio"] >= 4.0)
        ]
        crossover[family] = min(hits) if hits else None
    return {
        "bench": "sparse_scaling",
        "scenario": "cold",
        "host": _host(),
        "ladder_ell": LADDER_ELL,
        "timing_repeats": TIMING_REPEATS,
        "ns": ns,
        "results": rows,
        "crossover_n": crossover,
    }


def _render(payload: dict) -> list[str]:
    lines = [
        f"{'family':<9s} {'n':>5s} {'dense s':>9s} {'sparse s':>9s} "
        f"{'speedup':>8s} {'dense MB':>9s} {'sparse MB':>10s} {'mem x':>6s}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['family']:<9s} {row['n']:>5d} {row['dense_seconds']:>9.4f} "
            f"{row['sparse_seconds']:>9.4f} {row['speedup']:>7.2f}x "
            f"{row['dense_peak_mb']:>9.2f} {row['sparse_peak_mb']:>10.2f} "
            f"{row['memory_ratio']:>5.1f}x"
        )
    lines.append(f"crossover (first n with >=3x time or >=4x mem): "
                 f"{payload['crossover_n']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small-n grid {SMOKE_NS} for CI (no crossover assertion)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUTPUT,
        help="output JSON path (default: BENCH_sparse_scaling.json)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(SMOKE_NS if args.smoke else FULL_NS)
    payload["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for line in _render(payload):
        print(line)
    print(f"wrote {args.out}")
    return 0


def test_sparse_scaling(benchmark, report):
    """Pytest-benchmark wrapper with the acceptance gate."""
    payload = {}

    def experiment():
        payload.update(run_benchmark(FULL_NS))
        return payload

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    payload["mode"] = "full"
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report("sparse/dense numerics crossover", _render(payload))

    big_sparse_rows = [
        row
        for row in payload["results"]
        if row["n"] >= 512
    ]
    assert big_sparse_rows, "grid must include n >= 512"
    assert any(
        row["speedup"] >= 3.0 or row["memory_ratio"] >= 4.0
        for row in big_sparse_rows
    ), big_sparse_rows


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
