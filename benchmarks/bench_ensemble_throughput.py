"""E22 (engine): ensemble throughput -- EnsembleEngine vs an uncached loop.

The ROADMAP's hot-path target: ensemble workloads (uniformity audits,
TV estimation, leverage marginals) draw hundreds of trees from one
sampler. The seed architecture paid the full per-draw cost in a Python
loop -- per-draw derived-graph rebuilds and the pure-Python contingency
DP. The engine batches this: a cross-sample
:class:`~repro.engine.cache.DerivedGraphCache` of phase numerics,
and multi-process fan-out via
:meth:`~repro.engine.ensemble.EnsembleEngine.sample_ensemble`. (Both
sides now place midpoints from the bank; no contingency DP runs.)

Measured here, for n in {32, 64, 128} at 200 draws:

- ``baseline``: a plain ``engine.run(rng)`` loop over one
  :class:`~repro.engine.runner.SamplerEngine` with per-draw numeric
  rebuilds (``derived_cache=False``), timed over a smaller sample and
  reported as trees/second;
- ``single``: ``sample_ensemble(200, jobs=1)``;
- ``multi``: ``sample_ensemble(200, jobs=2)`` (recorded even on 1-CPU
  hosts, where it only adds fork overhead): chunks of
  ``ceil(200 / (4 * 2)) = 25`` draws, each chunk on a fresh worker
  engine. Each worker runs on its share of the BLAS threads
  (:func:`repro.linalg.threads.blas_budget`).

Acceptance gates: single-process engine >= 2x baseline throughput at
n = 64, with byte-identical trees across jobs counts; and, on hosts with
at least 2 available CPUs, ``multi >= single`` at n = 128 -- two workers
that each inherited the whole OpenBLAS pool used to run 4x slower than
one process. Results land in ``BENCH_ensemble_throughput.json`` next to
this file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import graphs
from repro.api import get_preset, preset_config
from repro.engine import EnsembleEngine, SamplerEngine
from repro.linalg.threads import available_cpus

NS = [32, 64, 128]
DRAWS = 200
BASELINE_DRAWS = 30  # uncached loop is slow; rate extrapolates linearly
OUTPUT = Path(__file__).resolve().parent / "BENCH_ensemble_throughput.json"


def _graph(n: int) -> "graphs.WeightedGraph":
    return graphs.erdos_renyi_graph(n, rng=np.random.default_rng(2200 + n))


def _baseline_rate(n: int) -> float:
    """Trees/second of an engine loop with no derived-graph cache."""
    config = preset_config("fast-audit", derived_cache=False)
    engine = SamplerEngine(_graph(n), config)
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for _ in range(BASELINE_DRAWS):
        engine.run(rng)
    return BASELINE_DRAWS / (time.perf_counter() - start)


def test_ensemble_throughput(benchmark, report):
    rows = []

    def experiment():
        for n in NS:
            engine = EnsembleEngine(_graph(n), get_preset("fast-audit").config)
            single = engine.sample_ensemble(DRAWS, seed=7, jobs=1)
            multi = engine.sample_ensemble(DRAWS, seed=7, jobs=2)
            baseline = _baseline_rate(n)
            rows.append(
                {
                    "n": n,
                    "family": "gnp",
                    "draws": DRAWS,
                    "baseline_trees_per_s": round(baseline, 3),
                    "single_trees_per_s": round(single.trees_per_second(), 3),
                    "multi_trees_per_s": round(multi.trees_per_second(), 3),
                    "multi_jobs": multi.jobs,
                    "speedup_single_vs_baseline": round(
                        single.trees_per_second() / baseline, 3
                    ),
                    "identical_trees_across_jobs": single.trees == multi.trees,
                    "cache": single.cache_stats,
                }
            )
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    payload = {
        "bench": "ensemble_throughput",
        "draws": DRAWS,
        "baseline_draws": BASELINE_DRAWS,
        "cpu_count": os.cpu_count(),
        "results": rows,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"{'n':>5s} {'baseline t/s':>13s} {'engine t/s':>11s} "
        f"{'multi t/s':>10s} {'speedup':>8s}"
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>5d} {row['baseline_trees_per_s']:>13.2f} "
            f"{row['single_trees_per_s']:>11.2f} "
            f"{row['multi_trees_per_s']:>10.2f} "
            f"{row['speedup_single_vs_baseline']:>7.2f}x"
        )
    lines.append(
        "shape check: engine >= 2x the uncached loop at n=64 (derived-graph "
        "cache), trees byte-identical across "
        f"jobs counts; JSON at {OUTPUT.name}"
    )
    report("E22 / ensemble throughput (engine vs uncached loop)", lines)

    # Checked ahead of the baseline gates so a failing one cannot hide it.
    if available_cpus() >= 2:
        n128 = next(row for row in rows if row["n"] == 128)
        assert n128["multi_trees_per_s"] >= n128["single_trees_per_s"], n128
    for row in rows:
        assert row["identical_trees_across_jobs"], row["n"]
        # Small-n instances spend little in the optimized paths; the
        # engine must still never regress materially.
        assert row["speedup_single_vs_baseline"] > 0.9, row
    n64 = next(row for row in rows if row["n"] == 64)
    assert n64["speedup_single_vs_baseline"] >= 2.0, n64
