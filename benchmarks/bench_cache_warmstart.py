"""Cold vs warm-memory vs warm-disk ensemble draws over the tiered cache.

This is a **same-seed replay microbenchmark**: all three runs draw the
same seeds, so every warm phase finds its numerics cached. It says what
the cache saves on replays and restarts, not what a fresh-seed request
costs; that is perfbench's ``fresh-dense`` / ``fresh-sparse``
(``perfbench/run.py``). The JSON carries ``"scenario": "replay"``. The
warm runs read phase numerics only: walk laws and first-visit tables
are recomputed on every draw, and no placement-plan blob is written or
read.

The tiered derived-graph store (:mod:`repro.engine.store`) exists for one
reason: a restarted process (service restart, fresh CLI invocation,
ensemble worker) should not rebuild ShortCut/Schur matrices and Lemma 7
power ladders that some earlier process already computed for the same
``(G, S, config)``. This bench measures exactly that contract on the
dense reference path, where the derived-graph numerics dominate a draw:

- **cold** -- fresh session over an empty cache directory (computes and
  spills everything);
- **warm-memory** -- the same session re-running the same-seed request
  (every phase served from the RAM tier);
- **warm-disk** -- a *new* session over the now-populated directory
  (fresh RAM tier, every phase promoted from the disk tier -- the
  process-restart scenario).

All three runs produce byte-identical trees and round bills (asserted
here, property-tested in tests/test_engine_store.py); only wall-clock
may differ. The non-cacheable floor is the walk itself (midpoint
draws, truncation, placement from the bank, first-visit edges), which is
why the speedup grows with n: numerics cost scales ~n^3 while the walk
floor grows far slower.

The bench pins ``rho = 16`` rather than the paper's round-optimal
``rho = floor(sqrt(n))``. The figures in BENCH_cache_warmstart.json were
measured when placement still ran a contingency DP per level, whose
wall-clock grew ~B^4 in the per-phase quota B = rho, so the default
rho = 32 at n = 1024 buried a warm run under ~60s of matching draws per
ensemble. Placement now reads the bank and draws nothing; keeping
``rho = 16`` keeps the grid comparable with those figures (more phases,
hence more derived-graph bundles, exactly the work the cache absorbs;
the output law is rho-independent, only rounds and seconds move).

Acceptance gate (full mode): warm-disk restart >= 3x faster than cold at
n = 1024. Results land in ``BENCH_cache_warmstart.json`` next to this
file.

Runs standalone (the CI smoke job) or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_cache_warmstart.py --smoke
    pytest benchmarks/bench_cache_warmstart.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import EnsembleRequest, Session, preset_config
from repro.graphs.families import build_family

FAMILY = "complete"  # keeps the dense reference path: numerics-dominated
FULL_NS = [256, 512, 1024]
SMOKE_NS = [48, 64]
DRAWS = 2
FULL_ELL = 1 << 10
SMOKE_ELL = 1 << 8
RHO = 16  # wall-clock-tuned quota; see the module docstring
OUTPUT = Path(__file__).resolve().parent / "BENCH_cache_warmstart.json"


def _timed_run(session: Session, draws: int):
    start = time.perf_counter()
    response = session.run(EnsembleRequest(count=draws, seed=0, jobs=1))
    return time.perf_counter() - start, response


def measure_instance(n: int, ell: int, draws: int = DRAWS) -> dict:
    """One cold/warm-memory/warm-disk triple over a private cache dir."""
    cache_dir = tempfile.mkdtemp(prefix="bench-warmstart-")
    try:
        config = preset_config(
            "fast-bench",
            ell=ell,
            rho=RHO,
            cache_dir=cache_dir,
            derived_cache_entries=1024,
            cache_memory_bytes=2 << 30,
        )
        graph, __ = build_family(FAMILY, n, np.random.default_rng(9000 + n))
        cold_session = Session(graph, config, seed=0)
        cold_seconds, cold = _timed_run(cold_session, draws)
        warm_mem_seconds, warm_mem = _timed_run(cold_session, draws)
        restarted = Session(graph, config, seed=0)  # fresh RAM tier
        warm_disk_seconds, warm_disk = _timed_run(restarted, draws)

        # The cache may only change wall-clock -- never outputs.
        assert (
            cold.result.trees == warm_mem.result.trees == warm_disk.result.trees
        ), "cache tiers changed sampled trees"
        cold_rounds = [r.rounds for r in cold.result.results]
        assert cold_rounds == [
            r.rounds for r in warm_mem.result.results
        ] == [
            r.rounds for r in warm_disk.result.results
        ], "cache tiers changed round bills"
        disk_stats = restarted.cache_stats()
        return {
            "family": FAMILY,
            "n": int(graph.n),
            "draws": int(draws),
            "ell": int(ell),
            "rho": RHO,
            "linalg_backend": cold.meta["linalg_backend"],
            "cold_seconds": round(cold_seconds, 4),
            "warm_memory_seconds": round(warm_mem_seconds, 4),
            "warm_disk_seconds": round(warm_disk_seconds, 4),
            "speedup_memory": round(cold_seconds / max(warm_mem_seconds, 1e-9), 3),
            "speedup_disk": round(cold_seconds / max(warm_disk_seconds, 1e-9), 3),
            "disk_entries": int(disk_stats["disk_entries"]),
            "disk_mb": round(disk_stats["disk_bytes"] / 2**20, 2),
            "disk_hits_on_restart": int(disk_stats["disk_hits"]),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_benchmark(ns: list[int], ell: int) -> dict:
    rows = [measure_instance(n, ell) for n in ns]
    return {
        "bench": "cache_warmstart",
        "scenario": "replay",
        "family": FAMILY,
        "draws": DRAWS,
        "ell": ell,
        "ns": ns,
        "results": rows,
    }


def _render(payload: dict) -> list[str]:
    lines = [
        f"{'n':>5s} {'cold s':>8s} {'mem s':>8s} {'disk s':>8s} "
        f"{'mem x':>6s} {'disk x':>7s} {'entries':>8s} {'disk MB':>8s}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['n']:>5d} {row['cold_seconds']:>8.2f} "
            f"{row['warm_memory_seconds']:>8.2f} "
            f"{row['warm_disk_seconds']:>8.2f} "
            f"{row['speedup_memory']:>5.1f}x {row['speedup_disk']:>6.1f}x "
            f"{row['disk_entries']:>8d} {row['disk_mb']:>8.1f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small-n grid {SMOKE_NS} for CI (no acceptance assertion)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUTPUT,
        help="output JSON path (default: BENCH_cache_warmstart.json)",
    )
    args = parser.parse_args(argv)
    ns, ell = (SMOKE_NS, SMOKE_ELL) if args.smoke else (FULL_NS, FULL_ELL)
    payload = run_benchmark(ns, ell)
    payload["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for line in _render(payload):
        print(line)
    print(f"wrote {args.out}")
    return 0


def test_cache_warmstart(benchmark, report):
    """Pytest-benchmark wrapper with the acceptance gate."""
    payload = {}

    def experiment():
        payload.update(run_benchmark(FULL_NS, FULL_ELL))
        return payload

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    payload["mode"] = "full"
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report("tiered-cache warm-start speedups", _render(payload))

    top = [row for row in payload["results"] if row["n"] >= 1024]
    assert top, "grid must include n >= 1024"
    assert any(row["speedup_disk"] >= 3.0 for row in top), top


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
