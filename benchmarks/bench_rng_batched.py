"""Batched RNG contract (v2) vs the per-decision stream (v1), fully warm.

PR 5's placement plan made every *deterministic* placement structure a
memo hit on warm draws, which left the per-decision randomness calls as
the warm floor: one ``rng.choice(p=...)`` per midpoint, per DP column,
per first-visit edge -- each paying generator dispatch plus a normalizing
divide. The v2 contract batches them: one uniform block per level (and
per DP layer), resolved by ``searchsorted`` against CDFs the plan caches
alongside its laws, with zero divides on the draw path (uniforms are
scaled by ``cdf[-1]`` instead).

This bench measures both contracts on the warm-service path (complete
graph, dense numerics, wall-clock-tuned ``rho = 16``):

- **cold** -- first same-seed request over an empty cache dir;
- **warm per-draw** -- steady-state per-draw seconds after a warm-up.

The contracts deliberately draw *different* trees from the same seed
(different bits consumed -- v2 has its own golden fixtures, gated on the
chi-square/exact-TV harness). What stays identical, asserted per draw
below, are the analytic round charges -- the categories whose bills are
determined by ``(n, ell, rho, phases)`` alone (matmul, midpoint
requests, end-vertex and first-visit protocol steps) -- plus the phase
count itself. Trajectory-*scaled* categories (truncation probes,
per-pair distribution loads and broadcasts, DP submatrix sizes) follow
the drawn walk and may differ by a fraction of a percent, exactly as
two different v1 seeds would.

Acceptance gate (full mode): v2 >= 1.8x v1 warm per-draw at n = 512.
Results land in ``BENCH_rng_batched.json``; the CI smoke job re-runs the
small grid and fails if the v2/v1 ratio regresses >25% vs the checked-in
baseline (the ratio normalizes out host speed).

Runs standalone (the CI smoke job) or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_rng_batched.py --smoke
    pytest benchmarks/bench_rng_batched.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import EnsembleRequest, Session, preset_config
from repro.graphs.families import build_family

FAMILY = "complete"  # dense path: the walk-layer floor dominates warm draws
FULL_NS = [256, 512]
SMOKE_NS = [48, 64]
WARM_DRAWS = 4
REPEATS = 3
FULL_ELL = 1 << 10
SMOKE_ELL = 1 << 8
RHO = 16  # wall-clock-tuned service quota (see bench_cache_warmstart.py)
OUTPUT = Path(__file__).resolve().parent / "BENCH_rng_batched.json"

# Charge categories whose per-draw bills are analytic in
# (n, ell, rho, phase count) -- identical across contracts by
# construction, asserted per draw. The remaining categories scale with
# the drawn trajectory, which the contract deliberately changes.
ANALYTIC_CATEGORIES = (
    "matmul",
    "init/sample-end",
    "first-visit-edges",
    "midpoints/requests",
)


def _measure_contract(graph, contract: str, ell: int, cache_dir: str) -> dict:
    config = preset_config(
        "fast-bench",
        ell=ell,
        rho=RHO,
        cache_dir=cache_dir,
        rng_contract=contract,
        derived_cache_entries=1024,
        cache_memory_bytes=2 << 30,
    )
    # Fully-warm scenario: the same-seed request replayed against a warm
    # session (numerics in RAM, plan memos + CDFs hot). Fresh seeds would
    # pull never-seen phase subsets and re-measure numerics, not the
    # randomness contract.
    session = Session(graph, config, seed=0)
    request = EnsembleRequest(count=1, seed=0, jobs=1)
    start = time.perf_counter()
    cold = session.run(request)
    cold_seconds = time.perf_counter() - start
    session.run(request)  # warm-up: plan DP builds + CDF memos fill here
    warm_seconds = math.inf
    warm = None
    for __ in range(REPEATS):
        start = time.perf_counter()
        for __ in range(WARM_DRAWS):
            warm = session.run(request)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    # Same seed + same contract => byte-identical replay, warm or cold.
    assert warm.result.trees == cold.result.trees
    results = cold.result.results
    return {
        "contract": contract,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_per_draw": round(warm_seconds / WARM_DRAWS, 4),
        "trees": cold.result.trees,
        "phases": [r.phases for r in results],
        "analytic_rounds": [
            {
                category: int(r.rounds_by_category().get(category, 0))
                for category in ANALYTIC_CATEGORIES
            }
            for r in results
        ],
    }


def measure_instance(n: int, ell: int) -> dict:
    """One v1/v2 pair over private cache dirs."""
    graph, __ = build_family(FAMILY, n, np.random.default_rng(9000 + n))
    rows = {}
    for contract in ("v1", "v2"):
        cache_dir = tempfile.mkdtemp(prefix=f"bench-rng-{contract}-")
        try:
            rows[contract] = _measure_contract(graph, contract, ell, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    # The contract changes which bits are consumed -- so trees differ --
    # but never the analytic round charges or the phase structure.
    assert rows["v1"]["trees"] != rows["v2"]["trees"], (
        "contracts drew identical trees; the v2 path did not engage"
    )
    assert rows["v1"]["phases"] == rows["v2"]["phases"], (
        "contracts disagreed on phase counts"
    )
    assert rows["v1"]["analytic_rounds"] == rows["v2"]["analytic_rounds"], (
        "contracts billed different analytic rounds"
    )
    for row in rows.values():
        del row["trees"]
    speedup = rows["v1"]["warm_per_draw"] / max(
        rows["v2"]["warm_per_draw"], 1e-9
    )
    return {
        "family": FAMILY,
        "n": int(graph.n),
        "ell": int(ell),
        "rho": RHO,
        "warm_draws": WARM_DRAWS,
        "v1": rows["v1"],
        "v2": rows["v2"],
        "speedup_warm": round(speedup, 3),
    }


def run_benchmark(ns: list[int], ell: int) -> dict:
    return {
        "bench": "rng_batched",
        "family": FAMILY,
        "ell": ell,
        "rho": RHO,
        "ns": ns,
        "results": [measure_instance(n, ell) for n in ns],
    }


def best_ratio(payload: dict) -> float:
    """Best (smallest) v2/v1 warm per-draw ratio across the grid.

    The ratio normalizes out host speed -- v1 on the same host is the
    proxy -- so a smoke run on a slow CI box is comparable to the
    checked-in full-grid baseline.
    """
    return min(
        row["v2"]["warm_per_draw"] / max(row["v1"]["warm_per_draw"], 1e-9)
        for row in payload["results"]
    )


def check_regression(
    payload: dict, baseline: dict, tolerance: float = 0.25
) -> tuple[bool, str]:
    current = best_ratio(payload)
    reference = best_ratio(baseline)
    limit = reference * (1.0 + tolerance)
    verdict = "ok" if current <= limit else "REGRESSION"
    return current <= limit, (
        f"v2/v1 warm per-draw ratio {current:.3f} vs baseline "
        f"{reference:.3f} (limit {limit:.3f}): {verdict}"
    )


def _render(payload: dict) -> list[str]:
    lines = [
        f"{'n':>5s} {'v1 cold':>9s} {'v1 warm':>9s} {'v2 cold':>9s} "
        f"{'v2 warm':>9s} {'speedup':>8s}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['n']:>5d} {row['v1']['cold_seconds']:>9.2f} "
            f"{row['v1']['warm_per_draw']:>9.3f} "
            f"{row['v2']['cold_seconds']:>9.2f} "
            f"{row['v2']['warm_per_draw']:>9.3f} "
            f"{row['speedup_warm']:>7.2f}x"
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
        help="output JSON path (default: BENCH_rng_batched.json)",
    )
    parser.add_argument(
        "--gate", type=Path, metavar="BASELINE",
        help="fail (exit 1) if the v2/v1 warm per-draw ratio regresses "
             ">25%% vs this baseline JSON's ratio",
    )
    args = parser.parse_args(argv)
    ns, ell = (SMOKE_NS, SMOKE_ELL) if args.smoke else (FULL_NS, FULL_ELL)
    payload = run_benchmark(ns, ell)
    payload["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for line in _render(payload):
        print(line)
    print(f"wrote {args.out}")
    if args.gate is not None:
        baseline = json.loads(args.gate.read_text())
        passed, message = check_regression(payload, baseline)
        print(message)
        if not passed:
            return 1
    return 0


def test_rng_batched(benchmark, report):
    """Pytest-benchmark wrapper with the acceptance gate."""
    payload = {}

    def experiment():
        payload.update(run_benchmark(FULL_NS, FULL_ELL))
        return payload

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    payload["mode"] = "full"
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report("batched RNG contract warm-path speedups", _render(payload))

    top = [row for row in payload["results"] if row["n"] >= 512]
    assert top, "grid must include n >= 512"
    assert any(row["speedup_warm"] >= 1.8 for row in top), top


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
