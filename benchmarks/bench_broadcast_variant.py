"""Broadcast CC variant vs the unicast default: rounds and wall-clock.

The broadcast sampler (``variant="broadcast"``, Anari-Haqi) runs one
full-cover phase and bills an analytic polylog recipe to the dedicated
broadcast-bandwidth ledger category, where the unicast Theorem 1 driver
pays Lenzen-routed message loads across ~sqrt(n) phases. This bench pins
the two claims the variant ships on:

- **rounds-vs-n** -- the broadcast bill stays within a small constant of
  ``broadcast_variant_rounds(n)`` (log^4 n) and undercuts the unicast
  bill at every measured n;
- **wall-clock** -- the single full-cover phase is not a simulation-time
  regression: warm per-draw stays within a small factor of the unicast
  default on the same host (both variants share the phase-numerics
  cache substrate, so warm is the honest comparison).

The two bills are *different bandwidth regimes* -- the ratio reported
here is a scaling observation, never a summable saving (see README
"Communication models").

Acceptance gate (full mode): at the top n, broadcast rounds < unicast
rounds AND broadcast rounds <= 8 x log^4 n. Results land in
``BENCH_broadcast_variant.json``.

Runs standalone (the CI smoke job) or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_broadcast_variant.py --smoke
    pytest benchmarks/bench_broadcast_variant.py --benchmark-only
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
from repro.core.rounds import broadcast_variant_rounds
from repro.graphs.families import build_family

FAMILY = "complete"  # dense path: phase numerics dominate, walks mix fast
FULL_NS = [64, 128, 256]
SMOKE_NS = [16, 32]
WARM_DRAWS = 4
REPEATS = 3
POLYLOG_SLACK = 8.0  # same constant test_polylog_scale_vs_unicast pins
OUTPUT = Path(__file__).resolve().parent / "BENCH_broadcast_variant.json"


def _ell_for(n: int) -> int:
    # Full-cover walks need ~n log n steps of headroom; 8n (a power of
    # two for power-of-two n) covers the grid without Las-Vegas retries.
    return max(1 << 8, 8 * n)


def _measure_variant(graph, variant: str, cache_dir: str) -> dict:
    config = preset_config(
        "fast-bench",
        ell=_ell_for(graph.n),
        cache_dir=cache_dir,
        derived_cache_entries=1024,
        cache_memory_bytes=2 << 30,
    )
    session = Session(graph, config, seed=0)
    request = EnsembleRequest(count=1, seed=0, jobs=1, variant=variant)
    start = time.perf_counter()
    cold = session.run(request)
    cold_seconds = time.perf_counter() - start
    session.run(request)  # warm-up: numerics now cached
    warm_seconds = math.inf
    warm = None
    for __ in range(REPEATS):
        start = time.perf_counter()
        for __ in range(WARM_DRAWS):
            warm = session.run(request)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    result = cold.result.results[0]
    assert warm.result.trees == cold.result.trees  # same-seed determinism
    return {
        "variant": variant,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_per_draw": round(warm_seconds / WARM_DRAWS, 4),
        "rounds": int(result.rounds),
        "phases": int(result.phases),
        "rounds_by_category": {
            k: int(v) for k, v in result.rounds_by_category().items()
        },
    }


def measure_instance(n: int) -> dict:
    """One broadcast/approximate pair over private cache dirs."""
    graph, __ = build_family(FAMILY, n, np.random.default_rng(9100 + n))
    rows = {}
    for variant in ("approximate", "broadcast"):
        cache_dir = tempfile.mkdtemp(prefix=f"bench-broadcast-{variant}-")
        try:
            rows[variant] = _measure_variant(graph, variant, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    polylog = broadcast_variant_rounds(n)
    return {
        "family": FAMILY,
        "n": int(graph.n),
        "ell": _ell_for(n),
        "warm_draws": WARM_DRAWS,
        "approximate": rows["approximate"],
        "broadcast": rows["broadcast"],
        "round_ratio_unicast_over_broadcast": round(
            rows["approximate"]["rounds"]
            / max(rows["broadcast"]["rounds"], 1),
            3,
        ),
        "log4_n": round(polylog, 1),
        "broadcast_rounds_over_log4_n": round(
            rows["broadcast"]["rounds"] / polylog, 3
        ),
    }


def run_benchmark(ns: list[int]) -> dict:
    return {
        "bench": "broadcast_variant",
        "family": FAMILY,
        "ns": ns,
        "polylog_slack": POLYLOG_SLACK,
        "results": [measure_instance(n) for n in ns],
    }


def _render(payload: dict) -> list[str]:
    lines = [
        f"{'n':>5s} {'uni rounds':>10s} {'bc rounds':>10s} {'ratio':>6s} "
        f"{'bc/log^4':>8s} {'uni warm':>9s} {'bc warm':>9s}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['n']:>5d} {row['approximate']['rounds']:>10d} "
            f"{row['broadcast']['rounds']:>10d} "
            f"{row['round_ratio_unicast_over_broadcast']:>5.1f}x "
            f"{row['broadcast_rounds_over_log4_n']:>8.2f} "
            f"{row['approximate']['warm_per_draw']:>9.3f} "
            f"{row['broadcast']['warm_per_draw']:>9.3f}"
        )
    return lines


def _assert_gates(payload: dict) -> None:
    for row in payload["results"]:
        assert set(row["broadcast"]["rounds_by_category"]) == {
            "broadcast-bandwidth"
        }, row
        assert row["broadcast"]["rounds"] < row["approximate"]["rounds"], row
        assert (
            row["broadcast"]["rounds"]
            <= POLYLOG_SLACK * broadcast_variant_rounds(row["n"])
        ), row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small-n grid {SMOKE_NS} for CI (no acceptance assertion)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUTPUT,
        help="output JSON path (default: BENCH_broadcast_variant.json)",
    )
    args = parser.parse_args(argv)
    ns = SMOKE_NS if args.smoke else FULL_NS
    payload = run_benchmark(ns)
    payload["mode"] = "smoke" if args.smoke else "full"
    if not args.smoke:
        _assert_gates(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for line in _render(payload):
        print(line)
    print(f"wrote {args.out}")
    return 0


def test_broadcast_variant(benchmark, report):
    """Pytest-benchmark wrapper with the acceptance gate."""
    payload = {}

    def experiment():
        payload.update(run_benchmark(FULL_NS))
        return payload

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    payload["mode"] = "full"
    _assert_gates(payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report("broadcast vs unicast rounds and wall-clock", _render(payload))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
