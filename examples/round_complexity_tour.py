#!/usr/bin/env python3
"""Round-complexity tour: where do the rounds go, and how do they scale?

Walks through the paper's complexity story on live simulations:

1. per-phase cost breakdown of the Theorem 1 sampler (matmul dominates,
   exactly as Lemma 5 predicts);
2. measured round scaling across n for the approximate and exact variants,
   with fitted exponents next to the claimed 0.5 + alpha and 2/3 + alpha;
3. the doubling algorithm's two Theorem 2 regimes;
4. Corollary 1 on an expander vs the lollipop (small vs huge cover time).

Run:  python examples/round_complexity_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import graphs
from repro.analysis import loglog_fit
from repro.clique.cost import ALPHA
from repro.core import SamplerConfig, sample_tree_fast_cover
from repro.engine import SamplerEngine
from repro.walks import doubling_random_walk

CONFIG = SamplerConfig(ell=1 << 12)


def phase_breakdown() -> None:
    print("=== 1. Where the rounds go (n = 36 complete graph) ===")
    rng = np.random.default_rng(1)
    result = SamplerEngine(graphs.complete_graph(36), CONFIG).run(rng)
    total = result.rounds
    print(f"phases: {result.phases}, total rounds: {total}")
    for category, rounds in result.rounds_by_category().items():
        print(f"  {category:<28s} {rounds:>8d}  ({100 * rounds / total:4.1f}%)")
    print()


def scaling() -> None:
    print("=== 2. Round scaling vs n (expanders) ===")
    rng = np.random.default_rng(2)
    ns = [16, 32, 64, 96]
    approx_rounds, exact_rounds = [], []
    for n in ns:
        g = graphs.random_regular_graph(n, 4, rng=rng)
        approx_rounds.append(SamplerEngine(g, CONFIG).run(rng).rounds)
        exact_rounds.append(
            SamplerEngine(g, CONFIG, variant="exact").run(rng).rounds
        )
        print(
            f"  n={n:<4d} approx={approx_rounds[-1]:>8d} "
            f"exact={exact_rounds[-1]:>8d}"
        )
    slope_a, _ = loglog_fit(ns, approx_rounds)
    slope_e, _ = loglog_fit(ns, exact_rounds)
    print(f"fitted exponent approx: {slope_a:.3f}  (claim: {0.5 + ALPHA:.3f} + polylog)")
    print(f"fitted exponent exact:  {slope_e:.3f}  (claim: {2/3 + ALPHA:.3f} + polylog)")
    print()


def doubling_regimes() -> None:
    print("=== 3. Theorem 2: doubling-walk regimes (n = 64 expander) ===")
    rng = np.random.default_rng(3)
    g = graphs.random_regular_graph(64, 4, rng=rng)
    print(f"  {'tau':>6s} {'rounds':>7s}   regime")
    for tau in (8, 32, 128, 512, 2048):
        result = doubling_random_walk(g, tau, rng)
        regime = "log tau" if tau <= 64 / 6 else "(tau/n) log tau log n"
        print(f"  {tau:>6d} {result.rounds:>7d}   {regime}")
    print()


def fast_cover() -> None:
    print("=== 4. Corollary 1: cover time decides everything (n = 32) ===")
    rng = np.random.default_rng(4)
    for name, g in [
        ("expander", graphs.random_regular_graph(32, 4, rng=rng)),
        ("K_{n-sqrt n, sqrt n}", graphs.complete_bipartite_unbalanced(32)),
        ("lollipop", graphs.lollipop_graph(32)),
    ]:
        result = sample_tree_fast_cover(g, rng)
        print(
            f"  {name:<22s} cover~{result.cover_time_estimate:>9.0f} "
            f"walk={result.walk_length:>7d} rounds={result.rounds:>6d}"
        )
    print(
        "\nThe lollipop's Theta(n^3) cover time is exactly why the paper's "
        "main algorithm exists: Corollary 1 alone cannot be sublinear there."
    )


def main() -> None:
    phase_breakdown()
    scaling()
    doubling_regimes()
    fast_cover()


if __name__ == "__main__":
    main()
