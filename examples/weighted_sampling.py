#!/usr/bin/env python3
"""Weighted spanning-tree sampling (footnote 1 of the paper).

The paper's algorithms extend to positive integer edge weights bounded by
W = O(n^beta): the target distribution weights each tree by the product
of its edge weights, and walks step along edges proportionally. This demo
samples from a weighted graph with all three samplers and compares the
empirical tree law against the exact weight-proportional distribution --
including how a single heavy edge dominates the tree mass.

Run:  python examples/weighted_sampling.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import empirical_tree_distribution, tv_distance
from repro.core import SamplerConfig
from repro.engine import SamplerEngine
from repro.graphs import WeightedGraph, count_spanning_trees, uniform_tree_distribution
from repro.walks import wilson_tree


def main() -> None:
    rng = np.random.default_rng(23)
    # A 5-cycle with one heavy (weight 8) edge and one chord (weight 2):
    # integer weights per footnote 1.
    graph = WeightedGraph.from_edges(
        5,
        [(0, 1, 8.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0),
         (0, 2, 2.0)],
    )
    graph.validate_integer_weights(max_weight=8)
    target = uniform_tree_distribution(graph)
    print(f"weighted 5-cycle + chord; total tree weight "
          f"{count_spanning_trees(graph):.0f}, {len(target)} trees")
    heaviest = max(target, key=target.get)
    print(f"heaviest tree {heaviest} carries {target[heaviest]:.3f} "
          "of the mass\n")

    config = SamplerConfig(ell=1 << 10)
    n_samples = 1500
    theorem1 = SamplerEngine(graph, config)
    exact = SamplerEngine(graph, config, variant="exact")
    samplers = {
        "theorem1": lambda r: theorem1.run(r).tree,
        "exact (appendix)": lambda r: exact.run(r).tree,
        "wilson (reference)": lambda r: wilson_tree(graph, r),
    }
    print(f"{'sampler':<20s} {'TV to weighted law':>19s} "
          f"{'P(heaviest tree)':>17s}")
    for name, sampler in samplers.items():
        trees = [sampler(rng) for _ in range(n_samples)]
        empirical = empirical_tree_distribution(trees)
        tv = tv_distance(empirical, dict(target))
        print(f"{name:<20s} {tv:>19.4f} "
              f"{empirical.get(heaviest, 0.0):>17.3f}")
    print(
        "\nAll samplers concentrate on the heavy-edge trees exactly as the "
        "weight-proportional law dictates (footnote 1)."
    )


if __name__ == "__main__":
    main()
