#!/usr/bin/env python3
"""Application demo: spectral sparsification from random spanning trees.

One of the paper's motivating applications (Section 1, citing [23, 33,
41]): unions of uniformly random spanning trees make good graph
sparsifiers. This script builds a k-tree sparsifier of a dense graph with
the CongestedClique sampler and measures spectral quality -- the ratio
range of Laplacian quadratic forms x^T L_H x / x^T L_G x over random test
vectors -- against (a) a same-size uniform random edge set and (b) the
random-weight MST strawman.

Run:  python examples/sparsifier_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import graphs
from repro.core import SamplerConfig
from repro.engine import SamplerEngine
from repro.graphs import WeightedGraph
from repro.walks import random_weight_mst_tree


def union_sparsifier(graph: WeightedGraph, trees: list) -> WeightedGraph:
    """Union of tree edge sets, each edge kept with weight = multiplicity."""
    weights = np.zeros((graph.n, graph.n))
    for tree in trees:
        for u, v in tree:
            weights[u, v] += 1.0
            weights[v, u] += 1.0
    return WeightedGraph(weights, validate=False)


def spectral_ratio_range(
    sparse: WeightedGraph, dense: WeightedGraph, rng: np.random.Generator
) -> tuple[float, float]:
    """Range of x^T L_H x / x^T L_G x over random mean-zero test vectors."""
    l_sparse, l_dense = sparse.laplacian(), dense.laplacian()
    ratios = []
    for _ in range(400):
        x = rng.normal(size=dense.n)
        x -= x.mean()
        denominator = x @ l_dense @ x
        if denominator < 1e-12:
            continue
        ratios.append((x @ l_sparse @ x) / denominator)
    return min(ratios), max(ratios)


def random_edge_graph(
    graph: WeightedGraph, num_edges: int, rng: np.random.Generator
) -> WeightedGraph:
    edges = list(graph.edges())
    chosen = rng.choice(len(edges), size=min(num_edges, len(edges)), replace=False)
    weights = np.zeros((graph.n, graph.n))
    for index in chosen:
        u, v = edges[int(index)]
        weights[u, v] = weights[v, u] = 1.0
    return WeightedGraph(weights, validate=False)


def main() -> None:
    rng = np.random.default_rng(99)
    n, k = 28, 6
    dense = graphs.erdos_renyi_graph(n, p=0.5, rng=rng)
    print(f"dense input: G(n={n}, p=0.5), m={dense.m} edges")
    print(f"building sparsifiers with ~{k * (n - 1)} edges each\n")

    config = SamplerConfig(ell=1 << 12)
    engine = SamplerEngine(dense, config)
    uniform_trees = [engine.run(rng).tree for _ in range(k)]
    mst_trees = [random_weight_mst_tree(dense, rng) for _ in range(k)]

    candidates = {
        "k uniform spanning trees": union_sparsifier(dense, uniform_trees),
        "k random-weight MSTs": union_sparsifier(dense, mst_trees),
        "same-size random edges": random_edge_graph(dense, k * (n - 1), rng),
    }
    print(f"{'sparsifier':<28s} {'m':>5s} {'min ratio':>10s} {'max ratio':>10s} {'spread':>8s}")
    for name, sparse in candidates.items():
        low, high = spectral_ratio_range(sparse, dense, rng)
        spread = high / max(low, 1e-9)
        print(f"{name:<28s} {sparse.m:>5d} {low:>10.3f} {high:>10.3f} {spread:>8.1f}")

    print(
        "\nUniform-tree unions concentrate the quadratic form (small "
        "spread); uniform random edges of the same budget can disconnect "
        "or badly distort it. This is the sparsification story that "
        "motivates fast uniform tree sampling."
    )


if __name__ == "__main__":
    main()
