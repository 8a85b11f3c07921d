"""The sublinear-round CongestedClique spanning-tree sampler (Theorem 1).

:func:`sample_spanning_tree` is the one-call entry point over the
execution engine (:class:`repro.engine.runner.SamplerEngine`), which runs
the full algorithm:

    phase k (Outline 3):
      1. S := unvisited vertices + the previous phase's final vertex
      2. compute Schur(G, S) and ShortCut(G, S) transition matrices
         (Section 2.4; O~(n^alpha) rounds each, charged analytically)
      3. power ladder S, S^2, ..., S^ell (Lemma 7)
      4. distributed truncated walk on Schur(G, S) visiting
         rho_eff = min(rho, |S|) distinct vertices (Sections 2.1.3)
      5. Algorithm 4: sample each newly visited vertex's first-visit edge
         in G via the shortcut matrix + Bayes' rule

    after O(sqrt(n)) phases every vertex has a first-visit edge; those
    edges form the sampled spanning tree (Aldous-Broder).

The variants (Theorem 1's ``"approximate"``, Appendix 5's ``"exact"``,
the Anari-Haqi ``"broadcast"`` sampler) are parameters of that one phase
loop, defined in the :mod:`repro.core.variants` registry.

All communication is charged to a :class:`~repro.clique.cost.RoundLedger`
through a :class:`~repro.clique.network.CongestedClique`. For the tree
plus its diagnostics (round ledger, phase stats) call
``SamplerEngine(graph, config, variant=...).run(rng)``; a loop of
``engine.run(rng)`` over one engine shares its derived-graph cache
across draws. Seed-spawned, multi-process batches go through
:func:`~repro.engine.ensemble.sample_tree_ensemble`, and services through
:class:`repro.api.Session`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SamplerConfig
from repro.engine.results import SampleResult
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import TreeKey

__all__ = ["SampleResult", "sample_spanning_tree"]


def sample_spanning_tree(
    graph: WeightedGraph,
    rng: np.random.Generator | int | None = None,
    *,
    config: SamplerConfig | None = None,
    variant: str = "approximate",
) -> TreeKey:
    """One-call convenience API: sample a spanning tree of ``graph``.

    Unweighted graphs yield the uniform distribution over spanning trees;
    positive-integer-weighted graphs (footnote 1) yield trees with
    probability proportional to the product of edge weights. ``variant``
    is any engine-driven name from :mod:`repro.core.variants`.
    """
    from repro.engine.runner import SamplerEngine

    engine = SamplerEngine(graph, config, variant=variant)
    return engine.run(np.random.default_rng(rng)).tree
