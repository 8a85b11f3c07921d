"""repro: Sublinear-Time Sampling of Spanning Trees in the Congested Clique.

A full reproduction of Pemmaraju, Roy & Sobel (PODC 2025,
arXiv:2411.13334): the first o(n)-round algorithm for sampling an
(approximately) uniform spanning tree in the CongestedClique model,
together with every substrate it relies on -- a message-level
CongestedClique simulator with round accounting, Schur-complement and
shortcut graphs, weighted-perfect-matching samplers, the load-balanced
doubling walk builder, and the classical sequential baselines.

Quick start::

    import numpy as np
    from repro import graphs, sample_spanning_tree

    g = graphs.random_regular_graph(32, 4, rng=np.random.default_rng(0))
    tree = sample_spanning_tree(g, rng=0)   # canonical edge tuple

Every sampler variant (``"approximate"``, ``"exact"``, ``"broadcast"``)
runs on one engine: ``repro.engine.SamplerEngine(g, config,
variant=...).run(rng)`` returns the tree with its round ledger and phase
diagnostics, :func:`repro.engine.sample_tree_ensemble` fans seed-spawned
batches over worker processes, and :class:`repro.api.Session` is the
service-facing surface over both.

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-claim-by-claim reproduction results.
"""

from repro import analysis, api, clique, engine, graphs, linalg, matching, walks
from repro.api import Session
from repro.core import (
    FastCoverResult,
    SampleResult,
    SamplerConfig,
    sample_spanning_tree,
    sample_tree_fast_cover,
)
from repro.errors import ReproError
from repro.graphs import WeightedGraph

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "api",
    "Session",
    "clique",
    "engine",
    "graphs",
    "linalg",
    "matching",
    "walks",
    "FastCoverResult",
    "SampleResult",
    "SamplerConfig",
    "sample_spanning_tree",
    "sample_tree_fast_cover",
    "ReproError",
    "WeightedGraph",
    "__version__",
]
