"""Direction 4: the conceptually simpler doubling-phase sampler.

Section 1.4's fourth improvement direction: Theorem 2 builds a length-n
walk in polylog rounds, and Barnes-Feige [8] guarantees such a walk
visits Omega(n^{1/3}) distinct vertices on *unweighted* graphs -- so one
could hope to cover the graph in O(n^{2/3}) phases of "take a length-n
doubling walk on the Schur complement, record first-visit edges, recurse
on the unvisited part". The paper does not pursue this because (a) the
Barnes-Feige bound is not known for the weighted Schur complements that
appear after phase 1, and (b) even if it held, the resulting
O~(n^{2/3} + n^{2/3} n^alpha) rounds would be worse than Theorem 1.

We implement it anyway, as the paper's proposed future-work algorithm:
it is a correct sampler regardless (every phase walk is a genuine stopped
walk, so Aldous-Broder first-visit extraction stays exact) -- only its
*round complexity* is conjectural. The per-phase distinct-vertex counts
it reports are exactly the data point the paper says is missing (how
Barnes-Feige behaves on Schur complements); the E15 bench records them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.clique.network import CongestedClique
from repro.errors import GraphError, SamplingError
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import TreeKey, is_spanning_tree, tree_key
from repro.linalg.eliminate import schur_weights, shortcut
from repro.linalg.shortcut import first_visit_edge_distribution
from repro.walks.doubling import doubling_random_walk

__all__ = ["Direction4Result", "Direction4Sampler"]


@dataclass
class Direction4Result:
    """Tree + the per-phase evidence Direction 4 asks about."""

    tree: TreeKey
    rounds: int
    phases: int
    distinct_per_phase: list[int] = field(default_factory=list)
    walk_length_per_phase: list[int] = field(default_factory=list)


class Direction4Sampler:
    """Spanning trees via per-phase length-Theta(n) doubling walks.

    Each phase:

    1. form the Schur complement of G onto the unvisited region (plus the
       current endpoint), exactly as the main sampler does;
    2. build a length-``walk_factor * n`` walk on it with the
       load-balanced doubling algorithm (Theorem 2);
    3. harvest first-visit edges through the shortcut graph (Algorithm 4)
       and continue from the walk's endpoint.

    Correctness matches the main sampler (stopped walks + Aldous-Broder);
    only the *phase count* is heuristic. ``distinct_per_phase`` lets the
    caller check the Barnes-Feige n^{1/3} floor empirically on the
    weighted Schur complements where no bound is proven.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        *,
        walk_factor: float = 1.0,
        start_vertex: int = 0,
    ) -> None:
        graph.require_connected()
        if graph.n < 2:
            raise GraphError("sampling needs at least 2 vertices")
        if walk_factor <= 0:
            raise GraphError("walk_factor must be positive")
        if not (0 <= start_vertex < graph.n):
            raise GraphError(f"start vertex {start_vertex} out of range")
        self.graph = graph
        self.walk_factor = walk_factor
        self.start_vertex = start_vertex

    def sample(self, rng: np.random.Generator | None = None) -> Direction4Result:
        """Sample one spanning tree; phases are capped at 4n as a guard."""
        rng = np.random.default_rng(rng)
        graph = self.graph
        n = graph.n
        clique = CongestedClique(n)
        ledger = clique.ledger
        walk_length = max(2, int(math.ceil(self.walk_factor * n)))

        visited = {self.start_vertex}
        current = self.start_vertex
        edges: list[tuple[int, int]] = []
        distinct_per_phase: list[int] = []
        walk_lengths: list[int] = []
        phases = 0
        while len(visited) < n:
            phases += 1
            if phases > 4 * n:
                raise SamplingError("Direction 4 sampler exceeded 4n phases")
            subset = sorted((set(range(n)) - visited) | {current})
            with ledger.section(f"phase-{phases}"):
                q = shortcut(graph.transition_matrix(), subset)
                if len(subset) == n:
                    phase_graph = graph
                    order = list(range(n))
                else:
                    weights, order = schur_weights(graph.laplacian(), subset)
                    phase_graph = WeightedGraph(weights, validate=False)
                    # Section 2.4 charge for the derived graphs.
                    ledger.charge_matmul(
                        2 * n, count=max(1, math.ceil(math.log2(n**3))),
                        note="derived graphs",
                    )
                index_of = {v: i for i, v in enumerate(order)}
                if phase_graph.n == 2:
                    # Doubling needs a non-trivial graph; a 2-vertex Schur
                    # complement has a forced walk.
                    local_walk = [index_of[current], 1 - index_of[current]]
                else:
                    result = doubling_random_walk(
                        phase_graph, walk_length, rng, clique=clique,
                    )
                    local_walk = result.walk(index_of[current])
                walk_orig = [order[i] for i in local_walk]
                seen = {walk_orig[0]}
                steps: list[tuple[int, int]] = []
                for position in range(1, len(walk_orig)):
                    v = walk_orig[position]
                    if v in seen:
                        continue
                    seen.add(v)
                    steps.append((walk_orig[position - 1], v))
                # One uniform vector covers every first-visit edge the
                # phase harvests. S's mask and into-S weights are
                # functions of (G, S) alone: computed once per phase.
                s_mask = np.zeros(n, dtype=bool)
                s_mask[subset] = True
                weight_into_s = graph.weights[:, s_mask].sum(axis=1)
                uniforms = rng.random(len(steps)) if steps else ()
                for (prev, v), uniform in zip(steps, uniforms):
                    neighbors, law = first_visit_edge_distribution(
                        graph, subset, q, prev, v,
                        weight_into_s=weight_into_s, s_mask=s_mask,
                    )
                    cdf = np.cumsum(law)
                    index = int(cdf.searchsorted(uniform * cdf[-1], "right"))
                    u = int(neighbors[min(index, len(cdf) - 1)])
                    edges.append((u, v))
                distinct_per_phase.append(len(seen))
                walk_lengths.append(len(walk_orig) - 1)
                visited.update(walk_orig)
                current = walk_orig[-1]

        if len(edges) != n - 1 or not is_spanning_tree(graph, edges):
            raise SamplingError(
                "Direction 4 sampler produced an invalid tree; this is a bug"
            )  # pragma: no cover
        return Direction4Result(
            tree=tree_key(edges),
            rounds=ledger.total_rounds(),
            phases=phases,
            distinct_per_phase=distinct_per_phase,
            walk_length_per_phase=walk_lengths,
        )
