"""Sequential shortcutting sampler (the Kelner-Madry [52] lineage).

The paper's phase structure descends from the sequential shortcutting
idea: once a region of the graph is fully visited, an Aldous-Broder walk
wastes its remaining O(mn) budget re-crossing it, so *shortcut* over
visited vertices by walking the Schur complement of the unvisited region
instead (Sections 1, 1.3; Kelner-Madry [52], Madry-Straszak-Tarnawski
[64], Schild [69]).

:class:`ShortcuttingSampler` is the sequential (non-distributed) version
of that idea built on this library's substrates:

    repeat until every vertex is visited:
        S   := unvisited vertices + current endpoint
        walk Schur(G, S) step by step until rho_eff new vertices appear
        recover each first-visit edge in G through ShortCut(G, S)

It samples exactly the same distribution as Aldous-Broder (every phase
walk is the S-restriction of the underlying G walk), but its *step*
budget is the sum of Schur-walk lengths -- dramatically smaller than the
cover time on bottleneck graphs, which is precisely the effect the
paper's distributed algorithm exploits. Experiment E19 quantifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError, SamplingError
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import TreeKey, is_spanning_tree, tree_key
from repro.linalg.backend import make_linalg_backend, matrix_row
from repro.linalg.shortcut import first_visit_edge_distribution

__all__ = ["ShortcuttingResult", "ShortcuttingSampler"]


@dataclass
class ShortcuttingResult:
    """Tree plus the step-budget evidence for the shortcutting effect."""

    tree: TreeKey
    phases: int
    schur_steps: int
    steps_per_phase: list[int] = field(default_factory=list)
    distinct_per_phase: list[int] = field(default_factory=list)


class ShortcuttingSampler:
    """Exact uniform (or weight-proportional) trees via shortcut walks.

    Parameters
    ----------
    graph:
        Connected input graph.
    rho:
        Distinct vertices per phase; ``None`` uses ``floor(sqrt(n))``
        (the paper's quota). Each phase stops at ``min(rho, |S|)``
        distinct vertices of the phase graph.
    start_vertex:
        The Aldous-Broder root (contributes no first-visit edge).
    linalg_backend:
        Storage for the per-phase derived graphs: ``"dense"`` (default,
        numpy arrays) or ``"sparse"`` (scipy CSR). Both build them with
        the eliminated-block kernel of :mod:`repro.linalg.eliminate`.
        The walk itself only reads rows through the format-agnostic
        accessors, so both backends draw identical trees for the same
        seed.

    Each phase's first-visit edges are drawn from one uniform block
    resolved against per-edge CDFs; the step loop is inverse-CDF too.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        *,
        rho: int | None = None,
        start_vertex: int = 0,
        linalg_backend: str = "dense",
    ) -> None:
        graph.require_connected()
        if graph.n < 2:
            raise GraphError("sampling needs at least 2 vertices")
        if rho is not None and rho < 2:
            raise GraphError(f"rho must be >= 2, got {rho}")
        if not (0 <= start_vertex < graph.n):
            raise GraphError(f"start vertex {start_vertex} out of range")
        self.linalg = make_linalg_backend(linalg_backend)
        self.graph = graph
        self.rho = rho if rho is not None else max(2, math.isqrt(graph.n))
        self.start_vertex = start_vertex

    def sample(self, rng: np.random.Generator | None = None) -> ShortcuttingResult:
        """Sample one tree; returns step-budget diagnostics as well."""
        rng = np.random.default_rng(rng)
        graph = self.graph
        n = graph.n
        visited = {self.start_vertex}
        current = self.start_vertex
        edges: list[tuple[int, int]] = []
        steps_per_phase: list[int] = []
        distinct_per_phase: list[int] = []
        phases = 0
        while len(visited) < n:
            phases += 1
            if phases > 2 * n:
                raise SamplingError(
                    "shortcutting sampler exceeded 2n phases"
                )  # pragma: no cover
            subset = sorted((set(range(n)) - visited) | {current})
            shortcut = self.linalg.shortcut_matrix(graph, subset)
            if len(subset) == n:
                transition = self.linalg.transition_matrix(graph)
                order = list(range(n))
            else:
                transition, order = self.linalg.schur_transition(graph, subset)
            index_of = {v: i for i, v in enumerate(order)}
            rho_eff = min(self.rho, len(subset))
            phase_n = transition.shape[0]

            # Row CDFs are materialized lazily per visited row (and
            # memoized), so the step loop reads whichever matrix type the
            # backend produced without ever densifying the whole thing.
            row_cdfs: dict[int, np.ndarray] = {}

            def cdf(row: int) -> np.ndarray:
                cached = row_cdfs.get(row)
                if cached is None:
                    cached = np.cumsum(matrix_row(transition, row))
                    row_cdfs[row] = cached
                return cached

            walk = [index_of[current]]
            seen = {walk[0]}
            while len(seen) < rho_eff:
                u = rng.random()
                nxt = int(np.searchsorted(cdf(walk[-1]), u, "right"))
                nxt = min(nxt, phase_n - 1)
                walk.append(nxt)
                seen.add(nxt)
            steps_per_phase.append(len(walk) - 1)
            distinct_per_phase.append(len(seen))

            walk_orig = [order[i] for i in walk]
            harvested = {walk_orig[0]}
            steps: list[tuple[int, int]] = []
            for position in range(1, len(walk_orig)):
                v = walk_orig[position]
                if v in harvested:
                    continue
                harvested.add(v)
                steps.append((walk_orig[position - 1], v))
            # One uniform vector covers every first-visit edge the
            # phase harvests. S's mask and into-S weights are functions
            # of (G, S) alone: computed once per phase.
            s_mask = np.zeros(n, dtype=bool)
            s_mask[subset] = True
            weight_into_s = graph.weights[:, s_mask].sum(axis=1)
            uniforms = rng.random(len(steps)) if steps else ()
            for (prev, v), uniform in zip(steps, uniforms):
                neighbors, law = first_visit_edge_distribution(
                    graph, subset, shortcut, prev, v,
                    weight_into_s=weight_into_s, s_mask=s_mask,
                )
                fv_cdf = np.cumsum(law)
                index = int(
                    fv_cdf.searchsorted(uniform * fv_cdf[-1], "right")
                )
                u = int(neighbors[min(index, len(fv_cdf) - 1)])
                edges.append((u, v))
            visited.update(walk_orig)
            current = walk_orig[-1]

        if len(edges) != n - 1 or not is_spanning_tree(graph, edges):
            raise SamplingError(
                "shortcutting sampler produced an invalid tree; this is a bug"
            )  # pragma: no cover
        return ShortcuttingResult(
            tree=tree_key(edges),
            phases=phases,
            schur_steps=sum(steps_per_phase),
            steps_per_phase=steps_per_phase,
            distinct_per_phase=distinct_per_phase,
        )
