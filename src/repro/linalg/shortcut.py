"""Shortcut graphs (Definition 3, Corollary 2, Algorithm 4 support).

``ShortCut(G, S)`` is the directed weighted graph on ``V`` whose transition
matrix ``Q`` satisfies

    Q[u, v] = Pr[ x_{j-1} = v ]   where j = min{ i > 0 : x_i in S }

for a walk ``x_0 = u, x_1, ...`` on G: the law of the vertex visited
*immediately before* the walk's first (time >= 1) entry into S. The sampler
uses Q with Bayes' rule to recover first-visit edges in G from transitions
of the Schur walk (Section 2.2).

The sampler builds Q with the eliminated-block kernel
(:func:`repro.linalg.eliminate.shortcut`). The two Definition-level
constructions here are the oracles it is tested against:

- :func:`shortcut_transition_matrix` -- exact, via the fundamental matrix
  of the "entering S absorbs" chain: with ``Ptilde`` equal to P with all
  columns in S zeroed, ``G = (I - Ptilde)^{-1}`` counts expected
  pre-absorption visits, and ``Q[u, v] = G[u, v] * P[v, S]``. It inverts
  the full ``n x n`` matrix.
- :func:`shortcut_via_power_iteration` -- the paper's own Corollary 2
  construction: a 2n-vertex auxiliary absorbing chain R whose limit
  ``R^inf[u', v'']`` equals ``Q[u, v]``, approximated by repeated squaring
  to subtractive error beta.

:func:`first_visit_edge_distribution` (Algorithm 4's Bayes rule over Q)
is production code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.core import WeightedGraph
from repro.linalg.eliminate import split_subset

__all__ = [
    "shortcut_transition_matrix",
    "shortcut_via_power_iteration",
    "first_visit_edge_distribution",
]


def shortcut_transition_matrix(
    graph: WeightedGraph, subset: Sequence[int]
) -> np.ndarray:
    """Exact ``Q`` for ``ShortCut(G, S)`` (Definition 3).

    Derivation: the pre-absorption visit counts of the chain that stops on
    entering S are ``G = sum_t Ptilde^t = (I - Ptilde)^{-1}`` (the ``t = 0``
    term covers ``j = 1``, where ``x_{j-1} = x_0 = u``). Conditioning each
    visit on stepping into S next gives ``Q[u, v] = G[u, v] * P[v, S]``.
    Rows of Q sum to 1 whenever every vertex can reach S.
    """
    s, _ = split_subset(graph.n, subset)
    transition = graph.transition_matrix()
    into_s = transition[:, s].sum(axis=1)
    p_tilde = transition.copy()
    p_tilde[:, s] = 0.0
    identity = np.eye(graph.n)
    try:
        visits = np.linalg.inv(identity - p_tilde)
    except np.linalg.LinAlgError as exc:
        raise GraphError(
            "shortcut matrix undefined: some vertex cannot reach S"
        ) from exc
    q = visits * into_s[None, :]
    row_sums = q.sum(axis=1)
    if np.any(row_sums < 1.0 - 1e-6):
        raise GraphError(
            "shortcut matrix rows do not sum to 1; S unreachable from "
            "some vertex"
        )
    return q / row_sums[:, None]


def shortcut_via_power_iteration(
    graph: WeightedGraph,
    subset: Sequence[int],
    *,
    beta: float = 1e-12,
    max_squarings: int = 128,
) -> np.ndarray:
    """Corollary 2's CongestedClique-friendly approximation of ``Q``.

    Builds the auxiliary chain on ``L + R`` copies of V:

        R[u'', u''] = 1                      (absorbed states)
        R[u', v'] = P[u, v]   if v not in S  (keep walking)
        R[u', u''] = P[u, S]                 (about to enter S -> absorb at u)

    and repeatedly squares it; ``R^inf[u', v''] = Q[u, v]``. Squaring stops
    once successive iterates differ by at most ``beta`` (subtractive
    under-approximation, as in the paper's error analysis).
    """
    if not (0 < beta < 1):
        raise GraphError(f"beta must be in (0, 1), got {beta}")
    s, _ = split_subset(graph.n, subset)
    n = graph.n
    transition = graph.transition_matrix()
    into_s = transition[:, s].sum(axis=1)
    aux = np.zeros((2 * n, 2 * n))
    # L copies occupy indices 0..n-1, R copies n..2n-1.
    aux[:n, :n] = transition
    aux[:n, s] = 0.0  # steps into S are redirected ...
    aux[np.arange(n), n + np.arange(n)] = into_s  # ... to the absorbing copy
    aux[n + np.arange(n), n + np.arange(n)] = 1.0
    current = aux
    for _ in range(max_squarings):
        squared = current @ current
        if np.max(np.abs(squared - current)) <= beta:
            current = squared
            break
        current = squared
    q = current[:n, n:]
    row_sums = q.sum(axis=1)
    if np.any(row_sums < 0.5):
        raise GraphError(
            "power iteration failed to absorb; is S reachable everywhere?"
        )
    return q / row_sums[:, None]


def first_visit_edge_distribution(
    graph: WeightedGraph,
    subset: Sequence[int],
    shortcut,
    prev_s_vertex: int,
    new_vertex: int,
    *,
    weight_into_s: np.ndarray | None = None,
    s_mask: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray]:
    """Algorithm 4's Bayes-rule law for a first-visit edge.

    Given that the Schur walk stepped ``prev_s_vertex -> new_vertex`` (the
    first visit to ``new_vertex``), the G-edge ``(u, new_vertex)`` used to
    enter ``new_vertex`` has

        Pr[u] proportional to Q[prev, u] * w(u, new_vertex) / w_S(u)

    over G-neighbors ``u`` of ``new_vertex`` (for unweighted graphs the
    ratio is the paper's ``1 / deg_S(u)``). ``shortcut`` may be a dense
    array or a scipy CSR matrix (the linalg backends hand over either).
    Returns (neighbors, probabilities).

    ``weight_into_s`` optionally carries the precomputed per-vertex
    into-S weights ``graph.weights[:, S].sum(axis=1)``: the vector is a
    function of ``(G, S)`` only, so a phase drawing several first-visit
    edges (one per new vertex) can compute it once instead of per edge.
    The per-row pairwise sums are the ones this function would compute
    itself, so passing it never changes the sampled law.

    ``s_mask`` optionally carries S as a length-n boolean membership
    mask, precomputed once per phase like ``weight_into_s``; without it
    every call sorts and validates ``subset`` again. Masked columns come
    out in ascending order, as the sorted S does, so the law is
    bit-equal either way.
    """
    from repro.linalg.backend import matrix_row

    if s_mask is None:
        s, _ = split_subset(graph.n, subset)
        s_mask = np.zeros(graph.n, dtype=bool)
        s_mask[s] = True
    if not s_mask[new_vertex]:
        raise GraphError(f"new vertex {new_vertex} must lie in S")
    neighbors = list(graph.neighbors(new_vertex))
    if not neighbors:
        raise GraphError(f"vertex {new_vertex} has no neighbors")
    from_prev = matrix_row(shortcut, prev_s_vertex)
    # One vectorized pass over the neighbor rows. Each row's masked sum
    # uses the same pairwise reduction as the scalar per-vertex sum did,
    # so the probabilities (and therefore sampled trees) are bit-equal
    # to the historical per-neighbor Python loop -- which made this an
    # O(n^2)-per-edge hot spot at interpreter speed.
    neighbor_idx = np.asarray(neighbors, dtype=np.intp)
    if weight_into_s is None:
        into_s = graph.weights[neighbor_idx][:, s_mask].sum(axis=1)
    else:
        into_s = np.asarray(weight_into_s)[neighbor_idx]
    feasible = into_s > 0  # no S-neighbor => cannot be the entry edge
    weights = np.zeros(len(neighbors))
    np.divide(
        np.asarray(from_prev)[neighbor_idx]
        * graph.weights[neighbor_idx, new_vertex],
        into_s,
        out=weights,
        where=feasible,
    )
    total = weights.sum()
    if total <= 0:
        raise GraphError(
            f"no feasible first-visit edge into {new_vertex} from "
            f"{prev_s_vertex}; shortcut matrix inconsistent with S"
        )
    return neighbors, weights / total
