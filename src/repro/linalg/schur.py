"""Schur complement graphs (Definitions 1-2, Corollary 3).

``Schur(G, S)`` is the weighted graph on vertex set ``S`` whose Laplacian is
the Schur complement of ``L(G)`` onto ``S``:

    Schur(L, S) = L_SS - L_{S,Sbar} (L_{Sbar,Sbar})^{-1} L_{Sbar,S}.

Its random walk is distributionally identical to the S-restriction of the
walk on G (Theorem 2.4 of Schild [69], quoted as the motivation for
Definition 1), which is exactly what the sampler's later phases need to skip
over already-visited vertices.

The sampler builds the Schur walk with the eliminated-block kernel
(:func:`repro.linalg.eliminate.schur_transition`), which solves only the
boundary columns of ``L_CS``. The constructions here are the
Definition-level oracles it is tested against:

- :func:`schur_complement_laplacian` -- direct block elimination (the
  definition);
- :func:`schur_by_elimination` -- one-vertex-at-a-time Gaussian elimination
  (Kyng [55], Section 2.3.3), numerically the "star-to-clique" chain;
- :func:`schur_via_qr_product` -- the paper's own CongestedClique route
  (Corollary 3): off-diagonal entries of the transition matrix are
  proportional to ``(Q R)[u, v]`` with Q the shortcut matrix, normalized by
  ``M_u = 1 / (1 - (QR)[u, u])``.

:func:`first_hit_distribution` computes Definition 2 directly from an
absorbing chain and is the semantic ground truth for all of the above.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.core import WeightedGraph
from repro.linalg.eliminate import CLIP, split_subset

__all__ = [
    "schur_complement_laplacian",
    "schur_complement_graph",
    "schur_by_elimination",
    "schur_transition_matrix",
    "schur_via_qr_product",
    "first_hit_distribution",
]

def schur_complement_laplacian(
    laplacian: np.ndarray, subset: Sequence[int]
) -> np.ndarray:
    """Schur complement of a Laplacian onto ``subset`` (Definition 1).

    Returns the ``|S| x |S|`` matrix ``L_SS - L_SC L_CC^{-1} L_CS`` in the
    sorted order of ``subset``. When ``subset`` is everything, returns the
    input unchanged. ``L_CC`` is invertible whenever every eliminated
    component touches S (true for connected graphs).
    """
    s, complement = split_subset(laplacian.shape[0], subset)
    if not complement.size:
        return np.asarray(laplacian, dtype=np.float64).copy()
    l_ss = laplacian[np.ix_(s, s)]
    l_sc = laplacian[np.ix_(s, complement)]
    l_cs = laplacian[np.ix_(complement, s)]
    l_cc = laplacian[np.ix_(complement, complement)]
    try:
        solved = np.linalg.solve(l_cc, l_cs)
    except np.linalg.LinAlgError as exc:
        raise GraphError(
            "Schur complement undefined: eliminated block is singular "
            "(a component of V \\ S is disconnected from S)"
        ) from exc
    return l_ss - l_sc @ solved


def schur_complement_graph(
    graph: WeightedGraph, subset: Sequence[int]
) -> tuple[WeightedGraph, list[int]]:
    """``Schur(G, S)`` as a graph (Definition 1).

    Returns ``(H, order)`` where ``H`` is a WeightedGraph on ``|S|``
    vertices and ``order[i]`` is the original identity of H's vertex ``i``
    (sorted ``subset``). Fact 2.3.6 of [55]: the complement of a Laplacian
    is a Laplacian, so ``H``'s weights are the negated off-diagonal entries
    (clipped at 0 to absorb float noise).
    """
    s, _ = split_subset(graph.n, subset)
    schur = schur_complement_laplacian(graph.laplacian(), s)
    weights = -schur
    np.fill_diagonal(weights, 0.0)
    weights[np.abs(weights) < CLIP] = 0.0
    if np.any(weights < -1e-8):
        raise GraphError(
            "Schur complement produced significantly negative weights; "
            "input Laplacian was not a graph Laplacian"
        )
    weights = np.clip(weights, 0.0, None)
    weights = (weights + weights.T) / 2.0
    return WeightedGraph(weights, validate=False), s


def schur_by_elimination(
    graph: WeightedGraph, subset: Sequence[int]
) -> tuple[WeightedGraph, list[int]]:
    """``Schur(G, S)`` by eliminating one vertex of ``V \\ S`` at a time.

    Gaussian elimination on the Laplacian is associative, so eliminating
    vertices singly must agree with block elimination -- a strong numerical
    cross-check, and the textbook "replace eliminated vertex by a clique on
    its neighbors" operation of [55].
    """
    s, eliminated = split_subset(graph.n, subset)
    weights = graph.weights.copy()
    alive = list(range(graph.n))
    for victim in eliminated.tolist():
        idx = alive.index(victim)
        w_row = weights[idx, :].copy()
        degree = w_row.sum()
        if degree <= 0:
            raise GraphError(
                f"vertex {victim} is isolated from S; Schur complement undefined"
            )
        remaining = [i for i in range(len(alive)) if i != idx]
        w_others = w_row[remaining]
        # Star-to-clique: new weight between a, b += w(v,a) w(v,b) / deg(v).
        update = np.outer(w_others, w_others) / degree
        sub = weights[np.ix_(remaining, remaining)] + update
        np.fill_diagonal(sub, 0.0)
        weights = sub
        alive = [alive[i] for i in remaining]
    if alive != s:
        raise GraphError("elimination order bookkeeping failed")  # pragma: no cover
    weights[np.abs(weights) < CLIP] = 0.0
    return WeightedGraph(weights, validate=False), s


def schur_transition_matrix(
    graph: WeightedGraph, subset: Sequence[int]
) -> tuple[np.ndarray, list[int]]:
    """Transition matrix of the walk on ``Schur(G, S)`` (Definition 2).

    ``S[u, v]`` = probability that ``v`` is the first vertex of
    ``S \\ {u}`` visited by a walk on G started at ``u``. Computed from the
    Schur complement graph; validated against
    :func:`first_hit_distribution` in tests.
    """
    schur_graph, order = schur_complement_graph(graph, subset)
    return schur_graph.transition_matrix().copy(), order


def first_hit_distribution(
    graph: WeightedGraph, subset: Sequence[int], start: int
) -> np.ndarray:
    """Definition 2 computed directly: absorbing-chain first-hit law.

    Returns a length-``|S|`` probability vector over sorted ``subset``:
    entry ``j`` is the probability that ``subset[j]`` is the first vertex
    of ``S \\ {start}`` a walk from ``start`` visits. The ``start`` entry
    is 0 (the paper's S has no self transitions).
    """
    s, _ = split_subset(graph.n, subset)
    if start not in s:
        raise GraphError(f"start vertex {start} must lie in S")
    transition = graph.transition_matrix()
    absorbing = [v for v in s if v != start]
    transient = [v for v in range(graph.n) if v not in set(absorbing)]
    q = transition[np.ix_(transient, transient)]
    r = transition[np.ix_(transient, absorbing)]
    start_idx = transient.index(start)
    identity = np.eye(len(transient))
    try:
        absorbed = np.linalg.solve(identity - q, r)
    except np.linalg.LinAlgError as exc:
        raise GraphError(
            "first-hit distribution undefined: S unreachable from start"
        ) from exc
    row = absorbed[start_idx]
    result = np.zeros(len(s))
    for j, v in enumerate(s):
        if v != start:
            result[j] = row[absorbing.index(v)]
    total = result.sum()
    if total <= 0:
        raise GraphError("walk never reaches S \\ {start}")
    return result / total


def schur_via_qr_product(
    graph: WeightedGraph,
    subset: Sequence[int],
    shortcut_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Corollary 3's construction of the Schur transition matrix.

    With ``Q`` the ShortCut(G, S) transition matrix and ``R`` the
    one-step-into-S matrix

        R[u, v] = 1                 if u = v and deg_S(u) = 0
        R[u, v] = w(u, v) / w_S(u)  if {u, v} in E and v in S
        R[u, v] = 0                 otherwise

    the Schur walk satisfies ``S[u, v] = M_u (QR)[u, v]`` for ``u != v``
    with ``M_u = 1 / (1 - (QR)[u, u])``. (``w_S(u)`` is the weight from
    ``u`` into S; for unweighted graphs this is the paper's ``deg_S(u)``.)
    """
    from repro.linalg.shortcut import shortcut_transition_matrix

    s, _ = split_subset(graph.n, subset)
    if shortcut_matrix is None:
        shortcut_matrix = shortcut_transition_matrix(graph, s)
    n = graph.n
    weights = graph.weights
    weight_into_s = weights[:, s].sum(axis=1)
    r = np.zeros((n, n))
    for u in range(n):
        if weight_into_s[u] <= 0:
            r[u, u] = 1.0
        else:
            r[u, s] = weights[u, s] / weight_into_s[u]
    qr = shortcut_matrix @ r
    sub = qr[np.ix_(s, s)].copy()
    transition = np.zeros_like(sub)
    for i in range(len(s)):
        stay = sub[i, i]
        if stay >= 1.0 - 1e-12:
            raise GraphError(
                f"vertex {s[i]} never reaches S \\ {{itself}}; "
                "Schur transition undefined"
            )
        row = sub[i].copy()
        row[i] = 0.0
        transition[i] = row / (1.0 - stay)
    return transition, s
