"""Load-balanced doubling random walks (Section 3, Theorem 2).

The Doubling algorithm of Bahmani, Chakrabarti, and Xin [7] builds a
length-tau walk in O(log tau) merge iterations: every vertex starts with k
length-1 walks; each iteration pairs the first k/2 walks (prefixes) with
the last k/2 walks (suffixes) *index-wise* -- prefix ``W_u^i`` ending at
``v`` merges with suffix ``W_v^{k-i+1}`` -- so that after log k iterations
every vertex holds one length-k walk.

The paper's contribution is the *load balancing*: instead of sending every
tuple to the machine named by its key (which on skewed graphs, e.g. a
star, concentrates Theta(n k) tuples on one machine), both sides of each
prospective merge are routed to ``h_s(key)`` for a shared ``8 c log
n``-wise independent hash ``h_s`` whose O(log^2 n)-bit seed machine 1
broadcasts each iteration. Lemma 10: every machine then receives at most
``16 c k log n`` tuples w.h.p., which Lenzen routing turns into the
Theorem 2 round bounds.

This module simulates the algorithm at message level: walk contents are
computed exactly, and *all* traffic (seed broadcast, tuple scatter, merged
walk return) is converted into rounds from true per-machine word loads.
Set ``load_balanced=False`` for the naive key-addressed variant -- the
ablation baseline of experiment E8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.clique.hashing import KWiseHashFamily
from repro.clique.network import CongestedClique
from repro.clique.routing import broadcast_rounds, lenzen_rounds
from repro.errors import GraphError, WalkError
from repro.graphs.core import WeightedGraph
from repro.graphs.covertime import cover_time_bound
from repro.graphs.spanning import TreeKey, tree_key
from repro.linalg.backend import matrix_row
from repro.walks.sequential import first_visit_edges

__all__ = ["IterationStats", "DoublingResult", "doubling_random_walk",
           "spanning_tree_via_doubling"]


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration accounting for Theorem 2 / Lemma 10 validation."""

    k: int
    eta: int
    max_tuples_received: int
    max_words_received: int
    rounds: int


@dataclass
class DoublingResult:
    """Output of the doubling algorithm.

    ``walks[v]`` is the final length-``k_initial`` random walk starting at
    vertex ``v`` (vertex sequence, length ``k_initial + 1``). Walks from
    different vertices are mutually dependent (shared suffixes) but each
    is individually a faithful random walk -- exactly the guarantee of [7].
    """

    walks: np.ndarray
    rounds: int
    iterations: list[IterationStats] = field(default_factory=list)

    def walk(self, start: int) -> list[int]:
        """The constructed walk originating at ``start``."""
        return [int(v) for v in self.walks[start]]

    @property
    def length(self) -> int:
        """Number of steps in each constructed walk."""
        return self.walks.shape[1] - 1

    @property
    def max_tuples_received(self) -> int:
        """Worst per-machine tuple load over all iterations (Lemma 10)."""
        return max((it.max_tuples_received for it in self.iterations), default=0)


def _initial_walks(
    graph: WeightedGraph,
    k: int,
    rng: np.random.Generator,
    transition=None,
) -> np.ndarray:
    """Every vertex draws k independent length-1 walks (random edges).

    ``transition`` may be a pre-built walk matrix in any backend format
    (dense ndarray or scipy CSR); rows are extracted through the
    format-agnostic accessor so the draw sequence is identical either
    way. ``None`` builds the dense matrix from the graph.

    One uniform block covers the whole step (one generator invocation),
    and each vertex's k edges are resolved by ``searchsorted`` against
    its row's cumulative law.
    """
    n = graph.n
    if transition is None:
        transition = graph.transition_matrix()
    walks = np.empty((n, k, 2), dtype=np.int64)
    walks[:, :, 0] = np.arange(n)[:, None]
    block = rng.random((n, k))
    for v in range(n):
        cdf = np.cumsum(matrix_row(transition, v))
        draws = cdf.searchsorted(block[v] * cdf[-1], "right")
        walks[v, :, 1] = np.minimum(draws, n - 1)
    return walks


def doubling_random_walk(
    graph: WeightedGraph,
    tau: int,
    rng: np.random.Generator | None = None,
    *,
    load_balanced: bool = True,
    independence_c: int = 1,
    clique: CongestedClique | None = None,
    transition=None,
) -> DoublingResult:
    """Run (load-balanced) Doubling to build walks of length >= tau.

    Parameters
    ----------
    graph:
        Connected input graph; machine ``i`` hosts vertex ``i``.
    tau:
        Required walk length; rounded up to the next power of two ``k``.
    load_balanced:
        True (default) routes merge tuples through the k-wise hash
        (Section 3); False reproduces the naive key-addressed Doubling
        whose hot spots Lemma 11's analysis is contrasted against.
    independence_c:
        The ``c`` in the ``8 c log n``-wise independence of the hash
        family (Lemma 10 gives failure probability ``n^{-2c}``).
    clique:
        Optional simulator to charge; a fresh one is created otherwise.
    transition:
        Optional pre-built walk matrix in any linalg-backend format
        (dense or CSR); ``None`` builds the dense one from the graph.

    Returns
    -------
    DoublingResult
        Final walks, total rounds, and per-iteration load statistics.
    """
    graph.require_connected()
    if graph.n < 2:
        raise GraphError("doubling needs at least 2 vertices")
    if tau < 1:
        raise WalkError(f"walk length must be >= 1, got {tau}")
    rng = np.random.default_rng(rng)
    n = graph.n
    if clique is None:
        clique = CongestedClique(n)
    ledger = clique.ledger

    k = 1 << max(0, math.ceil(math.log2(tau)))
    eta = 1
    walks = _initial_walks(graph, k, rng, transition)
    iterations: list[IterationStats] = []
    rounds_before = ledger.total_rounds()

    while k > 1:
        k2 = k // 2
        iteration_rounds = 0

        # Step 1: machine 1 broadcasts the O(log^2 n)-bit hash seed.
        if load_balanced:
            independence = max(2, 8 * independence_c * math.ceil(math.log2(n)))
            family = KWiseHashFamily(
                independence, domain_size=n * (k + 1) + k + 1,
                codomain_size=n, rng=rng,
            )
            seed_words = max(1, math.ceil(len(family.seed_bits) / 8))
            seed_rounds = broadcast_rounds(seed_words, n)
            ledger.charge("doubling/seed-broadcast", seed_rounds)
            iteration_rounds += seed_rounds
        else:
            family = None

        js = np.arange(k2)
        prefix_ends = walks[:, :k2, -1]  # shape (n, k2)
        # 1-based partner index of prefix j (0-based) is k - j.
        if family is not None:
            prefix_keys = prefix_ends * (k + 1) + (k - js)[None, :]
            prefix_dest = family.many(prefix_keys.ravel()).reshape(n, k2)
            suffix_keys = (
                np.arange(n)[:, None] * (k + 1) + (js + k2 + 1)[None, :]
            )
            suffix_dest = family.many(suffix_keys.ravel()).reshape(n, k2)
        else:
            prefix_dest = prefix_ends.copy()
            suffix_dest = None  # suffixes stay with their owner

        # Steps 2-3 load accounting: each tuple costs (eta + 1) walk words
        # plus a 2-word (owner, index) header.
        tuple_words = (eta + 1) + 2
        recv_tuples = np.bincount(prefix_dest.ravel(), minlength=n)
        send_tuples = np.full(n, k2, dtype=np.int64)
        if suffix_dest is not None:
            recv_tuples += np.bincount(suffix_dest.ravel(), minlength=n)
            send_tuples += k2
        scatter_rounds = lenzen_rounds(
            int(send_tuples.max()) * tuple_words,
            int(recv_tuples.max()) * tuple_words,
            n,
        )
        ledger.charge("doubling/scatter", scatter_rounds)
        iteration_rounds += scatter_rounds

        # Step 4: the machine holding each merge key concatenates and
        # returns the merged walk to the prefix owner.
        merged_words = (2 * eta + 1) + 2
        merges_at = np.bincount(prefix_dest.ravel(), minlength=n)
        return_rounds = lenzen_rounds(
            int(merges_at.max()) * merged_words,
            k2 * merged_words,
            n,
        )
        ledger.charge("doubling/return", return_rounds)
        iteration_rounds += return_rounds

        # Perform the merges exactly: prefix (v, j) + suffix
        # (end, k - j - 1 zero-based) with the duplicated junction vertex
        # dropped.
        partner_index = k - 1 - js  # 0-based index of 1-based k - j
        suffix_rows = walks[prefix_ends, partner_index[None, :], :]
        merged = np.concatenate([walks[:, :k2, :], suffix_rows[:, :, 1:]], axis=2)

        iterations.append(
            IterationStats(
                k=k,
                eta=eta,
                max_tuples_received=int(recv_tuples.max()),
                max_words_received=int(recv_tuples.max()) * tuple_words,
                rounds=iteration_rounds,
            )
        )
        walks = merged
        k = k2
        eta *= 2

    total_rounds = ledger.total_rounds() - rounds_before
    return DoublingResult(
        walks=walks[:, 0, :], rounds=total_rounds, iterations=iterations
    )


def spanning_tree_via_doubling(
    graph: WeightedGraph,
    rng: np.random.Generator | None = None,
    *,
    walk_length: int | None = None,
    max_attempts: int = 8,
    clique: CongestedClique | None = None,
) -> tuple[TreeKey, DoublingResult]:
    """Corollary 1: spanning tree sampling in O~(tau / n) rounds.

    Builds a doubling walk of length ``walk_length`` (default: 4x the
    Matthews cover-time bound) from vertex 0 and extracts its first-visit
    edges. If the walk fails to cover the graph the length doubles and the
    algorithm retries (a Las-Vegas wrapper; each retry also charges its
    rounds). For graphs with cover time O(n log n) -- expanders, G(n, p),
    K_{n - sqrt(n), sqrt(n)} -- the default length keeps the total at
    O(polylog n) rounds.
    """
    graph.require_connected()
    rng = np.random.default_rng(rng)
    if walk_length is None:
        walk_length = max(4 * int(math.ceil(cover_time_bound(graph))), graph.n)
    if clique is None:
        clique = CongestedClique(graph.n)
    combined_iterations: list[IterationStats] = []
    total_rounds = 0
    for _ in range(max_attempts):
        result = doubling_random_walk(graph, walk_length, rng, clique=clique)
        combined_iterations.extend(result.iterations)
        total_rounds += result.rounds
        walk = result.walk(0)
        edges = first_visit_edges(walk)
        if len(edges) == graph.n - 1:
            final = DoublingResult(
                walks=result.walks,
                rounds=total_rounds,
                iterations=combined_iterations,
            )
            return tree_key(edges), final
        walk_length *= 2
    raise WalkError(
        f"doubling walk failed to cover the graph after {max_attempts} "
        "doublings of the walk length"
    )
