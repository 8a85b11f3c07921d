"""Tests for shortcut graphs (Definition 3, Corollary 2, Algorithm 4 law)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.errors import GraphError
from repro.linalg import (
    first_visit_edge_distribution,
    shortcut_transition_matrix,
    shortcut_via_power_iteration,
)


class TestFigure2:
    """Right-hand side of Figure 2: every vertex shortcuts to C (E6)."""

    def test_all_transitions_to_hub(self):
        g = graphs.figure2_graph()
        q = shortcut_transition_matrix(g, [0, 1, 3])
        expected = np.zeros((4, 4))
        expected[:, 2] = 1.0  # C has index 2
        assert np.allclose(q, expected)


class TestExactConstruction:
    def test_rows_stochastic(self, small_graphs):
        for name, g in small_graphs.items():
            subset = sorted({0, g.n - 1})
            q = shortcut_transition_matrix(g, subset)
            assert np.allclose(q.sum(axis=1), 1.0), name

    def test_full_subset_is_identity(self):
        """S = V: the walk enters S at its first step, so x_{j-1} = x_0."""
        g = graphs.cycle_with_chord(6)
        q = shortcut_transition_matrix(g, range(6))
        assert np.allclose(q, np.eye(6))

    def test_path_deterministic_shortcut(self):
        # Path 0-1-2-3 with S = {0, 3}: from 3 the pre-entry vertex of the
        # first S-visit must be adjacent to S.
        g = graphs.path_graph(4)
        q = shortcut_transition_matrix(g, [0, 3])
        # From vertex 1: either step to 0 now (pre-entry = 1) or wander.
        assert q[1, 1] > 0
        assert np.allclose(q[1, [0, 3]], 0.0)  # S vertices are never pre-entry
        # Pre-entry vertex must neighbor S: only 1 and 2 (and never 0/3).
        assert q[1, 1] + q[1, 2] == pytest.approx(1.0)

    def test_monte_carlo_agreement(self, rng):
        """Definition 3 checked against direct walk simulation."""
        g = graphs.cycle_with_chord(6)
        subset = [0, 3]
        q = shortcut_transition_matrix(g, subset)
        start = 1
        counts = np.zeros(g.n)
        trials = 4000
        transition = g.transition_matrix()
        cumulative = np.cumsum(transition, axis=1)
        in_s = set(subset)
        for _ in range(trials):
            prev, current = start, start
            while True:
                u = rng.random()
                nxt = int(np.searchsorted(cumulative[current], u, "right"))
                nxt = min(nxt, g.n - 1)
                prev, current = current, nxt
                if current in in_s:
                    counts[prev] += 1
                    break
        empirical = counts / trials
        assert np.allclose(empirical, q[start], atol=0.04)


class TestPowerIteration:
    """Corollary 2's auxiliary-chain approximation (E14)."""

    def test_matches_exact(self, small_graphs):
        for name, g in small_graphs.items():
            subset = sorted({0, g.n - 1})
            exact = shortcut_transition_matrix(g, subset)
            approx = shortcut_via_power_iteration(g, subset, beta=1e-13)
            assert np.allclose(exact, approx, atol=1e-8), name

    def test_beta_validation(self):
        g = graphs.path_graph(4)
        with pytest.raises(GraphError):
            shortcut_via_power_iteration(g, [0], beta=2.0)


class TestFirstVisitEdgeDistribution:
    """Algorithm 4's Bayes law."""

    def test_sums_to_one(self):
        g = graphs.cycle_with_chord(6)
        subset = [0, 2, 4]
        q = shortcut_transition_matrix(g, subset)
        neighbors, law = first_visit_edge_distribution(g, subset, q, 0, 2)
        assert sorted(neighbors) == sorted(g.neighbors(2))
        assert law.sum() == pytest.approx(1.0)
        assert np.all(law >= 0)

    def test_full_subset_returns_previous_vertex(self):
        """Phase 1 degenerate case: the edge is the walk edge itself."""
        g = graphs.cycle_with_chord(6)
        q = shortcut_transition_matrix(g, range(6))
        neighbors, law = first_visit_edge_distribution(g, range(6), q, 1, 2)
        chosen = {u for u, p in zip(neighbors, law) if p > 0}
        assert chosen == {1}

    def test_new_vertex_must_be_in_subset(self):
        g = graphs.path_graph(4)
        q = shortcut_transition_matrix(g, [0, 3])
        with pytest.raises(GraphError):
            first_visit_edge_distribution(g, [0, 3], q, 0, 2)

    def test_monte_carlo_agreement(self, rng):
        """The sampled entering edge matches direct simulation of G-walks.

        Take G-walks from prev until they first hit S; conditioned on
        hitting at v, record the predecessor; compare to the Bayes law.
        """
        g = graphs.cycle_with_chord(6)
        subset = [0, 3]
        q = shortcut_transition_matrix(g, subset)
        prev_vertex, new_vertex = 0, 3
        neighbors, law = first_visit_edge_distribution(
            g, subset, q, prev_vertex, new_vertex
        )
        transition = g.transition_matrix()
        cumulative = np.cumsum(transition, axis=1)
        counts = {u: 0 for u in neighbors}
        hits = 0
        for _ in range(6000):
            prev, current = prev_vertex, prev_vertex
            while True:
                u = rng.random()
                nxt = int(np.searchsorted(cumulative[current], u, "right"))
                nxt = min(nxt, g.n - 1)
                prev, current = current, nxt
                if current in (0, 3):
                    break
            if current == new_vertex:
                counts[prev] += 1
                hits += 1
        empirical = np.array([counts[u] / hits for u in neighbors])
        assert np.allclose(empirical, law, atol=0.05)


class TestFirstVisitHoisting:
    """The phase-hoisted S mask and into-S weights change no bit."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_hoisted_call_is_bit_equal_to_unhoisted(self, sparse):
        rng = np.random.default_rng(11)
        n = 30
        base = graphs.erdos_renyi_graph(n, 0.3, rng)
        weights = base.weights * rng.uniform(0.5, 3.0, size=(n, n))
        graph = graphs.WeightedGraph(np.triu(weights, 1) + np.triu(weights, 1).T)
        subset = sorted(int(v) for v in rng.choice(n, size=17, replace=False))
        q = shortcut_transition_matrix(graph, subset)
        if sparse:
            import scipy.sparse as sp

            q = sp.csr_matrix(q)
        s_mask = np.zeros(n, dtype=bool)
        s_mask[subset] = True
        weight_into_s = graph.weights[:, s_mask].sum(axis=1)
        compared = 0
        for prev in subset:
            for v in subset:
                hoist = {"weight_into_s": weight_into_s, "s_mask": s_mask}
                try:
                    plain = first_visit_edge_distribution(
                        graph, subset, q, prev, v
                    )
                except GraphError:
                    with pytest.raises(GraphError):
                        first_visit_edge_distribution(
                            graph, subset, q, prev, v, **hoist
                        )
                    continue
                hoisted = first_visit_edge_distribution(
                    graph, subset, q, prev, v, **hoist
                )
                assert list(hoisted[0]) == list(plain[0])
                assert hoisted[1].tobytes() == plain[1].tobytes()
                compared += 1
        assert compared > len(subset)

    def test_hoisted_mask_still_rejects_vertices_outside_s(self):
        g = graphs.path_graph(4)
        q = shortcut_transition_matrix(g, [0, 3])
        s_mask = np.asarray([True, False, False, True])
        with pytest.raises(GraphError):
            first_visit_edge_distribution(g, [0, 3], q, 0, 2, s_mask=s_mask)
