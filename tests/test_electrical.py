"""Tests for the electrical-network substrate (resistances, leverage)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.errors import GraphError
from repro.graphs import hitting_time_matrix, uniform_tree_distribution
from repro.graphs.electrical import (
    commute_time,
    cover_time_resistance_bound,
    edge_leverage_scores,
    effective_resistance,
    effective_resistance_matrix,
    foster_sum,
    laplacian_pseudoinverse,
)


class TestPseudoinverse:
    def test_pseudoinverse_identities(self, small_graphs):
        for name, g in small_graphs.items():
            laplacian = g.laplacian()
            pinv = laplacian_pseudoinverse(g)
            assert np.allclose(
                laplacian @ pinv @ laplacian, laplacian, atol=1e-7
            ), name
            # Kernel: the all-ones vector.
            assert np.allclose(pinv @ np.ones(g.n), 0.0, atol=1e-8), name


class TestEffectiveResistance:
    def test_single_edge(self):
        g = graphs.path_graph(2)
        assert effective_resistance(g, 0, 1) == pytest.approx(1.0)

    def test_series_law(self):
        # Path of k unit edges: R(0, k) = k.
        g = graphs.path_graph(5)
        assert effective_resistance(g, 0, 4) == pytest.approx(4.0)

    def test_parallel_law(self):
        # Two parallel unit paths of length 2: R = (2 * 2) / (2 + 2) = 1.
        g = graphs.theta_graph(2, 2, 1)
        # Between the two terminals: 1-edge path in parallel with two
        # 2-edge paths: 1 || 2 || 2 = 1 / (1 + 1/2 + 1/2) = 0.5.
        assert effective_resistance(g, 0, 1) == pytest.approx(0.5)

    def test_complete_graph_closed_form(self):
        # K_n: R(u, v) = 2 / n.
        for n in (3, 5, 8):
            g = graphs.complete_graph(n)
            assert effective_resistance(g, 0, 1) == pytest.approx(2.0 / n)

    def test_weighted_edge(self, weighted_triangle):
        # Triangle weights: (0,1)=1, (1,2)=2, (0,2)=3. R(0,1):
        # direct 1 ohm || series (1/3 + 1/2) ohm -> (1 * 5/6) / (1 + 5/6).
        expected = (1.0 * (5.0 / 6.0)) / (1.0 + 5.0 / 6.0)
        assert effective_resistance(weighted_triangle, 0, 1) == pytest.approx(
            expected
        )

    def test_triangle_inequality(self, small_graphs):
        """Effective resistance is a metric."""
        for name, g in small_graphs.items():
            r = effective_resistance_matrix(g)
            n = g.n
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert r[u, w] <= r[u, v] + r[v, w] + 1e-9, name

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            effective_resistance(graphs.path_graph(3), 0, 5)


class TestCommuteTime:
    def test_matches_hitting_times(self, small_graphs):
        """C(u, v) = H(u, v) + H(v, u) = 2 W R_eff(u, v) [18]."""
        for name, g in small_graphs.items():
            hitting = hitting_time_matrix(g)
            for u, v in [(0, g.n - 1), (0, 1)]:
                if u == v:
                    continue
                expected = hitting[u, v] + hitting[v, u]
                assert commute_time(g, u, v) == pytest.approx(
                    expected, rel=1e-6
                ), name


class TestFoster:
    def test_foster_theorem(self, small_graphs):
        """sum_e w(e) R_eff(e) = n - 1 on every connected graph."""
        for name, g in small_graphs.items():
            assert foster_sum(g) == pytest.approx(g.n - 1, rel=1e-8), name

    def test_foster_weighted(self, weighted_triangle):
        assert foster_sum(weighted_triangle) == pytest.approx(2.0)


class TestLeverageScores:
    def test_marginals_match_enumeration(self, small_graphs):
        """P(e in T) over enumerated trees equals w(e) R_eff(e)."""
        for name, g in small_graphs.items():
            target = uniform_tree_distribution(g)
            leverage = edge_leverage_scores(g)
            for edge, score in leverage.items():
                marginal = sum(
                    p for tree, p in target.items() if edge in tree
                )
                assert marginal == pytest.approx(score, abs=1e-8), (name, edge)

    def test_bridge_has_leverage_one(self):
        g = graphs.path_graph(4)
        for score in edge_leverage_scores(g).values():
            assert score == pytest.approx(1.0)

    def test_scores_in_unit_interval(self, rng):
        g = graphs.erdos_renyi_graph(20, rng=rng)
        for score in edge_leverage_scores(g).values():
            assert 0.0 < score <= 1.0 + 1e-9


class TestCoverBound:
    def test_dominates_empirical(self, rng):
        from repro.graphs import empirical_cover_time

        for g in (graphs.complete_graph(8), graphs.cycle_graph(10)):
            bound = cover_time_resistance_bound(g)
            empirical = empirical_cover_time(g, trials=10, rng=rng)
            assert bound >= empirical * 0.5  # bound is asymptotic; mild slack


class TestSamplerMarginalsAgainstLeverage:
    """The second validation axis: sampler edge frequencies vs closed-form
    leverage scores -- works on graphs too big to enumerate."""

    @pytest.mark.slow
    def test_theorem1_sampler_edge_marginals(self):
        from repro.core import SamplerConfig
        from repro.engine import SamplerEngine

        rng = np.random.default_rng(77)
        g = graphs.wheel_graph(8)
        leverage = edge_leverage_scores(g)
        engine = SamplerEngine(g, SamplerConfig(ell=1 << 10))
        n_samples = 600
        counts = {edge: 0 for edge in leverage}
        for _ in range(n_samples):
            for edge in engine.run(rng).tree:
                counts[edge] += 1
        for edge, score in leverage.items():
            assert counts[edge] / n_samples == pytest.approx(
                score, abs=0.08
            ), edge


@given(n=st.integers(3, 9), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_foster_property_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    g = graphs.erdos_renyi_graph(n, p=0.7, rng=rng)
    assert foster_sum(g) == pytest.approx(n - 1, rel=1e-7)
