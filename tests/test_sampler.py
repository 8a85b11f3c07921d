"""Tests for the end-to-end Theorem 1 sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig, sample_spanning_tree
from repro.engine import SamplerEngine, sample_tree_ensemble
from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs import WeightedGraph, is_spanning_tree

FAST = SamplerConfig(ell=1 << 10)


class TestBasics:
    def test_returns_spanning_tree(self, rng, small_graphs):
        for name, g in small_graphs.items():
            tree = SamplerEngine(g, FAST).run(rng).tree
            assert is_spanning_tree(g, tree), name

    def test_convenience_function(self):
        g = graphs.cycle_with_chord(6)
        tree = sample_spanning_tree(g, rng=0, config=FAST)
        assert is_spanning_tree(g, tree)

    def test_reproducible_given_seed(self):
        g = graphs.cycle_with_chord(6)
        a = sample_spanning_tree(g, rng=7, config=FAST)
        b = sample_spanning_tree(g, rng=7, config=FAST)
        assert a == b

    def test_different_seeds_vary(self):
        g = graphs.complete_graph(6)
        trees = {sample_spanning_tree(g, rng=s, config=FAST) for s in range(8)}
        assert len(trees) > 1

    def test_disconnected_rejected(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            SamplerEngine(g, FAST)

    def test_too_small_rejected(self):
        g = WeightedGraph(np.zeros((1, 1)))
        with pytest.raises(GraphError):
            SamplerEngine(g, FAST)

    def test_bad_variant_rejected(self):
        g = graphs.path_graph(3)
        with pytest.raises(GraphError):
            SamplerEngine(g, FAST, variant="magic")

    def test_bad_start_vertex(self):
        g = graphs.path_graph(3)
        with pytest.raises(GraphError):
            SamplerEngine(g, SamplerConfig(ell=1 << 10, start_vertex=5))

    def test_two_vertex_graph(self, rng):
        g = graphs.path_graph(2)
        tree = SamplerEngine(g, FAST).run(rng).tree
        assert tree == ((0, 1),)

    def test_tree_input_returns_itself(self, rng):
        g = graphs.binary_tree_graph(7)
        from repro.graphs import tree_key

        tree = SamplerEngine(g, FAST).run(rng).tree
        assert tree == tree_key(g.edges())


class TestDiagnostics:
    def test_phase_count_matches_quota(self, rng):
        g = graphs.complete_graph(16)  # rho = 4: 3 new vertices per phase
        result = SamplerEngine(g, FAST).run(rng)
        assert result.phases == 5  # ceil(15 / 3)
        assert len(result.phase_stats) == result.phases
        assert result.rounds == result.ledger.total_rounds()

    def test_phase_stats_consistent(self, rng):
        g = graphs.complete_graph(9)
        result = SamplerEngine(g, FAST).run(rng)
        new_total = sum(len(s.new_vertices) for s in result.phase_stats)
        assert new_total == 8  # every non-start vertex exactly once
        for stats in result.phase_stats:
            assert stats.distinct_visited <= stats.rho_eff

    def test_matmul_dominates_rounds(self, rng):
        g = graphs.complete_graph(12)
        result = SamplerEngine(g, FAST).run(rng)
        categories = result.rounds_by_category()
        assert categories["matmul"] == max(categories.values())

    def test_sections_per_phase(self, rng):
        g = graphs.complete_graph(9)
        result = SamplerEngine(g, FAST).run(rng)
        sections = result.ledger.rounds_by_section()
        assert set(sections) == {
            f"phase-{i}" for i in range(1, result.phases + 1)
        }


class TestConfigurations:
    # "permanent" and "mcmc" were matching-method configs; the matching
    # samplers are oracles now, so those cells run the phase walk with
    # placement resampled by the oracle instead.
    @pytest.mark.parametrize(
        "config,oracle",
        [
            (SamplerConfig(ell=1 << 10), "exact-permanent"),
            (SamplerConfig(ell=1 << 10), "mcmc"),
            (SamplerConfig(ell=1 << 10, rho=3), None),
            (SamplerConfig(ell=1 << 10, start_vertex=2), None),
            (SamplerConfig(ell=1 << 10, precision_bits=48), None),
            (SamplerConfig(ell=1 << 10, matmul_backend="simulated-3d"), None),
        ],
        ids=[
            "permanent", "mcmc", "rho3",
            "start2", "rounded", "simulated-matmul",
        ],
    )
    def test_all_configurations_sample_valid_trees(
        self, rng, config, oracle, oracle_placement
    ):
        if oracle is not None:
            oracle_placement(oracle)
        g = graphs.cycle_with_chord(7)
        tree = SamplerEngine(g, config).run(rng).tree
        assert is_spanning_tree(g, tree)

    def test_start_vertex_respected(self, rng):
        g = graphs.cycle_with_chord(7)
        config = SamplerConfig(ell=1 << 10, start_vertex=3)
        result = SamplerEngine(g, config).run(rng)
        # Vertex 3 never appears as a "new vertex" (it is the global root).
        for stats in result.phase_stats:
            assert 3 not in stats.new_vertices

    def test_simulated_matmul_backend_charges_measured_rounds(self, rng):
        g = graphs.complete_graph(9)
        config = SamplerConfig(ell=1 << 10, matmul_backend="simulated-3d")
        result = SamplerEngine(g, config).run(rng)
        categories = result.rounds_by_category()
        assert categories.get("matmul-simulated", 0) > 0

    def test_weighted_graph_supported(self, rng, weighted_triangle):
        tree = SamplerEngine(weighted_triangle, FAST).run(rng).tree
        assert is_spanning_tree(weighted_triangle, tree)


class TestBatchSampling:
    def test_engine_loop_count_and_validity(self, rng):
        g = graphs.cycle_with_chord(6)
        engine = SamplerEngine(g, FAST)
        results = [engine.run(rng) for _ in range(5)]
        assert len(results) == 5
        for result in results:
            assert is_spanning_tree(g, result.tree)

    def test_cached_ladder_does_not_change_output_or_rounds(self):
        """Caching only reuses floating-point work: the sampled trees and
        the charged rounds are bit-identical to fresh runs."""
        g = graphs.complete_graph(9)
        fresh = [
            SamplerEngine(g, FAST).run(np.random.default_rng(s))
            for s in (1, 2)
        ]
        engine = SamplerEngine(g, FAST)
        cached = [engine.run(np.random.default_rng(s)) for s in (1, 2)]
        for a, b in zip(fresh, cached):
            assert a.tree == b.tree
            assert a.rounds == b.rounds

    def test_sample_trees_shape(self, rng):
        g = graphs.path_graph(4)
        engine = SamplerEngine(g, FAST)
        trees = [engine.run(rng).tree for _ in range(3)]
        assert len(trees) == 3

    def test_count_validation(self, rng):
        g = graphs.path_graph(4)
        with pytest.raises(GraphError):
            sample_tree_ensemble(g, 0, config=FAST, seed=rng)


class TestScaling:
    def test_rounds_grow_sublinearly_in_phase_count(self, rng):
        """More vertices -> more phases -> more rounds, with per-phase cost
        dominated by the analytic matmul charge."""
        small = SamplerEngine(graphs.complete_graph(9), FAST).run(rng)
        large = SamplerEngine(graphs.complete_graph(25), FAST).run(rng)
        assert large.phases > small.phases
        assert large.rounds > small.rounds
