"""Tests for the exact sampler (Appendix 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig, sample_spanning_tree
from repro.engine import SamplerEngine
from repro.graphs import is_spanning_tree

FAST = SamplerConfig(ell=1 << 10)


class TestBasics:
    def test_returns_spanning_tree(self, rng, small_graphs):
        for name, g in small_graphs.items():
            tree = SamplerEngine(g, FAST, variant="exact").run(rng).tree
            assert is_spanning_tree(g, tree), name

    def test_convenience_function(self):
        g = graphs.cycle_with_chord(6)
        tree = sample_spanning_tree(g, rng=3, config=FAST, variant="exact")
        assert is_spanning_tree(g, tree)

    def test_diagnostics_shape(self, rng):
        g = graphs.complete_graph(8)
        result = SamplerEngine(g, FAST, variant="exact").run(rng)
        assert result.phases == len(result.phase_stats)
        assert result.rounds > 0

    def test_variant_flag(self):
        g = graphs.path_graph(4)
        assert SamplerEngine(g, FAST, variant="exact").variant == "exact"


class TestRhoCubeRoot:
    def test_rho_smaller_than_approximate(self, rng):
        """rho = n^(1/3) < n^(1/2): more phases than the approximate
        variant on the same graph."""
        g = graphs.complete_graph(27)
        exact = SamplerEngine(g, FAST, variant="exact").run(rng)
        approx = SamplerEngine(g, FAST).run(rng)
        # rho_exact = 3 -> 13 phases; rho_approx = 5 -> 7 phases.
        assert exact.phases > approx.phases
        assert all(s.rho_eff <= 3 for s in exact.phase_stats)

    def test_no_extension_failures_degrade_tree(self, rng):
        """Short nominal walks force extensions; trees stay valid."""
        g = graphs.cycle_graph(12)
        config = SamplerConfig(ell=1 << 5)
        for _ in range(5):
            tree = SamplerEngine(g, config, variant="exact").run(rng).tree
            assert is_spanning_tree(g, tree)


class TestPrecisionFallback:
    def test_brute_force_fallback_triggers_and_is_correct(self, rng):
        """An absurdly high normalizer floor makes every level fail the
        Section 5.2 check; the sampler must fall back and still produce
        valid trees (charging the collect-the-network rounds)."""
        g = graphs.cycle_with_chord(6)
        config = SamplerConfig(ell=1 << 8, normalizer_floor_exponent=0.1)
        engine = SamplerEngine(g, config, variant="exact")
        result = engine.run(rng)
        assert is_spanning_tree(g, result.tree)
        assert any(s.brute_force_fallbacks > 0 for s in result.phase_stats)
        assert result.rounds_by_category().get("fallback/collect-network", 0) > 0
