"""Cross-module integration tests: whole-pipeline consistency checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core import SamplerConfig, expected_phases, sample_tree_fast_cover
from repro.engine import SamplerEngine
from repro.graphs import is_spanning_tree
from repro.walks import aldous_broder_tree, wilson_tree

FAST = SamplerConfig(ell=1 << 10)


class TestAllSamplersOnAllFamilies:
    """Every sampler must produce valid spanning trees on every family."""

    FAMILIES = [
        ("expander", lambda rng: graphs.random_regular_graph(12, 4, rng=rng)),
        ("gnp", lambda rng: graphs.erdos_renyi_graph(12, rng=rng)),
        ("lollipop", lambda rng: graphs.lollipop_graph(10)),
        ("bipartite", lambda rng: graphs.complete_bipartite_unbalanced(9)),
        ("grid", lambda rng: graphs.grid_graph(3, 3)),
        ("barbell", lambda rng: graphs.barbell_graph(9)),
    ]

    @pytest.mark.parametrize("name, factory", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_family(self, rng, name, factory):
        g = factory(rng)
        samplers = {
            "theorem1": lambda: SamplerEngine(g, FAST).run(rng).tree,
            "exact": lambda: SamplerEngine(g, FAST, variant="exact").run(rng).tree,
            "fastcover": lambda: sample_tree_fast_cover(g, rng).tree,
            "aldous-broder": lambda: aldous_broder_tree(g, rng),
            "wilson": lambda: wilson_tree(g, rng),
        }
        for sampler_name, sampler in samplers.items():
            tree = sampler()
            assert is_spanning_tree(g, tree), (name, sampler_name)


class TestPhaseCountScaling:
    """Theorem 1's Theta(sqrt n) phase structure (part of E1)."""

    def test_phase_counts_track_rho(self, rng):
        for n in (9, 16, 25, 36):
            g = graphs.complete_graph(n)
            result = SamplerEngine(g, FAST).run(rng)
            predicted = expected_phases(n, int(np.sqrt(n)))
            assert result.phases <= 2 * predicted + 1
            assert result.phases >= predicted / 2

    def test_exact_variant_has_more_phases(self, rng):
        g = graphs.complete_graph(27)
        approx = SamplerEngine(g, FAST).run(rng)
        exact = SamplerEngine(g, FAST, variant="exact").run(rng)
        assert exact.phases > approx.phases


class TestRoundAccountingConsistency:
    def test_total_rounds_equal_sum_of_sections(self, rng):
        g = graphs.complete_graph(16)
        result = SamplerEngine(g, FAST).run(rng)
        by_section = result.ledger.rounds_by_section()
        assert sum(by_section.values()) == result.rounds

    def test_clique_stats_reported(self, rng):
        g = graphs.complete_graph(9)
        result = SamplerEngine(g, FAST).run(rng)
        assert result.clique_stats["steps"] > 0
        assert result.clique_stats["rounds"] == result.rounds
