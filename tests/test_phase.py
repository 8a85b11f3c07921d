"""Tests for the distributed phase driver (Outline 3 steps 1-5)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import graphs
from repro.clique import CongestedClique
from repro.core import SamplerConfig
from repro.core.phase import PhaseStats, run_phase_walk
from repro.errors import SamplingError
from repro.linalg import PowerLadder
from repro.walks import walk_until_distinct


class TestPhaseWalkStructure:
    def test_stops_at_quota(self, rng):
        g = graphs.cycle_with_chord(6)
        config = SamplerConfig(ell=64)
        transition = g.transition_matrix()
        for _ in range(10):
            walk = run_phase_walk(transition, 0, 3, config, rng)
            assert len(set(walk)) == 3
            assert walk.count(walk[-1]) == 1  # first occurrence of 3rd
            assert walk[0] == 0
            assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))

    def test_rho_validation(self, rng):
        g = graphs.path_graph(4)
        with pytest.raises(SamplingError):
            run_phase_walk(g.transition_matrix(), 0, 1, SamplerConfig(), rng)

    def test_error_policy_raises_on_short_walks(self, rng):
        g = graphs.cycle_graph(16)  # cover time >> 4 steps
        config = SamplerConfig(ell=4, on_failure="error")
        with pytest.raises(SamplingError):
            for _ in range(20):
                run_phase_walk(g.transition_matrix(), 0, 8, config, rng)

    def test_extension_policy_always_reaches_quota(self, rng):
        g = graphs.cycle_graph(16)
        config = SamplerConfig(ell=8, on_failure="extend")
        stats = PhaseStats(subset_size=16, rho_eff=8)
        walk = run_phase_walk(
            g.transition_matrix(), 0, 8, config, rng, stats=stats
        )
        assert len(set(walk)) == 8
        assert stats.extensions >= 0
        assert stats.walk_length == len(walk) - 1

    def test_respects_supplied_ladder(self, rng):
        g = graphs.complete_graph(5)
        ladder = PowerLadder(g.transition_matrix(), 32)
        walk = run_phase_walk(
            g.transition_matrix(), 0, 4, SamplerConfig(), rng, ladder=ladder
        )
        assert len(set(walk)) == 4


class TestPhaseWalkDistribution:
    """The distributed phase walk must match the stopped plain walk law
    (the composition of Lemmas 1-4)."""

    @pytest.mark.parametrize("exact_placement", [False, True])
    def test_matches_stopped_walk(self, rng, exact_placement):
        g = graphs.complete_graph(4)
        config = SamplerConfig(ell=256)
        transition = g.transition_matrix()
        rho = 3
        n_samples = 1500

        def signature(walk):
            return (min(len(walk), 10), walk[-1], walk[1])

        distributed = Counter(
            signature(
                run_phase_walk(
                    transition, 0, rho, config, rng,
                    exact_placement=exact_placement,
                )
            )
            for _ in range(n_samples)
        )
        direct = Counter(
            signature(walk_until_distinct(g, 0, rho, rng))
            for _ in range(n_samples)
        )
        keys = set(distributed) | set(direct)
        tv = 0.5 * sum(
            abs(distributed[k] / n_samples - direct[k] / n_samples)
            for k in keys
        )
        assert tv < 0.09

    def test_extended_walk_matches_stopped_walk(self):
        """A nominal length far below the cover time forces Appendix 5.1
        extensions on most draws (each keeping the full quota); the
        concatenated, cut walk still has the stopped-walk law."""
        from statutil import assert_same_tree_law

        g = graphs.cycle_with_chord(8)
        transition = g.transition_matrix()
        rho = 6
        rng = np.random.default_rng(3)

        def signature(walk):
            return (min(len(walk), 12), walk[-1])

        extensions = 0
        distributed = []
        for _ in range(2000):
            stats = PhaseStats(subset_size=8, rho_eff=rho)
            walk = run_phase_walk(
                transition, 0, rho, SamplerConfig(ell=4), rng, stats=stats
            )
            extensions += stats.extensions
            distributed.append(signature(walk))
        direct = [
            signature(walk_until_distinct(g, 0, rho, rng))
            for _ in range(2000)
        ]
        assert extensions > 2000  # the extension path really ran
        assert_same_tree_law(distributed, direct, label="extended walks")

    def test_mcmc_matching_also_correct(self, rng, oracle_placement):
        """The phase walk with placement resampled by the MCMC oracle."""
        g = graphs.complete_graph(4)
        # Explicit proposal budget: the default 10 B^3 across every level
        # of every sample makes this test needlessly slow, and these
        # instances (B <= ~8) mix in far fewer proposals.
        oracle_placement("mcmc", mcmc_steps=600)
        config = SamplerConfig(ell=64)
        transition = g.transition_matrix()
        n_samples = 1000
        distributed = Counter(
            run_phase_walk(transition, 0, 3, config, rng)[-1]
            for _ in range(n_samples)
        )
        direct = Counter(
            walk_until_distinct(g, 0, 3, rng)[-1] for _ in range(n_samples)
        )
        tv = 0.5 * sum(
            abs(distributed[v] / n_samples - direct[v] / n_samples)
            for v in range(4)
        )
        assert tv < 0.08


class TestRoundAccounting:
    def test_clique_charged(self, rng):
        g = graphs.complete_graph(6)
        clique = CongestedClique(6)
        config = SamplerConfig(ell=64)
        run_phase_walk(
            g.transition_matrix(), 0, 3, config, rng, clique=clique
        )
        categories = clique.ledger.rounds_by_category()
        assert categories.get("midpoints/requests", 0) > 0
        assert categories.get("truncation/aggregate", 0) > 0
        assert categories.get("init/sample-end", 0) > 0

    def test_stats_populated(self, rng):
        g = graphs.complete_graph(6)
        stats = PhaseStats(subset_size=6, rho_eff=3)
        run_phase_walk(
            g.transition_matrix(), 0, 3, SamplerConfig(ell=64), rng,
            stats=stats,
        )
        assert stats.levels > 0
        assert stats.distinct_visited == 3
