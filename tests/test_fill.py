"""Tests for top-down walk filling (Outline 1 / Section 2.1.2).

Lemma 1 and Lemma 2 are statements of distributional equality with plain
step-by-step walks; the tests here verify them statistically and check all
structural invariants of :class:`PartialWalk`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import graphs
from repro.errors import WalkError
from repro.linalg import PowerLadder
from repro.walks import (
    PartialWalk,
    fill_walk,
    random_walk,
    sample_bridge,
    sample_midpoint,
    truncated_fill_walk,
    walk_until_distinct,
)
from repro.walks.fill import _truncate_at_distinct


class TestPartialWalk:
    def test_target_length(self):
        walk = PartialWalk(4, [0, 1, 2])
        assert walk.target_length == 8
        assert not walk.is_complete
        assert PartialWalk(1, [0, 1]).is_complete

    def test_pairs(self):
        walk = PartialWalk(2, [0, 1, 1, 3])
        assert walk.pairs() == [(0, 1), (1, 1), (1, 3)]

    def test_distinct_count(self):
        assert PartialWalk(1, [0, 1, 0, 2]).distinct_count() == 3

    def test_validation(self):
        with pytest.raises(WalkError):
            PartialWalk(0, [0])
        with pytest.raises(WalkError):
            PartialWalk(1, [])


class TestTruncation:
    def test_truncates_at_first_occurrence(self):
        walk = PartialWalk(1, [0, 1, 0, 2, 1, 3])
        truncated = _truncate_at_distinct(walk, 3)
        assert truncated.vertices == [0, 1, 0, 2]

    def test_no_truncation_when_below_quota(self):
        walk = PartialWalk(1, [0, 1, 0, 1])
        assert _truncate_at_distinct(walk, 3).vertices == [0, 1, 0, 1]

    def test_quota_one_truncates_to_start(self):
        walk = PartialWalk(1, [0, 1, 2])
        assert _truncate_at_distinct(walk, 1).vertices == [0]


class TestSampleMidpoint:
    def test_law_matches_formula(self, rng):
        g = graphs.cycle_with_chord(5)
        p = g.transition_matrix()
        half = p @ p  # midpoints of length-4 gaps use P^2
        draws = Counter(sample_midpoint(half, 0, 2, rng, count=5000))
        law = half[0, :] * half[:, 2]
        law = law / law.sum()
        for v, probability in enumerate(law):
            assert draws[v] / 5000 == pytest.approx(probability, abs=0.03)

    def test_impossible_gap_raises(self, rng):
        g = graphs.path_graph(4)  # bipartite: odd-parity pairs impossible
        p = g.transition_matrix()
        with pytest.raises(WalkError):
            sample_midpoint(p, 0, 1, rng)  # P[0,x] P[x,1] = 0 for all x


class TestFillWalk:
    def test_is_valid_walk(self, rng):
        g = graphs.cycle_with_chord(6)
        ladder = PowerLadder(g.transition_matrix(), 16)
        walk = fill_walk(ladder, 0, rng)
        assert len(walk) == 17
        assert walk[0] == 0
        assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))

    def test_matches_direct_walk_distribution(self, rng):
        """Lemma 1: filled walks are distributed as step-by-step walks.

        Compared via the joint law of (vertex at time 2, vertex at time 4)
        on a small graph.
        """
        g = graphs.cycle_with_chord(5)
        ladder = PowerLadder(g.transition_matrix(), 4)
        n_samples = 4000
        filled = Counter(
            (w[2], w[4])
            for w in (fill_walk(ladder, 0, rng) for _ in range(n_samples))
        )
        direct = Counter(
            (w[2], w[4])
            for w in (random_walk(g, 0, 4, rng) for _ in range(n_samples))
        )
        keys = set(filled) | set(direct)
        tv = 0.5 * sum(
            abs(filled[k] / n_samples - direct[k] / n_samples) for k in keys
        )
        assert tv < 0.06


class TestSampleBridge:
    def test_endpoints_honored(self, rng):
        g = graphs.complete_graph(5)
        ladder = PowerLadder(g.transition_matrix(), 8)
        for end in range(5):
            bridge = sample_bridge(ladder, 0, end, rng)
            assert bridge[0] == 0
            assert bridge[-1] == end
            assert len(bridge) == 9
            assert all(g.has_edge(a, b) for a, b in zip(bridge, bridge[1:]))

    def test_shorter_length_from_ladder(self, rng):
        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 16)
        bridge = sample_bridge(ladder, 1, 2, rng, length=4)
        assert len(bridge) == 5

    def test_impossible_bridge_raises(self, rng):
        g = graphs.path_graph(4)  # bipartite
        ladder = PowerLadder(g.transition_matrix(), 4)
        with pytest.raises(WalkError):
            sample_bridge(ladder, 0, 1, rng, length=4)  # parity mismatch

    def test_distribution_matches_conditioned_walks(self, rng):
        """Bridge law == plain walk law conditioned on the endpoint,
        compared on the middle vertex of length-4 bridges over K4."""
        from collections import Counter

        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 4)
        n_samples = 3000
        bridged = Counter(
            sample_bridge(ladder, 0, 1, rng)[2] for _ in range(n_samples)
        )
        conditioned: Counter = Counter()
        while sum(conditioned.values()) < n_samples:
            walk = random_walk(g, 0, 4, rng)
            if walk[-1] == 1:
                conditioned[walk[2]] += 1
        total = sum(conditioned.values())
        tv = 0.5 * sum(
            abs(bridged[v] / n_samples - conditioned[v] / total)
            for v in range(4)
        )
        assert tv < 0.06


class TestTruncatedFillWalk:
    def test_stops_at_quota(self, rng):
        g = graphs.cycle_with_chord(6)
        ladder = PowerLadder(g.transition_matrix(), 64)
        for _ in range(20):
            walk = truncated_fill_walk(ladder, 0, 3, rng)
            distinct = len(set(walk))
            if distinct == 3:
                # Ends exactly at the first occurrence of the 3rd vertex.
                assert walk.count(walk[-1]) == 1
            else:
                # Quota unmet: the walk ran its full nominal length.
                assert len(walk) == 65
            assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:]))

    def test_matches_direct_stopped_walk(self, rng):
        """Lemma 2: the truncated fill equals the stopped plain walk.

        Compared via the joint law of (stopping time, final vertex), using
        a nominal length far above the stopping time so truncation always
        happens.
        """
        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 256)
        rho = 3
        n_samples = 3000
        filled = Counter()
        for _ in range(n_samples):
            walk = truncated_fill_walk(ladder, 0, rho, rng)
            filled[(len(walk) if len(walk) < 12 else 12, walk[-1])] += 1
        direct = Counter()
        for _ in range(n_samples):
            walk = walk_until_distinct(g, 0, rho, rng)
            direct[(len(walk) if len(walk) < 12 else 12, walk[-1])] += 1
        keys = set(filled) | set(direct)
        tv = 0.5 * sum(
            abs(filled[k] / n_samples - direct[k] / n_samples) for k in keys
        )
        assert tv < 0.06

    def test_rho_validation(self, rng):
        g = graphs.path_graph(3)
        ladder = PowerLadder(g.transition_matrix(), 4)
        with pytest.raises(WalkError):
            truncated_fill_walk(ladder, 0, 0, rng)


class TestPrecisionTruncatedLadder:
    """Both sequential fillers accept a Lemma 7 truncated ladder, whose
    rounded ``P^ell`` rows need not sum to 1 (the end law is normalized
    before sampling, as the distributed phase already does)."""

    @staticmethod
    def _ladder() -> PowerLadder:
        graph = graphs.complete_graph(9)
        ladder = PowerLadder(graph.transition_matrix(), 16, bits=8)
        assert abs(float(ladder.power(16)[0].sum()) - 1.0) > 1e-3
        return ladder

    def test_fill_walk(self):
        ladder = self._ladder()
        graph = graphs.complete_graph(9)
        for seed in range(5):
            walk = fill_walk(ladder, 0, np.random.default_rng(seed))
            assert len(walk) == 17 and walk[0] == 0
            assert all(graph.has_edge(a, b) for a, b in zip(walk, walk[1:]))

    def test_truncated_fill_walk(self):
        ladder = self._ladder()
        for seed in range(5):
            walk = truncated_fill_walk(
                ladder, 0, 4, np.random.default_rng(seed)
            )
            assert walk[0] == 0 and len(set(walk)) <= 4
