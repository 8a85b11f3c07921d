"""Tests for midpoint placement (Lemmas 3-4, Appendix 5.3).

The production fronts place every midpoint from the bank; the matching
samplers and the per-pair shuffle are exercised through the resampling
oracle :func:`repro.core.placement.resample_placement`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import graphs
from repro.core.midpoints import MidpointBank
from repro.core.placement import (
    place_by_pair_multisets,
    place_midpoints,
    resample_placement,
)
from repro.core.truncation import LevelView, find_truncation_index
from repro.linalg import PowerLadder


def build_level(rng, vertices, spacing=4, graph=None):
    g = graph if graph is not None else graphs.complete_graph(5)
    ladder = PowerLadder(g.transition_matrix(), spacing)
    from repro.walks.fill import PartialWalk

    walk = PartialWalk(spacing, vertices)
    pair_counts: dict = {}
    for pair in walk.pairs():
        pair_counts[pair] = pair_counts.get(pair, 0) + 1
    half = ladder.power(spacing // 2)
    bank = MidpointBank(pair_counts, half, rng)
    return LevelView(walk, bank), half


class TestBankPlacement:
    """The production front reads every position from the bank."""

    @pytest.mark.parametrize(
        "front", [place_midpoints, place_by_pair_multisets]
    )
    def test_every_position_is_the_banks(self, rng, front):
        view, half = build_level(rng, [0, 2, 0, 3, 1])
        t_star = find_truncation_index(view, 4)
        state = rng.bit_generator.state
        result = front(view, t_star)
        assert result.spacing == 2
        assert result.vertices == [view.value_at(t) for t in range(t_star + 1)]
        assert rng.bit_generator.state == state  # no randomness drawn


@pytest.mark.parametrize("method", ["exact-dp", "exact-permanent", "mcmc"])
class TestPlaceMidpoints:
    """The resampling oracle keeps the protocol's structure."""

    def test_structure_preserved(self, rng, method):
        view, half = build_level(rng, [0, 2, 0, 3, 1])
        t_star = find_truncation_index(view, 4)
        result = resample_placement(view, t_star, half, rng, method=method)
        # Spacing halves; even positions keep the old vertices.
        assert result.spacing == 2
        assert len(result.vertices) == t_star + 1
        for t in range(0, t_star + 1, 2):
            assert result.vertices[t] == view.walk.vertices[t // 2]

    def test_multiset_preserved(self, rng, method):
        """The placed midpoints are exactly the collected multiset."""
        view, half = build_level(rng, [0, 2, 0, 3, 1])
        t_star = find_truncation_index(view, 5)
        truncated = view.truncated_pair_counts(t_star)
        expected = view.bank.truncated_counts(truncated)
        result = resample_placement(view, t_star, half, rng, method=method)
        placed = Counter(
            result.vertices[t] for t in range(1, t_star + 1, 2)
        )
        assert placed == expected

    def test_final_midpoint_pinned(self, rng, method):
        """The chronologically final midpoint stays exactly in place."""
        view, half = build_level(rng, [0, 2, 0, 3, 1])
        t_star = find_truncation_index(view, 5)
        t_final = t_star if t_star % 2 == 1 else t_star - 1
        true_final = view.value_at(t_final)
        result = resample_placement(view, t_star, half, rng, method=method)
        assert result.vertices[t_final] == true_final


class TestPlacementDistribution:
    """Lemma 3/4 statistically: the reconstructed walk has the same law as
    the directly filled walk. We fix W_i = (a, b) (one gap on K4, spacing
    4) and compare the law of the two inserted midpoints after two more
    levels against direct conditional walks."""

    def _direct_law(self, rng, n_samples=2000):
        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 4)
        law = Counter()
        # Direct: fill the (0 -> 1, length 4) bridge by midpoint recursion
        # without any multiset compression.
        from repro.walks.fill import PartialWalk, _fill_level

        for _ in range(n_samples):
            walk = PartialWalk(4, [0, 1])
            walk = _fill_level(walk, ladder.power(2), rng)
            walk = _fill_level(walk, ladder.power(1), rng)
            law[tuple(walk.vertices)] += 1
        return {k: v / n_samples for k, v in law.items()}

    def _placed_law(self, rng, method, n_samples=2000):
        """``method="bank"`` is the production placement, anything else
        names the resampling oracle's sampler."""
        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 4)
        from repro.walks.fill import PartialWalk

        law = Counter()
        for _ in range(n_samples):
            walk = PartialWalk(4, [0, 1])
            for spacing in (4, 2):
                pair_counts: dict = {}
                for pair in walk.pairs():
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
                half = ladder.power(spacing // 2)
                bank = MidpointBank(pair_counts, half, rng)
                view = LevelView(walk, bank)
                if method == "bank":
                    walk = place_midpoints(view, view.top)
                else:
                    walk = resample_placement(
                        view, view.top, half, rng, method=method
                    )
            law[tuple(walk.vertices)] += 1
        return {k: v / n_samples for k, v in law.items()}

    @pytest.mark.parametrize("method", ["exact-dp", "mcmc", "bank"])
    def test_reconstruction_matches_direct(self, rng, method):
        direct = self._direct_law(rng)
        placed = self._placed_law(rng, method)
        keys = set(direct) | set(placed)
        tv = 0.5 * sum(
            abs(direct.get(k, 0.0) - placed.get(k, 0.0)) for k in keys
        )
        assert tv < 0.10


class TestPairMultisetPlacement:
    """Appendix 5.3's exact placement: the bank front, and the leader's
    per-pair shuffle through the oracle."""

    def test_structure_and_multisets(self, rng):
        view, half = build_level(rng, [0, 2, 0, 2, 1])
        t_star = find_truncation_index(view, 5)
        result = place_by_pair_multisets(view, t_star)
        assert result.spacing == 2
        truncated = view.truncated_pair_counts(t_star)
        expected = view.bank.truncated_counts(truncated)
        placed = Counter(result.vertices[t] for t in range(1, t_star + 1, 2))
        assert placed == expected

    def test_per_pair_multisets_respected(self, rng):
        """Unlike the matching placement, each pair keeps its own multiset."""
        view, half = build_level(rng, [0, 2, 0, 2, 0])
        t_star = view.top
        result = resample_placement(
            view, t_star, half, rng, method="pair-multisets"
        )
        for pair in {(0, 2), (2, 0)}:
            slots = [
                t for t in range(1, t_star + 1, 2)
                if view.pair_of_gap((t - 1) // 2) == pair
            ]
            placed = Counter(result.vertices[t] for t in slots)
            expected = Counter(
                int(v) for v in view.bank.sequence(pair)
            )
            assert placed == expected

    def test_final_midpoint_pinned(self, rng):
        view, half = build_level(rng, [0, 2, 0, 3, 1])
        t_star = find_truncation_index(view, 5)
        t_final = t_star if t_star % 2 == 1 else t_star - 1
        true_final = view.value_at(t_final)
        result = resample_placement(
            view, t_star, half, rng, method="pair-multisets"
        )
        assert result.vertices[t_final] == true_final

    def test_matches_direct_distribution(self, rng):
        """The exact placement reproduces the direct fill law as well."""
        g = graphs.complete_graph(4)
        ladder = PowerLadder(g.transition_matrix(), 4)
        from repro.walks.fill import PartialWalk, _fill_level

        n_samples = 2000
        direct = Counter()
        placed = Counter()
        for _ in range(n_samples):
            walk = PartialWalk(4, [0, 1])
            walk = _fill_level(walk, ladder.power(2), rng)
            walk = _fill_level(walk, ladder.power(1), rng)
            direct[tuple(walk.vertices)] += 1

            walk = PartialWalk(4, [0, 1])
            for spacing in (4, 2):
                pair_counts: dict = {}
                for pair in walk.pairs():
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
                half = ladder.power(spacing // 2)
                bank = MidpointBank(pair_counts, half, rng)
                view = LevelView(walk, bank)
                walk = place_by_pair_multisets(view, view.top)
            placed[tuple(walk.vertices)] += 1
        keys = set(direct) | set(placed)
        tv = 0.5 * sum(
            abs(direct[k] / n_samples - placed[k] / n_samples) for k in keys
        )
        assert tv < 0.10
