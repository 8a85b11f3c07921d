"""Chi-square uniformity regression harness for the placement engine.

The placement rewrite (PlacementPlan + prepared contingency DPs) changes
the one component whose correctness is *distributional*, so these tests
draw real ensembles and compare the empirical tree distribution against
Kirchhoff-exact probabilities -- for both sampler variants. (The
block-draw RNG contract re-derives every decision from inverse-CDF
resolution, so its correctness is gated on this harness, not on byte
identity with an older bit stream.) Thresholds follow the policy
documented in
``tests/statutil.py`` (fixed seeds, chi-square p-floor AND exact-TV
noise bound).

The Broadcast CC variant gets its own class: exact-law cells on three
enumerable families, two-sample
homogeneity against the unicast variants, and oracle cross-validation
(Wilson / Aldous-Broder from :mod:`repro.walks.sequential`) on a wheel
graph past practical enumeration -- the two-sample extension of the
harness documented in ``tests/statutil.py``.

Fast cases run in tier-1; the heavier sweeps (K5's 125-tree support,
weighted chord cycles, both variants) carry the ``slow``
marker and are additionally gated on ``REPRO_SLOW_TESTS=1`` -- the
nightly CI job sets it, so tier-1 wall-clock stays bounded.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import graphs
from repro.core.config import SamplerConfig
from repro.graphs.families import build_family

from statutil import (
    assert_matches_tree_law,
    assert_same_tree_law,
    draw_oracle_trees,
    draw_trees,
)

# Short nominal walks keep draws fast; the Appendix 5.1 Las-Vegas
# extension keeps the output law exact regardless of ell.
FAST_ELL = 1 << 6

run_slow = pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="heavy statistical sweep; set REPRO_SLOW_TESTS=1 (nightly CI)",
)


# One cell, whose id keeps the "batched-v2" name of the retired
# RNG-contract axis (and of the plan-bearing engine it runs), so test ids
# stay stable. The cell name also tags each harness label.
CELL = pytest.mark.parametrize("cell", ["batched-v2"])


def _config() -> SamplerConfig:
    return SamplerConfig(ell=FAST_ELL)


def weighted_square() -> "graphs.WeightedGraph":
    """4-cycle with distinct weights: 4 trees with distinct probabilities."""
    return graphs.WeightedGraph.from_edges(
        4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)]
    )


class TestTier1Uniformity:
    """Fast cases: small supports, ~1-2k draws."""

    @CELL
    def test_k4_approximate(self, cell):
        graph = graphs.complete_graph(4)  # 16 spanning trees
        trees = draw_trees(
            graph, 2000, config=_config(),
            variant="approximate", seed=41,
        )
        assert_matches_tree_law(
            graph, trees, label=f"k4/approx/{cell}"
        )

    @CELL
    def test_k4_exact_variant(self, cell):
        graph = graphs.complete_graph(4)
        trees = draw_trees(
            graph, 1000, config=_config(), variant="exact",
            seed=42,
        )
        assert_matches_tree_law(
            graph, trees, label=f"k4/exact/{cell}"
        )

    @CELL
    def test_cycle4(self, cell):
        graph = graphs.cycle_graph(4)  # 4 spanning trees
        trees = draw_trees(
            graph, 1200, config=_config(),
            variant="approximate", seed=43,
        )
        assert_matches_tree_law(
            graph, trees, label=f"cycle4/{cell}"
        )

    @CELL
    def test_weighted_square(self, cell):
        """Weighted input: the law is weight-proportional, not uniform."""
        graph = weighted_square()
        trees = draw_trees(
            graph, 1500, config=_config(),
            variant="approximate", seed=44,
        )
        assert_matches_tree_law(
            graph, trees, label=f"wsquare/{cell}"
        )


FAMILIES = {
    "k4": lambda: graphs.complete_graph(4),
    "cycle4": lambda: graphs.cycle_graph(4),
    "wsquare": weighted_square,
}


class TestBroadcastUniformity:
    """The Broadcast CC variant samples the same weight-proportional law.

    The broadcast driver is one full-cover phase whose first-visit edges
    are Aldous-Broder -- exact by construction -- but these draws go
    through the entire engine stack (registry dispatch, phase numerics,
    placement plans, broadcast charging), so the harness gates the
    wiring, not just the math: exact-law cells on three enumerable
    families, plus two-sample
    cross-validation against the unicast variants and the sequential
    oracles on a wheel past practical enumeration.
    """

    @CELL
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_broadcast_matches_exact_law(self, family, cell):
        graph = FAMILIES[family]()
        trees = draw_trees(
            graph, 1500, config=_config(),
            variant="broadcast", seed=48,
        )
        assert_matches_tree_law(
            graph, trees, label=f"{family}/broadcast/{cell}"
        )

    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_broadcast_vs_unicast_variants(self, variant):
        """Cross-variant two-sample gate on K4's 16-tree support."""
        graph = graphs.complete_graph(4)
        broadcast = draw_trees(
            graph, 1500, config=_config(), variant="broadcast",
            seed=53,
        )
        unicast = draw_trees(
            graph, 1500, config=_config(), variant=variant,
            seed=54,
        )
        assert_same_tree_law(
            broadcast, unicast, label=f"k4/broadcast-vs-{variant}"
        )

    def test_broadcast_vs_wilson_beyond_enumeration(self):
        """Oracle arm on a wheel whose tree count defeats enumeration.

        ``ell`` is raised past FAST_ELL here: a full-cover (rho = n)
        walk on 10 weighted vertices needs headroom beyond the nominal
        64-step walk or the Las-Vegas extension cap can trip.
        """
        graph, _ = build_family("wheel", 10, np.random.default_rng(3))
        config = SamplerConfig(ell=1 << 8)
        sampled = draw_trees(
            graph, 300, config=config, variant="broadcast", seed=49,
        )
        oracle = draw_oracle_trees(graph, 300, oracle="wilson", seed=50)
        assert_same_tree_law(
            sampled, oracle, label="wheel10/broadcast-vs-wilson"
        )

    def test_approximate_vs_aldous_broder_beyond_enumeration(self):
        """The unicast default against the other sequential oracle."""
        graph, _ = build_family("wheel", 10, np.random.default_rng(3))
        sampled = draw_trees(
            graph, 300, config=_config(), variant="approximate",
            seed=51,
        )
        oracle = draw_oracle_trees(
            graph, 300, oracle="aldous_broder", seed=52
        )
        assert_same_tree_law(
            sampled, oracle, label="wheel10/approx-vs-aldous-broder"
        )


@run_slow
@pytest.mark.slow
class TestNightlyUniformity:
    """Heavy sweeps: larger supports, both variants."""

    @CELL
    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_k5(self, cell, variant):
        graph = graphs.complete_graph(5)  # 125 spanning trees
        trees = draw_trees(
            graph, 6000, config=_config(), variant=variant,
            seed=45,
        )
        assert_matches_tree_law(
            graph, trees, label=f"k5/{variant}/{cell}"
        )

    @CELL
    @pytest.mark.parametrize("variant", ["approximate", "exact"])
    def test_weighted_chord_cycle(self, cell, variant):
        graph = graphs.WeightedGraph.from_edges(
            5,
            [
                (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5),
                (3, 4, 0.5), (0, 4, 3.0), (1, 3, 2.5),
            ],
        )
        trees = draw_trees(
            graph, 5000, config=_config(), variant=variant,
            seed=46,
        )
        assert_matches_tree_law(
            graph, trees, label=f"wchord/{variant}/{cell}"
        )
