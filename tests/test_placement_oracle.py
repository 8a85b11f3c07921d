"""The bank placement against the resampling oracle (Lemma 3, Appendix 5.3).

Production placement reads every midpoint from the ``MidpointBank``:
given the collected multiset, the bank's true placement is itself a draw
from Lemma 3's matching law (and, per pair, from Appendix 5.3's
exchangeable law). The checks here run on instances small enough to
enumerate that law exactly. The bank draws each ``Pi_{p,q}`` entry
i.i.d., so the exact law of the placed prefix is the product of the
per-gap midpoint laws. The bank placement and
``resample_placement(method=...)`` on the *same* bank (same multiset,
same pinned final midpoint) are each chi-squared against that law, and
against each other with the two-sample gate of ``statutil``.

A last check patches the matching samplers to raise and draws a tree
with every registered sample variant: no draw path reaches
``repro.matching``.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from repro import graphs
from repro.api import SampleRequest, Session
from repro.core.config import SamplerConfig
from repro.core.midpoints import MidpointBank
from repro.core.placement import (
    place_by_pair_multisets,
    place_midpoints,
    resample_placement,
)
from repro.core.placement_plan import PlacementPlan
from repro.core.truncation import LevelView
from repro.core.variants import sample_variant_names
from repro.graphs import is_spanning_tree
from repro.linalg import PowerLadder
from repro.walks.fill import PartialWalk

from statutil import P_FLOOR, assert_same_tree_law, chi_square_vs_law

SPACING = 4  # half power P^2: midpoint laws differ between pairs
DRAWS = 4000


def _two_pair_graph() -> graphs.WeightedGraph:
    """Four vertices with unequal weights, so the two pairs' midpoint
    laws are not proportional to each other."""
    return graphs.WeightedGraph.from_edges(
        4,
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 3.0), (0, 2, 0.5)],
    )


# name -> (graph, W_i, t*). Figure 1's walk is cut at its fourth
# midpoint (t* = 7; 5^4 placements), the two-pair walk (pairs (0, 2)
# once and (2, 2) three times) keeps all four (4^4 placements). The
# final midpoint sits at t* = 7 in both, pinned as always.
INSTANCES = {
    "figure1-K5": (graphs.complete_graph(5), [1, 3, 2, 1, 3, 2, 1, 2, 3], 7),
    "two-pair": (_two_pair_graph(), [0, 2, 2, 2, 2], 7),
}


def _exact_placement_law(half: np.ndarray, walk: PartialWalk, t_star: int):
    """Law of the midpoints at positions 1, 3, .., t*: a product of the
    per-gap laws ``half[p, x] * half[x, q]`` (normalized)."""
    laws = []
    for t in range(1, t_star + 1, 2):
        gap = (t - 1) // 2
        p, q = walk.vertices[gap], walk.vertices[gap + 1]
        law = half[p, :] * half[:, q]
        laws.append(law / law.sum())
    support = [np.flatnonzero(law) for law in laws]
    return {
        tuple(int(x) for x in values): float(
            np.prod([law[x] for law, x in zip(laws, values)])
        )
        for values in itertools.product(*support)
    }


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize(
    "method", ["exact-dp", "exact-permanent", "mcmc", "pair-multisets"]
)
def test_bank_placement_has_the_resampled_law(instance, method):
    graph, vertices, t_star = INSTANCES[instance]
    half = PowerLadder(graph.transition_matrix(), SPACING).power(SPACING // 2)
    walk = PartialWalk(SPACING, vertices)
    pair_counts = Counter(walk.pairs())
    front = (
        place_by_pair_multisets if method == "pair-multisets"
        else place_midpoints
    )
    plan = PlacementPlan()
    bank_rng = np.random.default_rng(2026)
    oracle_rng = np.random.default_rng(7)
    odd = range(1, t_star + 1, 2)
    banked, resampled = [], []
    for __ in range(DRAWS):
        bank = MidpointBank(
            pair_counts, half, bank_rng, plan=plan, level=SPACING // 2
        )
        view = LevelView(walk, bank)
        placed = front(view, t_star).vertices
        redrawn = resample_placement(
            view, t_star, half, oracle_rng,
            method=method, plan=plan, level=SPACING // 2,
        ).vertices
        banked.append(tuple(placed[t] for t in odd))
        resampled.append(tuple(redrawn[t] for t in odd))
        # Same multiset, same pinned final midpoint.
        assert Counter(banked[-1]) == Counter(resampled[-1])
        assert banked[-1][-1] == resampled[-1][-1]

    law = _exact_placement_law(half, walk, t_star)
    label = f"{instance}/{method}"
    for name, draws in (("bank", banked), ("oracle", resampled)):
        statistic, p_value = chi_square_vs_law(draws, law)
        assert p_value >= P_FLOOR, (
            f"{name} placement rejects the exact law [{label}]: "
            f"p={p_value:.3e} (stat={statistic:.2f}, {len(law)} cells)"
        )
    assert_same_tree_law(banked, resampled, label=label)


def test_no_draw_path_reaches_the_matching_samplers(monkeypatch):
    """Every registered sample variant draws a default-config tree with
    the matching samplers patched to raise, wherever they are bound."""
    import repro.core.placement as placement
    import repro.core.placement_plan as placement_plan
    import repro.matching as matching
    import repro.matching.sampler as sampler

    def forbidden(*args, **kwargs):
        raise AssertionError("a draw path reached repro.matching")

    for module in (matching, sampler, placement, placement_plan):
        for name in (
            "prepare_contingency_dp",
            "sample_matching_exact",
            "sample_matching_mcmc",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)

    graph = graphs.complete_graph(6)
    session = Session(graph, SamplerConfig(), seed=0)
    for variant in sample_variant_names():
        response = session.run(SampleRequest(variant=variant, seed=1))
        assert is_spanning_tree(graph, response.result.tree), variant
