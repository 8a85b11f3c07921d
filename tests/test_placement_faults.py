"""Fault injection for the placement layer and its fallback boundaries.

Covers the failure surfaces of the placement layer and its oracle DP:

- zero-weight columns and infeasible (zero-permanent) instances raise
  ``MatchingError`` from every DP implementation and from prepared
  builds;
- degenerate single-class instances take the closed-form path (no
  randomness) and still reject infeasible weights;
- the ``_DP_STATE_BUDGET`` guard switches the bill to the Appendix 5.3
  per-pair-multiset protocol -- same law, tested end to end;
- the reference recursion handles state spaces past int64 (63 unit row
  classes), since it only ever visits reachable states;
- the Section 5.2 precision floor still aborts into the brute-force
  sequential fill identically over cold and warm plans (exercising the
  plan-backed ``repro.core.phase._fill_level`` path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.core.config import SamplerConfig
from repro.engine.runner import SamplerEngine
from repro.errors import MatchingError
from repro.graphs.spanning import is_spanning_tree
from repro.matching.sampler import (
    ClassifiedBipartite,
    _trivial_table,
    prepare_contingency_dp,
    sample_contingency_table,
)

from statutil import assert_matches_tree_law, draw_trees

ALL_IMPLEMENTATIONS = ["auto", "reference"]


class TestInfeasibleInstances:
    def _zero_column_instance(self) -> ClassifiedBipartite:
        """Column class 'b' has zero weight to every row class."""
        return ClassifiedBipartite(
            row_labels=(0, 1),
            row_counts=(2, 2),
            col_labels=("a", "b"),
            col_counts=(2, 2),
            class_weights=np.array([[1.0, 0.0], [0.5, 0.0]]),
        )

    def _zero_permanent_instance(self) -> ClassifiedBipartite:
        """Feasibility needs row 0 in both columns, but it has only one
        unit of multiplicity for column b's two positions."""
        return ClassifiedBipartite(
            row_labels=(0, 1),
            row_counts=(1, 3),
            col_labels=("a", "b"),
            col_counts=(2, 2),
            class_weights=np.array([[1.0, 1.0], [1.0, 0.0]]),
        )

    @pytest.mark.parametrize("implementation", ALL_IMPLEMENTATIONS)
    def test_zero_weight_column_raises(self, implementation):
        with pytest.raises(MatchingError, match="permanent is zero"):
            sample_contingency_table(
                self._zero_column_instance(),
                np.random.default_rng(0),
                implementation=implementation,
            )

    @pytest.mark.parametrize("implementation", ALL_IMPLEMENTATIONS)
    def test_zero_weight_column_raises_at_prepare_time(self, implementation):
        with pytest.raises(MatchingError, match="permanent is zero"):
            prepare_contingency_dp(
                self._zero_column_instance(), implementation=implementation
            )

    @pytest.mark.parametrize("implementation", ALL_IMPLEMENTATIONS)
    def test_zero_permanent_raises(self, implementation):
        with pytest.raises(MatchingError, match="permanent is zero"):
            sample_contingency_table(
                self._zero_permanent_instance(),
                np.random.default_rng(0),
                implementation=implementation,
            )

    def test_negative_weights_rejected_by_instance(self):
        with pytest.raises(MatchingError, match="non-negative"):
            ClassifiedBipartite(
                row_labels=(0,),
                row_counts=(1,),
                col_labels=("a",),
                col_counts=(1,),
                class_weights=np.array([[-1.0]]),
            )


class TestDegenerateSingleClassInstances:
    def test_single_column_class_is_forced(self):
        instance = ClassifiedBipartite(
            row_labels=(0, 1, 2),
            row_counts=(2, 1, 4),
            col_labels=("only",),
            col_counts=(7,),
            class_weights=np.array([[1.0], [0.5], [2.0]]),
        )
        table = sample_contingency_table(instance, np.random.default_rng(0))
        assert table.tolist() == [[2], [1], [4]]
        prepared = prepare_contingency_dp(instance)
        assert prepared.sample().tolist() == [[2], [1], [4]]
        # The forced table consumes no randomness.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert prepared.sample(rng).tolist() == [[2], [1], [4]]
        assert rng.bit_generator.state == state

    def test_single_row_class_is_forced(self):
        instance = ClassifiedBipartite(
            row_labels=(9,),
            row_counts=(5,),
            col_labels=("a", "b", "c"),
            col_counts=(2, 2, 1),
            class_weights=np.array([[1.0, 2.0, 3.0]]),
        )
        table = sample_contingency_table(instance, np.random.default_rng(0))
        assert table.tolist() == [[2, 2, 1]]

    def test_single_class_zero_weight_still_rejected(self):
        instance = ClassifiedBipartite(
            row_labels=(0, 1),
            row_counts=(1, 1),
            col_labels=("only",),
            col_counts=(2,),
            class_weights=np.array([[1.0], [0.0]]),
        )
        with pytest.raises(MatchingError, match="permanent is zero"):
            _trivial_table(instance)
        with pytest.raises(MatchingError, match="permanent is zero"):
            sample_contingency_table(instance, np.random.default_rng(0))

    def test_degenerate_single_pair_phase_end_to_end(self):
        """A 2-path's phases put every midpoint position in one pair
        class -- the trivial-table path end to end."""
        graph = graphs.path_graph(2)
        engine = SamplerEngine(graph, SamplerConfig(ell=1 << 4))
        result = engine.run(np.random.default_rng(0))
        assert is_spanning_tree(graph, result.tree)


class TestStateBudgetFallback:
    def test_cost_estimate_overflow_saturates(self):
        from collections import Counter

        from repro.core.placement import _dp_cost_estimate

        huge = Counter({v: 10**6 for v in range(20)})
        estimate = _dp_cost_estimate(huge, [1, 3, 5])
        assert estimate > 1e18  # saturated, not overflowed

    def test_budget_fallback_draws_valid_trees(self, monkeypatch):
        """With the budget forced to 1 every placement is billed as the
        Appendix 5.3 per-pair protocol; trees stay valid."""
        import repro.core.placement as placement

        monkeypatch.setattr(placement, "_DP_STATE_BUDGET", 1)
        graph = graphs.complete_graph(8)
        engine = SamplerEngine(graph, SamplerConfig(ell=1 << 6))
        rng = np.random.default_rng(5)
        trees = [engine.run(rng).tree for __ in range(4)]
        for tree in trees:
            assert is_spanning_tree(graph, tree)

    def test_budget_fallback_preserves_the_tree_law(self, monkeypatch):
        """The fallback bills another protocol, never another law: the
        chi-square harness cannot tell the trees apart."""
        import repro.core.placement as placement

        monkeypatch.setattr(placement, "_DP_STATE_BUDGET", 1)
        graph = graphs.complete_graph(4)
        trees = draw_trees(
            graph, 1200, config=SamplerConfig(ell=1 << 6), seed=48
        )
        assert_matches_tree_law(graph, trees, label="budget-fallback")


class TestRadixOverflowFallback:
    def _radix_overflow_instance(self) -> ClassifiedBipartite:
        """63 unit row classes: a mixed-radix state encoding would need
        2^63 codes, past int64."""
        return ClassifiedBipartite(
            row_labels=tuple(range(63)),
            row_counts=(1,) * 63,
            col_labels=("a", "b"),
            col_counts=(62, 1),
            class_weights=np.ones((63, 2)),
        )

    def test_fallback_samples_the_reference_stream(self):
        """The reference recursion visits reachable states only, so the
        instance samples; "auto" draws byte-identical tables."""
        instance = self._radix_overflow_instance()
        for seed in range(3):
            auto = sample_contingency_table(
                instance, np.random.default_rng(seed)
            )
            reference = sample_contingency_table(
                instance,
                np.random.default_rng(seed),
                implementation="reference",
            )
            assert np.array_equal(auto, reference)
            assert auto.sum() == 63
            assert (auto.sum(axis=1) <= 1).all()


class TestPrecisionFloorFallback:
    def test_brute_force_fallback_matches_across_modes(self):
        """An absurd normalizer floor forces the Section 5.2 brute-force
        sequential fill (the plan-backed phase _fill_level path). A cold
        private plan per phase (cache off) and a plan warmed by earlier
        draws must still draw the same valid tree."""
        graph = graphs.complete_graph(6)
        trees = {}
        for warm in (False, True):
            config = SamplerConfig(
                ell=1 << 6,
                derived_cache=warm,
                normalizer_floor_exponent=0.001,  # floor ~ 1: always trips
            )
            engine = SamplerEngine(graph, config)
            if warm:
                engine.run(np.random.default_rng(9))
            result = engine.run(np.random.default_rng(3))
            assert is_spanning_tree(graph, result.tree)
            assert sum(
                stats.brute_force_fallbacks for stats in result.phase_stats
            ) > 0
            trees[warm] = result.tree
        assert trees[False] == trees[True]

    def test_brute_force_fallback_under_v2(self):
        """The same floor trips under block draws: the PrecisionError
        must surface *before* any randomness is consumed (the bank
        validates every pair's normalizer first), so the fallback rerun
        still draws a valid tree across seeds."""
        graph = graphs.complete_graph(6)
        config = SamplerConfig(
            ell=1 << 6,
            normalizer_floor_exponent=0.001,
        )
        engine = SamplerEngine(graph, config)
        for seed in range(4):
            result = engine.run(np.random.default_rng(seed))
            assert is_spanning_tree(graph, result.tree)
            assert sum(
                stats.brute_force_fallbacks for stats in result.phase_stats
            ) > 0
