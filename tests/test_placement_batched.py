"""Cross-validation pinning the plan-bearing placement engine to its laws.

Three layers of guarantees, strongest first:

1. **Byte identity**: for every registered graph family and both sampler
   variants, the v1 RNG contract reproduces hardcoded seed trees
   captured before the batched engine existed (from the since-retired
   per-pair reference path), whether each phase runs over a cold private
   plan or a plan warmed by earlier draws -- and the two bill identical
   round ledgers. The plan only memoizes deterministic structure, so its
   warmth never changes which bits a draw consumes. The v2 block
   contract deliberately consumes different bits, so v2 is pinned to its
   *own* golden trees, regenerated exactly once when the contract
   shipped (see tests/README.md for the regeneration policy).
2. **DP equivalence**: a prepared contingency DP sampled repeatedly
   agrees draw-for-draw with the one-shot ``sample_contingency_table``
   under matched RNG states, for every implementation choice.
3. **Law equivalence**: sampled contingency tables over an enumerable
   instance match the exact table distribution implied by the
   ``permanent_class_dp`` factorization (chi-square), with the plan's
   digest-based dedup in the loop.
"""

from __future__ import annotations

import io
import math
from itertools import product

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro import graphs
from repro.core.config import SamplerConfig
from repro.core.placement_plan import PLAN_MEMBERS, PlacementPlan
from repro.engine.runner import SamplerEngine
from repro.graphs.families import build_family
from repro.matching.permanent import _compositions
from repro.matching.sampler import (
    ClassifiedBipartite,
    instance_digest,
    prepare_contingency_dp,
    sample_contingency_table,
)

# Seed trees drawn from the pre-batched-engine code (fast-audit config,
# family built at n=12 with rng seed 2026, session/request seed 11).
# rng_contract="v1" consumes the RNG exactly as that code did, so it
# must keep producing them byte-for-byte.
GOLDEN_SEED_TREES = {
    ("barbell", "approximate"): ((0, 1), (0, 3), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 11), (9, 10), (10, 11)),
    ("bipartite", "approximate"): ((0, 9), (1, 10), (2, 11), (3, 9), (4, 9), (4, 10), (5, 10), (6, 9), (7, 9), (7, 11), (8, 11)),
    ("complete", "approximate"): ((0, 3), (0, 7), (0, 9), (1, 10), (2, 3), (2, 10), (3, 6), (4, 6), (5, 11), (6, 8), (7, 11)),
    ("cycle", "approximate"): ((0, 1), (0, 11), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("expander", "approximate"): ((0, 1), (0, 7), (0, 10), (1, 2), (1, 3), (3, 6), (4, 5), (4, 7), (7, 11), (8, 11), (9, 10)),
    ("gnp", "approximate"): ((0, 2), (0, 4), (0, 9), (1, 7), (1, 9), (3, 10), (4, 5), (5, 11), (6, 10), (8, 9), (9, 10)),
    ("grid", "approximate"): ((0, 1), (1, 2), (1, 5), (3, 7), (4, 8), (5, 6), (5, 9), (6, 7), (6, 10), (8, 9), (10, 11)),
    ("lollipop", "approximate"): ((0, 1), (0, 4), (1, 3), (1, 5), (2, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("path", "approximate"): ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("star", "approximate"): ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11)),
    ("wheel", "approximate"): ((0, 1), (0, 3), (0, 5), (0, 6), (0, 9), (0, 10), (1, 2), (1, 11), (4, 5), (6, 7), (7, 8)),
    ("barbell", "exact"): ((0, 1), (0, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 10), (9, 10), (10, 11)),
    ("bipartite", "exact"): ((0, 10), (0, 11), (1, 11), (2, 9), (2, 10), (3, 9), (4, 9), (5, 11), (6, 10), (7, 10), (8, 11)),
    ("complete", "exact"): ((0, 1), (0, 4), (0, 8), (0, 9), (1, 6), (2, 7), (3, 7), (4, 5), (5, 11), (6, 10), (7, 8)),
    ("cycle", "exact"): ((0, 1), (0, 11), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (10, 11)),
    ("expander", "exact"): ((0, 3), (1, 2), (1, 6), (2, 3), (2, 4), (5, 10), (5, 11), (6, 8), (7, 11), (8, 9), (8, 11)),
    ("gnp", "exact"): ((0, 2), (1, 5), (1, 9), (2, 3), (2, 4), (2, 6), (3, 5), (3, 10), (3, 11), (5, 7), (6, 8)),
    ("grid", "exact"): ((0, 1), (1, 2), (2, 3), (2, 6), (3, 7), (4, 8), (5, 6), (5, 9), (6, 10), (7, 11), (8, 9)),
    ("lollipop", "exact"): ((0, 1), (0, 2), (0, 5), (3, 4), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("path", "exact"): ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("star", "exact"): ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11)),
    ("wheel", "exact"): ((0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 11), (1, 2), (2, 3), (3, 4), (4, 5), (10, 11)),
}

# Seed trees for the v2 block-draw contract (same instances and seeds as
# above, rng_contract="v2"). Regenerated
# exactly once when the v2 contract shipped; any future edit to these
# values is a contract break and needs the tests/README.md sign-off.
GOLDEN_SEED_TREES_V2 = {
    ("barbell", "approximate"): ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 11), (10, 11)),
    ("bipartite", "approximate"): ((0, 11), (1, 10), (2, 9), (2, 10), (3, 10), (4, 11), (5, 10), (5, 11), (6, 11), (7, 9), (8, 10)),
    ("complete", "approximate"): ((0, 3), (0, 8), (1, 4), (2, 5), (2, 10), (3, 6), (3, 9), (4, 8), (7, 9), (8, 11), (10, 11)),
    ("cycle", "approximate"): ((0, 1), (0, 11), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10)),
    ("expander", "approximate"): ((0, 3), (0, 7), (0, 10), (1, 3), (2, 6), (4, 5), (4, 8), (5, 9), (6, 8), (7, 11), (8, 11)),
    ("gnp", "approximate"): ((0, 7), (1, 2), (1, 8), (1, 11), (2, 6), (3, 11), (4, 6), (5, 6), (5, 7), (6, 10), (9, 11)),
    ("grid", "approximate"): ((0, 1), (0, 4), (1, 2), (2, 3), (2, 6), (4, 5), (6, 7), (7, 11), (8, 9), (9, 10), (10, 11)),
    ("lollipop", "approximate"): ((0, 5), (1, 2), (1, 4), (2, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("path", "approximate"): ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("star", "approximate"): ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11)),
    ("wheel", "approximate"): ((0, 1), (0, 2), (0, 7), (0, 8), (0, 9), (0, 10), (1, 11), (2, 3), (4, 5), (5, 6), (6, 7)),
    ("barbell", "exact"): ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (8, 10), (9, 11)),
    ("bipartite", "exact"): ((0, 10), (0, 11), (1, 11), (2, 9), (2, 10), (3, 10), (4, 9), (5, 11), (6, 9), (7, 10), (8, 11)),
    ("complete", "exact"): ((0, 1), (0, 4), (0, 8), (0, 10), (2, 3), (2, 7), (4, 5), (5, 11), (6, 8), (7, 8), (7, 9)),
    ("cycle", "exact"): ((0, 1), (0, 11), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("expander", "exact"): ((0, 3), (1, 2), (1, 6), (2, 3), (2, 4), (5, 10), (6, 8), (7, 10), (7, 11), (8, 9), (8, 11)),
    ("gnp", "exact"): ((0, 2), (1, 11), (2, 3), (2, 10), (3, 5), (3, 8), (3, 11), (4, 8), (5, 7), (6, 8), (8, 9)),
    ("grid", "exact"): ((0, 1), (1, 2), (2, 3), (2, 6), (4, 5), (4, 8), (5, 6), (6, 7), (6, 10), (9, 10), (10, 11)),
    ("lollipop", "exact"): ((0, 4), (1, 2), (1, 4), (2, 5), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("path", "exact"): ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)),
    ("star", "exact"): ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11)),
    ("wheel", "exact"): ((0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (0, 10), (1, 2), (1, 11), (2, 3), (5, 6), (8, 9)),
}


def _draw(family: str, variant: str, contract: str, *, warm: bool = False):
    """One seed-11 draw on the n=12 family instance.

    ``warm=False`` disables the derived-graph cache, so every phase runs
    over a fresh private plan; ``warm=True`` first spends one draw on
    another seed so phase 1's shared plan is already populated.
    """
    graph, __ = build_family(family, 12, np.random.default_rng(2026))
    config = SamplerConfig(
        ell=1 << 10, rng_contract=contract, derived_cache=warm
    )
    engine = SamplerEngine(graph, config, variant=variant)
    if warm:
        engine.run(np.random.default_rng(5))
    return engine.run(np.random.default_rng(np.random.SeedSequence(11)))


class TestByteIdentity:
    """Cold plan == warm plan == seed, tree by tree and round by round."""

    @pytest.mark.parametrize(
        "family,variant", sorted(GOLDEN_SEED_TREES), ids=lambda v: str(v)
    )
    def test_reference_mode_reproduces_seed_trees(self, family, variant):
        """The seed trees came from the retired reference mode; v1 over
        cold private plans (no memo carried between phases or draws)
        must still reproduce them."""
        result = _draw(family, variant, "v1")
        assert result.tree == GOLDEN_SEED_TREES[(family, variant)]

    @pytest.mark.parametrize(
        "family,variant", sorted(GOLDEN_SEED_TREES), ids=lambda v: str(v)
    )
    def test_batched_v1_matches_reference(self, family, variant):
        """A plan warmed by an earlier draw reproduces the cold-plan
        draw: same seed tree, same round bill by category."""
        warm = _draw(family, variant, "v1", warm=True)
        cold = _draw(family, variant, "v1")
        assert warm.tree == cold.tree
        assert warm.rounds == cold.rounds
        assert (
            warm.ledger.rounds_by_category()
            == cold.ledger.rounds_by_category()
        )
        assert warm.tree == GOLDEN_SEED_TREES[(family, variant)]

    @pytest.mark.parametrize(
        "family,variant", sorted(GOLDEN_SEED_TREES_V2), ids=lambda v: str(v)
    )
    def test_batched_v2_reproduces_v2_seed_trees(self, family, variant):
        result = _draw(family, variant, "v2")
        assert result.tree == GOLDEN_SEED_TREES_V2[(family, variant)]

    @pytest.mark.parametrize("contract", ["v1", "v2"])
    @pytest.mark.parametrize("variant", ["approximate", "broadcast"])
    def test_draws_independent_of_plan_warmth(self, contract, variant):
        """A warm plan must never change which bits a draw consumes:
        the k-th draw from a long-lived engine equals the k-th draw from
        a fresh engine fed the identical generator state, tree and round
        bill alike."""
        graph = graphs.complete_graph(10)
        config = SamplerConfig(ell=1 << 8, rng_contract=contract)

        def outcome(result):
            return result.tree, result.ledger.rounds_by_category()

        warm_engine = SamplerEngine(graph, config, variant=variant)
        rng = np.random.default_rng(7)
        warm = [outcome(warm_engine.run(rng)) for __ in range(6)]
        cold = []
        rng = np.random.default_rng(7)
        for __ in range(6):
            engine = SamplerEngine(graph, config, variant=variant)
            cold.append(outcome(engine.run(rng)))
        assert warm == cold


class TestPreparedDPEquivalence:
    """prepare + sample == one-shot sample, for matched RNG states."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(99)
        yield ClassifiedBipartite(
            row_labels=(0, 1, 2),
            row_counts=(2, 1, 3),
            col_labels=("a", "b"),
            col_counts=(4, 2),
            class_weights=rng.uniform(0.1, 2.0, size=(3, 2)),
        )
        yield ClassifiedBipartite(  # a zero-weight entry, still feasible
            row_labels=(0, 1),
            row_counts=(3, 2),
            col_labels=("a", "b", "c"),
            col_counts=(2, 2, 1),
            class_weights=np.array([[1.0, 0.0, 0.5], [0.4, 1.2, 2.0]]),
        )
        yield ClassifiedBipartite(  # large enough for the vectorized path
            row_labels=tuple(range(4)),
            row_counts=(3, 3, 2, 2),
            col_labels=tuple(range(3)),
            col_counts=(4, 3, 3),
            class_weights=rng.uniform(0.05, 1.5, size=(4, 3)),
        )

    @pytest.mark.parametrize(
        "implementation", ["auto", "vectorized", "reference"]
    )
    def test_prepared_equals_one_shot(self, implementation):
        for instance in self._instances():
            prepared = prepare_contingency_dp(
                instance, implementation=implementation
            )
            for seed in range(5):
                one_shot = sample_contingency_table(
                    instance,
                    np.random.default_rng(seed),
                    implementation=implementation,
                )
                repeat = (
                    prepared.sample(np.random.default_rng(seed))
                    if prepared.consumes_rng
                    else prepared.sample()
                )
                assert np.array_equal(one_shot, repeat), (
                    implementation,
                    seed,
                )

    def test_plan_dedup_serves_isomorphic_instances(self):
        """Equal (counts, weights) with different labels share one build."""
        plan = PlacementPlan()
        weights = np.array([[1.0, 0.5], [0.25, 2.0]])
        first = ClassifiedBipartite(
            row_labels=(5, 9), row_counts=(2, 2),
            col_labels=((0, 1), (1, 0)), col_counts=(2, 2),
            class_weights=weights,
        )
        relabeled = ClassifiedBipartite(
            row_labels=(100, 200), row_counts=(2, 2),
            col_labels=("x", "y"), col_counts=(2, 2),
            class_weights=weights.copy(),
        )
        assert instance_digest(first) == instance_digest(relabeled)
        a = plan.prepared_dp(first)
        b = plan.prepared_dp(relabeled)
        assert a is b
        assert plan.dp_misses == 1 and plan.dp_hits == 1
        # Different weights => different digest => fresh build.
        other = ClassifiedBipartite(
            row_labels=(5, 9), row_counts=(2, 2),
            col_labels=((0, 1), (1, 0)), col_counts=(2, 2),
            class_weights=weights * 1.5,
        )
        assert plan.prepared_dp(other) is not a
        assert plan.dp_misses == 2


def _exact_table_law(instance: ClassifiedBipartite) -> dict[bytes, float]:
    """Exact table distribution from the permanent_class_dp factorization:
    P(T) prop to prod_{r,c} w[r,c]^{T[r,c]} / T[r,c]!."""
    weights = np.asarray(instance.class_weights, dtype=np.float64)
    a = tuple(instance.row_counts)
    b = tuple(instance.col_counts)

    tables: list[np.ndarray] = []

    def recurse(col: int, remaining: tuple[int, ...], partial: list):
        if col == len(b):
            if all(x == 0 for x in remaining):
                tables.append(np.array(partial, dtype=np.int64).T)
            return
        for allocation in _compositions(b[col], remaining):
            recurse(
                col + 1,
                tuple(r - k for r, k in zip(remaining, allocation)),
                partial + [allocation],
            )

    recurse(0, a, [])
    law: dict[bytes, float] = {}
    for table in tables:
        log_weight = 0.0
        feasible = True
        for r in range(len(a)):
            for c in range(len(b)):
                count = int(table[r, c])
                if count == 0:
                    continue
                if weights[r, c] <= 0.0:
                    feasible = False
                    break
                log_weight += (
                    count * math.log(weights[r, c]) - math.lgamma(count + 1)
                )
            if not feasible:
                break
        if feasible:
            law[table.tobytes()] = math.exp(log_weight)
    norm = sum(law.values())
    return {key: value / norm for key, value in law.items()}


class TestContingencyTableLaw:
    """Sampled table frequencies match the exact marginal distribution."""

    @pytest.mark.parametrize(
        "implementation,use_plan",
        list(product(["auto", "vectorized", "reference"], [False, True])),
    )
    def test_frequencies_match_exact_law(self, implementation, use_plan):
        instance = ClassifiedBipartite(
            row_labels=(0, 1),
            row_counts=(3, 2),
            col_labels=("a", "b"),
            col_counts=(3, 2),
            class_weights=np.array([[1.0, 0.6], [0.3, 1.8]]),
        )
        law = _exact_table_law(instance)
        assert len(law) > 1
        draws = 4000
        rng = np.random.default_rng(1234)
        plan = PlacementPlan()
        counts: dict[bytes, int] = {}
        if use_plan:
            # The plan builds the dispatching evaluator on a miss; seed
            # its memo with the pinned one so every draw is a plan hit.
            plan._dps[instance_digest(instance)] = prepare_contingency_dp(
                instance, implementation=implementation
            )
        for __ in range(draws):
            if use_plan:
                prepared = plan.prepared_dp(instance)
                table = prepared.sample(rng)
            else:
                table = sample_contingency_table(
                    instance, rng, implementation=implementation
                )
            counts[table.tobytes()] = counts.get(table.tobytes(), 0) + 1
        assert set(counts) <= set(law)
        support = list(law)
        observed = np.array([counts.get(k, 0) for k in support], dtype=float)
        expected = np.array([law[k] * draws for k in support])
        __, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 1e-4, (implementation, use_plan, p_value)
        if use_plan:
            assert plan.dp_hits == draws


class TestPlanPersistence:
    """Plans survive the npz round trip and disk-tier restarts unchanged."""

    def test_export_import_round_trip(self):
        plan = PlacementPlan()
        rng = np.random.default_rng(3)
        half = rng.uniform(0.01, 1.0, size=(6, 6))
        law1, total1 = plan.law(4, 1, 2, half)
        law2, total2 = plan.law(2, 0, 5, half)
        plan.first_visit(
            3, 4, lambda: (np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5]))
        )
        restored = PlacementPlan.from_arrays(
            {k: np.asarray(v) for k, v in plan.export_arrays().items()}
        )
        r1, t1 = restored.law(4, 1, 2, half)
        assert np.array_equal(r1, law1) and t1 == total1
        r2, t2 = restored.law(2, 0, 5, half)
        assert np.array_equal(r2, law2) and t2 == total2
        neighbors, probabilities = restored.first_visit(
            3, 4, lambda: pytest.fail("should be served from the memo")
        )
        assert np.array_equal(neighbors, [0, 1, 2])
        assert restored.law_hits == 2 and restored.first_visit_hits == 1

    def test_bad_plan_arrays_raise(self):
        with pytest.raises((ValueError, KeyError)):
            PlacementPlan.from_arrays({"bogus": np.zeros(3)})
        with pytest.raises(ValueError):
            PlacementPlan.from_arrays(
                {"plan_format": np.asarray([999], dtype=np.int64)}
            )
        with pytest.raises(ValueError):  # a v2 per-entry blob
            PlacementPlan.from_arrays(
                {
                    "plan_format": np.asarray([2], dtype=np.int64),
                    "fvn/1/2": np.asarray([0, 1]),
                    "fvp/1/2": np.asarray([0.5, 0.5]),
                }
            )
        plan = PlacementPlan()
        assert plan.export_arrays() is None  # nothing worth spilling
        plan.law(1, 0, 1, np.full((2, 2), 0.5))
        plan.first_visit(
            1, 2, lambda: (np.array([0, 1]), np.array([0.5, 0.5]))
        )
        plan._dp_seeds["ab"] = {
            (0, 5): (np.asarray([[1, 2], [2, 1]]), np.asarray([0.5, 1.0]))
        }
        good = plan.export_arrays()
        assert set(good) == set(PLAN_MEMBERS)
        assert PlacementPlan.from_arrays(good)._dp_seeds.keys() == {"ab"}
        int64 = np.int64
        missing = dict(good)
        del missing["fv_probabilities"]
        bad_cases = [
            missing,
            dict(good, law_cdfs=np.zeros(3)),
            dict(good, fv_lengths=np.asarray([3], dtype=int64)),
            dict(good, fv_lengths=np.asarray([0], dtype=int64)),
            dict(good, fv_neighbors=np.asarray([0.0, 1.0])),
            dict(good, fv_keys=np.asarray([1, 2], dtype=int64)),
            dict(good, law_keys=np.asarray([[1, 0, 1]] * 2, dtype=int64),
                 law_values=np.ones((2, 2))),
            dict(good, dp_digests=np.asarray([7])),
            dict(good, dp_widths=np.asarray([0], dtype=int64)),
            dict(good, dp_widths=np.asarray([3], dtype=int64)),
            dict(good, dp_counts=np.asarray([1], dtype=int64)),
        ]
        for bad in bad_cases:
            with pytest.raises(ValueError):
                PlacementPlan.from_arrays(bad)

    @staticmethod
    def _npz_round_trip(plan: PlacementPlan) -> PlacementPlan:
        buffer = io.BytesIO()
        np.savez(buffer, **plan.export_arrays())
        buffer.seek(0)
        with np.load(buffer) as arrays:
            return PlacementPlan.from_arrays(arrays)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_npz_round_trip_is_bit_identical(self, backend):
        """Laws and totals, first-visit pairs and DP seeds survive the
        columnar blob bit for bit, on either numerics backend."""
        from repro.api import EnsembleRequest, Session, preset_config

        config = preset_config(
            "fast-bench", ell=1 << 8, linalg_backend=backend
        )
        session = Session(graphs.complete_graph(24), config, seed=0)
        session.run(EnsembleRequest(count=2, seed=5, jobs=1))
        plans = [
            entry.plan
            for entry in session._cache._entries.values()
            if entry.plan is not None
        ]
        assert plans
        seeded = 0
        for plan in plans:
            restored = self._npz_round_trip(plan)
            assert list(restored._laws) == list(plan._laws)
            for key, (law, total) in plan._laws.items():
                restored_law, restored_total = restored._laws[key]
                assert restored_law.dtype == law.dtype
                assert restored_law.tobytes() == law.tobytes()
                assert restored_total == total
            assert list(restored._first_visit) == list(plan._first_visit)
            for key, (neighbors, probabilities) in plan._first_visit.items():
                got_neighbors, got_probabilities = restored._first_visit[key]
                assert got_neighbors.dtype == neighbors.dtype
                assert np.array_equal(got_neighbors, neighbors)
                assert got_probabilities.tobytes() == probabilities.tobytes()
            seeds = plan._dp_seed_exports()
            assert list(restored._dp_seeds) == list(seeds)
            for digest, entries in seeds.items():
                got = restored._dp_seeds[digest]
                assert set(got) == set(entries)
                for state, (allocations, cdf) in entries.items():
                    got_allocations, got_cdf = got[state]
                    assert got_allocations.dtype == allocations.dtype
                    assert np.array_equal(got_allocations, allocations)
                    assert got_cdf.tobytes() == cdf.tobytes()
            seeded += bool(seeds)
        assert seeded, "some plan must carry DP seeds"

    def test_blob_member_names_do_not_grow_with_the_plan(self, tmp_path):
        """The blob's zip directory is the same fixed set after one draw
        and after ten, however many memo entries the plan gained."""
        from repro.api import EnsembleRequest, Session, preset_config
        from repro.engine.store import PLAN_BLOB

        def member_sets():
            sets = {}
            for blob in tmp_path.glob(f"blobs/*/{PLAN_BLOB}"):
                with np.load(blob) as arrays:
                    sets[blob] = (
                        frozenset(arrays.keys()),
                        arrays["law_keys"].shape[0],
                    )
            return sets

        graph = graphs.complete_graph(16)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        session = Session(graph, config, seed=0)
        session.run(EnsembleRequest(count=1, seed=1, jobs=1))
        after_one = member_sets()
        session.run(EnsembleRequest(count=9, seed=2, jobs=1))
        after_ten = member_sets()
        assert after_one and len(after_ten) > len(after_one)
        assert {names for names, __ in after_one.values()} == {
            frozenset(PLAN_MEMBERS)
        }
        assert {names for names, __ in after_ten.values()} == {
            frozenset(PLAN_MEMBERS)
        }
        # The phase-1 blob is shared by every draw and kept growing.
        assert any(
            after_ten[blob][1] > laws
            for blob, (__, laws) in after_one.items()
        )

    @pytest.mark.parametrize(
        "damage", ["legacy-v2", "fv-length", "dp-offset"]
    )
    def test_unreadable_plan_blob_loads_cold(self, tmp_path, damage):
        """An old-format blob, or a packed one whose lengths no longer
        tile its data, is a cold plan: the file goes, the numerics still
        hit, and the next run republishes a readable blob."""
        from repro.api import EnsembleRequest, Session, preset_config
        from repro.engine.store import PLAN_BLOB, DiskTier, key_digest

        graph = graphs.complete_graph(24)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        session = Session(graph, config, seed=0)
        request = EnsembleRequest(count=2, seed=5, jobs=1)
        baseline = session.run(request)
        # Damage the blob of an entry that carries DP seeds.
        for key in session._cache.memory._entries:
            blob = tmp_path / "blobs" / key_digest(key) / PLAN_BLOB
            if not blob.exists():
                continue
            with np.load(blob) as loaded:
                arrays = {name: loaded[name] for name in loaded.keys()}
            if arrays["dp_digests"].shape[0]:
                break
        else:
            pytest.fail("no plan blob carries DP seeds")
        if damage == "legacy-v2":
            arrays = {
                "plan_format": np.asarray([2], dtype=np.int64),
                "law/1/0/1": arrays["law_values"][0],
                "fvn/0/1": arrays["fv_neighbors"][:2],
                "fvp/0/1": arrays["fv_probabilities"][:2],
            }
        elif damage == "fv-length":
            arrays["fv_lengths"][0] += 1
        else:
            arrays["dp_counts"][-1] -= 1
        with open(blob, "wb") as handle:
            np.savez(handle, **arrays)

        disk = DiskTier(tmp_path)
        numerics = disk.lookup(key)
        assert numerics is not None and numerics.plan is None
        assert disk.hits == 1 and disk.misses == 0
        assert not blob.exists()

        recovered = Session(graph, config, seed=0).run(request)
        assert recovered.result.trees == baseline.result.trees
        with np.load(blob) as arrays:
            assert PlacementPlan.from_arrays(arrays)._laws

    def test_failed_plan_spill_is_retried_next_run(
        self, tmp_path, monkeypatch
    ):
        """A spill that never published keeps the plan dirty, so the
        next run writes the growth instead of losing it."""
        import os
        from pathlib import Path

        from repro.api import EnsembleRequest, Session, preset_config
        from repro.engine.store import PLAN_BLOB

        real_replace = os.replace

        def failing_replace(src, dst, *args, **kwargs):
            if Path(dst).name == PLAN_BLOB:
                raise OSError("injected plan publish failure")
            return real_replace(src, dst, *args, **kwargs)

        graph = graphs.complete_graph(24)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        session = Session(graph, config, seed=0)
        request = EnsembleRequest(count=2, seed=5, jobs=1)
        monkeypatch.setattr(os, "replace", failing_replace)
        first = session.run(request)
        monkeypatch.undo()
        assert not list(tmp_path.glob(f"blobs/*/{PLAN_BLOB}"))
        assert not list(tmp_path.glob("blobs/.tmp-plan-*"))
        plans = [
            entry.plan
            for entry in session._cache.memory._entries.values()
            if entry.plan is not None
        ]

        def evaluators_dirty():
            return any(
                getattr(prepared, "cdf_memo_dirty", False)
                for plan in plans
                for prepared in plan._dps.values()
            )

        assert plans and all(plan.dirty for plan in plans)
        assert evaluators_dirty()

        # A same-seed replay adds nothing new, yet still spills.
        second = session.run(request)
        assert second.result.trees == first.result.trees
        blobs = list(tmp_path.glob(f"blobs/*/{PLAN_BLOB}"))
        assert len(blobs) == len(plans)
        assert not any(plan.dirty for plan in plans)
        assert not evaluators_dirty()

    def test_warm_disk_restart_reuses_classification(self, tmp_path):
        """A restarted session loads plans and draws identical trees."""
        from repro.api import EnsembleRequest, Session, preset_config
        from repro.engine.store import PLAN_BLOB

        graph = graphs.complete_graph(24)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        cold = Session(graph, config, seed=0)
        first = cold.run(EnsembleRequest(count=2, seed=5, jobs=1))
        plan_blobs = list(tmp_path.glob(f"blobs/*/{PLAN_BLOB}"))
        assert plan_blobs, "batched runs must spill plans"

        warm = Session(graph, config, seed=0)
        second = warm.run(EnsembleRequest(count=2, seed=5, jobs=1))
        assert first.result.trees == second.result.trees
        assert [r.rounds for r in first.result.results] == [
            r.rounds for r in second.result.results
        ]

        # The restarted engine's phase-1 plan must have come from disk
        # with its laws intact (law hits on the very first warm draw).
        engine = warm.engine("approximate")
        entry = warm._cache.lookup(
            (engine._cache_token, tuple(range(graph.n)))
        )
        assert entry is not None and entry.plan is not None
        assert entry.plan.law_hits > 0

    def test_plan_memos_evict_lru_when_full(self):
        """A full memo displaces its LRU entry instead of refusing."""
        plan = PlacementPlan(max_laws=2)
        half = np.full((4, 4), 0.25)
        plan.law(1, 0, 1, half)
        plan.law(1, 0, 2, half)
        plan.law(1, 0, 1, half)  # refresh (0, 1): (0, 2) becomes LRU
        plan.law(1, 0, 3, half)  # evicts (0, 2)
        assert plan.evicted == 1
        assert (1, 0, 3) in plan._laws and (1, 0, 1) in plan._laws
        assert (1, 0, 2) not in plan._laws
        plan.law(1, 0, 3, half)
        assert plan.law_hits == 2  # the newest entry was admitted

    def test_cache_refresh_tracks_plan_growth(self):
        """The RAM tier's byte ledger follows plan growth via refresh."""
        from repro.engine.cache import DerivedGraphCache

        cache = DerivedGraphCache(max_entries=4)
        engine = SamplerEngine(
            graphs.complete_graph(8),
            SamplerConfig(ell=1 << 8),
            cache=cache,
        )
        engine.run(np.random.default_rng(0))
        for key, numerics in cache._entries.items():
            assert numerics.plan is not None
            assert cache._sizes[key] == numerics.nbytes(), (
                "refresh must re-measure plan-bearing entries"
            )
            assert numerics.plan.nbytes() > 0

    def test_corrupt_plan_blob_is_a_cold_plan_not_a_crash(self, tmp_path):
        from repro.api import EnsembleRequest, Session, preset_config
        from repro.engine.store import PLAN_BLOB

        graph = graphs.complete_graph(16)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        baseline = Session(graph, config, seed=0).run(
            EnsembleRequest(count=2, seed=5, jobs=1)
        )
        for blob in tmp_path.glob(f"blobs/*/{PLAN_BLOB}"):
            blob.write_bytes(b"not an npz")
        recovered = Session(graph, config, seed=0).run(
            EnsembleRequest(count=2, seed=5, jobs=1)
        )
        assert recovered.result.trees == baseline.result.trees
        # The broken blobs were dropped on load (and fresh plans respilled
        # by the recovery run), never trusted.
        for blob in tmp_path.glob(f"blobs/*/{PLAN_BLOB}"):
            assert blob.read_bytes() != b"not an npz"

    def test_ensemble_workers_share_plans(self, tmp_path):
        """jobs=2 over a shared cache_dir equals jobs=1 (plans included)."""
        from repro.api import EnsembleRequest, Session, preset_config

        graph = graphs.complete_graph(16)
        config = preset_config(
            "fast-bench", ell=1 << 8, cache_dir=str(tmp_path)
        )
        parallel = Session(graph, config, seed=0).run(
            EnsembleRequest(count=4, seed=5, jobs=2)
        )
        serial = Session(graph, config, seed=0).run(
            EnsembleRequest(count=4, seed=5, jobs=1)
        )
        assert parallel.result.trees == serial.result.trees


class TestSessionSurface:
    """The retired placement_mode knob fails loudly at every surface."""

    def test_meta_reports_contract_not_placement_mode(self):
        from repro.api import SampleRequest, Session, preset_config

        graph = graphs.cycle_graph(8)
        response = Session(
            graph, preset_config("fast-audit", rng_contract="v1"), seed=0
        ).run(SampleRequest(seed=0))
        assert response.meta["rng_contract"] == "v1"
        assert "placement_mode" not in response.meta

    def test_unknown_placement_mode_rejected(self):
        from repro.api import preset_config
        from repro.errors import ConfigError

        for value in ("reference", "batched"):
            with pytest.raises(
                ConfigError, match=r"unknown config field\(s\).*placement_mode"
            ):
                preset_config("fast-audit", placement_mode=value)
        with pytest.raises(TypeError):
            SamplerConfig(placement_mode="reference")
