"""Tests for the weighted perfect matching samplers (Section 1.8 / 2.1.3)."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.matching import (
    ClassifiedBipartite,
    expand_table_to_assignment,
    permanent_class_dp,
    sample_assignment_by_classes,
    sample_contingency_table,
    sample_matching_exact,
    sample_matching_mcmc,
)


def exact_matching_law(weights: np.ndarray) -> dict[tuple[int, ...], float]:
    """Ground-truth law over permutations, P(sigma) prop to prod of weights."""
    n = weights.shape[0]
    law: dict[tuple[int, ...], float] = {}
    for sigma in itertools.permutations(range(n)):
        w = 1.0
        for i, j in enumerate(sigma):
            w *= weights[i, j]
        if w > 0:
            law[sigma] = w
    total = sum(law.values())
    return {sigma: w / total for sigma, w in law.items()}


def tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class TestExactSampler:
    def test_matches_ground_truth(self, rng):
        weights = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        target = exact_matching_law(weights)
        samples = Counter(
            tuple(sample_matching_exact(weights, rng)) for _ in range(4000)
        )
        empirical = {s: c / 4000 for s, c in samples.items()}
        assert tv(empirical, target) < 0.05

    def test_respects_zero_weights(self, rng):
        weights = np.array([[1.0, 0.0], [1.0, 1.0]])
        for _ in range(50):
            assignment = sample_matching_exact(weights, rng)
            assert assignment == [0, 1]

    def test_infeasible_raises(self, rng):
        weights = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MatchingError):
            sample_matching_exact(weights, rng)

    def test_nonsquare_rejected(self, rng):
        with pytest.raises(MatchingError):
            sample_matching_exact(np.ones((2, 3)), rng)


class TestMCMCSampler:
    def test_matches_ground_truth(self, rng):
        weights = np.array([[1.0, 3.0], [2.0, 1.0]])
        target = exact_matching_law(weights)
        samples = Counter(
            tuple(sample_matching_mcmc(weights, steps=400, rng=rng))
            for _ in range(3000)
        )
        empirical = {s: c / 3000 for s, c in samples.items()}
        assert tv(empirical, target) < 0.05

    def test_initial_state_validation(self, rng):
        weights = np.ones((3, 3))
        with pytest.raises(MatchingError):
            sample_matching_mcmc(weights, rng=rng, initial=[0, 0, 1])

    def test_zero_weight_start_rejected(self, rng):
        weights = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(MatchingError):
            sample_matching_mcmc(weights, rng=rng)  # identity start has w=0

    def test_feasible_custom_start(self, rng):
        weights = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = sample_matching_mcmc(weights, rng=rng, initial=[1, 0])
        assert result == [1, 0]

    def test_empty_instance(self, rng):
        assert sample_matching_mcmc(np.zeros((0, 0)), rng=rng) == []

    def test_default_step_budget_capped(self, rng):
        """The default proposal budget is capped at 100k so large
        placement instances cannot stall the pipeline (regression for a
        real hang: B ~ 300 midpoints meant 10 B^3 ~ 2.7e8 proposals)."""
        import time

        n = 60
        weights = rng.random((n, n)) + 0.1
        start = time.perf_counter()
        sample_matching_mcmc(weights, rng=rng)
        assert time.perf_counter() - start < 10.0

    def test_capped_chain_still_accurate_on_moderate_instance(self, rng):
        """100k proposals mix a 10x10 dense instance far past its needs."""
        weights = rng.random((4, 4)) + 0.5
        target = exact_matching_law(weights)
        samples = Counter(
            tuple(sample_matching_mcmc(weights, steps=2000, rng=rng))
            for _ in range(2000)
        )
        empirical = {s: c / 2000 for s, c in samples.items()}
        assert tv(empirical, target) < 0.08


class TestClassifiedBipartite:
    def test_validation(self):
        with pytest.raises(MatchingError):
            ClassifiedBipartite((1,), (1,), (2,), (2,), np.ones((1, 1)))
        with pytest.raises(MatchingError):
            ClassifiedBipartite((1,), (1, 2), (2,), (1,), np.ones((1, 1)))
        with pytest.raises(MatchingError):
            ClassifiedBipartite((1,), (1,), (2,), (1,), -np.ones((1, 1)))

    def test_expanded_weights(self):
        inst = ClassifiedBipartite(
            ("a", "b"), (2, 1), ("x", "y"), (1, 2),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        expanded = inst.expanded_weights()
        assert expanded.shape == (3, 3)
        assert expanded[0, 0] == 1.0 and expanded[0, 2] == 2.0
        assert expanded[2, 1] == 4.0
        assert inst.size == 3

    def test_contingency_table_margins(self, rng):
        inst = ClassifiedBipartite(
            (10, 11, 12), (3, 2, 2), ("p", "q"), (4, 3),
            np.array([[1.0, 2.0], [0.5, 1.0], [1.0, 1.0]]),
        )
        for _ in range(20):
            table = sample_contingency_table(inst, rng)
            assert table.sum(axis=1).tolist() == [3, 2, 2]
            assert table.sum(axis=0).tolist() == [4, 3]

    def test_table_law_matches_class_permanent(self, rng):
        """The marginal law of tables matches the DP weights exactly."""
        weights = np.array([[1.0, 2.0], [3.0, 1.0]])
        inst = ClassifiedBipartite((0, 1), (1, 1), ("x", "y"), (1, 1), weights)
        # Two possible tables: diag (w 1*1=1... via factorization) and anti.
        counts = Counter()
        trials = 4000
        for _ in range(trials):
            table = sample_contingency_table(inst, rng)
            counts[tuple(table.ravel().tolist())] += 1
        # P(diag) prop to w00 * w11 = 1; P(anti) prop to w01 * w10 = 6.
        empirical_diag = counts[(1, 0, 0, 1)] / trials
        assert empirical_diag == pytest.approx(1.0 / 7.0, abs=0.03)

    def test_infeasible_instance_raises(self, rng):
        inst = ClassifiedBipartite(
            (0,), (2,), ("x", "y"), (1, 1),
            np.array([[1.0, 0.0]]),
        )
        with pytest.raises(MatchingError):
            sample_contingency_table(inst, rng)

    def test_expand_table_uniform_shuffle(self, rng):
        inst = ClassifiedBipartite(
            ("a", "b"), (1, 1), ("x",), (2,), np.ones((2, 1))
        )
        table = np.array([[1], [1]])
        orders = Counter(
            tuple(expand_table_to_assignment(inst, table, rng)[0])
            for _ in range(2000)
        )
        assert orders[("a", "b")] / 2000 == pytest.approx(0.5, abs=0.05)

    def test_expand_table_validates_sums(self, rng):
        inst = ClassifiedBipartite(
            ("a",), (2,), ("x", "y"), (1, 1), np.ones((1, 2))
        )
        with pytest.raises(MatchingError):
            expand_table_to_assignment(inst, np.array([[2, 1]]), rng)


class TestClassSamplerVsExpandedSampler:
    """The class-compressed sampler must induce the same matching law as
    exact sampling on the expanded matrix (the Lemma 3 equivalence)."""

    def test_distribution_agreement(self, rng):
        weights = np.array([[1.0, 3.0], [2.0, 1.0]])
        inst = ClassifiedBipartite(
            ("m0", "m1"), (1, 2), ("pq", "rs"), (2, 1), weights
        )
        expanded = inst.expanded_weights()
        target = exact_matching_law(expanded)
        # Project permutations onto (column class -> label multiset +
        # order), the observable the walk reconstruction consumes.
        def project_sigma(sigma):
            labels = ["m0", "m1", "m1"]
            per_col = [None] * 3
            for row, col in enumerate(sigma):
                per_col[col] = labels[row]
            return (per_col[0], per_col[1]), (per_col[2],)

        projected_target: Counter = Counter()
        for sigma, p in target.items():
            projected_target[project_sigma(sigma)] += p

        samples: Counter = Counter()
        trials = 4000
        for _ in range(trials):
            per_class = sample_assignment_by_classes(inst, rng)
            samples[(tuple(per_class[0]), tuple(per_class[1]))] += 1
        empirical = {k: v / trials for k, v in samples.items()}
        assert tv(empirical, dict(projected_target)) < 0.05

    def test_total_weight_consistency(self):
        """Sanity: class permanent equals Ryser on the expansion."""
        weights = np.array([[1.0, 3.0], [2.0, 1.0]])
        inst = ClassifiedBipartite(
            ("m0", "m1"), (1, 2), ("pq", "rs"), (2, 1), weights
        )
        from repro.matching import permanent_ryser

        assert permanent_class_dp(
            weights, [1, 2], [2, 1]
        ) == pytest.approx(permanent_ryser(inst.expanded_weights()), rel=1e-9)


class TestVectorizedVsReferenceDP:
    """``"auto"`` dispatch (closed form or the recursion) is a drop-in for
    the pinned reference recursion. The class keeps the name it had
    beside the retired layered-numpy DP, so test ids stay stable."""

    def _instance(self):
        return ClassifiedBipartite(
            row_labels=(0, 1, 2),
            row_counts=(2, 1, 2),
            col_labels=("a", "b"),
            col_counts=(3, 2),
            class_weights=np.array(
                [[0.5, 1.0], [2.0, 0.3], [1.0, 0.0]]
            ),
        )

    def test_same_law(self, rng):
        from repro.matching.sampler import sample_contingency_table

        inst = self._instance()
        fast: Counter = Counter()
        slow: Counter = Counter()
        trials = 2500
        for _ in range(trials):
            fast[sample_contingency_table(inst, rng).tobytes()] += 1
            slow[
                sample_contingency_table(
                    inst, rng, implementation="reference"
                ).tobytes()
            ] += 1
        keys = set(fast) | set(slow)
        total_variation = 0.5 * sum(
            abs(fast[k] / trials - slow[k] / trials) for k in keys
        )
        assert total_variation < 0.05

    def test_infeasible_rejected_by_both(self):
        from repro.matching.sampler import sample_contingency_table

        inst = ClassifiedBipartite(
            row_labels=(0, 1),
            row_counts=(1, 1),
            col_labels=("a",),
            col_counts=(2,),
            class_weights=np.array([[0.0], [1.0]]),
        )
        for implementation in ("auto", "reference"):
            with pytest.raises(MatchingError):
                sample_contingency_table(
                    inst, implementation=implementation
                )

    def test_unknown_implementation_rejected(self):
        from repro.matching.sampler import sample_contingency_table

        with pytest.raises(MatchingError):
            sample_contingency_table(
                self._instance(), implementation="gpu"
            )

    def test_reference_matching_method_end_to_end(
        self, monkeypatch, oracle_placement
    ):
        """The matching method is no config choice any more (naming it
        is a ``TypeError``), but the resampling oracle still runs the
        reference DP end to end under a phase walk."""
        from repro import graphs
        from repro.core import SamplerConfig
        from repro.engine import SamplerEngine
        from repro.graphs import is_spanning_tree
        from repro.matching.sampler import _PreparedReference

        with pytest.raises(TypeError):
            SamplerConfig(matching_method="exact-dp-reference")
        oracle_placement("exact-dp")
        builds = []
        original = _PreparedReference.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_PreparedReference, "__init__", counting_init)
        g = graphs.complete_graph(16)
        config = SamplerConfig(ell=1 << 10)
        tree = SamplerEngine(g, config).run(np.random.default_rng(0)).tree
        assert is_spanning_tree(g, tree)
        assert builds
