"""Statistical uniformity validation of every sampler (E2).

These are the library's most important tests: each sampler's empirical
tree distribution is compared in total variation against the exact
Matrix-Tree ground truth, with thresholds calibrated to sampling noise.
They use moderate sample counts to stay fast; the benchmarks run the same
comparison at higher resolution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import graphs
from repro.analysis import (
    chi_square_uniformity,
    expected_tv_noise,
    tv_to_uniform,
)
from repro.core import SamplerConfig, sample_tree_fast_cover
from repro.engine import SamplerEngine
from repro.graphs import uniform_tree_distribution

GRAPH = graphs.cycle_with_chord(5)  # 11 spanning trees
NUM_TREES = 11
FAST = SamplerConfig(ell=1 << 10)


def assert_uniform(trees, *, p_floor=1e-3, tv_factor=4.0):
    n_samples = len(trees)
    tv = tv_to_uniform(GRAPH, trees)
    noise = expected_tv_noise(NUM_TREES, n_samples)
    assert tv < tv_factor * noise, f"TV {tv:.4f} vs noise {noise:.4f}"
    __, p_value = chi_square_uniformity(GRAPH, trees)
    assert p_value > p_floor, f"chi-square rejects uniformity (p={p_value:.2e})"


@pytest.mark.slow
class TestTheorem1Sampler:
    def test_uniform(self):
        rng = np.random.default_rng(11)
        engine = SamplerEngine(GRAPH, FAST)
        assert_uniform([engine.run(rng).tree for _ in range(1500)])

    def test_uniform_with_mcmc_matching(self, oracle_placement):
        """Placement resampled by the MCMC oracle instead of read from
        the bank."""
        rng = np.random.default_rng(12)
        # Explicit small proposal budget: placement instances on this
        # graph can hold hundreds of midpoints, where the default budget
        # costs seconds per draw. The chain starts at the true placement
        # (already stationary), so the budget does not affect exactness
        # -- see resample_placement; cold-start mixing is exercised in
        # tests/test_matching_sampler.py instead.
        oracle_placement("mcmc", mcmc_steps=200)
        engine = SamplerEngine(GRAPH, FAST)
        assert_uniform([engine.run(rng).tree for _ in range(800)])

    def test_uniform_with_reduced_precision(self):
        """Section 2.5: the algorithm stays within eps at finite precision."""
        rng = np.random.default_rng(13)
        config = SamplerConfig(ell=1 << 10, precision_bits=48)
        engine = SamplerEngine(GRAPH, config)
        assert_uniform([engine.run(rng).tree for _ in range(1200)])


@pytest.mark.slow
class TestExactSampler:
    def test_uniform(self):
        rng = np.random.default_rng(21)
        engine = SamplerEngine(GRAPH, FAST, variant="exact")
        assert_uniform([engine.run(rng).tree for _ in range(1500)])


@pytest.mark.slow
class TestFastCoverSampler:
    def test_uniform(self):
        rng = np.random.default_rng(31)
        assert_uniform(
            [sample_tree_fast_cover(GRAPH, rng).tree for _ in range(1200)]
        )


@pytest.mark.slow
class TestWeightedTarget:
    def test_weighted_tree_law(self, weighted_triangle):
        """Footnote 1: weighted inputs sample trees prop to weight products."""
        rng = np.random.default_rng(41)
        engine = SamplerEngine(weighted_triangle, FAST)
        trees = [engine.run(rng).tree for _ in range(1500)]
        target = uniform_tree_distribution(weighted_triangle)
        from repro.analysis import empirical_tree_distribution, tv_distance

        empirical = empirical_tree_distribution(trees)
        assert tv_distance(empirical, dict(target)) < 0.05
