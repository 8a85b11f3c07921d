"""E9 (Section 1.4): the random-weight MST strawman is not uniform.

Paper claim: assigning random [0,1] edge weights and taking the MST --
tempting, since MST is O(1) rounds in the CongestedClique -- samples
spanning trees from a distribution "well known to differ from the uniform
distribution" [39]. Measured: TV distance and chi-square p-values of the
strawman vs our sampler on graphs where the bias is pronounced.
"""

from __future__ import annotations


from repro import graphs
from repro.analysis import (
    chi_square_uniformity,
    expected_tv_noise,
    tv_to_uniform,
)
from repro.api import get_preset
from repro.engine import SamplerEngine
from repro.graphs import count_spanning_trees
from repro.walks import random_weight_mst_tree

CONFIG = get_preset("fast-audit").config
N_SAMPLES = 1500


def test_mst_strawman_bias(benchmark, report, rng):
    cases = {
        "theta(1,1,3)": graphs.theta_graph(1, 1, 3),
        "theta(1,2,2)": graphs.theta_graph(1, 2, 2),
        "cycle+chord(6)": graphs.cycle_with_chord(6),
    }
    results = {}

    def experiment():
        for name, g in cases.items():
            mst_trees = [random_weight_mst_tree(g, rng) for _ in range(N_SAMPLES)]
            our_trees = [
                SamplerEngine(g, CONFIG).run(rng).tree
                for _ in range(N_SAMPLES // 3)
            ]
            results[name] = (
                tv_to_uniform(g, mst_trees),
                chi_square_uniformity(g, mst_trees)[1],
                tv_to_uniform(g, our_trees),
                chi_square_uniformity(g, our_trees)[1],
                int(round(count_spanning_trees(g))),
            )
        return results

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    lines = [
        f"{'graph':<16s} {'MST TV':>8s} {'MST p':>9s} {'ours TV':>8s} "
        f"{'ours p':>9s} {'noise':>7s}",
    ]
    for name, (mst_tv, mst_p, our_tv, our_p, trees) in results.items():
        noise = expected_tv_noise(trees, N_SAMPLES)
        lines.append(
            f"{name:<16s} {mst_tv:>8.4f} {mst_p:>9.1e} {our_tv:>8.4f} "
            f"{our_p:>9.1e} {noise:>7.4f}"
        )
    lines.append(
        "shape check: MST chi-square p-values collapse to ~0 on the theta "
        "graphs while our sampler stays at the noise floor"
    )
    report("E9 / Section 1.4: random-weight MST is biased", lines)
    assert results["theta(1,1,3)"][1] < 1e-6   # strawman rejected
    assert results["theta(1,1,3)"][3] > 1e-3   # ours accepted
