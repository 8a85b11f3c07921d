"""E10 (Lemma 7 / Section 2.5): matrix powers at bounded precision.

Paper claim: the power ladder can be run with entries truncated to
O(log(1/delta)) bits while keeping subtractive error below beta (Lemma
7's E(k) <= (n+1) E(k/2) + delta recurrence), and the whole sampler stays
within eps of uniform under approximate probabilities (Lemma 9).
Measured: observed ladder error vs the Lemma 7 bound across bit widths,
and end-to-end sampler uniformity at reduced precision.
"""

from __future__ import annotations

import numpy as np

from repro import graphs
from repro.analysis import expected_tv_noise, tv_to_uniform
from repro.core import SamplerConfig
from repro.engine import SamplerEngine
from repro.linalg import PowerLadder

GRAPH = graphs.cycle_with_chord(5)
ELL = 1 << 10


def test_lemma7_error_growth(benchmark, report):
    g = graphs.complete_graph(8)
    p = g.transition_matrix()
    exact = np.linalg.matrix_power(p, 64)
    observed = {}

    def experiment():
        for bits in (20, 30, 40, 50):
            ladder = PowerLadder(p, 64, bits=bits)
            observed[bits] = (
                float(np.max(np.abs(exact - ladder.power(64)))),
                ladder.max_subtractive_error_bound(),
            )
        return observed

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    lines = [f"{'bits':>5s} {'observed error':>15s} {'Lemma 7 bound':>14s}"]
    for bits, (err, bound) in observed.items():
        lines.append(f"{bits:>5d} {err:>15.3e} {bound:>14.3e}")
    lines.append("shape check: observed error always below the bound, "
                 "shrinking ~2^-bits")
    report("E10 / Lemma 7: bounded-precision matrix powers", lines)
    for bits, (err, bound) in observed.items():
        assert err <= bound


def test_reduced_precision_sampler_uniformity(benchmark, report):
    rng = np.random.default_rng(5150)
    config = SamplerConfig(ell=ELL, precision_bits=48)
    engine = SamplerEngine(GRAPH, config)
    n_samples = 700

    def experiment():
        return [engine.run(rng).tree for _ in range(n_samples)]

    trees = benchmark.pedantic(experiment, rounds=1, iterations=1)
    tv = tv_to_uniform(GRAPH, trees)
    noise = expected_tv_noise(11, n_samples)
    report(
        "E10b / Lemma 9: sampler at 48-bit precision",
        [f"TV = {tv:.4f} vs noise floor {noise:.4f} ({n_samples} samples)",
         "shape check: reduced-precision pipeline still samples uniformly"],
    )
    assert tv < 4 * noise
