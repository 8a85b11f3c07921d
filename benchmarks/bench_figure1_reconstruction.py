"""E7 (Figure 1 / Lemma 3): matching-based walk reconstruction is lossless.

Paper claim: the leader can reconstruct a correctly distributed walk from
just the midpoint multiset + a weighted perfect matching (Lemma 3 / 4).
Measured: TV distance between directly filled level transitions and
matching-reconstructed ones on the Figure 1 walk shape, for both the
exact-DP and MCMC matching samplers of the resampling oracle
(``resample_placement``; the sampler itself places midpoints from the
bank, whose law this reconstruction reproduces).
"""

from __future__ import annotations

from collections import Counter


from repro import graphs
from repro.core.midpoints import MidpointBank
from repro.core.placement import resample_placement
from repro.core.truncation import LevelView
from repro.linalg import PowerLadder
from repro.walks.fill import PartialWalk, _fill_level

N_SAMPLES = 2500


def _tv(a: Counter, b: Counter, total: int) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a[k] / total - b[k] / total) for k in keys)


def test_figure1_reconstruction_fidelity(benchmark, report, rng):
    g = graphs.complete_graph(5)
    ladder = PowerLadder(g.transition_matrix(), 8)
    half = ladder.power(2)
    base = [1, 3, 2, 1, 3, 2, 1, 2, 3]  # the figure's partial walk
    pair_counts: dict = {}
    for pair in zip(base, base[1:]):
        pair_counts[pair] = pair_counts.get(pair, 0) + 1

    tvs = {}

    def experiment():
        # Two *independent* direct batches calibrate the empirical noise
        # floor: reconstruction is lossless iff its TV to a direct batch
        # matches the TV between two direct batches.
        def project(vertices):
            # Small-support statistic: the first and last inserted
            # midpoints (support <= 25, so TVs are interpretable).
            return (vertices[1], vertices[-2])

        direct_a = Counter()
        direct_b = Counter()
        direct_a_proj = Counter()
        direct_b_proj = Counter()
        for _ in range(N_SAMPLES):
            walk_a = _fill_level(PartialWalk(4, list(base)), half, rng).vertices
            walk_b = _fill_level(PartialWalk(4, list(base)), half, rng).vertices
            direct_a[tuple(walk_a)] += 1
            direct_b[tuple(walk_b)] += 1
            direct_a_proj[project(walk_a)] += 1
            direct_b_proj[project(walk_b)] += 1
        tvs["direct-vs-direct full walks (noise floor)"] = _tv(
            direct_a, direct_b, N_SAMPLES
        )
        tvs["direct-vs-direct projected (noise floor)"] = _tv(
            direct_a_proj, direct_b_proj, N_SAMPLES
        )
        for method in ("exact-dp", "mcmc"):
            rebuilt = Counter()
            rebuilt_proj = Counter()
            for _ in range(N_SAMPLES):
                bank = MidpointBank(pair_counts, half, rng)
                view = LevelView(PartialWalk(4, list(base)), bank)
                vertices = resample_placement(
                    view, view.top, half, rng, method=method
                ).vertices
                rebuilt[tuple(vertices)] += 1
                rebuilt_proj[project(vertices)] += 1
            tvs[f"{method} full walks"] = _tv(direct_a, rebuilt, N_SAMPLES)
            tvs[f"{method} projected"] = _tv(direct_a_proj, rebuilt_proj, N_SAMPLES)
        return tvs

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    lines = [
        f"W_i = {base} (8 midpoints, 4 distinct pairs), {N_SAMPLES} trials",
        *(f"TV: {m} = {tv:.4f}" for m, tv in tvs.items()),
        "shape check: reconstruction TVs indistinguishable from the "
        "direct-vs-direct noise floors on both statistics (Lemma 3 "
        "exactness; MCMC within its Lemma 4 budget)",
    ]
    report("E7 / Figure 1: multiset + matching reconstruction", lines)
    full_floor = tvs["direct-vs-direct full walks (noise floor)"]
    proj_floor = tvs["direct-vs-direct projected (noise floor)"]
    assert tvs["exact-dp full walks"] < 1.35 * full_floor + 0.02
    assert tvs["mcmc full walks"] < 1.5 * full_floor + 0.03
    assert tvs["exact-dp projected"] < 3 * proj_floor + 0.02
    assert tvs["mcmc projected"] < 3 * proj_floor + 0.03
