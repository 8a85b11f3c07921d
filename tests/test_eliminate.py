"""The eliminated-block kernel against the Definition-level oracles.

:mod:`repro.linalg.eliminate` is the only ShortCut/Schur construction the
sampler runs. Every registered family, seeded random subsets (S = V and
|S| = 2 included) and both storages must reproduce each independent
oracle to 1e-12:

- ShortCut: the ``n x n`` fundamental-matrix inverse and Corollary 2's
  power iteration;
- Schur: Definition 2's first-hit law (row by row), one-vertex-at-a-time
  elimination, and Corollary 3's QR product.

The error paths fail with the same :class:`GraphError` on both storages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.core import WeightedGraph
from repro.graphs.families import FAMILY_REGISTRY, build_family
from repro.linalg import is_sparse_matrix, to_dense
from repro.linalg.eliminate import schur_transition, shortcut
from repro.linalg.schur import (
    first_hit_distribution,
    schur_by_elimination,
    schur_via_qr_product,
)
from repro.linalg.shortcut import (
    shortcut_transition_matrix,
    shortcut_via_power_iteration,
)

sparse = pytest.importorskip("scipy.sparse")

STORAGES = {"dense": np.asarray, "csr": sparse.csr_array}
TOL = 1e-12
N = 12


def _subsets(n: int, seed: int) -> list[list[int]]:
    """S = V, |S| = 2 and two mid-sized subsets, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sizes = [n, 2, *rng.integers(3, n, size=2).tolist()]
    return [
        sorted(rng.choice(n, size=size, replace=False).tolist())
        for size in sizes
    ]


def _close(got, expected) -> bool:
    return np.allclose(to_dense(got), expected, rtol=0.0, atol=TOL)


@pytest.fixture(params=sorted(FAMILY_REGISTRY))
def family(request):
    graph, __ = build_family(request.param, N, np.random.default_rng(5))
    return graph, _subsets(graph.n, seed=len(request.param))


@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_kernel_matches_oracles(family, storage):
    graph, subsets = family
    store = STORAGES[storage]
    for subset in subsets:
        q = shortcut(store(graph.transition_matrix()), subset)
        transition, order = schur_transition(store(graph.laplacian()), subset)
        assert is_sparse_matrix(q) == (storage == "csr")
        assert is_sparse_matrix(transition) == (storage == "csr")
        assert order == subset
        assert q.shape == (graph.n, graph.n)

        assert _close(q, shortcut_transition_matrix(graph, subset))
        assert _close(
            q, shortcut_via_power_iteration(graph, subset, beta=1e-14)
        )

        first_hit = np.array(
            [first_hit_distribution(graph, subset, start) for start in subset]
        )
        assert _close(transition, first_hit)
        eliminated, __ = schur_by_elimination(graph, subset)
        assert _close(transition, eliminated.transition_matrix())
        qr, __ = schur_via_qr_product(graph, subset)
        assert _close(transition, qr)


def _errors(graph: WeightedGraph, subset) -> list[str]:
    """The GraphError text of each kernel entry point, per storage."""
    messages = []
    for store in STORAGES.values():
        for build, matrix in (
            (shortcut, graph.transition_matrix()),
            (schur_transition, graph.laplacian()),
        ):
            with pytest.raises(GraphError) as info:
                build(store(matrix), subset)
            messages.append(str(info.value))
    return messages


def test_empty_subset_fails_alike_on_both_storages():
    graph, __ = build_family("cycle", 6, np.random.default_rng(0))
    assert set(_errors(graph, [])) == {"S must be non-empty"}
    assert set(_errors(graph, [0, 6])) == {
        "S contains out-of-range vertices for n=6"
    }


@pytest.mark.parametrize(
    "edges, subset",
    [
        # C = {2, 3} has no edge into S at all.
        ([(0, 1), (2, 3)], [0, 1]),
        # C = {1, 2, 3, 4}: vertex 1 touches S, the path 2-3-4 does not.
        ([(0, 1), (2, 3), (3, 4)], [0]),
    ],
    ids=["no-boundary", "partial-boundary"],
)
def test_cut_off_block_fails_alike_on_both_storages(edges, subset):
    graph = WeightedGraph.from_edges(max(max(e) for e in edges) + 1, edges)
    messages = _errors(graph, subset)
    # dense and CSR raise the same text for each entry point
    assert messages[:2] == messages[2:]
    assert "shortcut matrix undefined" in messages[0]
    assert "Schur complement undefined" in messages[1]
