"""Tests for the M_{p,q} midpoint machinery (Algorithm 2)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import graphs
from repro.clique import CongestedClique
from repro.core.midpoints import MidpointBank
from repro.errors import PrecisionError, WalkError
from repro.linalg import PowerLadder


@pytest.fixture
def half_power():
    g = graphs.cycle_with_chord(5)
    return PowerLadder(g.transition_matrix(), 4).power(2)


class TestSequenceGeneration:
    def test_sequences_have_requested_lengths(self, half_power, rng):
        bank = MidpointBank({(0, 2): 5, (2, 0): 3}, half_power, rng)
        assert len(bank.sequence((0, 2))) == 5
        assert len(bank.sequence((2, 0))) == 3

    def test_sequence_law_matches_formula(self, half_power, rng):
        bank = MidpointBank({(0, 2): 8000}, half_power, rng)
        law = half_power[0, :] * half_power[:, 2]
        law = law / law.sum()
        freq = Counter(int(v) for v in bank.sequence((0, 2)))
        for v, probability in enumerate(law):
            assert freq[v] / 8000 == pytest.approx(probability, abs=0.02)

    def test_zero_count_pair(self, half_power, rng):
        bank = MidpointBank({(0, 2): 0}, half_power, rng)
        assert len(bank.sequence((0, 2))) == 0

    def test_negative_count_rejected(self, half_power, rng):
        with pytest.raises(WalkError):
            MidpointBank({(0, 2): -1}, half_power, rng)

    def test_precision_floor_raises(self, rng):
        g = graphs.path_graph(4)  # bipartite: (0, 1) at even distance = 0
        half = g.transition_matrix()
        with pytest.raises(PrecisionError):
            MidpointBank({(0, 1): 1}, half, rng, normalizer_floor=0.0)


class TestQueries:
    def test_value_at(self, half_power, rng):
        bank = MidpointBank({(0, 2): 4}, half_power, rng)
        sequence = bank.sequence((0, 2))
        for i in range(4):
            assert bank.value_at((0, 2), i) == int(sequence[i])

    def test_value_at_out_of_range(self, half_power, rng):
        bank = MidpointBank({(0, 2): 2}, half_power, rng)
        with pytest.raises(WalkError):
            bank.value_at((0, 2), 2)

    def test_truncated_counts(self, half_power, rng):
        bank = MidpointBank({(0, 2): 6, (2, 4): 4}, half_power, rng)
        counts = bank.truncated_counts({(0, 2): 3, (2, 4): 0})
        manual = Counter(int(v) for v in bank.sequence((0, 2))[:3])
        assert counts == manual
        assert sum(counts.values()) == 3

    def test_truncated_counts_validation(self, half_power, rng):
        bank = MidpointBank({(0, 2): 2}, half_power, rng)
        with pytest.raises(WalkError):
            bank.truncated_counts({(0, 2): 5})
        with pytest.raises(WalkError):
            bank.truncated_counts({(9, 9): 1})

    def test_distinct_in_prefix(self, half_power, rng):
        bank = MidpointBank({(0, 2): 10}, half_power, rng)
        distinct = bank.distinct_in_prefix({(0, 2): 10})
        assert distinct == set(int(v) for v in bank.sequence((0, 2)))


class TestRoundCharging:
    def test_request_and_distribution_rounds_charged(self, half_power, rng):
        clique = CongestedClique(5)
        MidpointBank({(0, 2): 3, (2, 4): 1}, half_power, rng, clique=clique)
        categories = clique.ledger.rounds_by_category()
        assert categories.get("midpoints/requests", 0) >= 1
        assert categories.get("midpoints/distributions", 0) >= 1

    def test_aggregation_charge(self, half_power, rng):
        clique = CongestedClique(5)
        bank = MidpointBank({(0, 2): 3}, half_power, rng)
        bank.charge_aggregation(clique)
        assert clique.ledger.rounds_by_category().get(
            "truncation/aggregate", 0
        ) >= 2

    def test_no_clique_no_charge(self, half_power, rng):
        bank = MidpointBank({(0, 2): 3}, half_power, rng)
        bank.charge_aggregation(None)  # no-op


def _random_half_power(n: int, backend: str, seed: int):
    """A ladder half power of a random sparse-ish graph, in either
    storage format (the CSR one keeps explicit zeros out)."""
    rng = np.random.default_rng(seed)
    graph = graphs.erdos_renyi_graph(n, None, rng)
    half = PowerLadder(graph.transition_matrix(), 4).power(2)
    if backend == "sparse":
        import scipy.sparse as sp

        return sp.csr_matrix(half)
    return half


class TestLevelLaws:
    """One gather per level is bit-equal to the per-pair vectors."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [40, 128])
    def test_batched_laws_bit_equal_per_pair(self, backend, n):
        from repro.core.midpoints import level_cdfs, pair_laws
        from repro.linalg.backend import matrix_col, matrix_row

        half = _random_half_power(n, backend, seed=n)
        rng = np.random.default_rng(7)
        pairs = list(dict.fromkeys(
            (int(p), int(q)) for p, q in rng.integers(0, n, size=(300, 2))
        ))
        cdfs, totals = level_cdfs(half, pairs)
        ps = np.asarray([p for p, __ in pairs], dtype=np.intp)
        qs = np.asarray([q for __, q in pairs], dtype=np.intp)
        laws = pair_laws(half, ps, qs)
        for row, (p, q) in enumerate(pairs):
            law = matrix_row(half, p) * matrix_col(half, q)
            assert laws[row].tobytes() == law.tobytes()
            assert cdfs[row].tobytes() == np.cumsum(law).tobytes()
            assert totals[row] == float(law.sum())

    def test_chunked_gather_is_bit_equal(self, monkeypatch):
        """Levels wider than LAW_BATCH_FLOATS are gathered in chunks
        with the same bits as one gather."""
        from repro.core import midpoints

        half = _random_half_power(40, "dense", seed=3)
        pairs = [(p, q) for p in range(40) for q in range(0, 40, 3)]
        whole = midpoints.level_cdfs(half, pairs)
        monkeypatch.setattr(midpoints, "LAW_BATCH_FLOATS", 40 * 7)
        chunked = midpoints.level_cdfs(half, pairs)
        for got, want in zip(chunked, whole):
            assert got.tobytes() == want.tobytes()

    def test_empty_level(self, half_power):
        from repro.core.midpoints import level_cdfs

        cdfs, totals = level_cdfs(half_power, [])
        assert cdfs.shape == (0, half_power.shape[0])
        assert totals.shape == (0,)
