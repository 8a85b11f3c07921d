"""Midpoint request/generation machinery (Algorithm 2).

During level i of a phase the leader M holds the partial walk ``W_i``
(uniform spacing delta) and needs one midpoint inside every gap. Gaps with
the same (start, end) pair draw their midpoints i.i.d. from the same law
(Formula 1), so the paper designates one machine ``M_{p,q}`` per distinct
pair; ``M_{p,q}`` gathers the unnormalized probabilities
``P^{delta/2}[p, j] * P^{delta/2}[j, q]`` from every machine j and samples
the whole sequence ``Pi_{p,q}``.

:class:`MidpointBank` simulates the ensemble of ``M_{p,q}`` machines for
one level: it samples every sequence up front (as the real machines do),
then answers exactly the queries the leader's protocol is allowed:

- per-pair truncated occurrence counts (step 2 of Algorithm 3),
- point queries ``W^+[j]`` (the leader may ask the responsible machine for
  any single position, Section 2.1.3),
- the per-vertex total counts that form the multiset ``M`` (step 3 of
  Algorithm 3 / the multiset collection of Lemma 4).

Round costs are charged on the shared clique when one is supplied.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import numpy as np

from repro.clique.network import CongestedClique
from repro.core.placement_plan import PlacementPlan
from repro.errors import PrecisionError, WalkError

__all__ = ["MidpointBank"]

Pair = tuple[int, int]


class MidpointBank:
    """All per-pair midpoint sequences ``Pi_{p,q}`` for one level.

    Parameters
    ----------
    pair_counts:
        ``c_{p,q}``: the number of occurrences of each distinct (start,
        end) pair among consecutive entries of ``W_i``.
    half_power:
        ``P^{delta/2}`` (or the Schur-matrix analogue) used by Formula 1,
        in whichever storage format the linalg backend produced (dense
        ndarray or scipy CSR).
    rng:
        Randomness source shared with the leader simulation.
    normalizer_floor:
        Section 5.2 precision guard: when the normalizer
        ``sum_j half[p, j] half[j, q]`` (= ``P^delta[p, q]`` up to
        rounding) falls below this floor, raise
        :class:`~repro.errors.PrecisionError` so the caller can trigger
        its fallback.
    clique:
        Optional clique simulator to charge the Algorithm 2 communication
        (count requests + distribution gathering).
    plan / level:
        The phase's :class:`~repro.core.placement_plan.PlacementPlan`
        and the level's half-spacing exponent (its memo key for
        ``half_power``). Each per-pair law
        ``P^{delta/2}[p, *] * P^{delta/2}[*, q]`` comes from the plan's
        memo, computed there on first use, so levels, extension segments
        and draws that meet a pair again share one vector. Without a
        plan the bank uses a private one.

    Every pair's normalizer floor is validated *first* (a
    :class:`~repro.errors.PrecisionError` fallback then leaves the
    generator untouched); the bank then draws one uniform block for the
    whole level and resolves each pair's draws by ``searchsorted``
    against its cumulative law.
    """

    def __init__(
        self,
        pair_counts: Mapping[Pair, int],
        half_power,
        rng: np.random.Generator,
        *,
        normalizer_floor: float = 0.0,
        clique: CongestedClique | None = None,
        leader: int = 0,
        plan: PlacementPlan | None = None,
        level: int = 0,
    ) -> None:
        plan = plan or PlacementPlan()
        self.pair_counts = dict(pair_counts)
        self.half_power = half_power
        self._sequences: dict[Pair, np.ndarray] = {}
        # (clique size, max pairs on one machine): a pure function of the
        # frozen pair_counts, memoized because the truncation search
        # recharges the aggregation once per probe.
        self._hosted_cache: tuple[int, int] | None = None
        n = half_power.shape[0]
        if clique is not None:
            max_hosted = self._max_hosted(clique.n)
            num_pairs = len(self.pair_counts)
            # Leader -> M_{p,q}: one count word per distinct pair.
            clique.charge_step(
                "midpoints/requests",
                num_pairs,
                max_hosted,
                total_words=num_pairs,
            )
            # Every machine j -> M_{p,q}: one probability word per pair per
            # machine (M_{p,q} needs the full length-n law for each pair it
            # hosts).
            clique.charge_step(
                "midpoints/distributions",
                num_pairs,
                max_hosted * clique.n,
                total_words=num_pairs * clique.n,
            )
        # Validate every pair's floor before any randomness is
        # consumed: the Section 5.2 fallback can then rerun the level
        # with the generator exactly where it started.
        pending: list[tuple[Pair, int, np.ndarray]] = []
        total_count = 0
        for pair, count in self.pair_counts.items():
            if count < 0:
                raise WalkError(f"negative count for pair {pair}")
            cdf, total = plan.cdf(level, *pair, half_power)
            if total <= normalizer_floor or total <= 0.0:
                raise PrecisionError(
                    f"midpoint normalizer for pair {pair} is "
                    f"{total:.3e}, below the floor "
                    f"{normalizer_floor:.3e}"
                )
            pending.append((pair, count, cdf))
            total_count += count
        block = rng.random(total_count) if total_count else None
        cursor = 0
        for pair, count, cdf in pending:
            uniforms = (
                block[cursor:cursor + count]
                if count
                else np.empty(0, dtype=np.float64)
            )
            cursor += count
            draws = cdf.searchsorted(uniforms * cdf[-1], "right")
            self._sequences[pair] = np.minimum(
                draws, n - 1
            ).astype(np.int64)

    @staticmethod
    def _machine_for(pair: Pair, n: int) -> int:
        """Deterministic machine assignment for M_{p,q} (accounting only)."""
        p, q = pair
        return (p * 131071 + q) % n

    def _max_hosted(self, n: int) -> int:
        """Most pairs hosted by any one machine (memoized accounting)."""
        if self._hosted_cache is None or self._hosted_cache[0] != n:
            hosted: Counter[int] = Counter(
                self._machine_for(pair, n) for pair in self.pair_counts
            )
            self._hosted_cache = (n, max(hosted.values(), default=0))
        return self._hosted_cache[1]

    # ------------------------------------------------------------------
    # Queries available to the leader
    # ------------------------------------------------------------------

    def sequence(self, pair: Pair) -> np.ndarray:
        """Full ``Pi_{p,q}`` -- used only by tests and the exact variant's
        per-pair multiset transmission (Appendix 5.3)."""
        return self._sequences[pair]

    def value_at(self, pair: Pair, occurrence: int) -> int:
        """``Pi_{p,q}[occurrence]``: the point query behind ``W^+[j]``."""
        sequence = self._sequences[pair]
        if not (0 <= occurrence < len(sequence)):
            raise WalkError(
                f"occurrence {occurrence} out of range for pair {pair} "
                f"(sequence length {len(sequence)})"
            )
        return int(sequence[occurrence])

    def truncated_counts(
        self, truncation: Mapping[Pair, int]
    ) -> Counter[int]:
        """``Count(j, l')`` aggregated over pairs: the multiset ``M``.

        ``truncation[pair]`` is ``c_{p,q}(l')``, the number of midpoints of
        that pair inside the truncated prefix.
        """
        counts: Counter[int] = Counter()
        for pair, upto in truncation.items():
            sequence = self._sequences.get(pair)
            if sequence is None:
                raise WalkError(f"unknown pair {pair}")
            if upto > len(sequence):
                raise WalkError(
                    f"truncated count {upto} exceeds sequence length "
                    f"{len(sequence)} for pair {pair}"
                )
            for value in sequence[:upto]:
                counts[int(value)] += 1
        return counts

    def distinct_in_prefix(
        self, truncation: Mapping[Pair, int]
    ) -> set[int]:
        """Distinct midpoint values within the truncated prefix."""
        values: set[int] = set()
        for pair, upto in truncation.items():
            sequence = self._sequences[pair]
            values.update(int(v) for v in sequence[:upto])
        return values

    def charge_aggregation(
        self, clique: CongestedClique | None, *, leader: int = 0
    ) -> None:
        """Charge the Count aggregation exchange (steps 2-3, Algorithm 3)."""
        if clique is None:
            return
        max_hosted = self._max_hosted(clique.n)
        # Step 2 of Algorithm 3: M_{p,q} sends Count(p, q, j, l') to every
        # machine j (n words per hosted pair); machine j receives one word
        # per pair.
        clique.charge_step(
            "truncation/aggregate",
            max_hosted * clique.n,
            len(self.pair_counts),
            total_words=len(self.pair_counts) * clique.n,
        )
        # Step 3: every machine j sends its aggregate Count(j, l') to M.
        clique.charge_step(
            "truncation/aggregate",
            1,
            clique.n,
            total_words=clique.n,
        )
