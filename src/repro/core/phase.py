"""One phase of the distributed sampler (Outline 3, steps 1-5).

A phase builds a random walk on the current phase graph (G itself in phase
1, ``Schur(G, S)`` afterwards) that stops at the first visit to its
``rho_eff``-th distinct vertex, using the distributed top-down machinery:

    for each level (spacing delta -> delta/2):
        Algorithm 2: leader requests midpoints; M_{p,q} machines sample
                     the sequences Pi_{p,q}                 (midpoints.py)
        Algorithm 3: distributed binary search truncation  (truncation.py)
        Lemmas 3-4:  multiset collection + placement from the bank
                                                           (placement.py)

Failure handling follows Appendix 5.1: when a nominal-length walk falls
short of its quota, the walk is *extended* from its endpoint with a fresh
fill (a stopping-time concatenation, so the output law is untouched); with
``on_failure="error"`` the Monte-Carlo failure surfaces as an exception.

The Section 5.2 precision guard is also wired here: a midpoint normalizer
below the configured floor aborts the distributed fill, charges the
"collect the whole network at the leader" cost (O(n) rounds), and finishes
the segment with the sequential exact filler -- the appendix's brute-force
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clique.network import CongestedClique
from repro.core.config import SamplerConfig
from repro.core.midpoints import MidpointBank, level_cdfs
from repro.core.placement import place_by_pair_multisets, place_midpoints
from repro.core.truncation import LevelView, find_truncation_index_fast
from repro.errors import PrecisionError, SamplingError, WalkError
from repro.linalg.backend import matrix_row
from repro.linalg.matpow import PowerLadder
from repro.walks.fill import PartialWalk, _truncate_at_distinct

__all__ = ["PhaseStats", "run_phase_walk"]


@dataclass
class PhaseStats:
    """Per-phase diagnostics surfaced to benchmarks."""

    subset_size: int
    rho_eff: int
    walk_length: int = 0
    distinct_visited: int = 0
    levels: int = 0
    extensions: int = 0
    brute_force_fallbacks: int = 0
    new_vertices: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable wire form."""
        return {
            "subset_size": int(self.subset_size),
            "rho_eff": int(self.rho_eff),
            "walk_length": int(self.walk_length),
            "distinct_visited": int(self.distinct_visited),
            "levels": int(self.levels),
            "extensions": int(self.extensions),
            "brute_force_fallbacks": int(self.brute_force_fallbacks),
            "new_vertices": [int(v) for v in self.new_vertices],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseStats":
        """Rebuild phase diagnostics from :meth:`to_dict` output."""
        return cls(**payload)


def _fill_level(
    walk: PartialWalk,
    half_power,
    rng: np.random.Generator,
) -> PartialWalk:
    """Insert one midpoint into every gap, halving the spacing.

    The level's distinct pairs share one law gather
    (:func:`~repro.core.midpoints.level_cdfs`); the level consumes one
    uniform block (one generator invocation for all gaps) and resolves
    each gap by ``searchsorted`` against its pair's cumulative law.
    This is the Section 5.2 fallback's sequential fill;
    :mod:`repro.walks.fill` keeps the per-gap reference.
    """
    if walk.spacing % 2 != 0:
        raise WalkError(f"cannot halve odd spacing {walk.spacing}")
    pairs = walk.pairs()
    row_of = {pair: row for row, pair in enumerate(dict.fromkeys(pairs))}
    cdfs, totals = level_cdfs(half_power, list(row_of))
    for (p, q), total in zip(row_of, totals):
        if total <= 0:
            raise WalkError(
                f"no vertex can be the midpoint between {p} and {q}: "
                "inconsistent partial walk"
            )
    block = rng.random(len(pairs)) if pairs else ()
    new_vertices = [walk.vertices[0]]
    for pair, u in zip(pairs, block):
        cdf = cdfs[row_of[pair]]
        midpoint = int(cdf.searchsorted(u * cdf[-1], "right"))
        new_vertices.append(min(midpoint, len(cdf) - 1))
        new_vertices.append(pair[1])
    return PartialWalk(walk.spacing // 2, new_vertices)


def _segment_fill(
    ladder: PowerLadder,
    start: int,
    rho_seg: int,
    config: SamplerConfig,
    rng: np.random.Generator,
    clique: CongestedClique | None,
    stats: PhaseStats,
    *,
    exact_placement: bool,
) -> list[int]:
    """One distributed truncated fill of nominal length ``ladder.ell``.

    Returns the walk segment (ends at its rho_seg-th distinct vertex, or
    at index ell when the quota was not reached).
    """
    n = ladder.power(1).shape[0]
    ell = ladder.ell
    # One uniform against the cumulative end law P^ell[start, *].
    end_cdf = np.cumsum(matrix_row(ladder.power(ell), start))
    end = int(end_cdf.searchsorted(rng.random() * end_cdf[-1], "right"))
    end = min(end, n - 1)
    if clique is not None:
        # Algorithm 1 step 4: the leader samples W[ell] from its own row.
        clique.charge_step("init/sample-end", 1, 1, total_words=1)
    walk = _truncate_at_distinct(PartialWalk(ell, [start, end]), rho_seg)
    floor = config.normalizer_floor(n)
    while not walk.is_complete:
        half = walk.spacing // 2
        half_power = ladder.power(half)
        pair_counts: dict[tuple[int, int], int] = {}
        for pair in walk.pairs():
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        try:
            bank = MidpointBank(
                pair_counts, half_power, rng,
                normalizer_floor=floor, clique=clique,
            )
        except PrecisionError:
            # Section 5.2 fallback: collect the network at the leader
            # (O(n) rounds) and finish the fill sequentially and exactly.
            stats.brute_force_fallbacks += 1
            if clique is not None:
                clique.charge_step(
                    "fallback/collect-network", n * n, n * n,
                    total_words=n * n,
                )
            while not walk.is_complete:
                fill_half = walk.spacing // 2
                walk = _fill_level(walk, ladder.power(fill_half), rng)
                walk = _truncate_at_distinct(walk, rho_seg)
            break
        view = LevelView(walk, bank)
        # The direct scan gives Algorithm 3's binary-search t* and probe
        # charges exactly (the simulator holds every sequence).
        t_star = find_truncation_index_fast(view, rho_seg, clique=clique)
        if t_star == 0:
            raise SamplingError("truncation collapsed to the start vertex")
        # Placement reads the bank's own sequences (no randomness); the
        # two fronts differ only in what the ledger bills.
        if exact_placement:
            walk = place_by_pair_multisets(view, t_star, clique=clique)
        else:
            walk = place_midpoints(view, t_star, clique=clique)
        stats.levels += 1
    return list(walk.vertices)


def run_phase_walk(
    transition,
    start: int,
    rho_eff: int,
    config: SamplerConfig,
    rng: np.random.Generator,
    *,
    clique: CongestedClique | None = None,
    ladder: PowerLadder | None = None,
    exact_placement: bool = False,
    stats: PhaseStats | None = None,
) -> list[int]:
    """Sample a phase walk stopping at its rho_eff-th distinct vertex.

    ``transition`` is the phase graph's transition matrix (indices are
    phase-local), in whichever storage format the configured linalg
    backend produced -- dense ndarray or scipy CSR; the walk machinery
    only touches it through the format-agnostic accessors. Returns the
    walk as a list of phase-local vertex indices, guaranteed to end at
    the first occurrence of its rho_eff-th distinct vertex.

    Every decision is drawn as a uniform block resolved against CDFs
    computed for this walk: one gather of midpoint laws per level and
    one end-law row per segment, memoized nowhere.
    """
    if stats is None:
        stats = PhaseStats(subset_size=transition.shape[0], rho_eff=rho_eff)
    if rho_eff < 2:
        raise SamplingError(f"rho_eff must be >= 2, got {rho_eff}")
    n = transition.shape[0]
    if ladder is None:
        ell = min(config.resolve_ell(n), 1 << 62)
        ladder = PowerLadder(
            transition, ell, bits=config.precision_bits,
            ledger=clique.ledger if clique is not None else None,
            note="phase power ladder",
        )

    walk = _segment_fill(
        ladder, start, rho_eff, config, rng, clique, stats,
        exact_placement=exact_placement,
    )
    seen = set(walk)
    extensions = 0
    while len(seen) < rho_eff:
        if config.on_failure == "error":
            raise SamplingError(
                f"phase walk visited only {len(seen)} of {rho_eff} required "
                "distinct vertices within its nominal length"
            )
        extensions += 1
        if extensions > config.max_extensions:
            raise SamplingError(
                f"phase walk still short of its quota after "
                f"{config.max_extensions} extensions"
            )
        # Appendix 5.1: continue from the current endpoint. The segment
        # keeps the full quota: its own distinct vertices may be old ones,
        # and only a segment that reaches rho_eff distinct vertices is sure
        # to hold the missing ones (a smaller quota stops segments after a
        # step or two and burns through max_extensions). Any quota is a
        # stopping time; the cumulative scan below is what actually stops
        # the walk.
        segment = _segment_fill(
            ladder, walk[-1], rho_eff, config, rng, clique, stats,
            exact_placement=exact_placement,
        )
        walk.extend(segment[1:])
        seen = set(walk)

    # Cut the concatenated walk at the first occurrence of the cumulative
    # rho_eff-th distinct vertex (a stopping time; segments beyond it are
    # discarded).
    cumulative: set[int] = set()
    for index, vertex in enumerate(walk):
        if vertex not in cumulative:
            cumulative.add(vertex)
            if len(cumulative) == rho_eff:
                walk = walk[: index + 1]
                break
    stats.extensions = extensions
    stats.walk_length = len(walk) - 1
    stats.distinct_visited = len(set(walk))
    return walk
