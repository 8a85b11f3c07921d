"""Midpoint placement: multiset collection + the Lemma 3 law (Lemmas 3-4).

Once the truncation point ``t*`` is fixed, the leader must fill the
midpoint positions of the truncated prefix. Receiving the sequences
``Pi_{p,q}`` is bandwidth-infeasible, so (Section 2.1.3):

1. the *chronologically final* midpoint ``m_f`` is queried directly and
   pinned to its position (Lemma 4's correctness hinges on the prefix
   ending at the first occurrence of the rho-th distinct vertex);
2. the leader receives only the multiset ``M`` of midpoints and samples a
   weighted perfect matching of the bipartite graph B between
   ``M' = M \\ {m_f}`` and the non-final midpoint positions ``P'``,
   with edge weight ``P^{delta/2}[p, x] * P^{delta/2}[x, q]`` for a
   position between the pair (p, q). Lemma 3: matching weight is
   proportional to the probability of the induced placement.

The simulator realizes that law from its own sequences instead of
resampling it. :class:`~repro.core.midpoints.MidpointBank` has already
drawn every ``Pi_{p,q}``, so the true placement -- position ``t`` gets
``W^+_i[t]`` -- is itself a draw from Lemma 3's law given the collected
multiset, and from Appendix 5.3's exchangeable per-pair law given the
pair multisets. :func:`place_midpoints` (Section 2.1.3) and
:func:`place_by_pair_multisets` (Appendix 5.3, the exact variant) are two
billing fronts over that one bank placement: each charges the ledger
what its protocol sends, runs the protocol's consistency checks, and
draws no randomness.

:func:`resample_placement` is the oracle the tests and the paper benches
compare against: it resamples the placement from the collected multiset
with a matching sampler (the class DP, Ryser, MCMC) or with the per-pair
uniform shuffle, exactly as the protocol's leader would.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from repro.clique.network import CongestedClique
from repro.core.midpoints import Pair, pair_laws
from repro.core.truncation import LevelView
from repro.errors import SamplingError, WalkError
from repro.matching.sampler import (
    ClassifiedBipartite,
    expand_table_to_assignment,
    prepare_contingency_dp,
    sample_matching_exact,
    sample_matching_mcmc,
)
from repro.walks.fill import PartialWalk

__all__ = ["place_midpoints", "place_by_pair_multisets", "resample_placement"]


def _charge_submatrix(clique: CongestedClique | None, distinct: int) -> None:
    """Leader broadcasts S (O(sqrt n) words) and receives the needed
    |S| x |S| submatrix of the half power (O(n) words) -- Section 2.1.3's
    'this can be done in O(1) rounds'."""
    if clique is None:
        return
    clique.broadcast(0, None, words=max(1, distinct), category="placement/broadcast-S")
    clique.charge_step(
        "placement/submatrix",
        max(1, distinct),
        max(1, distinct * distinct),
        total_words=max(1, distinct * distinct),
    )


def _charge_pair_multisets(
    clique: CongestedClique | None, truncated: dict[Pair, int]
) -> None:
    """Every ``M_{p,q}`` sends the multiset of its truncated sequence
    (Appendix 5.3)."""
    if clique is None:
        return
    words = sum(truncated.values()) + len(truncated)
    clique.charge_step(
        "placement/pair-multisets",
        max(1, max(truncated.values(), default=1)),
        max(1, words),
        total_words=max(1, words),
    )


_DP_STATE_BUDGET = 2_000_000


def _dp_cost_estimate(multiset: Counter, positions: list[int]) -> float:
    """Upper bound on the contingency-DP state space x column classes."""
    states = 1.0
    for count in multiset.values():
        states *= count + 1
        if states > 1e18:
            break
    return states * max(1, len(positions))


def _final_midpoint_position(t_star: int) -> int:
    """Largest odd (midpoint) position <= t*; the final midpoint's slot."""
    if t_star < 1:
        raise WalkError("truncated prefix contains no midpoint position")
    return t_star if t_star % 2 == 1 else t_star - 1


class _Collected(NamedTuple):
    """What the leader holds after the Section 2.1.3 collection."""

    truncated: dict[Pair, int]  # c_{p,q}(t*) per pair
    t_final: int
    final_value: int
    multiset: Counter  # M' = M \ {m_f}
    positions: list[int]  # P': the open midpoint positions


def _collect(
    view: LevelView, t_star: int, clique: CongestedClique | None
) -> _Collected:
    """Pin the final midpoint and collect ``M'`` and ``P'``.

    The prologue every placement shares: one point query for ``m_f``
    (charged), then the multiset consistency checks.
    """
    truncated = view.truncated_pair_counts(t_star)
    t_final = _final_midpoint_position(t_star)
    final_value = view.value_at(t_final)  # O(1)-round point query
    if clique is not None:
        clique.charge_step("placement/final-midpoint", 1, 1, total_words=1)

    multiset = view.bank.truncated_counts(truncated)
    if multiset[final_value] < 1:
        raise SamplingError("final midpoint missing from collected multiset")
    multiset[final_value] -= 1
    multiset = +multiset  # drop zero entries

    positions = [t for t in view.midpoint_positions_upto(t_star) if t != t_final]
    if sum(multiset.values()) != len(positions):
        raise SamplingError(
            f"multiset size {sum(multiset.values())} != "
            f"{len(positions)} open positions"
        )
    return _Collected(truncated, t_final, final_value, multiset, positions)


def _assemble(
    view: LevelView,
    t_star: int,
    midpoint_at: Callable[[int], int],
) -> PartialWalk:
    """Build W_{i+1} from old vertices and the midpoint of each odd slot."""
    new_spacing = view.walk.spacing // 2
    if new_spacing < 1:
        raise WalkError("cannot halve spacing below 1")
    vertices = [
        view.walk.vertices[t // 2] if t % 2 == 0 else midpoint_at(t)
        for t in range(t_star + 1)
    ]
    return PartialWalk(new_spacing, vertices)


def place_midpoints(
    view: LevelView,
    t_star: int,
    *,
    clique: CongestedClique | None = None,
) -> PartialWalk:
    """Place the collected multiset (Section 2.1.3) from the bank.

    Returns the next partial walk ``W_{i+1}`` (spacing halved, truncated
    at ``t*``), every midpoint read from the bank's sequences: the draw
    Lemma 3's matching law would make given the multiset. The ledger
    bills the protocol: the final-midpoint query, then the ``S``
    broadcast and the ``|S| x |S|`` submatrix the matching sampler
    needs. When the contingency DP's state estimate exceeds
    ``_DP_STATE_BUDGET`` (huge multisets over few values), the leader
    would switch to the Appendix 5.3 per-pair multisets instead, and the
    level is billed as :func:`place_by_pair_multisets`.
    """
    collected = _collect(view, t_star, clique)
    if collected.positions:
        if (
            _dp_cost_estimate(collected.multiset, collected.positions)
            > _DP_STATE_BUDGET
        ):
            # The whole Appendix 5.3 round is billed on top, its own
            # final-midpoint query included.
            return place_by_pair_multisets(view, t_star, clique=clique)
        distinct = len(set(view.walk.vertices[: t_star // 2 + 1]))
        distinct += len(collected.multiset) + 1
        _charge_submatrix(clique, distinct)
    return _assemble(view, t_star, view.value_at)


def place_by_pair_multisets(
    view: LevelView,
    t_star: int,
    *,
    clique: CongestedClique | None = None,
) -> PartialWalk:
    """Appendix 5.3 placement: per-pair multisets, read from the bank.

    Every ``M_{p,q}`` sends the *multiset* of its truncated sequence
    (Theta(rho) words each; with rho = n^(1/3) the leader receives
    O(n^{2/3} * n^{1/3}) = O(n) words, O(1) rounds). Midpoints of a pair
    are exchangeable, so the leader's uniform shuffle of each pair's
    multiset (the final midpoint pinned, as always) has the law of the
    bank's own order, which is what this places.
    """
    collected = _collect(view, t_star, clique)
    _charge_pair_multisets(clique, collected.truncated)
    return _assemble(view, t_star, view.value_at)


# ---------------------------------------------------------------------------
# The resampling oracle
# ---------------------------------------------------------------------------


def resample_placement(
    view: LevelView,
    t_star: int,
    half_power,
    rng: np.random.Generator,
    *,
    method: str = "exact-dp",
    mcmc_steps: int | None = None,
    clique: CongestedClique | None = None,
    plan: object | None = None,
    level: int = 0,
) -> PartialWalk:
    """Resample the placement of the collected multiset (test oracle).

    What the protocol's leader does without the sequences, for comparing
    against the bank placement of :func:`place_midpoints`. ``method``
    selects the sampler:

    - ``"exact-dp"``: the class contingency DP
      (:func:`~repro.matching.sampler.prepare_contingency_dp`, built
      fresh per call) plus a uniform within-class expansion;
    - ``"exact-permanent"``: self-reducible Ryser sampling (instances
      past 16 midpoints switch to ``"exact-dp"``, which samples the same
      law in polynomial time);
    - ``"mcmc"``: a Metropolis chain started from the *true* placement,
      a feasible positive-weight state that is itself distributed per
      the target law, so the chain is stationary from step 0 at any
      proposal budget (cold-start mixing is what the matching-sampler
      unit tests exercise);
    - ``"pair-multisets"``: the Appendix 5.3 uniform shuffle of each
      pair's multiset (what the exact variant's leader does).

    Past ``_DP_STATE_BUDGET`` the matching methods also fall back to the
    per-pair shuffle. The weight columns come from one gather of the
    column classes' laws (:func:`~repro.core.midpoints.pair_laws`);
    ``plan`` / ``level`` are ignored, kept so call sites written for the
    retired per-pair memo run unchanged. Charges the same ledger entries
    as the bank placement.
    """
    if method == "pair-multisets":
        return _shuffle_pair_multisets(view, t_star, rng, clique)
    collected = _collect(view, t_star, clique)
    positions = collected.positions
    multiset = collected.multiset
    placed: dict[int, int] = {collected.t_final: collected.final_value}
    if positions and _dp_cost_estimate(multiset, positions) > _DP_STATE_BUDGET:
        # The class DP is polynomial in the class *counts* but its state
        # space is the product of per-class multiplicities, which explodes
        # for very long truncated walks (huge multisets over few values).
        # Fall back to the appendix's per-pair multiset placement, which
        # resamples the same conditional law exactly (both are exact
        # resamplings of the true placement; see Appendix 5.3).
        return _shuffle_pair_multisets(view, t_star, rng, clique)
    if positions:
        pair_for_position = {
            t: view.pair_of_gap((t - 1) // 2) for t in positions
        }
        col_classes: list[Pair] = sorted(set(pair_for_position.values()))
        col_counts = Counter(pair_for_position.values())
        row_labels = sorted(multiset)
        # One column per (p, q) class: the class's full law restricted
        # to the multiset's labels (gather-after-multiply equals the
        # per-entry products P^{delta/2}[p, x] * P^{delta/2}[x, q]).
        laws = pair_laws(
            half_power,
            np.asarray([p for p, __ in col_classes], dtype=np.intp),
            np.asarray([q for __, q in col_classes], dtype=np.intp),
        )
        labels_arr = np.asarray(row_labels, dtype=np.intp)
        weights = np.ascontiguousarray(laws[:, labels_arr].T)
        instance = ClassifiedBipartite(
            row_labels=tuple(row_labels),
            row_counts=tuple(multiset[x] for x in row_labels),
            col_labels=tuple(col_classes),
            col_counts=tuple(col_counts[c] for c in col_classes),
            class_weights=weights,
        )
        distinct = len(set(view.walk.vertices[: t_star // 2 + 1]))
        distinct += len(row_labels) + 1
        _charge_submatrix(clique, distinct)
        per_class = _sample_assignment(
            instance, view, positions, pair_for_position, rng,
            method=method, mcmc_steps=mcmc_steps,
        )
        # Hand the sampled labels to positions class by class, in
        # chronological order within each class.
        class_index_of = {pair: c for c, pair in enumerate(col_classes)}
        cursor = {c: 0 for c in col_classes}
        for t in positions:
            pair = pair_for_position[t]
            labels = per_class[class_index_of[pair]]
            placed[t] = int(labels[cursor[pair]])
            cursor[pair] += 1
    return _assemble(view, t_star, placed.__getitem__)


def _sample_assignment(
    instance: ClassifiedBipartite,
    view: LevelView,
    positions: list[int],
    pair_for_position: dict[int, Pair],
    rng: np.random.Generator,
    *,
    method: str,
    mcmc_steps: int | None,
) -> list[list[int]]:
    """Dispatch to the chosen matching sampler; returns per-column-class
    label lists (chronological within class)."""
    if method == "exact-permanent" and instance.size > 16:
        # Ryser permanents are exponential in the instance size; beyond
        # ~16 midpoints switch to the class DP, which samples the exact
        # same law in polynomial time.
        method = "exact-dp"
    if method == "exact-dp":
        # One uniform vector per table draw, resolved column by column
        # against the DP's CDFs, then the uniform within-class expansion.
        table = prepare_contingency_dp(instance).sample(rng)
        return [
            [int(x) for x in labels]
            for labels in expand_table_to_assignment(instance, table, rng)
        ]
    # The expanded-matrix samplers need explicit row/column expansions.
    expanded = instance.expanded_weights()
    col_classes = list(instance.col_labels)
    expanded_rows: list[int] = []
    for label, count in zip(instance.row_labels, instance.row_counts):
        expanded_rows.extend([int(label)] * count)
    expanded_cols: list[Pair] = []
    for label, count in zip(instance.col_labels, instance.col_counts):
        expanded_cols.extend([label] * count)

    if method == "exact-permanent":
        assignment = sample_matching_exact(expanded, rng)
    elif method == "mcmc":
        initial = _true_initial_permutation(
            view, positions, pair_for_position, expanded_rows, expanded_cols
        )
        assignment = sample_matching_mcmc(
            expanded, steps=mcmc_steps, rng=rng, initial=initial
        )
    else:
        raise SamplingError(f"unknown matching method {method!r}")

    per_class: list[list[int]] = [[] for _ in col_classes]
    # assignment[i] = column of expanded row i; invert to column -> label.
    label_of_column = {col: expanded_rows[row] for row, col in enumerate(assignment)}
    for col_index, pair in enumerate(expanded_cols):
        per_class[col_classes.index(pair)].append(label_of_column[col_index])
    return per_class


def _true_initial_permutation(
    view: LevelView,
    positions: list[int],
    pair_for_position: dict[int, Pair],
    expanded_rows: list[int],
    expanded_cols: list[Pair],
) -> list[int]:
    """The placement actually generated by the Pi sequences, expressed as a
    permutation of the expanded instance (a guaranteed-feasible MCMC start)."""
    # True label of each expanded column, in expanded-column order.
    class_streams: dict[Pair, list[int]] = {}
    for t in positions:
        class_streams.setdefault(pair_for_position[t], []).append(
            view.value_at(t)
        )
    cursors = {pair: 0 for pair in class_streams}
    true_labels: list[int] = []
    for pair in expanded_cols:
        stream = class_streams[pair]
        true_labels.append(stream[cursors[pair]])
        cursors[pair] += 1
    # Greedily match expanded rows (by label) to columns needing that label.
    waiting: dict[int, list[int]] = {}
    for col, label in enumerate(true_labels):
        waiting.setdefault(label, []).append(col)
    permutation: list[int] = []
    for label in expanded_rows:
        queue = waiting.get(label)
        if not queue:
            raise SamplingError(
                "true placement inconsistent with collected multiset"
            )
        permutation.append(queue.pop())
    return permutation


def _shuffle_pair_multisets(
    view: LevelView,
    t_star: int,
    rng: np.random.Generator,
    clique: CongestedClique | None,
) -> PartialWalk:
    """Appendix 5.3's leader: a uniform shuffle of each pair's multiset,
    with the chronologically final midpoint pinned."""
    collected = _collect(view, t_star, clique)
    _charge_pair_multisets(clique, collected.truncated)
    t_final = collected.t_final
    final_pair = view.pair_of_gap((t_final - 1) // 2)

    placed: dict[int, int] = {t_final: collected.final_value}
    per_pair_positions: dict[Pair, list[int]] = {}
    for t in collected.positions:
        per_pair_positions.setdefault(view.pair_of_gap((t - 1) // 2), []).append(t)

    pending: list[tuple[list[int], list[int]]] = []
    total_values = 0
    for pair, upto in collected.truncated.items():
        values = [int(v) for v in view.bank.sequence(pair)[:upto]]
        if pair == final_pair:
            values.remove(collected.final_value)
        slots = per_pair_positions.get(pair, [])
        if len(values) != len(slots):
            raise SamplingError(
                f"pair {pair}: {len(values)} midpoints for {len(slots)} slots"
            )
        pending.append((values, slots))
        total_values += len(values)
    # One uniform block for the level; argsorting a pair's slice of iid
    # uniform keys is a uniform permutation (ties have measure zero), so
    # each pair's multiset shuffle stays exact.
    block = rng.random(total_values)
    cursor = 0
    for values, slots in pending:
        order = np.argsort(block[cursor:cursor + len(values)])
        cursor += len(values)
        for slot, index in zip(slots, order):
            placed[slot] = values[int(index)]
    return _assemble(view, t_star, placed.__getitem__)
