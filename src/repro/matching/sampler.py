"""Samplers for weight-proportional perfect matchings (Section 2.1.3).

The walk-reconstruction bipartite graph B joins the midpoint multiset M'
to the midpoint positions P', with the weight of edge (x, y) equal to
``P^{delta/2}[p, x] * P^{delta/2}[x, q]`` when position y lies between the
start-end pair (p, q). We must sample a perfect matching of B with
probability proportional to the product of its edge weights (Lemma 3).

Because the weight depends only on x's identity and y's pair, B's rows and
columns fall into classes, and the matching distribution factorizes through
a contingency table. :func:`sample_contingency_table` samples that table
*exactly* by DP (same recursion as
:func:`repro.matching.permanent.permanent_class_dp`), and
:func:`expand_table_to_assignment` turns the table into a concrete
assignment by uniform multiset permutations -- together an exact (TV error
0) replacement for the paper's JSV + JVV pipeline. The general-purpose
:func:`sample_matching_exact` (self-reducible Ryser) and
:func:`sample_matching_mcmc` (Metropolis) are provided for validation and
for the approximate-sampler code path of Lemma 4.

The DP is split into a deterministic *build* (feasibility, composition
tables, forward reachability, backward log-partition values -- no
randomness) and a cheap randomness-consuming *sampling pass*:
:func:`prepare_contingency_dp` returns the built evaluator so batch
workloads (:class:`repro.core.placement_plan.PlacementPlan`) can reuse
one build across every draw that meets an isomorphic instance
(:func:`instance_digest`); :func:`sample_contingency_table` is the
one-shot composition of the two.

Prepared evaluators expose two sampling passes over the identical law:

- ``sample(rng)`` -- the v1 contract: one ``Generator.choice(p=...)``
  per column class, byte-faithful to the pre-plan implementation.
- ``sample_block(rng)`` -- the v2 contract: ONE uniform vector per draw
  (``rng.random(num_columns)``), each column resolved by
  ``np.searchsorted`` against a per-(column, remaining-state) CDF table.
  The root-column table is built eagerly at prepare time; deeper states
  are memoized on first visit, so warm draws touch no ``exp``/normalize
  at all. The memo round-trips through ``export_cdf_entries`` /
  ``from_cdf_seed`` so a :class:`~repro.core.placement_plan.PlacementPlan`
  can persist the hottest instances' CDF tables and a restarted process
  can serve its first draws without re-running the forward/backward
  passes (the build is deferred until a state-memo miss).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.errors import MatchingError
from repro.matching.permanent import (
    _compositions,
    compositions_array,
    permanent_ryser,
)

__all__ = [
    "ClassifiedBipartite",
    "sample_matching_exact",
    "sample_matching_mcmc",
    "sample_contingency_table",
    "expand_table_to_assignment",
    "sample_assignment_by_classes",
    "prepare_contingency_dp",
    "restore_prepared_vectorized",
    "instance_digest",
]


def sample_matching_exact(
    weights: np.ndarray, rng: np.random.Generator | None = None
) -> list[int]:
    """Exactly sample a permutation sigma with P(sigma) prop to prod w[i, sigma(i)].

    Self-reducible sampling: match row 0 to column j with probability
    ``w[0, j] * perm(minor_{0 j}) / perm(w)`` and recurse on the minor.
    Cost: O(n) permanent evaluations of decreasing size -- fine for the
    n <= ~12 instances used in validation.

    Returns ``assignment`` with ``assignment[i] = sigma(i)``.
    """
    rng = np.random.default_rng(rng)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MatchingError(f"need a square weight matrix, got {w.shape}")
    n = w.shape[0]
    remaining_cols = list(range(n))
    assignment: list[int] = []
    current = w
    for _ in range(n):
        total = permanent_ryser(current)
        if total <= 0:
            raise MatchingError(
                "bipartite instance admits no positive-weight perfect matching"
            )
        probabilities = np.empty(current.shape[1])
        for j in range(current.shape[1]):
            minor = np.delete(np.delete(current, 0, axis=0), j, axis=1)
            probabilities[j] = current[0, j] * permanent_ryser(minor)
        probabilities = np.clip(probabilities, 0.0, None)
        cdf = np.cumsum(probabilities)
        if cdf[-1] <= 0:
            raise MatchingError("row has no extensible column choice")
        # Inverse-CDF over the unnormalized weights: scaling the uniform
        # by the cumulative total samples the same law as normalizing the
        # vector, without the redundant divide (and without choice()'s
        # second pass over p to validate it).
        choice = int(cdf.searchsorted(rng.random() * cdf[-1], "right"))
        choice = min(choice, len(probabilities) - 1)
        assignment.append(remaining_cols[choice])
        remaining_cols.pop(choice)
        current = np.delete(np.delete(current, 0, axis=0), choice, axis=1)
    return assignment


def sample_matching_mcmc(
    weights: np.ndarray,
    *,
    steps: int | None = None,
    rng: np.random.Generator | None = None,
    initial: Sequence[int] | None = None,
) -> list[int]:
    """Metropolis chain over permutations targeting P(sigma) prop to prod w.

    Proposal: a uniformly random transposition of two positions; acceptance
    ``min(1, ratio)`` with the 4-entry weight ratio. This is the
    polynomial-time *approximate* sampler exercising Lemma 4's TV-error
    analysis (the JSV/JVV pipeline stand-in; see DESIGN.md). ``steps``
    defaults to ``10 * n^3`` proposals capped at 100k -- placement
    instances can reach hundreds of midpoints, where the uncapped cubic
    budget would dominate the whole pipeline while the transposition
    chain on such dense-weight instances mixes long before the cap.
    Zero-weight entries are handled by
    rejecting moves into weight-0 configurations (the chain must start at a
    positive-weight permutation; the identity is used unless ``initial`` is
    given).
    """
    rng = np.random.default_rng(rng)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MatchingError(f"need a square weight matrix, got {w.shape}")
    n = w.shape[0]
    if n == 0:
        return []
    if steps is None:
        steps = max(100, min(10 * n**3, 100_000))
    sigma = list(range(n)) if initial is None else list(initial)
    if sorted(sigma) != list(range(n)):
        raise MatchingError("initial state must be a permutation")
    current = np.array([w[i, sigma[i]] for i in range(n)])
    if np.any(current <= 0):
        raise MatchingError(
            "initial permutation has zero weight; provide a feasible start"
        )
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        new_i, new_j = w[i, sigma[j]], w[j, sigma[i]]
        if new_i <= 0 or new_j <= 0:
            continue
        ratio = (new_i * new_j) / (current[i] * current[j])
        if ratio >= 1.0 or rng.random() < ratio:
            sigma[i], sigma[j] = sigma[j], sigma[i]
            current[i], current[j] = new_i, new_j
    return sigma


# ---------------------------------------------------------------------------
# Class-structured exact sampling (the library default)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedBipartite:
    """A bipartite matching instance with class-compressed sides.

    Attributes
    ----------
    row_labels:
        One label per row class (e.g. midpoint vertex IDs).
    row_counts:
        Multiplicity of each row class (how many copies of that midpoint
        are in the multiset M').
    col_labels:
        One label per column class (e.g. start-end pairs (p, q)).
    col_counts:
        Multiplicity of each column class (how many positions share that
        pair).
    class_weights:
        ``(R, C)`` weights: w[r, c] is the weight of matching a class-r
        row to a class-c column.
    """

    row_labels: tuple[Hashable, ...]
    row_counts: tuple[int, ...]
    col_labels: tuple[Hashable, ...]
    col_counts: tuple[int, ...]
    class_weights: np.ndarray

    def __post_init__(self) -> None:
        r, c = len(self.row_labels), len(self.col_labels)
        if len(self.row_counts) != r or len(self.col_counts) != c:
            raise MatchingError("label/count length mismatch")
        if self.class_weights.shape != (r, c):
            raise MatchingError(
                f"class weight shape {self.class_weights.shape} != ({r}, {c})"
            )
        if sum(self.row_counts) != sum(self.col_counts):
            raise MatchingError(
                f"unbalanced instance: {sum(self.row_counts)} rows vs "
                f"{sum(self.col_counts)} columns"
            )
        if any(k < 0 for k in self.row_counts + self.col_counts):
            raise MatchingError("class counts must be non-negative")
        if np.any(np.asarray(self.class_weights) < 0):
            raise MatchingError("matching weights must be non-negative")

    @property
    def size(self) -> int:
        """Number of rows (= columns) of the expanded instance."""
        return sum(self.row_counts)

    def expanded_weights(self) -> np.ndarray:
        """The full (size x size) weight matrix, for validation only."""
        rows = np.repeat(np.arange(len(self.row_counts)), self.row_counts)
        cols = np.repeat(np.arange(len(self.col_counts)), self.col_counts)
        return np.asarray(self.class_weights)[np.ix_(rows, cols)]


_SMALL_INSTANCE_SIZE = 6


def _trivial_table(instance: ClassifiedBipartite) -> np.ndarray | None:
    """Closed-form table for single-row/column instances (one atom law).

    With one column class every row multiset lands in it; with one row
    class every column receives that class. Either way the contingency
    table is forced, so no DP or randomness is needed -- only the
    positive-weight feasibility check.
    """
    a = instance.row_counts
    b = instance.col_counts
    weights = np.asarray(instance.class_weights, dtype=np.float64)
    if len(b) == 1:
        for r, count in enumerate(a):
            if count > 0 and weights[r, 0] <= 0.0:
                raise MatchingError(
                    "instance admits no positive-weight perfect matching "
                    "(class permanent is zero)"
                )
        return np.asarray(a, dtype=np.int64).reshape(len(a), 1)
    if len(a) == 1:
        for c, count in enumerate(b):
            if count > 0 and weights[0, c] <= 0.0:
                raise MatchingError(
                    "instance admits no positive-weight perfect matching "
                    "(class permanent is zero)"
                )
        return np.asarray(b, dtype=np.int64).reshape(1, len(b))
    return None


def instance_digest(instance: ClassifiedBipartite) -> str:
    """Content address of the DP-relevant part of an instance.

    Two instances with equal ``(row_counts, col_counts, class_weights)``
    are *isomorphic* for the contingency DP: labels only matter when a
    table is expanded to an assignment. The digest is what lets a
    :class:`~repro.core.placement_plan.PlacementPlan` reuse one prepared
    DP across pairs, levels, and ensemble draws.
    """
    digest = hashlib.sha1()
    digest.update(
        repr((tuple(instance.row_counts), tuple(instance.col_counts))).encode()
    )
    digest.update(
        np.ascontiguousarray(
            np.asarray(instance.class_weights, dtype=np.float64)
        ).tobytes()
    )
    return digest.hexdigest()


class _PreparedTrivial:
    """Closed-form single-row/column-class table; consumes no randomness."""

    consumes_rng = False

    def __init__(self, table: np.ndarray) -> None:
        self._table = table

    def sample(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return self._table.copy()

    # The v2 block contract: still no randomness (the table is forced).
    sample_block = sample

    def nbytes(self) -> int:
        return int(self._table.nbytes)


class _PreparedReference:
    """The pure-Python suffix DP, built once and sampled many times.

    Mirrors the seed implementation exactly -- same composition
    enumeration order, same log-space accumulation order -- so the
    sampled option probabilities are bit-identical; the only difference
    is that the suffix memo (and optionally the composition memo) lives
    on the object instead of being rebuilt and cleared per call.
    """

    consumes_rng = True

    def __init__(
        self,
        instance: ClassifiedBipartite,
        comp_memo: dict | None = None,
    ) -> None:
        self._weights = np.asarray(instance.class_weights, dtype=np.float64)
        self._a = tuple(int(k) for k in instance.row_counts)
        self._b = tuple(int(k) for k in instance.col_counts)
        self._suffix: dict[tuple[int, tuple[int, ...]], float] = {}
        # (col_index, remaining) -> (options, probabilities, cdf): the
        # deterministic per-state option law, computed once and shared by
        # both sampling contracts (the floats are identical to what the
        # seed implementation recomputed per draw).
        self._options: dict[
            tuple[int, tuple[int, ...]],
            tuple[list[tuple[int, ...]], np.ndarray, np.ndarray],
        ] = {}
        self._comps = comp_memo if comp_memo is not None else {}
        if self._log_suffix(0, self._a) == -math.inf:
            raise MatchingError(
                "instance admits no positive-weight perfect matching "
                "(class permanent is zero)"
            )

    def _compositions(
        self, total: int, remaining: tuple[int, ...]
    ) -> list[tuple[int, ...]]:
        key = (total, remaining)
        hit = self._comps.get(key)
        if hit is None:
            hit = _compositions(total, remaining)
            self._comps[key] = hit
        return hit

    def nbytes(self) -> int:
        """Rough bytes of the suffix memo (~56B per float cache slot)."""
        total = 56 * len(self._suffix)
        for options, probabilities, cdf in self._options.values():
            total += 24 * len(options) + probabilities.nbytes + cdf.nbytes
        return total

    def _state_options(
        self, col_index: int, remaining: tuple[int, ...]
    ) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
        key = (col_index, remaining)
        hit = self._options.get(key)
        if hit is not None:
            return hit
        num_rows = len(self._a)
        options = []
        option_logs = []
        for allocation in self._compositions(self._b[col_index], remaining):
            log_factor = _log_allocation_factor(
                self._weights, col_index, allocation
            )
            if log_factor == -math.inf:
                continue
            rest = tuple(
                remaining[r] - allocation[r] for r in range(num_rows)
            )
            tail = self._log_suffix(col_index + 1, rest)
            if tail == -math.inf:
                continue
            options.append(allocation)
            option_logs.append(log_factor + tail)
        if not options:
            raise MatchingError(
                f"dead end at column class {col_index}: "
                "no feasible allocation"
            )
        logs = np.asarray(option_logs)
        probabilities = np.exp(logs - logs.max())
        probabilities = probabilities / probabilities.sum()
        entry = (options, probabilities, np.cumsum(probabilities))
        self._options[key] = entry
        return entry

    def _log_suffix(self, col_index: int, remaining: tuple[int, ...]) -> float:
        key = (col_index, remaining)
        hit = self._suffix.get(key)
        if hit is not None:
            return hit
        if col_index == len(self._b):
            value = 0.0 if all(x == 0 for x in remaining) else -math.inf
        else:
            num_rows = len(self._a)
            terms: list[float] = []
            for allocation in self._compositions(self._b[col_index], remaining):
                log_factor = _log_allocation_factor(
                    self._weights, col_index, allocation
                )
                if log_factor == -math.inf:
                    continue
                rest = tuple(
                    remaining[r] - allocation[r] for r in range(num_rows)
                )
                tail = self._log_suffix(col_index + 1, rest)
                if tail == -math.inf:
                    continue
                terms.append(log_factor + tail)
            value = _logsumexp(terms)
        self._suffix[key] = value
        return value

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        num_rows = len(self._a)
        remaining = self._a
        table = np.zeros((num_rows, len(self._b)), dtype=np.int64)
        for col_index in range(len(self._b)):
            options, probabilities, __ = self._state_options(
                col_index, remaining
            )
            choice = int(rng.choice(len(options), p=probabilities))
            allocation = options[choice]
            table[:, col_index] = allocation
            remaining = tuple(
                remaining[r] - allocation[r] for r in range(num_rows)
            )
        return table

    def sample_block(self, rng: np.random.Generator) -> np.ndarray:
        """The v2 contract: one uniform block, inverse-CDF per column."""
        num_rows = len(self._a)
        num_cols = len(self._b)
        uniforms = rng.random(num_cols)
        remaining = self._a
        table = np.zeros((num_rows, num_cols), dtype=np.int64)
        for col_index in range(num_cols):
            options, __, cdf = self._state_options(col_index, remaining)
            choice = int(
                cdf.searchsorted(uniforms[col_index] * cdf[-1], "right")
            )
            choice = min(choice, len(options) - 1)
            allocation = options[choice]
            table[:, col_index] = allocation
            remaining = tuple(
                remaining[r] - allocation[r] for r in range(num_rows)
            )
        return table


class _PreparedVectorized:
    """The layered numpy DP with its deterministic passes precomputed.

    Everything value-dependent is computed at build time: log weights
    (zero weights masked, handled via feasibility tests so 0 * -inf never
    appears), a factorial table for the 1/k! terms, one composition table
    per column capped at the *full* row counts, the forward reachability
    layers, and the backward log-partition values. States (remaining
    row-count vectors) are encoded in a mixed radix so layers can be
    deduplicated, sorted, and joined with searchsorted. Sampling then
    costs one feasibility mask + searchsorted per column class -- the
    only randomness-consuming part, so a plan can reuse one build across
    every draw that meets the same (counts, weights) instance.
    """

    consumes_rng = True
    _BLOCK_ELEMENTS = 4_000_000

    def __init__(self, instance: ClassifiedBipartite, *, build: bool = True) -> None:
        a = tuple(int(k) for k in instance.row_counts)
        b = tuple(int(k) for k in instance.col_counts)
        num_rows = len(a)
        self._a = a
        self._b = b
        strides = np.empty(num_rows, dtype=np.int64)
        acc = 1
        for r in range(num_rows - 1, -1, -1):
            strides[r] = acc
            acc *= a[r] + 1
        self._strides = strides
        self._a_arr = np.asarray(a, dtype=np.int64)
        self._root_code = int(self._a_arr @ strides)
        # (col_index, remaining_code) -> (allocations, cdf): the per-state
        # option CDF tables of the v2 block contract. The root-column
        # table is built eagerly with the DP; deeper states are memoized
        # on first visit during sample_block. cdf_memo_dirty flags growth
        # since the plan last exported the memo (persistence).
        self._cdf_memo: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray]
        ] = {}
        self.cdf_memo_dirty = False
        # The deterministic forward/backward build can be deferred when
        # the memo was seeded from a persisted plan (from_cdf_seed): warm
        # draws then never pay for it, and a state miss triggers it late.
        self._source = instance
        self._built = False
        if build:
            self._ensure_built()

    @classmethod
    def from_cdf_seed(
        cls,
        instance: ClassifiedBipartite,
        entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
    ) -> "_PreparedVectorized":
        """An evaluator whose CDF memo is pre-seeded and whose DP build
        is deferred until a memo miss (restart warm path)."""
        prepared = cls(instance, build=False)
        prepared._cdf_memo.update(entries)
        return prepared

    def _ensure_built(self) -> None:
        if self._built:
            return
        instance = self._source
        weights = np.asarray(instance.class_weights, dtype=np.float64)
        a = self._a
        b = self._b
        num_rows = len(a)
        num_cols = len(b)
        strides = self._strides
        a_arr = self._a_arr

        positive = weights > 0.0
        with np.errstate(divide="ignore"):
            log_weights = np.where(
                positive, np.log(np.where(positive, weights, 1.0)), 0.0
            )
        max_count = max(a, default=0)
        lgamma_table = np.array(
            [math.lgamma(k + 1) for k in range(max_count + 1)]
        )

        col_comps: list[np.ndarray] = []
        col_log_factors: list[np.ndarray] = []
        for c in range(num_cols):
            caps = tuple(min(r, b[c]) for r in a)
            comps = compositions_array(b[c], caps)
            if comps.shape[0] == 0:
                log_factors = np.empty(0)
            else:
                log_factors = (
                    comps @ log_weights[:, c] - lgamma_table[comps].sum(axis=1)
                )
                blocked = ~positive[:, c]
                if blocked.any():
                    infeasible = (comps[:, blocked] > 0).any(axis=1)
                    log_factors = np.where(infeasible, -np.inf, log_factors)
            col_comps.append(comps)
            col_log_factors.append(log_factors)
        self._col_comps = col_comps
        self._col_log_factors = col_log_factors
        # Static per-column pieces of the sampling pass, hoisted out of
        # sample() so warm draws pay only the remaining-dependent work:
        # the finite-factor mask and each allocation's radix code.
        self._col_finite = [np.isfinite(lf) for lf in col_log_factors]
        self._col_comp_codes = [comps @ strides for comps in col_comps]

        # Forward pass: reachable states after each column's allocation.
        layers: list[tuple[np.ndarray, np.ndarray]] = []
        states = a_arr.reshape(1, num_rows)
        layers.append((states, states @ strides))
        for c in range(num_cols):
            comps_f, __ = self._finite_columns(c)
            states = layers[-1][0]
            rest_blocks: list[np.ndarray] = []
            if comps_f.shape[0] and states.shape[0]:
                block = max(
                    1, self._BLOCK_ELEMENTS // (comps_f.shape[0] * num_rows + 1)
                )
                for lo in range(0, states.shape[0], block):
                    chunk = states[lo:lo + block]
                    feasible = (
                        comps_f[None, :, :] <= chunk[:, None, :]
                    ).all(axis=2)
                    rest_blocks.append(
                        (chunk[:, None, :] - comps_f[None, :, :])[feasible]
                    )
            if rest_blocks:
                rests = np.concatenate(rest_blocks, axis=0)
            else:
                rests = np.empty((0, num_rows), dtype=np.int64)
            codes = rests @ strides
            codes, first = np.unique(codes, return_index=True)
            layers.append((rests[first], codes))
        self._layers = layers

        # Backward pass: log partition values per layer (the log_suffix DP,
        # vectorized over whole (state, allocation) blocks at once).
        values: list[np.ndarray | None] = [None] * (num_cols + 1)
        final_codes = layers[num_cols][1]
        values[num_cols] = np.where(final_codes == 0, 0.0, -np.inf)
        for c in range(num_cols - 1, -1, -1):
            states, codes = layers[c]
            comps_f, log_factors_f = self._finite_columns(c)
            level = np.full(states.shape[0], -np.inf)
            if comps_f.shape[0] and states.shape[0]:
                next_codes = layers[c + 1][1]
                next_values = values[c + 1]
                comp_codes = comps_f @ strides
                block = max(
                    1, self._BLOCK_ELEMENTS // (comps_f.shape[0] * num_rows + 1)
                )
                for lo in range(0, states.shape[0], block):
                    chunk = states[lo:lo + block]
                    feasible = (
                        comps_f[None, :, :] <= chunk[:, None, :]
                    ).all(axis=2)
                    rest_codes = codes[lo:lo + block, None] - comp_codes[None, :]
                    tails = _lookup(rest_codes, next_codes, next_values)
                    totals = np.where(
                        feasible & np.isfinite(tails),
                        log_factors_f[None, :] + tails,
                        -np.inf,
                    )
                    peak = totals.max(axis=1)
                    live = peak > -np.inf
                    if live.any():
                        shifted = np.exp(totals[live] - peak[live, None])
                        level[lo:lo + block][live] = (
                            peak[live] + np.log(shifted.sum(axis=1))
                        )
            values[c] = level
        self._values = values

        if values[0][0] == -math.inf:
            raise MatchingError(
                "instance admits no positive-weight perfect matching "
                "(class permanent is zero)"
            )
        self._built = True
        # Eager root table: every draw starts at (column 0, full counts),
        # so the "built once at prepare time" CDF is always this one.
        root = (0, self._root_code)
        if num_cols and root not in self._cdf_memo:
            self._cdf_memo[root] = self._state_cdf(0, a_arr, self._root_code)
            self.cdf_memo_dirty = True

    def _finite_columns(self, col_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Allocations with a finite weight factor (the only contributors)."""
        finite = np.isfinite(self._col_log_factors[col_index])
        return (
            self._col_comps[col_index][finite],
            self._col_log_factors[col_index][finite],
        )

    def nbytes(self) -> int:
        """Bytes of the layered DP state (layers, values, per-column aux).

        Composition tables are shared through the global
        :func:`compositions_array` cache, so they are charged there, not
        per prepared object.
        """
        total = 0
        for allocations, cdf in self._cdf_memo.values():
            total += allocations.nbytes + cdf.nbytes
        if not self._built:
            return int(total)
        for states, codes in self._layers:
            total += states.nbytes + codes.nbytes
        for values in self._values:
            if values is not None:
                total += values.nbytes
        for mask in self._col_finite:
            total += mask.nbytes
        for codes in self._col_comp_codes:
            total += codes.nbytes
        for factors in self._col_log_factors:
            total += factors.nbytes
        return int(total)

    def _state_cdf(
        self, col_index: int, remaining: np.ndarray, remaining_code: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(feasible allocations, option CDF) for one DP state.

        The option weights are the same ``exp(logs - logs.max())`` vector
        the v1 pass hands to ``Generator.choice``; the CDF is its cumsum,
        consumed by scaling a uniform with ``cdf[-1]`` (no normalize).
        """
        self._ensure_built()
        comps = self._col_comps[col_index]
        log_factors = self._col_log_factors[col_index]
        option_logs = np.full(comps.shape[0], -np.inf)
        if comps.shape[0]:
            feasible = (
                (comps <= remaining).all(axis=1)
                & self._col_finite[col_index]
            )
            if feasible.any():
                rest_codes = (
                    remaining_code - self._col_comp_codes[col_index][feasible]
                )
                tails = _lookup(
                    rest_codes,
                    self._layers[col_index + 1][1],
                    self._values[col_index + 1],
                )
                option_logs[feasible] = log_factors[feasible] + tails
        options = np.flatnonzero(np.isfinite(option_logs))
        if options.shape[0] == 0:
            raise MatchingError(
                f"dead end at column class {col_index}: "
                "no feasible allocation"
            )
        logs = option_logs[options]
        weights = np.exp(logs - logs.max())
        return comps[options], np.cumsum(weights)

    def sample_block(self, rng: np.random.Generator) -> np.ndarray:
        """The v2 contract: one uniform block, inverse-CDF per column.

        Consumes exactly one generator invocation per table draw. States
        resolve through the CDF memo, so a warm (or seeded) evaluator
        runs no feasibility masking, no ``exp``, and no DP lookups.
        """
        strides = self._strides
        num_cols = len(self._b)
        uniforms = rng.random(num_cols)
        remaining_code = self._root_code
        remaining = None  # materialized lazily, only for memo misses
        table = np.zeros((len(self._a), num_cols), dtype=np.int64)
        for col_index in range(num_cols):
            key = (col_index, remaining_code)
            entry = self._cdf_memo.get(key)
            if entry is None:
                if remaining is None:
                    remaining = self._a_arr - table[:, :col_index].sum(axis=1)
                entry = self._state_cdf(col_index, remaining, remaining_code)
                self._cdf_memo[key] = entry
                self.cdf_memo_dirty = True
            allocations, cdf = entry
            choice = int(
                cdf.searchsorted(uniforms[col_index] * cdf[-1], "right")
            )
            choice = min(choice, allocations.shape[0] - 1)
            allocation = allocations[choice]
            table[:, col_index] = allocation
            remaining_code -= int(allocation @ strides)
            if remaining is not None:
                remaining = remaining - allocation
        return table

    def export_cdf_entries(
        self,
    ) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """The CDF memo for persistence (shallow copies of the arrays)."""
        return dict(self._cdf_memo)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        self._ensure_built()
        # One allocation draw per column class, options indexed in
        # composition-enumeration order (same order as the reference DP).
        # Integer arithmetic throughout, so tracking `remaining` as an
        # int64 vector (instead of a tuple rebuilt per column) changes
        # no values; the option log-probabilities are bit-identical.
        a = self._a
        strides = self._strides
        remaining = self._a_arr.copy()
        remaining_code = int(self._a_arr @ strides)
        table = np.zeros((len(a), len(self._b)), dtype=np.int64)
        for col_index in range(len(self._b)):
            comps = self._col_comps[col_index]
            log_factors = self._col_log_factors[col_index]
            option_logs = np.full(comps.shape[0], -np.inf)
            if comps.shape[0]:
                feasible = (
                    (comps <= remaining).all(axis=1)
                    & self._col_finite[col_index]
                )
                if feasible.any():
                    rest_codes = (
                        remaining_code
                        - self._col_comp_codes[col_index][feasible]
                    )
                    tails = _lookup(
                        rest_codes,
                        self._layers[col_index + 1][1],
                        self._values[col_index + 1],
                    )
                    option_logs[feasible] = log_factors[feasible] + tails
            options = np.flatnonzero(np.isfinite(option_logs))
            if options.shape[0] == 0:
                raise MatchingError(
                    f"dead end at column class {col_index}: "
                    "no feasible allocation"
                )
            logs = option_logs[options]
            probabilities = np.exp(logs - logs.max())
            probabilities = probabilities / probabilities.sum()
            choice = int(rng.choice(options.shape[0], p=probabilities))
            allocation = comps[options[choice]]
            table[:, col_index] = allocation
            remaining -= allocation
            remaining_code -= int(allocation @ strides)
        return table


def _lookup(
    codes: np.ndarray, layer_codes: np.ndarray, layer_values: np.ndarray
) -> np.ndarray:
    """Values of encoded states in a sorted layer; -inf when absent."""
    if layer_codes.shape[0] == 0:
        return np.full(codes.shape, -np.inf)
    index = np.searchsorted(layer_codes, codes)
    index = np.minimum(index, layer_codes.shape[0] - 1)
    found = layer_codes[index] == codes
    return np.where(found, layer_values[index], -np.inf)


def prepare_contingency_dp(
    instance: ClassifiedBipartite,
    *,
    implementation: str = "auto",
    comp_memo: dict | None = None,
):
    """Build the deterministic half of the contingency DP for reuse.

    Returns a prepared evaluator with ``sample(rng) -> table`` and a
    ``consumes_rng`` flag. The forward/backward (or recursive suffix)
    passes are functions of the instance alone -- no randomness touches
    them -- so one build can serve every future draw against an equal
    (counts, weights) instance; that reuse is the core of the batched
    placement engine (see :class:`repro.core.placement_plan.PlacementPlan`).

    ``implementation`` dispatch matches :func:`sample_contingency_table`:
    ``"auto"`` picks closed form / pure Python / layered numpy by
    instance shape, ``"vectorized"`` and ``"reference"`` pin an
    evaluator. A state space too large to encode in int64 falls back to
    the reference recursion, which only materializes reachable states
    lazily -- checked *before* enumerating per-column composition
    tables, whose size grows with the same combinatorics. ``comp_memo``
    optionally shares a plan-scope composition memo between reference
    builds.
    """
    if implementation == "auto":
        trivial = _trivial_table(instance)
        if trivial is not None:
            return _PreparedTrivial(trivial)
        if instance.size <= _SMALL_INSTANCE_SIZE:
            return _PreparedReference(instance, comp_memo)
    elif implementation == "reference":
        return _PreparedReference(instance, comp_memo)
    elif implementation != "vectorized":
        raise MatchingError(
            f"unknown contingency DP implementation {implementation!r}"
        )
    state_space = 1
    for count in instance.row_counts:
        state_space *= int(count) + 1
    if state_space >= (1 << 62):
        return _PreparedReference(instance, comp_memo)
    return _PreparedVectorized(instance)


def restore_prepared_vectorized(
    instance: ClassifiedBipartite,
    entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]],
):
    """A build-deferred vectorized evaluator seeded from persisted CDFs.

    Returns ``None`` whenever :func:`prepare_contingency_dp` would
    dispatch ``instance`` to a different evaluator (trivial closed form,
    the small-instance reference DP, or the int64 radix-overflow
    fallback) -- the caller then builds normally. Otherwise the returned
    evaluator serves ``sample_block`` straight from the seeded memo and
    only runs the forward/backward passes on a state miss (or a v1
    ``sample`` call), which is what makes a restart's first warm draw
    cheap.
    """
    if _trivial_table(instance) is not None:
        return None
    if instance.size <= _SMALL_INSTANCE_SIZE:
        return None
    state_space = 1
    for count in instance.row_counts:
        state_space *= int(count) + 1
    if state_space >= (1 << 62):
        return None
    return _PreparedVectorized.from_cdf_seed(instance, entries)


def sample_contingency_table(
    instance: ClassifiedBipartite,
    rng: np.random.Generator | None = None,
    *,
    implementation: str = "auto",
) -> np.ndarray:
    """Exactly sample the class-contingency table of a weighted matching.

    The matching distribution marginalizes to tables T with
    ``P(T) prop to prod_{r,c} w[r,c]^{T[r,c]} / T[r,c]!`` subject to the
    row/column sum constraints (see permanent_class_dp). We sample column
    class by column class: allocation k for column c is drawn with
    probability proportional to

        prod_r w[r,c]^{k_r} / k_r!  *  Z(c + 1, remaining - k)

    where Z is the memoized suffix partition function.

    ``implementation`` selects the evaluator -- all sample the same law:

    - ``"auto"`` (default): closed form for single-row/column instances,
      the pure-Python recursion for small general instances, and the
      layered numpy DP for everything else (numpy overhead beats Python
      only once instances carry roughly > 6 midpoints);
    - ``"vectorized"``: always the layered numpy DP;
    - ``"reference"``: always the original pure-Python DP (seed-faithful
      baseline for benchmarks and cross-validation).

    One-shot convenience over :func:`prepare_contingency_dp` + sample;
    batch workloads keep the prepared object and sample it repeatedly.
    """
    prepared = prepare_contingency_dp(instance, implementation=implementation)
    if not prepared.consumes_rng:
        return prepared.sample()
    return prepared.sample(np.random.default_rng(rng))


def _log_allocation_factor(
    weights: np.ndarray, col_index: int, allocation: Sequence[int]
) -> float:
    """``log prod_r w[r, c]^{k_r} / k_r!``; -inf when infeasible."""
    log_factor = 0.0
    for r, k in enumerate(allocation):
        if k == 0:
            continue
        w = float(weights[r, col_index])
        if w <= 0.0:
            return -math.inf
        log_factor += k * math.log(w) - math.lgamma(k + 1)
    return log_factor


def _logsumexp(terms: list[float]) -> float:
    """Stable log(sum(exp(terms))); -inf for an empty list."""
    if not terms:
        return -math.inf
    peak = max(terms)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def expand_table_to_assignment(
    instance: ClassifiedBipartite,
    table: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    rng_contract: str = "v1",
) -> list[list[Hashable]]:
    """Turn a contingency table into per-column-class label sequences.

    For each column class c, the incoming row labels (label r with
    multiplicity ``table[r, c]``) are arranged in a uniformly random order
    across that class's positions -- the conditional law of the matching
    given its table is exactly uniform over such arrangements.

    ``rng_contract`` selects how that uniform order is drawn: ``"v1"``
    makes one ``Generator.permutation`` call per column class (the
    seed-faithful path); ``"v2"`` draws ONE uniform block covering every
    position and sorts each column's slice (iid uniform keys have almost
    surely distinct values, so their argsort is a uniform permutation) --
    a single generator invocation regardless of the column-class count.

    Returns ``assignment`` where ``assignment[c]`` is the length-
    ``col_counts[c]`` list of row labels, in position order.
    """
    rng = np.random.default_rng(rng)
    table = np.asarray(table)
    row_labels = instance.row_labels
    num_rows = table.shape[0]
    num_cols = table.shape[1]
    col_counts = np.asarray(instance.col_counts, dtype=np.int64)
    col_sums = table.sum(axis=0).astype(np.int64)
    bad = np.nonzero(col_sums != col_counts)[0]
    if bad.size:
        c = int(bad[0])
        raise MatchingError(
            f"table column {c} sums to {int(col_sums[c])}, "
            f"expected {int(col_counts[c])}"
        )
    # Row-class index of every position, columns concatenated in order
    # (identical to the label list the per-row extend loop used to build).
    class_of_slot = np.repeat(
        np.tile(np.arange(num_rows), num_cols), table.T.reshape(-1)
    )
    starts = np.concatenate(([0], np.cumsum(col_counts)))
    if rng_contract == "v2":
        block = rng.random(int(starts[-1]))
        col_of_slot = np.repeat(np.arange(num_cols), col_counts)
        # One stable sort by (column, key) orders every column at once:
        # within a column it is exactly the argsort of its block slice
        # (iid uniform keys are a.s. distinct, so any correct sort gives
        # the same permutation the per-column argsort did).
        ordered = class_of_slot[np.lexsort((block, col_of_slot))]
        return [
            [row_labels[k] for k in ordered[starts[c]:starts[c + 1]]]
            for c in range(num_cols)
        ]
    # v1 draws one Generator.permutation per column class; the stream
    # position of each draw is the contract, so this loop stays.
    assignment: list[list[Hashable]] = []
    for c in range(num_cols):
        classes = class_of_slot[starts[c]:starts[c + 1]]
        order = rng.permutation(int(col_counts[c]))
        assignment.append([row_labels[classes[i]] for i in order])
    return assignment


def sample_assignment_by_classes(
    instance: ClassifiedBipartite,
    rng: np.random.Generator | None = None,
    *,
    implementation: str = "auto",
) -> list[list[Hashable]]:
    """Exact weight-proportional matching sample, returned per column class.

    Composition of :func:`sample_contingency_table` and
    :func:`expand_table_to_assignment`: distributionally identical to
    sampling a perfect matching of the expanded bipartite graph with
    probability proportional to its weight, but in time polynomial in the
    number of classes. ``implementation`` is forwarded to the contingency
    DP (``"auto"``, ``"vectorized"``, or ``"reference"``).
    """
    rng = np.random.default_rng(rng)
    table = sample_contingency_table(instance, rng, implementation=implementation)
    return expand_table_to_assignment(instance, table, rng)
