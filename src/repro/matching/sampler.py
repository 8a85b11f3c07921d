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

The DP is split into a deterministic *build* (the recursive suffix
log-partition values, memoized per state -- no randomness) and a cheap
randomness-consuming *sampling pass*: :func:`prepare_contingency_dp`
returns the built evaluator, whose ``sample(rng)`` draws ONE uniform
vector per table (``rng.random(num_columns)``) and resolves each column
by ``np.searchsorted`` against a per-(column, remaining-state) CDF;
:func:`sample_contingency_table` is the one-shot composition of the
two. Single-row/column instances take a closed form that consumes no
randomness.

These samplers are oracles: the sampler's own placement reads the
midpoint bank's sequences, whose true placement already follows this
law (see :mod:`repro.core.placement`). Tests and the paper benches
compare the two through
:func:`repro.core.placement.resample_placement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.errors import MatchingError
from repro.matching.permanent import _compositions, permanent_ryser

__all__ = [
    "ClassifiedBipartite",
    "sample_matching_exact",
    "sample_matching_mcmc",
    "sample_contingency_table",
    "expand_table_to_assignment",
    "sample_assignment_by_classes",
    "prepare_contingency_dp",
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
    analysis (the JSV/JVV pipeline stand-in; see the README's "Walk-layer
    placement" section). ``steps``
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


class _PreparedTrivial:
    """Closed-form single-row/column-class table; consumes no randomness."""

    def __init__(self, table: np.ndarray) -> None:
        self._table = table

    def sample(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """The forced table; ``rng`` is accepted and left untouched."""
        return self._table.copy()


class _PreparedReference:
    """The pure-Python suffix DP, built once and sampled many times.

    Reachable states only: the suffix memo and the per-state option
    laws fill in lazily, so the state space is never enumerated.
    """

    def __init__(self, instance: ClassifiedBipartite) -> None:
        self._weights = np.asarray(instance.class_weights, dtype=np.float64)
        self._a = tuple(int(k) for k in instance.row_counts)
        self._b = tuple(int(k) for k in instance.col_counts)
        self._suffix: dict[tuple[int, tuple[int, ...]], float] = {}
        # (col_index, remaining) -> (options, cdf): the deterministic
        # per-state option law, computed once (the cdf is the cumsum of
        # the normalized option probabilities the seed implementation
        # recomputed per draw).
        self._options: dict[
            tuple[int, tuple[int, ...]],
            tuple[list[tuple[int, ...]], np.ndarray],
        ] = {}
        self._comps: dict = {}
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

    def _state_options(
        self, col_index: int, remaining: tuple[int, ...]
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
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
        entry = (options, np.cumsum(probabilities))
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
        """One uniform block, inverse-CDF per column."""
        num_rows = len(self._a)
        num_cols = len(self._b)
        uniforms = rng.random(num_cols)
        remaining = self._a
        table = np.zeros((num_rows, num_cols), dtype=np.int64)
        for col_index in range(num_cols):
            options, cdf = self._state_options(col_index, remaining)
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


def prepare_contingency_dp(
    instance: ClassifiedBipartite,
    *,
    implementation: str = "auto",
):
    """Build the deterministic half of the contingency DP for reuse.

    Returns a prepared evaluator whose ``sample(rng) -> table`` is its
    one sampling pass; the suffix partition values are functions of the
    instance alone, so one build can serve repeated draws against it.
    ``implementation`` dispatch matches :func:`sample_contingency_table`:
    ``"auto"`` takes the closed form for single-row/column instances and
    the reference recursion otherwise; ``"reference"`` always runs the
    recursion.
    """
    if implementation == "auto":
        trivial = _trivial_table(instance)
        if trivial is not None:
            return _PreparedTrivial(trivial)
    elif implementation != "reference":
        raise MatchingError(
            f"unknown contingency DP implementation {implementation!r}"
        )
    return _PreparedReference(instance)


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

    ``implementation`` selects the evaluator -- both sample the same law:

    - ``"auto"`` (default): closed form for single-row/column instances,
      the recursion otherwise;
    - ``"reference"``: always the recursion.

    One-shot convenience over :func:`prepare_contingency_dp` + sample;
    repeated draws keep the prepared object and sample it repeatedly.
    """
    prepared = prepare_contingency_dp(instance, implementation=implementation)
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
) -> list[list[Hashable]]:
    """Turn a contingency table into per-column-class label sequences.

    For each column class c, the incoming row labels (label r with
    multiplicity ``table[r, c]``) are arranged in a uniformly random order
    across that class's positions -- the conditional law of the matching
    given its table is exactly uniform over such arrangements.

    The order is drawn as ONE uniform block covering every position, and
    each column's slice is sorted (iid uniform keys have almost surely
    distinct values, so their argsort is a uniform permutation) -- a
    single generator invocation regardless of the column-class count.

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
    DP (``"auto"`` or ``"reference"``).
    """
    rng = np.random.default_rng(rng)
    table = sample_contingency_table(instance, rng, implementation=implementation)
    return expand_table_to_assignment(instance, table, rng)
