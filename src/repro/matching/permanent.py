"""Matrix permanents: Ryser's formula and a class-compressed DP.

The permanent of the biadjacency matrix of an edge-weighted complete
bipartite graph equals the total weight of its perfect matchings (Section
1.8), which is why it appears in the paper's walk reconstruction.

Two evaluators:

- :func:`permanent_ryser` -- Ryser's inclusion-exclusion with Gray-code
  updates, exact in O(2^n n) for general matrices (practical to n ~ 20);
- :func:`permanent_class_dp` -- exact permanent of a matrix whose rows and
  columns come in *classes* of identical vectors, in time polynomial in
  the class counts. This exploits the structure of the sampler's bipartite
  graph B: edge weights depend only on (midpoint identity, start-end pair
  of the position), so B has at most O(sqrt(n)) row classes and O(n)
  column classes regardless of how many midpoints are being placed.

Derivation of the DP: group rows into classes r with multiplicities
``a_r`` and columns into classes c with multiplicities ``b_c``. A perfect
matching induces a contingency table ``T[r, c]`` (edges between class r and
class c) with row sums ``a_r`` and column sums ``b_c``. The number of
matchings inducing a given T is

    #matchings(T) = prod_r multinomial(a_r; T[r, :]) * prod_c b_c!
                  = prod_r a_r! * prod_c b_c! / prod_{r,c} T[r,c]!

(split each row class across column classes, then permute freely within
each column class), so

    perm = prod_r a_r! * prod_c b_c! *
           sum_T prod_{r,c} w(r,c)^{T[r,c]} / T[r,c]!

-- the fully factorized form used below; tests verify equality with Ryser
on expanded matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import math

import numpy as np

from repro.errors import MatchingError

__all__ = ["permanent_ryser", "permanent_exact", "permanent_class_dp"]

_RYSER_LIMIT = 22


def permanent_ryser(matrix: np.ndarray) -> float:
    """Exact permanent via Ryser's formula with Gray-code subset updates.

    ``perm(A) = (-1)^n sum_{S subset of columns} (-1)^{|S|}
    prod_i sum_{j in S} A[i, j]``. Complexity O(2^n n); guarded at
    n <= 22 to keep runtime sane.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatchingError(f"permanent needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n > _RYSER_LIMIT:
        raise MatchingError(
            f"Ryser evaluation limited to n <= {_RYSER_LIMIT}, got {n}; "
            "use permanent_class_dp or the MCMC sampler"
        )
    row_sums = np.zeros(n, dtype=np.float64)
    total = 0.0
    gray = 0
    for k in range(1, 1 << n):
        # Gray code: exactly one column enters or leaves the subset.
        next_gray = k ^ (k >> 1)
        changed_bit = gray ^ next_gray
        column = changed_bit.bit_length() - 1
        if next_gray & changed_bit:
            row_sums += a[:, column]
        else:
            row_sums -= a[:, column]
        gray = next_gray
        # Accumulated sign is (-1)^n * (-1)^{|S|} = (-1)^{n - |S|}.
        subset_sign = -1.0 if (n - bin(gray).count("1")) % 2 else 1.0
        total += subset_sign * float(np.prod(row_sums))
    return total


def permanent_exact(matrix: np.ndarray) -> float:
    """Exact permanent, dispatching to the best available evaluator."""
    return permanent_ryser(matrix)


def _compositions(total: int, caps: Sequence[int]) -> list[tuple[int, ...]]:
    """All vectors k with sum(k) == total and 0 <= k[i] <= caps[i]."""
    results: list[tuple[int, ...]] = []

    def recurse(prefix: list[int], remaining: int, index: int) -> None:
        if index == len(caps):
            if remaining == 0:
                results.append(tuple(prefix))
            return
        # Prune: remaining must be coverable by the residual caps.
        residual = sum(caps[index:])
        if remaining > residual:
            return
        for value in range(min(caps[index], remaining) + 1):
            prefix.append(value)
            recurse(prefix, remaining - value, index + 1)
            prefix.pop()

    recurse([], total, 0)
    return results


def _stable_allocation_factor(
    weights: np.ndarray, col_index: int, allocation: Sequence[int]
) -> float:
    """``prod_r w[r, c]^{k_r} / k_r!`` evaluated as ``exp(sum k log w -
    lgamma(k + 1))`` so large multiplicities cannot overflow."""
    log_factor = 0.0
    for r, k in enumerate(allocation):
        if k == 0:
            continue
        w = float(weights[r, col_index])
        if w <= 0.0:
            return 0.0
        log_factor += k * math.log(w) - math.lgamma(k + 1)
    return math.exp(log_factor)


def permanent_class_dp(
    class_weights: np.ndarray,
    row_counts: Sequence[int],
    col_counts: Sequence[int],
) -> float:
    """Exact permanent of a matrix with repeated rows and columns.

    Parameters
    ----------
    class_weights:
        ``(R, C)`` matrix; entry ``[r, c]`` is the common weight between
        any row of class r and any column of class c.
    row_counts / col_counts:
        Multiplicities ``a_r`` / ``b_c``; the expanded matrix is square
        when ``sum(a) == sum(b)`` (else the permanent is 0 and we raise).

    Implements

        perm = prod_r a_r! * prod_c b_c! *
               sum_T prod_{r,c} w[r,c]^{T[r,c]} / T[r,c]!

    by dynamic programming over column classes with the vector of
    remaining row multiplicities as state.
    """
    weights = np.asarray(class_weights, dtype=np.float64)
    a = tuple(int(x) for x in row_counts)
    b = tuple(int(x) for x in col_counts)
    if weights.shape != (len(a), len(b)):
        raise MatchingError(
            f"class weight shape {weights.shape} inconsistent with "
            f"{len(a)} row / {len(b)} column classes"
        )
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise MatchingError("class multiplicities must be non-negative")
    if sum(a) != sum(b):
        raise MatchingError(
            f"expanded matrix is not square ({sum(a)} rows vs {sum(b)} cols)"
        )
    if np.any(weights < 0):
        raise MatchingError("matching weights must be non-negative")
    num_rows = len(a)

    @lru_cache(maxsize=None)
    def partial(col_index: int, remaining: tuple[int, ...]) -> float:
        """sum over tables for column classes col_index.. of the factorized
        weight prod w^T / T!, given remaining row multiplicities."""
        if col_index == len(b):
            return 1.0 if all(x == 0 for x in remaining) else 0.0
        total = 0.0
        for allocation in _compositions(b[col_index], remaining):
            factor = _stable_allocation_factor(weights, col_index, allocation)
            if factor == 0.0:
                continue
            rest = tuple(remaining[r] - allocation[r] for r in range(num_rows))
            total += factor * partial(col_index + 1, rest)
        return total

    core = partial(0, a)
    partial.cache_clear()
    if core <= 0.0:
        return 0.0
    # The factorial prefactor can exceed float range on its own; combine in
    # log space and report inf when the true value genuinely overflows.
    log_result = math.log(core)
    for count in a:
        log_result += math.lgamma(count + 1)
    for count in b:
        log_result += math.lgamma(count + 1)
    try:
        return math.exp(log_result)
    except OverflowError:
        return math.inf
