"""Sequential top-down walk filling (Outline 1 and Section 2.1.2).

These are the paper's *reference* algorithms: the distributed sampler is
proven correct by showing it simulates them exactly (Lemmas 1-4). We keep
them as first-class library members because

1. they serve as the statistical ground truth the distributed
   implementation is validated against, and
2. the :class:`PartialWalk` invariants (uniform spacing, prefix
   truncation) they establish are reused verbatim by the distributed
   phase machinery in :mod:`repro.core`.

The filling process builds a walk of target length ``ell`` (a power of
two) level by level: level i starts from a partial walk whose filled
positions are exactly ``0, delta, 2 delta, ..., ell_i`` for
``delta = ell / 2^(i-1)``, and inserts a midpoint into every gap using the
Bayes/Markov two-sided law of Formula (1):

    Pr[midpoint = v] prop to P^{delta/2}[p, v] * P^{delta/2}[v, q].

The truncated variant re-truncates after every level so the walk always
ends at the first occurrence of its rho-th distinct vertex (Lemma 2).

These references draw every gap from its own freshly computed law. The
distributed phase's level fill, which gathers a level's laws at once
(its Section 5.2 fallback), lives in :mod:`repro.core.phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WalkError
from repro.linalg.backend import matrix_col, matrix_row
from repro.linalg.matpow import PowerLadder

__all__ = [
    "PartialWalk",
    "sample_midpoint",
    "fill_walk",
    "truncated_fill_walk",
    "sample_bridge",
]


@dataclass
class PartialWalk:
    """A uniformly spaced partial walk (the W_i of Section 2.1).

    Attributes
    ----------
    spacing:
        Index gap ``delta`` between consecutive filled positions.
    vertices:
        Filled vertices in chronological order; ``vertices[j]`` sits at
        walk index ``j * spacing``.

    The *target length* ``ell_i`` (the index of the final element) is
    derived: ``(len(vertices) - 1) * spacing``.
    """

    spacing: int
    vertices: list[int]

    def __post_init__(self) -> None:
        if self.spacing < 1:
            raise WalkError(f"spacing must be >= 1, got {self.spacing}")
        if not self.vertices:
            raise WalkError("partial walk must contain at least one vertex")

    @property
    def target_length(self) -> int:
        """Index of the final filled position (ell_i)."""
        return (len(self.vertices) - 1) * self.spacing

    @property
    def is_complete(self) -> bool:
        """True once every index is filled (spacing 1)."""
        return self.spacing == 1

    def pairs(self) -> list[tuple[int, int]]:
        """Consecutive (start, end) vertex pairs, i.e. the gaps to fill."""
        return list(zip(self.vertices, self.vertices[1:]))

    def distinct_count(self) -> int:
        """Number of distinct vertices currently in the walk."""
        return len(set(self.vertices))


def sample_midpoint(
    half_power,
    p: int,
    q: int,
    rng: np.random.Generator,
    *,
    count: int = 1,
) -> list[int]:
    """Sample ``count`` i.i.d. midpoints between (p, q) (Formula 1).

    ``half_power`` is ``P^{delta/2}`` in whichever storage format the
    linalg backend produced (dense ndarray or scipy CSR); the
    unnormalized law over v is ``half_power[p, v] * half_power[v, q]``.
    Raises :class:`WalkError` when the two-step return probability
    ``P^{delta}[p, q]`` is zero (such a gap cannot exist in a genuine
    walk).
    """
    distribution = matrix_row(half_power, p) * matrix_col(half_power, q)
    total = distribution.sum()
    if total <= 0:
        raise WalkError(
            f"no vertex can be the midpoint between {p} and {q}: "
            "inconsistent partial walk"
        )
    probabilities = distribution / total
    draws = rng.choice(len(probabilities), size=count, p=probabilities)
    return [int(v) for v in draws]


def _fill_level(
    walk: PartialWalk,
    half_power,
    rng: np.random.Generator,
) -> PartialWalk:
    """Insert one midpoint into every gap, halving the spacing."""
    if walk.spacing % 2 != 0:
        raise WalkError(f"cannot halve odd spacing {walk.spacing}")
    new_vertices = [walk.vertices[0]]
    for p, q in walk.pairs():
        midpoint = sample_midpoint(half_power, p, q, rng)[0]
        new_vertices.append(midpoint)
        new_vertices.append(q)
    return PartialWalk(walk.spacing // 2, new_vertices)


def _truncate_at_distinct(walk: PartialWalk, rho: int) -> PartialWalk:
    """Truncate at the first occurrence of the rho-th distinct vertex.

    Scanning chronologically, the walk is cut (inclusively) at the first
    position where the distinct-vertex count reaches ``rho``; untouched if
    the walk never reaches ``rho`` distinct vertices. This realizes the
    deferred-truncation equivalence of Lemma 2.
    """
    seen: set[int] = set()
    for index, vertex in enumerate(walk.vertices):
        if vertex not in seen:
            seen.add(vertex)
            if len(seen) >= rho:
                return PartialWalk(walk.spacing, walk.vertices[: index + 1])
    return walk


def _sample_end(
    ladder: PowerLadder, start: int, rng: np.random.Generator
) -> int:
    """Draw the walk's end vertex from ``P^ell[start, *]``.

    The row is normalized first: on a precision-truncated ladder
    (``bits=...``) its entries are rounded and need not sum to 1.
    """
    end_law = matrix_row(ladder.power(ladder.ell), start)
    return int(rng.choice(len(end_law), p=end_law / end_law.sum()))


def fill_walk(
    ladder: PowerLadder,
    start: int,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Outline 1: sample a complete random walk of length ``ladder.ell``.

    Samples the end vertex from ``P^ell[start, *]`` and fills midpoints
    level by level. Lemma 1: the result is distributed exactly as a
    step-by-step random walk of the same length.
    """
    rng = np.random.default_rng(rng)
    ell = ladder.ell
    end = _sample_end(ladder, start, rng)
    walk = PartialWalk(ell, [start, end])
    while not walk.is_complete:
        half = walk.spacing // 2
        walk = _fill_level(walk, ladder.power(half), rng)
    return list(walk.vertices)


def sample_bridge(
    ladder: PowerLadder,
    start: int,
    end: int,
    rng: np.random.Generator | None = None,
    *,
    length: int | None = None,
) -> list[int]:
    """Sample a random-walk *bridge*: a walk conditioned on its endpoints.

    This is the Fill subroutine of Outline 1 exposed as a public API: a
    length-``length`` walk from ``start`` distributed exactly as a plain
    walk conditioned on ending at ``end``. ``length`` defaults to
    ``ladder.ell`` and must be a power of two available in the ladder.
    Raises :class:`~repro.errors.WalkError` when no such bridge exists
    (``P^length[start, end] = 0``, e.g. parity-impossible endpoints on a
    bipartite graph).
    """
    rng = np.random.default_rng(rng)
    if length is None:
        length = ladder.ell
    top = ladder.power(length)  # validates that length is in the ladder
    if float(top[start, end]) <= 0.0:
        raise WalkError(
            f"no length-{length} bridge exists from {start} to {end}"
        )
    walk = PartialWalk(length, [start, end])
    while not walk.is_complete:
        walk = _fill_level(walk, ladder.power(walk.spacing // 2), rng)
    return list(walk.vertices)


def truncated_fill_walk(
    ladder: PowerLadder,
    start: int,
    rho: int,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Section 2.1.2: the sequential *truncated* fill algorithm.

    Identical to :func:`fill_walk` except that after every level the walk
    is truncated to end at the first occurrence of its rho-th distinct
    vertex. Lemma 2: the output is a random walk stopped at
    ``tau = min(ell, first time the rho-th distinct vertex appears)``.
    """
    if rho < 1:
        raise WalkError(f"rho must be >= 1, got {rho}")
    rng = np.random.default_rng(rng)
    ell = ladder.ell
    end = _sample_end(ladder, start, rng)
    walk = _truncate_at_distinct(PartialWalk(ell, [start, end]), rho)
    while not walk.is_complete:
        half = walk.spacing // 2
        walk = _fill_level(walk, ladder.power(half), rng)
        walk = _truncate_at_distinct(walk, rho)
    return list(walk.vertices)
