"""Per-phase placement plan (the walk layer's warm-path engine).

With phase numerics served from the tiered cache, the floor of a warm
draw is the walk itself -- and inside the walk, the per-pair midpoint
laws (Formula 1) and the Algorithm 4 first-visit edge distributions.
Both are *deterministic* functions of the phase's frozen numerics: only
the final sampling passes consume randomness. :class:`PlacementPlan` is
the per-phase memo that exploits this split:

- ``law(level, p, q, half_power)`` -- the unnormalized midpoint law
  ``P^{delta/2}[p, *] * P^{delta/2}[*, q]`` and its normalizer, computed
  once per (level, pair) and shared by every level fill, extension
  segment, and ensemble draw that meets the pair again.
- ``first_visit(prev, v, compute)`` -- Algorithm 4's per-edge
  distribution over the candidate first-visit edges, a function of
  ``(G, S, prev, v)`` alone.

The walk layer draws every decision as a uniform resolved by
``searchsorted`` against a CDF, so each memo has a CDF companion:
``cdf(level, p, q, half_power)`` is the cumulative sum of the
unnormalized law (consumers scale a uniform by ``cdf[-1]`` instead of
normalizing), ``first_visit_cdf`` and ``end_cdf`` do the same for
Algorithm 4 edges and the segment end-vertex law. CDFs are
deterministic functions of the laws they accompany, so they are
recomputed from the persisted laws on load rather than spilled.

Midpoint placement draws nothing and memoizes nothing: it reads the
bank's own sequences (:mod:`repro.core.placement`).
``prepared_dp(instance)`` builds the contingency DP for the resampling
oracle only, fresh on every call.

A plan belongs to one :class:`~repro.engine.cache.PhaseNumerics` entry
(same key: graph/config fingerprint + subset) and rides the derived-graph
cache with it -- in RAM by attachment, on disk as a ``plan.npz`` blob the
:class:`~repro.engine.store.DiskTier` republishes next to the numerics
blobs, so warm process restarts skip recomputing laws and first-visit
tables.

Capacity: each memo is a bounded LRU so adversarial workloads (huge
ensembles of fresh seeds over a huge graph) cannot grow a plan without
bound; inserting into a full memo displaces its least-recently-used
entry (counted in ``evicted``). Byte usage is reported through
``nbytes`` and charged to the RAM tier's budget via
:meth:`~repro.engine.cache.PhaseNumerics.nbytes`; the engine re-measures
entries whose plans grew at the end of every run.

Every phase of the walk layer runs over a plan: the engine attaches one
to each cache entry, and walk-layer entry points called without one
(tests, examples) build a private plan for the call. The plan NEVER
caches sampled outcomes -- walks, edges and trees are drawn fresh from
the request's RNG on every use, so a cold plan and a warm one draw
byte-identical trees for the same seed (the golden seed fixtures in
``tests/test_placement_batched.py`` pin them).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from repro.linalg.backend import matrix_col, matrix_row
from repro.matching.sampler import ClassifiedBipartite, prepare_contingency_dp

__all__ = ["PlacementPlan", "PLAN_MEMBERS"]

# Columnar: one fixed set of arrays per plan, whatever it holds (zip
# directory parsing dominated the older one-member-per-entry layouts;
# format 3 also carried seven contingency-DP columns). Any other format
# raises ValueError and loads as a cold plan; the next spill rewrites it.
PLAN_FORMAT_VERSION = 4
PLAN_MEMBERS = (
    "plan_format",
    # Midpoint laws: (k, 3) (level, p, q) keys and one (k, |S|) matrix.
    "law_keys",
    "law_values",
    # First-visit tables: (f, 2) (prev, vertex) keys, per-key lengths,
    # concatenated neighbors and probabilities.
    "fv_keys",
    "fv_lengths",
    "fv_neighbors",
    "fv_probabilities",
)


def _concat(blocks: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate 1-D blocks (an empty list gives an empty array)."""
    if not blocks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(blocks).astype(dtype, copy=False)


def _column(
    arrays: Mapping[str, np.ndarray], name: str, dtype, shape: tuple
) -> np.ndarray:
    """One plan member, checked against its dtype and shape.

    ``shape`` gives each axis's required length, ``None`` for any.
    """
    value = np.asarray(arrays[name])
    if value.dtype != dtype or value.ndim != len(shape) or any(
        want is not None and got != want
        for got, want in zip(value.shape, shape)
    ):
        raise ValueError(
            f"plan array {name!r} is {value.dtype}{value.shape}, "
            f"expected {np.dtype(dtype)}{shape}"
        )
    return value


def _offsets(lengths: np.ndarray, total: int, what: str) -> list[int]:
    """Start offsets of consecutive blocks (plus the end), validated.

    Every block must be non-empty and the blocks must tile ``total``
    exactly, so a corrupted length can never slice past the data.
    """
    if lengths.shape[0] and int(lengths.min()) < 1:
        raise ValueError(f"empty {what} block")
    offsets = [0]
    offsets.extend(np.cumsum(lengths).tolist())
    if offsets[-1] != total:
        raise ValueError(
            f"{what} lengths sum to {offsets[-1]}, data holds {total}"
        )
    return offsets


class PlacementPlan:
    """Memoized deterministic walk-layer structure for one phase.

    Parameters bound the memos (entries, not bytes -- law and
    first-visit entries are O(n) and O(degree) respectively). Defaults
    comfortably hold every structure a warm-service phase at n ~ 1024
    touches.
    """

    def __init__(
        self,
        *,
        max_laws: int = 8192,
        max_first_visit: int = 32768,
        max_end_laws: int = 4096,
    ) -> None:
        self.max_laws = max_laws
        self.max_first_visit = max_first_visit
        self.max_end_laws = max_end_laws
        self._laws: OrderedDict[
            tuple[int, int, int], tuple[np.ndarray, float]
        ] = OrderedDict()
        # Cumulative companions of _laws entries: cumsum of the
        # unnormalized law, evicted together with the law.
        self._cdfs: dict[tuple[int, int, int], np.ndarray] = {}
        self._first_visit: OrderedDict[
            tuple[int, int], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        # CDF companions of _first_visit entries.
        self._first_visit_cdfs: dict[tuple[int, int], np.ndarray] = {}
        # Segment end-vertex CDFs keyed by start vertex (the ladder's top
        # power is fixed per plan, so the key needs nothing else). Not
        # persisted: one O(n) cumsum per start vertex per process.
        self._end_cdfs: OrderedDict[int, np.ndarray] = OrderedDict()
        self.law_hits = 0
        self.law_misses = 0
        self.first_visit_hits = 0
        self.first_visit_misses = 0
        self.evicted = 0
        # True whenever the persistable part (laws / first-visit tables)
        # grew since the last spill; the engine writes dirty plans back
        # to the disk tier at the end of a run.
        self.dirty = False

    # -- midpoint laws ---------------------------------------------------

    def law(
        self, level: int, p: int, q: int, half_power
    ) -> tuple[np.ndarray, float]:
        """Unnormalized midpoint law for pair ``(p, q)`` at ``level``.

        ``level`` is the half-spacing exponent (``delta / 2``), which
        identifies the ladder power the law is computed from; the cached
        vector is exactly ``matrix_row(half_power, p) *
        matrix_col(half_power, q)`` with its sum, so hits are bit-equal
        to recomputation. Returns ``(law, total)``.
        """
        key = (level, p, q)
        hit = self._laws.get(key)
        if hit is not None:
            self._laws.move_to_end(key)
            self.law_hits += 1
            return hit
        self.law_misses += 1
        law = matrix_row(half_power, p) * matrix_col(half_power, q)
        total = float(law.sum())
        entry = (law, total)
        if len(self._laws) >= self.max_laws:
            evicted_key, __ = self._laws.popitem(last=False)
            self._cdfs.pop(evicted_key, None)
            self.evicted += 1
        self._laws[key] = entry
        self.dirty = True
        return entry

    def cdf(
        self, level: int, p: int, q: int, half_power
    ) -> tuple[np.ndarray, float]:
        """The cumulative midpoint law (memoized cumsum).

        Returns ``(cdf, total)`` where ``cdf`` is the cumsum of the
        *unnormalized* law -- consumers draw by scaling a uniform with
        ``cdf[-1]``, so no normalizing divide ever runs -- and ``total``
        is the law's sum for the Section 5.2 floor check.
        """
        key = (level, p, q)
        law, total = self.law(level, p, q, half_power)
        hit = self._cdfs.get(key)
        if hit is not None:
            return hit, total
        cdf = np.cumsum(law)
        if key in self._laws:  # only cache alongside a resident law
            self._cdfs[key] = cdf
        return cdf, total

    # -- segment end-vertex laws -----------------------------------------

    def end_cdf(self, start: int, top_power) -> np.ndarray:
        """Cumulative end-vertex law ``cumsum(P^ell[start, :])``.

        The ladder's top power is one matrix per plan (extensions reuse
        the nominal ell), so the memo keys on the start vertex alone.
        """
        hit = self._end_cdfs.get(start)
        if hit is not None:
            self._end_cdfs.move_to_end(start)
            return hit
        cdf = np.cumsum(matrix_row(top_power, start))
        if len(self._end_cdfs) >= self.max_end_laws:
            self._end_cdfs.popitem(last=False)
            self.evicted += 1
        self._end_cdfs[start] = cdf
        return cdf

    # -- the resampling oracle's DP --------------------------------------

    def prepared_dp(self, instance: ClassifiedBipartite):
        """A freshly built contingency DP for ``instance``.

        Only :func:`~repro.core.placement.resample_placement` (the
        oracle) calls this; production placement reads the bank. Nothing
        is memoized. The returned object's ``sample(rng)`` is the only
        randomness-consuming step.
        """
        return prepare_contingency_dp(instance)

    # -- first-visit edge distributions ----------------------------------

    def first_visit(
        self,
        prev: int,
        vertex: int,
        compute: Callable[[], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 4's ``(neighbors, probabilities)`` for one new vertex.

        The distribution depends only on the phase's frozen ``(G, S)``
        and the (prev, vertex) walk step, so it is computed at most once
        per plan; ``compute`` supplies the cold evaluation.
        """
        key = (prev, vertex)
        hit = self._first_visit.get(key)
        if hit is not None:
            self._first_visit.move_to_end(key)
            self.first_visit_hits += 1
            return hit
        self.first_visit_misses += 1
        neighbors, probabilities = compute()
        entry = (np.asarray(neighbors), np.asarray(probabilities))
        if len(self._first_visit) >= self.max_first_visit:
            evicted_key, __ = self._first_visit.popitem(last=False)
            self._first_visit_cdfs.pop(evicted_key, None)
            self.evicted += 1
        self._first_visit[key] = entry
        self.dirty = True
        return entry

    def first_visit_cdf(
        self,
        prev: int,
        vertex: int,
        compute: Callable[[], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbors, cdf)`` companion of :meth:`first_visit`.

        The cdf is the cumsum of the cached probability vector; consumers
        scale their uniform by ``cdf[-1]`` (the probabilities
        Algorithm 4 computes already sum to ~1, but scaling keeps the
        draw exact under float round-off without a renormalizing pass).
        """
        key = (prev, vertex)
        neighbors, probabilities = self.first_visit(prev, vertex, compute)
        hit = self._first_visit_cdfs.get(key)
        if hit is not None:
            return neighbors, hit
        cdf = np.cumsum(probabilities)
        if key in self._first_visit:  # only cache alongside the entry
            self._first_visit_cdfs[key] = cdf
        return neighbors, cdf

    # -- introspection ---------------------------------------------------

    def nbytes(self) -> int:
        """Approximate bytes held by the memos."""
        total = 0
        for law, __ in self._laws.values():
            total += law.nbytes
        for cdf in self._cdfs.values():
            total += cdf.nbytes
        for neighbors, probabilities in self._first_visit.values():
            total += neighbors.nbytes + probabilities.nbytes
        for cdf in self._first_visit_cdfs.values():
            total += cdf.nbytes
        for cdf in self._end_cdfs.values():
            total += cdf.nbytes
        return total

    def stats(self) -> dict[str, int]:
        """Flat counters (wire-friendly ints)."""
        return {
            "laws": len(self._laws),
            "law_hits": self.law_hits,
            "law_misses": self.law_misses,
            "first_visit": len(self._first_visit),
            "first_visit_hits": self.first_visit_hits,
            "first_visit_misses": self.first_visit_misses,
            "cdfs": len(self._cdfs) + len(self._first_visit_cdfs),
            "end_cdfs": len(self._end_cdfs),
            "evicted": self.evicted,
            "bytes": int(self.nbytes()),
        }

    # -- persistence -----------------------------------------------------

    def export_arrays(self) -> dict[str, np.ndarray] | None:
        """The persistable memos as the fixed :data:`PLAN_MEMBERS` arrays.

        Returns None when the plan holds no laws or first-visit tables
        (nothing worth spilling). Exporting changes no state: the caller
        clears the dirty flag through :meth:`mark_spilled` once the blob
        is actually published.
        """
        if not (self._laws or self._first_visit):
            return None
        laws = self._laws
        fv_entries = list(self._first_visit.values())
        return {
            "plan_format": np.asarray([PLAN_FORMAT_VERSION], dtype=np.int64),
            "law_keys": np.asarray(list(laws), dtype=np.int64).reshape(-1, 3),
            "law_values": (
                np.stack([law for law, __ in laws.values()])
                if laws
                else np.empty((0, 0), dtype=np.float64)
            ),
            "fv_keys": np.asarray(
                list(self._first_visit), dtype=np.int64
            ).reshape(-1, 2),
            "fv_lengths": np.asarray(
                [neighbors.shape[0] for neighbors, __ in fv_entries],
                dtype=np.int64,
            ),
            "fv_neighbors": _concat(
                [neighbors for neighbors, __ in fv_entries], np.int64
            ),
            "fv_probabilities": _concat(
                [probabilities for __, probabilities in fv_entries], np.float64
            ),
        }

    def mark_spilled(self) -> None:
        """Record a published spill: clear the dirty flag, so an
        unchanged steady state is not respilled."""
        self.dirty = False

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "PlacementPlan":
        """Rebuild a plan from :meth:`export_arrays` output.

        Restored laws and first-visit tables are row views into the
        loaded columns; totals are recomputed per law row (the same
        bits, the same sum). Any other format, a missing or extra
        member, a wrong dtype or shape, or lengths that do not tile
        their data raise ``ValueError``, so the store can treat a bad
        blob as absent.
        """
        names = set(arrays.keys())
        if "plan_format" not in names:
            raise ValueError("not a plan blob: no plan_format member")
        version = np.asarray(arrays["plan_format"]).ravel()
        if version.shape != (1,) or int(version[0]) != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported plan format {version!r}")
        if names != set(PLAN_MEMBERS):
            raise ValueError(
                f"plan members differ from format {PLAN_FORMAT_VERSION}: "
                f"{sorted(names.symmetric_difference(PLAN_MEMBERS))}"
            )
        plan = cls()

        law_keys = _column(arrays, "law_keys", np.int64, (None, 3))
        law_values = np.ascontiguousarray(
            _column(
                arrays, "law_values", np.float64, (law_keys.shape[0], None)
            )
        )
        for key, law in zip(law_keys.tolist(), law_values):
            plan._laws[tuple(key)] = (law, float(law.sum()))
        if len(plan._laws) != law_keys.shape[0]:
            raise ValueError("duplicate law keys")

        fv_keys = _column(arrays, "fv_keys", np.int64, (None, 2))
        fv_lengths = _column(
            arrays, "fv_lengths", np.int64, (fv_keys.shape[0],)
        )
        neighbors = _column(arrays, "fv_neighbors", np.int64, (None,))
        probabilities = _column(
            arrays, "fv_probabilities", np.float64, (neighbors.shape[0],)
        )
        starts = _offsets(fv_lengths, neighbors.shape[0], "first-visit")
        for key, lo, hi in zip(fv_keys.tolist(), starts, starts[1:]):
            plan._first_visit[tuple(key)] = (
                neighbors[lo:hi],
                probabilities[lo:hi],
            )
        if len(plan._first_visit) != fv_keys.shape[0]:
            raise ValueError("duplicate first-visit keys")
        return plan
