"""Per-phase batched placement plan (the walk layer's warm-path engine).

With phase numerics served from the tiered cache, the floor of a warm
draw is the walk itself -- and inside the walk, the placement machinery:
per-pair midpoint laws (Formula 1), the classified-bipartite weight
columns of Lemma 3, the contingency-DP forward/backward passes, and the
Algorithm 4 first-visit edge distributions. Every one of those is a
*deterministic* function of the phase's frozen numerics: only the final
sampling passes consume randomness. :class:`PlacementPlan` is the
per-phase memo that exploits this split:

- ``law(level, p, q, half_power)`` -- the unnormalized midpoint law
  ``P^{delta/2}[p, *] * P^{delta/2}[*, q]`` and its normalizer, computed
  once per (level, pair) and shared by every level fill, extension
  segment, and ensemble draw that meets the pair again.
- ``prepared_dp(instance)`` -- the built (deterministic) half of the
  contingency DP, keyed by
  :func:`~repro.matching.sampler.instance_digest`; isomorphic
  :class:`~repro.matching.sampler.ClassifiedBipartite` instances across
  pairs and draws share one forward/backward pass and only rerun the
  randomness-consuming sampling pass. Small-instance (pure-Python)
  builds share one plan-scope composition memo (the ``_compositions``
  enumeration is the dominant cost of the small-instance DP).
- ``first_visit(prev, v, compute)`` -- Algorithm 4's per-edge
  distribution over the candidate first-visit edges, a function of
  ``(G, S, prev, v)`` alone.

The v2 RNG contract (``rng_contract="v2"``) adds CDF companions to each
memo: ``cdf(level, p, q, half_power)`` is the cumulative sum of the
unnormalized law (consumers scale a uniform by ``cdf[-1]`` instead of
normalizing), ``first_visit_cdf`` and ``end_cdf`` do the same for
Algorithm 4 edges and the segment end-vertex law, and ``prepared_dp``
surfaces the evaluators' per-(column, state) CDF tables. CDFs are
deterministic functions of the laws they accompany, so they are
recomputed from the persisted laws on load rather than spilled --
except the contingency-DP tables of the hottest instances
(``DP_SEED_TOP_K`` by use count), which DO persist inside ``plan.npz``:
a restarted process then serves its first block draws straight from the
seeded memos, deferring each DP's forward/backward build until a state
miss (closing the first-draw-after-restart gap).

A plan belongs to one :class:`~repro.engine.cache.PhaseNumerics` entry
(same key: graph/config fingerprint + subset) and rides the derived-graph
cache with it -- in RAM by attachment, on disk as a ``plan.npz`` blob the
:class:`~repro.engine.store.DiskTier` republishes next to the numerics
blobs, so warm process restarts skip re-classification too. Prepared DP
objects are rebuilt per process (their layered state is not worth
spilling; the persisted laws and first-visit tables are the
re-classification cost a restart actually pays).

Capacity: each memo is a bounded LRU so adversarial workloads (huge
ensembles of fresh seeds over a huge graph) cannot grow a plan without
bound; inserting into a full memo displaces its least-recently-used
entry (counted in ``evicted``). Byte usage -- laws, first-visit tables,
and the prepared-DP scratch -- is reported through ``nbytes`` and
charged to the RAM tier's budget via
:meth:`~repro.engine.cache.PhaseNumerics.nbytes`; the engine re-measures
entries whose plans grew at the end of every run.

Every phase of the walk layer runs over a plan: the engine attaches one
to each cache entry, and walk-layer entry points called without one
(tests, examples) build a private plan for the call. The plan NEVER
caches sampled outcomes -- tables, assignments, edges and trees are
drawn fresh from the request's RNG on every use, so a cold plan and a
warm one draw byte-identical trees for the same seed (the golden seed
fixtures in ``tests/test_placement_batched.py`` pin both contracts).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from repro.linalg.backend import matrix_col, matrix_row
from repro.matching.sampler import (
    ClassifiedBipartite,
    instance_digest,
    prepare_contingency_dp,
    restore_prepared_vectorized,
)

__all__ = ["PlacementPlan", "PLAN_MEMBERS"]

# Version 3 is columnar: one fixed set of arrays per plan, whatever it
# holds, so a blob has 14 zip members rather than one per memo entry
# (zip directory and header parsing dominated loading and saving the
# older layouts). Older blobs raise ValueError and load as cold plans;
# the next spill rewrites them.
PLAN_FORMAT_VERSION = 3
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
    # Contingency-DP seeds: per digest its allocation width and number
    # of (column, state) keys; per key its option count; flat
    # allocation rows and cdf values.
    "dp_digests",
    "dp_widths",
    "dp_key_counts",
    "dp_keys",
    "dp_counts",
    "dp_allocations",
    "dp_cdfs",
)

# How many instance digests' CDF tables ride along in plan.npz, ranked
# by prepared_dp use count. Each entry is a few KiB (per-state allocation
# matrices + cdf vectors), so the cap bounds blob growth while covering
# every digest a warm phase actually cycles through.
DP_SEED_TOP_K = 32


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
    """Memoized deterministic placement structure for one phase.

    Parameters bound the three memos (entries, not bytes -- law and
    first-visit entries are O(n) and O(degree) respectively, prepared
    DPs hold the layered state of one instance). Defaults comfortably
    hold every structure a warm-service phase at n ~ 1024 touches.
    """

    def __init__(
        self,
        *,
        max_laws: int = 8192,
        max_dps: int = 2048,
        max_first_visit: int = 32768,
        max_end_laws: int = 4096,
    ) -> None:
        self.max_laws = max_laws
        self.max_dps = max_dps
        self.max_first_visit = max_first_visit
        self.max_end_laws = max_end_laws
        self._laws: OrderedDict[
            tuple[int, int, int], tuple[np.ndarray, float]
        ] = OrderedDict()
        # Normalized companions of _laws entries, filled lazily on first
        # probability request (law / total, cached so repeat consumers
        # skip the O(n) divide; bit-equal to dividing fresh).
        self._probabilities: dict[tuple[int, int, int], np.ndarray] = {}
        # Cumulative companions of _laws entries (v2 contract): cumsum of
        # the unnormalized law, evicted together with the law.
        self._cdfs: dict[tuple[int, int, int], np.ndarray] = {}
        self._dps: OrderedDict[str, object] = OrderedDict()
        # Persisted-but-not-yet-rebuilt contingency-DP CDF tables, keyed
        # by instance digest (loaded from plan.npz; consumed lazily when
        # prepared_dp meets the digest), and per-digest use counters that
        # rank which tables are worth persisting.
        self._dp_seeds: dict[
            str, dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
        ] = {}
        self._dp_use: dict[str, int] = {}
        self._first_visit: OrderedDict[
            tuple[int, int], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        # CDF companions of _first_visit entries (v2 contract).
        self._first_visit_cdfs: dict[tuple[int, int], np.ndarray] = {}
        # Segment end-vertex CDFs keyed by start vertex (the ladder's top
        # power is fixed per plan, so the key needs nothing else). Not
        # persisted: one O(n) cumsum per start vertex per process.
        self._end_cdfs: OrderedDict[int, np.ndarray] = OrderedDict()
        # Plan-scope composition memo shared by every reference DP build
        # (the _compositions enumeration repeats across instances with
        # equal column sums and remaining-count vectors).
        self._comp_memo: dict = {}
        self.law_hits = 0
        self.law_misses = 0
        self.dp_hits = 0
        self.dp_misses = 0
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
            self._probabilities.pop(evicted_key, None)
            self._cdfs.pop(evicted_key, None)
            self.evicted += 1
        self._laws[key] = entry
        self.dirty = True
        return entry

    def probabilities(
        self, level: int, p: int, q: int, half_power
    ) -> tuple[np.ndarray, float]:
        """The normalized midpoint law ``law / total`` (memoized divide).

        Returns ``(probabilities, total)`` -- total is still needed for
        the Section 5.2 normalizer-floor check. The cached vector is
        exactly what dividing the cached law by its cached total yields,
        bit-equal to dividing a fresh law.
        """
        key = (level, p, q)
        law, total = self.law(level, p, q, half_power)
        hit = self._probabilities.get(key)
        if hit is not None:
            return hit, total
        if total <= 0.0:  # let the caller raise its own error
            return law, total
        probabilities = law / total
        if key in self._laws:  # only cache alongside a resident law
            self._probabilities[key] = probabilities
        return probabilities, total

    def cdf(
        self, level: int, p: int, q: int, half_power
    ) -> tuple[np.ndarray, float]:
        """The cumulative midpoint law (v2 contract; memoized cumsum).

        Returns ``(cdf, total)`` where ``cdf`` is the cumsum of the
        *unnormalized* law -- v2 consumers draw by scaling a uniform with
        ``cdf[-1]``, so no normalizing divide ever runs -- and ``total``
        is the law's sum for the Section 5.2 floor check (identical
        float to what the v1 path checks).
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
        """Cumulative end-vertex law ``cumsum(P^ell[start, :])`` (v2).

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

    # -- prepared contingency DPs ----------------------------------------

    def prepared_dp(self, instance: ClassifiedBipartite):
        """The built contingency DP for ``instance`` (shared across draws).

        Keyed by the instance's content digest, so isomorphic instances
        (equal counts and weights, any labels) resolve to one
        forward/backward pass. The returned object's ``sample(rng)`` is
        the only randomness-consuming step.
        """
        digest = instance_digest(instance)
        self._dp_use[digest] = self._dp_use.get(digest, 0) + 1
        hit = self._dps.get(digest)
        if hit is not None:
            self._dps.move_to_end(digest)
            self.dp_hits += 1
            if getattr(hit, "cdf_memo_dirty", False):
                # The evaluator grew its persisted-CDF memo since the
                # last spill; mark the plan so the engine writes the new
                # tables back to disk at the end of the run.
                self.dirty = True
            return hit
        self.dp_misses += 1
        prepared = None
        seed = self._dp_seeds.get(digest)
        if seed is not None:
            # A restarted process meets a digest whose CDF tables rode in
            # with plan.npz: serve block draws from the seeded memo and
            # defer the forward/backward build until a state miss.
            prepared = restore_prepared_vectorized(instance, seed)
            if prepared is not None:
                del self._dp_seeds[digest]
        if prepared is None:
            prepared = prepare_contingency_dp(
                instance, comp_memo=self._comp_memo
            )
        if len(self._dps) >= self.max_dps:
            self._dps.popitem(last=False)
            self.evicted += 1
        self._dps[digest] = prepared
        return prepared

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
        """``(neighbors, cdf)`` companion of :meth:`first_visit` (v2).

        The cdf is the cumsum of the cached probability vector; v2
        consumers scale their uniform by ``cdf[-1]`` (the probabilities
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
        """Approximate bytes held by the memos (DP scratch included)."""
        total = 0
        for law, __ in self._laws.values():
            total += law.nbytes
        for probabilities in self._probabilities.values():
            total += probabilities.nbytes
        for cdf in self._cdfs.values():
            total += cdf.nbytes
        for neighbors, probabilities in self._first_visit.values():
            total += neighbors.nbytes + probabilities.nbytes
        for cdf in self._first_visit_cdfs.values():
            total += cdf.nbytes
        for cdf in self._end_cdfs.values():
            total += cdf.nbytes
        for prepared in self._dps.values():
            sizer = getattr(prepared, "nbytes", None)
            if callable(sizer):
                total += int(sizer())
        for seed in self._dp_seeds.values():
            for allocations, cdf in seed.values():
                total += allocations.nbytes + cdf.nbytes
        # Composition memo: tuples of small ints; ~16 bytes per count is
        # a serviceable order-of-magnitude charge.
        total += 16 * sum(
            len(comps) * (len(key[1]) + 1)
            for key, comps in self._comp_memo.items()
        )
        return total

    def stats(self) -> dict[str, int]:
        """Flat counters (wire-friendly ints)."""
        return {
            "laws": len(self._laws),
            "law_hits": self.law_hits,
            "law_misses": self.law_misses,
            "dps": len(self._dps),
            "dp_hits": self.dp_hits,
            "dp_misses": self.dp_misses,
            "first_visit": len(self._first_visit),
            "first_visit_hits": self.first_visit_hits,
            "first_visit_misses": self.first_visit_misses,
            "cdfs": len(self._cdfs) + len(self._first_visit_cdfs),
            "end_cdfs": len(self._end_cdfs),
            "dp_seeds": len(self._dp_seeds),
            "evicted": self.evicted,
            "bytes": int(self.nbytes()),
        }

    # -- persistence -----------------------------------------------------

    def _dp_seed_exports(
        self,
    ) -> dict[str, dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]]:
        """Per-digest CDF tables worth persisting, top-K by use count.

        Candidates are live evaluators exposing a non-empty CDF memo
        (``export_cdf_entries``) plus still-unconsumed seeds loaded from
        a previous blob -- dropping the latter on re-export would lose a
        restart's head start for digests this process never happened to
        meet again.
        """
        candidates: dict[
            str, dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
        ] = {}
        for digest, prepared in self._dps.items():
            exporter = getattr(prepared, "export_cdf_entries", None)
            if exporter is None:
                continue
            entries = exporter()
            if entries:
                candidates[digest] = entries
        for digest, entries in self._dp_seeds.items():
            if digest not in candidates and entries:
                candidates[digest] = entries
        ranked = sorted(
            candidates,
            key=lambda digest: self._dp_use.get(digest, 0),
            reverse=True,
        )
        return {digest: candidates[digest] for digest in ranked[:DP_SEED_TOP_K]}

    def export_arrays(self) -> dict[str, np.ndarray] | None:
        """The persistable memos as the fixed :data:`PLAN_MEMBERS` arrays.

        Prepared-DP layered state (forward/backward passes) is excluded
        -- it rebuilds from the persisted classification -- but the
        per-state CDF tables of the hottest digests ride along in the
        ``dp_*`` columns. Returns None when the plan holds no laws,
        first-visit tables or DP seeds (nothing worth spilling).
        Exporting changes no state: the caller clears the dirty flags
        through :meth:`mark_spilled` once the blob is actually
        published.
        """
        seeds = self._dp_seed_exports()
        if not (self._laws or self._first_visit or seeds):
            return None
        laws = self._laws
        fv_entries = list(self._first_visit.values())
        arrays: dict[str, np.ndarray] = {
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
        digests: list[str] = []
        widths: list[int] = []
        key_counts: list[int] = []
        keys: list[tuple[int, int]] = []
        counts: list[int] = []
        allocation_blocks: list[np.ndarray] = []
        cdf_blocks: list[np.ndarray] = []
        for digest, entries in seeds.items():
            ordered = sorted(entries)
            digests.append(digest)
            widths.append(int(entries[ordered[0]][0].shape[1]))
            key_counts.append(len(ordered))
            for key in ordered:
                allocations, cdf = entries[key]
                keys.append(key)
                counts.append(allocations.shape[0])
                allocation_blocks.append(allocations.ravel())
                cdf_blocks.append(cdf)
        arrays.update(
            dp_digests=np.asarray(digests, dtype=np.str_),
            dp_widths=np.asarray(widths, dtype=np.int64),
            dp_key_counts=np.asarray(key_counts, dtype=np.int64),
            dp_keys=np.asarray(keys, dtype=np.int64).reshape(-1, 2),
            dp_counts=np.asarray(counts, dtype=np.int64),
            dp_allocations=_concat(allocation_blocks, np.int64),
            dp_cdfs=_concat(cdf_blocks, np.float64),
        )
        return arrays

    def mark_spilled(self) -> None:
        """Record a published spill: clear the plan's and evaluators'
        dirty flags, so an unchanged steady state is not respilled."""
        self.dirty = False
        for prepared in self._dps.values():
            if getattr(prepared, "cdf_memo_dirty", False):
                prepared.cdf_memo_dirty = False

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "PlacementPlan":
        """Rebuild a plan from :meth:`export_arrays` output.

        Restored laws, first-visit tables and DP seeds are row views
        into the loaded columns; totals are recomputed per law row (the
        same bits, the same sum). Any other format, a missing or extra
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

        digests = np.asarray(arrays["dp_digests"])
        if digests.dtype.kind != "U" or digests.ndim != 1:
            raise ValueError(f"bad dp_digests {digests.dtype}{digests.shape}")
        num_digests = digests.shape[0]
        widths = _column(arrays, "dp_widths", np.int64, (num_digests,))
        key_counts = _column(arrays, "dp_key_counts", np.int64, (num_digests,))
        dp_keys = _column(arrays, "dp_keys", np.int64, (None, 2))
        counts = _column(arrays, "dp_counts", np.int64, (dp_keys.shape[0],))
        allocations = _column(arrays, "dp_allocations", np.int64, (None,))
        cdfs = _column(arrays, "dp_cdfs", np.float64, (None,))
        if num_digests and int(widths.min()) < 1:
            raise ValueError("dp-seed width below 1")
        key_starts = _offsets(key_counts, dp_keys.shape[0], "dp-seed key")
        row_starts = _offsets(counts, cdfs.shape[0], "dp-seed cdf")
        key_widths = np.repeat(widths, key_counts)
        flat_starts = _offsets(
            counts * key_widths, allocations.shape[0], "dp-seed allocation"
        )
        dp_key_list = dp_keys.tolist()
        for index, digest in enumerate(digests.tolist()):
            entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
            width = int(widths[index])
            for k in range(key_starts[index], key_starts[index + 1]):
                entries[tuple(dp_key_list[k])] = (
                    allocations[flat_starts[k]:flat_starts[k + 1]].reshape(
                        -1, width
                    ),
                    cdfs[row_starts[k]:row_starts[k + 1]],
                )
            plan._dp_seeds[digest] = entries
        if len(plan._dp_seeds) != num_digests:
            raise ValueError("duplicate dp-seed digests")
        return plan
