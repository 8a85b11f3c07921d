"""Cross-sample derived-graph cache (engine layer 2).

Each phase of the Theorem 1 sampler derives its chain from the frozen
vertex subset ``S``: the ShortCut(G, S) matrix, the Schur(G, S) transition
matrix, and the Lemma 7 power ladder. These numerics are deterministic
functions of ``(G, S, config)`` -- no randomness touches them -- so
ensemble workloads that revisit a subset (phase 1's ``S = V`` on *every*
draw; later subsets whenever walks coincide) can reuse them wholesale.
Used alone, this cache keeps every build; under a ``cache_dir`` the
tiered store (:mod:`repro.engine.store`) keeps a later phase's build
only on its volume's second sighting of the subset.

The round model is unaffected by reuse: rounds are charged *per run*,
and the engine bills every phase's numerics as a closed form of the
phase's shape, whether they were built or looked up (see
:class:`~repro.engine.runner.SamplerEngine`). Entries therefore carry
numerics only. Consequently a run with the cache enabled produces
byte-identical trees and byte-identical round ledgers to a run without
it -- property tests pin this.

This generalizes the seed's phase-1-only ladder cache to every phase and
every backend. The cache itself is a bounded LRU map over opaque
hashable keys; :class:`~repro.engine.runner.SamplerEngine` keys entries
by ``(graph/config fingerprint, sorted subset tuple)`` so a cache shared
between engines can never serve numerics computed for a different graph
or configuration. Entries hold O(|S|^2 log ell) floats, so capacity is
bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Hashable

from repro.errors import ConfigError
from repro.linalg.backend import matrix_nbytes
from repro.linalg.matpow import PowerLadder

__all__ = [
    "PhaseNumerics",
    "DerivedGraphCache",
    "config_fingerprint",
    "CACHE_BEHAVIOR_FIELDS",
]

# Configuration fields that steer *where and how much* the cache stores,
# never *what numbers* the sampler computes. They are excluded from the
# fingerprint on purpose: two sessions pointed at the same persistent
# cache directory with different byte budgets (or one with the cache
# disabled entirely) compute identical PhaseNumerics, so keying on these
# fields would make them unable to share a single entry -- the exact
# sharing the disk tier exists for.
CACHE_BEHAVIOR_FIELDS = frozenset(
    {
        "derived_cache",
        "derived_cache_entries",
        "cache_dir",
        "cache_memory_bytes",
        "cache_disk_bytes",
    }
)

# Retired fields keep their old slots and defaults so cache volumes stay warm.
_RETIRED_FINGERPRINT_PARTS = {
    "on_failure": (("matching_method", "'exact-dp'"), ("mcmc_steps", "None")),
}


def config_fingerprint(config, *, resolved_ell: int, linalg_backend: str) -> str:
    """Canonical string over every *numerics-affecting* field plus resolved state.

    Cache keys used to be derived from a hand-picked list of
    "numerics-relevant" fields, which silently went stale whenever a new
    numerics-affecting knob was added (two sessions sharing a cache with
    different truncation/precision settings could then exchange
    :class:`PhaseNumerics` entries). Fingerprinting the complete
    dataclass -- plus the resolved walk length and the resolved linalg
    backend, which are functions of config *and* graph -- over-partitions
    harmlessly (a non-numeric field change just forfeits sharing) but can
    never alias two configurations that compute different numbers.

    The one deliberate carve-out is :data:`CACHE_BEHAVIOR_FIELDS`:
    cache location/sizing knobs change which entries are *kept*, never
    the bytes inside them, and including them would partition a shared
    persistent directory into mutually invisible shards.
    """
    parts: list[tuple[str, str]] = []
    for field in fields(config):
        if field.name in CACHE_BEHAVIOR_FIELDS:
            continue
        value = getattr(config, field.name)
        if field.name == "extra":
            try:
                value = sorted((str(k), repr(v)) for k, v in value.items())
            except Exception:  # unsortable/exotic payloads still fingerprint
                value = repr(value)
        parts.append((field.name, repr(value)))
        parts.extend(_RETIRED_FINGERPRINT_PARTS.get(field.name, ()))
    parts.append(("resolved_ell", repr(int(resolved_ell))))
    parts.append(("resolved_linalg", repr(str(linalg_backend))))
    return repr(parts)


@dataclass
class PhaseNumerics:
    """One phase's subset-determined numerics.

    ``shortcut`` / ``transition`` / ``order`` / ``ladder`` are what phase
    execution consumes. Nothing here records a round charge: the cache
    key fixes every input of the phase's bill.
    ``shortcut`` and ``transition`` are stored in whichever format the
    engine's linalg backend produced (dense ndarray or scipy CSR) --
    the backend name is part of the cache key, so formats never mix.
    """

    shortcut: object
    transition: object
    order: list[int]
    ladder: PowerLadder

    def nbytes(self) -> int:
        """Total bytes held by this entry's matrices.

        Matrix bytes are deduplicated by object identity: with
        ``bits=None`` the ladder's base power *is* the transition matrix,
        and counting it twice would charge the byte budget for memory
        that isn't there.
        """
        total = 0
        seen: set[int] = set()
        matrices = [self.shortcut, self.transition]
        matrices.extend(self.ladder.power(k) for k in self.ladder.exponents)
        for matrix in matrices:
            if matrix is None or id(matrix) in seen:
                continue
            seen.add(id(matrix))
            total += matrix_nbytes(matrix)
        return total


def _entry_nbytes(numerics) -> int:
    """Byte size of a cache entry; 0 for opaque test payloads."""
    sizer = getattr(numerics, "nbytes", None)
    if callable(sizer):
        return int(sizer())
    return 0


class DerivedGraphCache:
    """Bounded LRU map from phase keys to :class:`PhaseNumerics`.

    Eviction is byte-accounted: ``max_bytes`` caps the summed
    :meth:`PhaseNumerics.nbytes` of resident entries (an n=1024 dense
    ladder entry is ~60 MB, so an entry-count cap alone is meaningless at
    scale). ``max_entries`` remains as a secondary cap. An entry larger
    than the whole byte budget is refused residency outright -- it can
    neither blow past the budget nor flush the resident working set on
    its way through (it may still live on the disk tier; see
    :mod:`repro.engine.store`).
    """

    def __init__(
        self, max_entries: int = 64, *, max_bytes: int | None = None
    ) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(
                f"cache needs max_bytes >= 1 (or None), got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, PhaseNumerics] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> PhaseNumerics | None:
        """The cached numerics for a phase key, or None (counts a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(
        self, key: Hashable, numerics: PhaseNumerics, *, phase_one: bool = True
    ) -> None:
        """Insert (or refresh) an entry, evicting LRU ones past either cap.

        ``phase_one`` is the engine's admission hint; a RAM-only cache
        keeps every build regardless (the tiered store acts on it).
        """
        size = _entry_nbytes(numerics)
        if self.max_bytes is not None and size > self.max_bytes:
            # Refused residency: admitting an entry bigger than the
            # whole budget would evict every resident entry first (the
            # new entry is MRU) and still end over budget.
            if key in self._entries:
                del self._entries[key]
                self.bytes_used -= self._sizes.pop(key, 0)
            self.evictions += 1
            return
        if key in self._entries:
            self.bytes_used -= self._sizes.pop(key, 0)
            self._entries.move_to_end(key)
        self._entries[key] = numerics
        self._sizes[key] = size
        self.bytes_used += size
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        while self._entries and (
            len(self._entries) > self.max_entries
            or (self.max_bytes is not None and self.bytes_used > self.max_bytes)
        ):
            evicted_key, _ = self._entries.popitem(last=False)
            self.bytes_used -= self._sizes.pop(evicted_key, 0)
            self.evictions += 1

    def refresh(self, key: Hashable) -> None:
        """No-op (entries never grow); kept for ``perfbench/tracing.py``
        until ROADMAP item 1."""

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._entries.clear()
        self._sizes.clear()
        self.bytes_used = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size and bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": int(self.bytes_used),
        }
