"""Tiered persistent derived-graph store (RAM LRU over a disk tier).

The Theorem 1 sampler's dominant cost is building subset-determined
numerics -- ShortCut/Schur matrices and the Lemma 7 power ladder -- which
are deterministic in ``(G, S, config)`` yet historically lived only in a
per-process in-memory LRU. Every ensemble worker, process restart, and
CLI invocation therefore paid the full cold cost again. This module adds
the missing tier:

- :class:`DiskTier` -- a content-addressed on-disk blob store. Each
  :class:`~repro.engine.cache.PhaseNumerics` entry becomes one directory
  of ``.npy`` (dense, loaded back memory-mapped) / ``.npz`` (CSR) blobs
  plus a ``meta.json`` (array layout, subset order, ladder shape), keyed
  by a digest of the engine's ``(config fingerprint, subset)`` cache
  key. Writes are atomic
  (tmp directory + rename), so concurrent ensemble workers sharing one
  ``cache_dir`` can never observe a half-written entry; loads are
  corruption-tolerant (a bad blob is a miss, never a crash). Byte
  accounting evicts least-recently-used blobs past ``max_bytes``. Only
  numerics persist: the walk layer keeps no memo
  (:mod:`repro.core.placement_plan`), so nothing is written after an
  entry is published. A ``plan.npz`` that older versions spilled into
  an entry directory is never read; it counts toward the entry's bytes
  and goes when the entry is evicted, pruned or cleared.
- :class:`TieredPhaseStore` -- the two-tier composite the engine talks
  to: memory hits stay in RAM, memory misses consult the disk tier and
  promote hits back into RAM. It exposes the same
  ``lookup``/``store``/``stats`` surface as
  :class:`~repro.engine.cache.DerivedGraphCache`, so
  :class:`~repro.engine.runner.SamplerEngine` is agnostic to whether its
  cache is one tier or two.

Admission is by reuse. Phase 1's ``S = V`` recurs on every draw and is
kept in both tiers the first time it is built. A later phase's subset
almost never recurs across seeds, so its numerics are kept only on the
volume's *second* sighting of its key: the first build records the key
in the sighting table (``sightings.bin``, :data:`SIGHTING_SLOTS`
direct-mapped 8-byte slots beside ``index.json``), serves its draw and
is dropped. The table is shared by every process on the volume, so a
second sighting counts across shards, restarts, ensemble workers and
CLI invocations: a same-seed replay rebuilds once, keeps the entry, and
hits from then on.

Reproducibility contract (property-tested): the disk tier cold, warm, or
disabled never changes sampled trees or round ledgers -- ``.npy``/``.npz``
round trips preserve float64 entries bit-for-bit, and the engine bills a
hit exactly as it bills a cold build. Entries written by older versions
also carry charge-recipe keys in ``meta.json`` (``is_phase_one``,
``ladder_size``, ``ladder_squarings``, ``ladder_entry_words``,
``shortcut_squarings``); they are ignored, so those entries load as
plain hits.
Bit-for-bit means "as the writer computed them", not canonical: processes
at different BLAS thread counts (budgeted pool workers vs a front end,
see :mod:`repro.linalg.threads`) can compute entries that differ in the
last ulps, and the first writer's bytes are what the tier serves. Trees
and ledgers are pinned identical across thread counts.

The same persistence directory also hosts this machine's sparse-crossover
calibration profile (:mod:`repro.linalg.calibrate`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.engine.cache import DerivedGraphCache, PhaseNumerics
from repro.errors import ConfigError
from repro.linalg.backend import HAVE_SCIPY, is_sparse_matrix
from repro.linalg.matpow import PowerLadder

if HAVE_SCIPY:  # pragma: no branch - the CI image ships scipy
    import scipy.sparse as _sp

__all__ = [
    "DiskTier",
    "TieredPhaseStore",
    "open_phase_store",
    "resolve_cache_root",
    "DEFAULT_CACHE_ROOT_ENV",
]

STORE_FORMAT_VERSION = 1
DEFAULT_CACHE_ROOT_ENV = "REPRO_CACHE_DIR"
# The sighting table: direct-mapped slots, each holding the 8-byte
# digest prefix of the last key sighted there (128 KiB in all).
SIGHTING_SLOTS = 1 << 14
_SLOT_BYTES = 8
# Crash leftovers (tmp dirs whose writer died before the rename) are
# swept on open, but only once they are unambiguously stale -- a live
# concurrent writer's tmp dir must never be deleted from under it.
STALE_TMP_SECONDS = 3600.0


def resolve_cache_root(cache_dir: str | os.PathLike) -> Path:
    """Resolve a configured ``cache_dir`` to a concrete directory.

    The sentinel ``"auto"`` picks this machine's default persistent root:
    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro-spanning-trees``.
    Anything else is used verbatim (with ``~`` expansion).
    """
    if str(cache_dir) == "auto":
        env = os.environ.get(DEFAULT_CACHE_ROOT_ENV)
        if env:
            return Path(env).expanduser()
        return Path.home() / ".cache" / "repro-spanning-trees"
    return Path(cache_dir).expanduser()


def key_digest(key: Hashable) -> str:
    """Stable content address for an engine cache key.

    Engine keys are ``(config/graph fingerprint hex, subset tuple)`` --
    both have deterministic ``repr`` across processes, which is what lets
    separately spawned ensemble workers address the same blobs.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()


def _fault_hook(point: str, **payload) -> None:
    """Service-layer chaos hook, reachable only when faults are armed.

    Env-guarded so the engine never imports the service package on the
    production path (no layering inversion, no import cost): with
    ``REPRO_FAULTS`` unset this is one dict probe.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return
    from repro.service.faults import fire

    fire(point, **payload)


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_entry(directory: Path) -> None:
    """fsync every blob in ``directory``, then the directory itself.

    The atomic-rename publish protocol makes an entry visible all at
    once, but rename alone orders nothing on disk: after a host crash
    the journal may replay the rename *before* the data blocks of the
    files inside, surfacing a truncated-but-renamed blob that lookup
    trusts (meta.json present). Durability before visibility: flush the
    bytes, flush the tmp dir's entries, then rename.
    """
    for path in directory.iterdir():
        if path.is_file():
            _fsync_file(path)
    _fsync_file(directory)


def _save_matrix(directory: Path, stem: str, matrix) -> dict:
    """Write one matrix blob; returns its index record for ``meta.json``."""
    if is_sparse_matrix(matrix):
        _sp.save_npz(str(directory / f"{stem}.npz"), matrix)
        return {"format": "csr", "file": f"{stem}.npz"}
    array = np.ascontiguousarray(np.asarray(matrix))
    np.save(directory / f"{stem}.npy", array)
    return {"format": "dense", "file": f"{stem}.npy"}


def _blob_bytes(entry_dir: Path) -> int:
    """Summed payload bytes of one published entry (meta.json excluded)."""
    return sum(
        blob.stat().st_size
        for blob in entry_dir.iterdir()
        if blob.name != "meta.json"
    )


class _UnsupportedBlob(Exception):
    """A *valid* blob this process lacks the libraries to load.

    Distinct from corruption on purpose: the entry must be treated as a
    plain miss and left on disk for processes that can read it (e.g. a
    scipy-less reader sharing a cache_dir with sparse-backend writers
    must not delete their CSR entries).
    """


def _load_matrix(directory: Path, record: dict):
    """Load one matrix blob (dense blobs come back memory-mapped)."""
    path = directory / record["file"]
    if record["format"] == "csr":
        if not HAVE_SCIPY:
            raise _UnsupportedBlob("CSR blob requires scipy")
        return _sp.load_npz(str(path))
    if record["format"] != "dense":
        raise ValueError(f"unknown blob format {record['format']!r}")
    return np.load(path, mmap_mode="r")


class DiskTier:
    """Content-addressed on-disk :class:`PhaseNumerics` blobs, LRU by bytes.

    Layout under ``root``::

        blobs/<digest>/meta.json          # array layout + blob index
        blobs/<digest>/shortcut.npy|.npz  # one file per matrix
        blobs/<digest>/transition.npy|.npz
        blobs/<digest>/power_<k>.npy|.npz
        blobs/<digest>/plan.npz           # old volumes only; never read
        index.json                        # advisory LRU/byte ledger
        sightings.bin                     # advisory admission table

    ``index.json`` is *advisory*: it speeds up eviction decisions but the
    blob directories are the source of truth, so a corrupt or stale index
    (concurrent writers race on it, last write wins) is rebuilt by
    scanning, never trusted into a crash. ``sightings.bin`` is advisory
    the same way (see :meth:`sighted`).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(
                f"disk tier needs max_bytes >= 1 (or None), got {max_bytes}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.blobs = self.root / "blobs"
        self.blobs.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        # Stamp-validated parse cache for index.json: stats queries and
        # eviction decisions re-read the file only when its (mtime_ns,
        # size) changed, so attaching counters to every response costs
        # one stat, not a JSON parse (let alone a directory scan).
        self._index_cache: dict[str, int] | None = None
        self._index_stamp: tuple[int, int] | None = None
        self._sweep_stale_tmp()

    # -- lookup ---------------------------------------------------------

    def lookup(self, key: Hashable) -> PhaseNumerics | None:
        """Load an entry, or None on miss *or any* read failure.

        Corruption tolerance is the contract: a truncated blob, invalid
        JSON, or missing file means the entry never existed. The broken
        directory is removed best-effort (and dropped from the index) so
        the next store can rebuild it. An entry this process merely
        cannot *load* (CSR without scipy) is a plain miss and stays on
        disk for readers that can.
        """
        digest = key_digest(key)
        entry_dir = self.blobs / digest
        meta_path = entry_dir / "meta.json"
        if not meta_path.exists():
            self.misses += 1
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("version") != STORE_FORMAT_VERSION:
                raise ValueError(f"unsupported store version {meta.get('version')}")
            numerics = self._deserialize(entry_dir, meta)
        except _UnsupportedBlob:
            self.misses += 1
            return None
        except Exception:
            self.misses += 1
            self._discard(digest)
            return None
        self.hits += 1
        self._touch(digest)
        self._heal_index(digest, entry_dir)
        return numerics

    def _heal_index(self, digest: str, entry_dir: Path) -> None:
        """Re-register a live blob the ledger lost track of.

        Concurrent stores race read-modify-write on ``index.json``
        (last write wins), so a record can vanish while its blob stays
        published -- invisible to byte accounting and eviction. Touching
        the entry (hit or duplicate store) heals it: membership is one
        stamp-cached dict probe, the re-record only fires on actual
        loss.
        """
        if digest in self._read_index():
            return
        try:
            nbytes = _blob_bytes(entry_dir)
        except OSError:
            return
        self._record(digest, nbytes)

    def _discard(self, digest: str) -> None:
        """Drop a broken entry: blob directory *and* its index record.

        Removing only the directory would leave a phantom byte count in
        the index, inflating totals until it evicted a live entry.
        """
        shutil.rmtree(self.blobs / digest, ignore_errors=True)
        index = self._read_index()
        if digest in index:
            del index[digest]
            self._write_index(index)

    def _deserialize(self, entry_dir: Path, meta: dict) -> PhaseNumerics:
        arrays = meta["arrays"]
        shortcut = _load_matrix(entry_dir, arrays["shortcut"])
        transition = _load_matrix(entry_dir, arrays["transition"])
        powers: dict[int, object] = {}
        for exponent in meta["ladder_exponents"]:
            record = arrays[f"power_{exponent}"]
            if record.get("alias") == "transition":
                powers[int(exponent)] = transition
            else:
                powers[int(exponent)] = _load_matrix(entry_dir, record)
        ladder = PowerLadder.from_powers(
            powers,
            ell=int(meta["ladder_ell"]),
            bits=meta["ladder_bits"],
        )
        return PhaseNumerics(
            shortcut=shortcut,
            transition=transition,
            order=[int(v) for v in meta["order"]],
            ladder=ladder,
        )

    # -- store ----------------------------------------------------------

    def store(self, key: Hashable, numerics: PhaseNumerics) -> bool:
        """Persist an entry atomically; returns True on a fresh write.

        The entry is assembled in a private tmp directory, fsynced
        (blobs, then the tmp dir -- see :func:`_fsync_entry`), and
        published with a single ``os.rename``, so concurrent readers
        and writers either see the complete, *durable* entry or none of
        it -- even across a host crash mid-publish. Losing the rename
        race (another worker published the same digest first) and any
        I/O failure are silent non-events: the disk tier is best-effort,
        and a failed spill only costs a future recompute.
        """
        digest = key_digest(key)
        final_dir = self.blobs / digest
        if (final_dir / "meta.json").exists():
            self._touch(digest)
            self._heal_index(digest, final_dir)
            return False
        if final_dir.exists():
            # A published directory always contains meta.json (written
            # before the atomic rename), so a dir without one is debris
            # from an interrupted delete. Left in place it would wedge
            # this digest forever: lookups miss and the rename below
            # fails with ENOTEMPTY on every attempt.
            shutil.rmtree(final_dir, ignore_errors=True)
        tmp_dir = self.blobs / f".tmp-{digest}-{os.getpid()}-{time.monotonic_ns()}"
        try:
            tmp_dir.mkdir(parents=True)
            nbytes = self._serialize(tmp_dir, numerics)
            if self.max_bytes is not None and nbytes > self.max_bytes:
                # Refused residency, mirroring the RAM tier: publishing
                # an entry bigger than the whole budget would have the
                # eviction pass flush every other blob and then the
                # entry itself -- pure I/O churn with zero retained
                # cache value.
                shutil.rmtree(tmp_dir, ignore_errors=True)
                return False
            _fault_hook("store.publish", dir=str(tmp_dir))
            _fsync_entry(tmp_dir)
            os.rename(tmp_dir, final_dir)
            # Make the rename itself durable: the parent directory entry
            # is what a crash-recovering journal replays.
            _fsync_file(self.blobs)
        except OSError:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            return False
        self.writes += 1
        self._record(digest, nbytes)
        return True

    def _serialize(self, directory: Path, numerics: PhaseNumerics) -> int:
        arrays: dict[str, dict] = {}
        arrays["shortcut"] = _save_matrix(directory, "shortcut", numerics.shortcut)
        arrays["transition"] = _save_matrix(
            directory, "transition", numerics.transition
        )
        ladder = numerics.ladder
        for exponent in ladder.exponents:
            power = ladder.power(exponent)
            if power is numerics.transition:
                # With bits=None the base power *is* the transition
                # matrix; aliasing skips a duplicate multi-MB blob and
                # restores the identity (and nbytes dedup) on load.
                arrays[f"power_{exponent}"] = {"alias": "transition"}
            else:
                arrays[f"power_{exponent}"] = _save_matrix(
                    directory, f"power_{exponent}", power
                )
        meta = {
            "version": STORE_FORMAT_VERSION,
            "order": [int(v) for v in numerics.order],
            "ladder_ell": int(ladder.ell),
            "ladder_bits": ladder.bits,
            "ladder_exponents": [int(k) for k in ladder.exponents],
            "arrays": arrays,
            "nbytes": int(numerics.nbytes()),
        }
        # meta.json is written last inside the tmp dir; its presence in
        # the published dir is what lookup treats as "entry exists".
        (directory / "meta.json").write_text(json.dumps(meta))
        return _blob_bytes(directory)

    # -- admission -------------------------------------------------------

    def _sightings_path(self) -> Path:
        return self.root / "sightings.bin"

    def sighted(self, key: Hashable) -> bool:
        """Record a sighting of ``key``; True if the volume saw it before.

        The key's 8-byte digest prefix is stored in one of
        :data:`SIGHTING_SLOTS` slots picked by that prefix. Unsynced
        ``pread``/``pwrite``: a lost, torn or overwritten slot only
        costs one extra sighting, and a slot can never match a key whose
        prefix it does not hold, so a missing, short or garbage file
        reads as empty (a wrongly sized one is resized to the fixed
        table size), and one that cannot be opened reads as "never
        seen".
        """
        tag = bytes.fromhex(key_digest(key)[: 2 * _SLOT_BYTES])
        offset = int.from_bytes(tag, "big") % SIGHTING_SLOTS * _SLOT_BYTES
        try:
            fd = os.open(self._sightings_path(), os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return False
        try:
            if os.fstat(fd).st_size != SIGHTING_SLOTS * _SLOT_BYTES:
                os.ftruncate(fd, SIGHTING_SLOTS * _SLOT_BYTES)
            if os.pread(fd, _SLOT_BYTES, offset) == tag:
                return True
            os.pwrite(fd, tag, offset)
        except OSError:
            pass
        finally:
            os.close(fd)
        return False

    # -- index / eviction ----------------------------------------------

    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _index_file_stamp(self) -> tuple[int, int] | None:
        try:
            stat = self._index_path().stat()
            return (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return None

    def _read_index(self) -> dict[str, int]:
        """The ``digest -> blob bytes`` ledger (stamp-cached, self-healing).

        Recency lives in each entry's ``meta.json`` mtime (touched on
        hits), *not* in the index -- so the hit path never rewrites this
        file, and concurrent workers only race on it during stores and
        evictions, where last-write-wins is healed by the rebuild scan.
        """
        stamp = self._index_file_stamp()
        if stamp is not None and stamp == self._index_stamp:
            return dict(self._index_cache or {})
        try:
            raw = json.loads(self._index_path().read_text())
            if not isinstance(raw, dict):
                raise ValueError("index is not an object")
            index = {str(digest): int(nbytes) for digest, nbytes in raw.items()}
        except Exception:
            index = self._rebuild_index()
        self._index_cache = dict(index)
        self._index_stamp = stamp
        return index

    def _rebuild_index(self) -> dict[str, int]:
        """Source-of-truth scan over the blob directories."""
        index: dict[str, int] = {}
        if not self.blobs.is_dir():
            return index
        for entry_dir in self.blobs.iterdir():
            if entry_dir.name.startswith(".tmp-") or not entry_dir.is_dir():
                continue
            if not (entry_dir / "meta.json").exists():
                continue
            try:
                index[entry_dir.name] = _blob_bytes(entry_dir)
            except OSError:
                continue
        return index

    def _write_index(self, index: dict[str, int]) -> None:
        tmp = self._index_path().with_name(
            f".index-{os.getpid()}-{time.monotonic_ns()}.tmp"
        )
        try:
            tmp.write_text(json.dumps(index))
            os.replace(tmp, self._index_path())
        except OSError:
            tmp.unlink(missing_ok=True)
        self._index_cache = dict(index)
        self._index_stamp = self._index_file_stamp()

    def _record(self, digest: str, nbytes: int) -> None:
        index = self._read_index()
        index[digest] = int(nbytes)
        index = self._evict_over_budget(index, keep=digest)
        self._write_index(index)

    def _touch(self, digest: str) -> None:
        """Refresh an entry's LRU clock: one utime, no index rewrite."""
        try:
            os.utime(self.blobs / digest / "meta.json")
        except OSError:
            pass

    def _evict_over_budget(
        self, index: dict[str, int], *, keep: str | None = None
    ) -> dict[str, int]:
        if self.max_bytes is None:
            return index
        total = sum(index.values())
        if total <= self.max_bytes:
            return index
        # LRU clock = meta.json mtime; a record whose directory vanished
        # (concurrent eviction, corruption cleanup) is a phantom -- drop
        # it from the ledger instead of letting its bytes evict live
        # entries. ``keep`` (the just-stored entry) is evicted last.
        used: dict[str, float] = {}
        for digest in list(index):
            try:
                used[digest] = (self.blobs / digest / "meta.json").stat().st_mtime
            except OSError:
                total -= index.pop(digest)
        order = sorted(used, key=lambda d: (d == keep, used[d]))
        for digest in order:
            if total <= self.max_bytes:
                break
            shutil.rmtree(self.blobs / digest, ignore_errors=True)
            total -= index.pop(digest)
            self.evictions += 1
        return index

    def _sweep_stale_tmp(self) -> None:
        """Remove crash leftovers old enough to be provably abandoned."""
        now = time.time()
        try:
            candidates = list(self.blobs.iterdir())
        except OSError:
            return
        for entry in candidates:
            if not entry.name.startswith(".tmp-"):
                continue
            try:
                if now - entry.stat().st_mtime > STALE_TMP_SECONDS:
                    if entry.is_dir():
                        shutil.rmtree(entry, ignore_errors=True)
                    else:  # a ``.tmp-plan-*.npz`` left by older versions
                        entry.unlink(missing_ok=True)
            except OSError:
                continue

    # -- maintenance (the `python -m repro cache` surface) ---------------

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries down to ``max_bytes``.

        One-shot maintenance eviction (the CLI's ``cache --prune-to``),
        independent of the tier's configured budget; ``0`` empties the
        store. Returns the number of entries evicted.
        """
        if max_bytes < 0:
            raise ConfigError(f"prune target must be >= 0, got {max_bytes}")
        before = self.evictions
        original = self.max_bytes
        self.max_bytes = max_bytes
        try:
            self._write_index(self._evict_over_budget(self._read_index()))
        finally:
            self.max_bytes = original
        return self.evictions - before

    def prune_expired(self, max_age_seconds: float) -> int:
        """Evict entries not touched within ``max_age_seconds``.

        TTL maintenance for orphaned blobs (the CLI's ``cache
        --prune-expired``): the recency clock is each entry's
        ``meta.json`` mtime -- refreshed on every hit -- so "expired"
        means "no session has read or written this entry within the
        window". Records whose directory or clock vanished (phantoms
        left by concurrent eviction or corruption cleanup) are expired
        by definition and dropped from the ledger alongside their
        directory debris. Returns the number of entries removed.
        """
        if not math.isfinite(max_age_seconds) or max_age_seconds < 0:
            raise ConfigError(
                f"expiry age must be a finite number of seconds >= 0, "
                f"got {max_age_seconds!r}"
            )
        cutoff = time.time() - max_age_seconds
        index = self._read_index()
        before = self.evictions
        for digest in list(index):
            try:
                clock = (self.blobs / digest / "meta.json").stat().st_mtime
            except OSError:
                clock = None  # phantom record: directory or clock gone
            if clock is None or clock <= cutoff:
                shutil.rmtree(self.blobs / digest, ignore_errors=True)
                del index[digest]
                self.evictions += 1
        self._write_index(index)
        return self.evictions - before

    def clear(self) -> int:
        """Delete every published entry and sighting; returns how many
        entries were removed."""
        removed = self.entry_count()
        shutil.rmtree(self.blobs, ignore_errors=True)
        self.blobs.mkdir(parents=True, exist_ok=True)
        self._write_index({})
        self._sightings_path().unlink(missing_ok=True)
        return removed

    # -- introspection --------------------------------------------------

    def entry_count(self) -> int:
        """Number of published entries per the (stamp-cached) index."""
        return len(self._read_index())

    def total_bytes(self) -> int:
        """Summed blob bytes per the (rebuilt-if-needed) index."""
        return sum(self._read_index().values())

    def stats(self) -> dict[str, int]:
        return {
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "spills": self.writes,
            "disk_evictions": self.evictions,
            "disk_entries": self.entry_count(),
            "disk_bytes": int(self.total_bytes()),
        }


class TieredPhaseStore:
    """RAM LRU over a shared disk tier, behind the one-tier cache surface.

    ``lookup`` serves memory hits directly, promotes disk hits into
    memory, and only then reports a miss. ``store`` admits phase 1's
    entry, and a later phase's on the volume's second sighting of its
    key (:meth:`DiskTier.sighted`); an admitted entry is written through
    to disk so separately spawned worker processes see it the moment it
    exists (spill-on-evict would leave workers cold exactly while the
    first process is busiest). Byte budgets are per tier.
    """

    def __init__(self, memory: DerivedGraphCache, disk: DiskTier) -> None:
        self.memory = memory
        self.disk = disk
        self.promotes = 0
        self.full_misses = 0
        self.transient = 0

    def __len__(self) -> int:
        return len(self.memory)

    def lookup(self, key: Hashable) -> PhaseNumerics | None:
        entry = self.memory.lookup(key)
        if entry is not None:
            return entry
        entry = self.disk.lookup(key)
        if entry is not None:
            self.promotes += 1
            self.memory.store(key, entry)
            return entry
        self.full_misses += 1
        return None

    def store(
        self, key: Hashable, numerics: PhaseNumerics, *, phase_one: bool = True
    ) -> None:
        """Keep a fresh build in both tiers, or drop it on a first sighting.

        ``phase_one`` says whether the key's subset is ``S = V``; a
        later phase's build (``phase_one=False``) is kept only once the
        volume has sighted its key before, and otherwise counted as
        ``transient``.
        """
        if not phase_one and not self.disk.sighted(key):
            self.transient += 1
            return
        self.memory.store(key, numerics)
        self.disk.store(key, numerics)

    def store_plan(self, key: Hashable, plan) -> bool:
        """Writes nothing; kept for ``perfbench/tracing.py`` until ROADMAP item 1."""
        return False

    def refresh(self, key: Hashable) -> None:
        """No-op; kept for ``perfbench/tracing.py`` until ROADMAP item 1."""

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier; optionally delete the disk tier's blobs."""
        self.memory.clear()
        if disk:
            self.disk.clear()

    def stats(self) -> dict[str, int]:
        """Flat per-tier counters (all ints, wire- and meta-friendly)."""
        stats = dict(self.memory.stats())
        # "misses" means *full* misses -- a disk hit is not a recompute.
        stats["misses"] = self.full_misses
        stats["promotes"] = self.promotes
        stats["transient"] = self.transient
        stats.update(self.disk.stats())
        return stats


def open_phase_store(config) -> DerivedGraphCache | TieredPhaseStore | None:
    """The cache the engine/session should use for ``config``.

    ``None`` when caching is disabled; a plain in-memory
    :class:`~repro.engine.cache.DerivedGraphCache` when no ``cache_dir``
    is configured; a :class:`TieredPhaseStore` over that directory
    otherwise. The disk tier requires scipy only when entries are CSR --
    opening the store itself never does.
    """
    if not config.derived_cache:
        return None
    memory = DerivedGraphCache(
        config.derived_cache_entries, max_bytes=config.cache_memory_bytes
    )
    if config.cache_dir is None:
        return memory
    disk = DiskTier(
        resolve_cache_root(config.cache_dir),
        max_bytes=config.cache_disk_bytes,
    )
    return TieredPhaseStore(memory, disk)
