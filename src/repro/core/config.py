"""Configuration for the CongestedClique spanning-tree samplers.

Every tunable the paper leaves as a parameter (epsilon, rho, the nominal
walk length ell, numerical precision) is surfaced here, with defaults
matching the paper's choices for the approximate (Theorem 1) variant.

How the walk layer consumes randomness is not a knob. The paper fixes
the *law* of every walk-layer decision, not which generator bits realize
it, and there is one realization: per level (and per first-visit group)
one uniform block is drawn and every pending decision is resolved by
``searchsorted`` against CDFs computed for that level or phase
(:func:`~repro.core.midpoints.level_cdfs`), memoized nowhere. Nor is the
matching sampler a knob: midpoint placement reads the bank's own
sequences, which already follow Lemma 3's law
(:mod:`repro.core.placement`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.errors import ConfigError

__all__ = ["SamplerConfig"]

FailurePolicy = Literal["extend", "error"]


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for :class:`repro.engine.runner.SamplerEngine`, every variant.

    Attributes
    ----------
    epsilon:
        Target total variation distance from uniform (the paper allows
        any ``eps = Omega(1/n^c)``). Drives the nominal walk length.
    rho:
        Distinct vertices visited per phase. ``None`` uses the variant
        default: ``floor(sqrt(n))`` for the approximate sampler (Section
        2.1), ``floor(n^(1/3))`` for the exact one (Appendix 5.3). Each
        phase actually stops at ``min(rho, |S|)`` distinct vertices --
        positions past the point where S is covered contribute no
        first-visit edges, so this preserves the output distribution while
        keeping the simulation's realized walks finite.
    ell:
        Nominal per-phase walk length; ``None`` uses the paper's smallest
        power of two at least ``log(4 sqrt(n)/eps) * n^3``. Benchmarks may
        shrink it (with ``on_failure="extend"`` the output law is
        unaffected; short walks just trigger more extensions).
    on_failure:
        What to do when a phase walk fails to reach its distinct-vertex
        quota within ``ell`` steps. ``"extend"`` (default) applies the
        Appendix 5.1 Las-Vegas extension: continue the walk from its
        current endpoint with a fresh target. ``"error"`` raises, exposing
        the paper's Monte-Carlo failure event (probability <= eps/2 with
        the paper's ell).
    precision_bits:
        Entry precision for matrix power ladders. ``None`` = full float64
        (the exact-arithmetic idealization); an integer activates the
        Lemma 7 truncation pipeline of Section 2.5.
    matmul_backend:
        ``"analytic"`` (default) charges O~(n^alpha) per multiplication
        as the paper does with the [17] black box; ``"simulated-3d"``
        runs the executable combinatorial O(n^{1/3})-round protocol
        (:class:`repro.clique.matmul3d.SimulatedMatmul`) and charges its
        *measured* rounds instead.
    linalg_backend:
        Storage for the derived graphs and power ladders
        (:mod:`repro.linalg.backend`): ``"dense"`` keeps numpy arrays,
        ``"sparse"`` keeps ``scipy.sparse`` CSR. Both build ShortCut and
        Schur with the one eliminated-block kernel
        (:mod:`repro.linalg.eliminate`); only its Schur block solve
        (LAPACK vs SuperLU) follows the storage. ``"auto"`` (default)
        picks sparse only for large sparse inputs
        (``sparse_auto_min_n`` vertices or more at graph density at most
        ``sparse_auto_density``). Round bills are backend-independent
        (the charging model is analytic); trees for the same seed agree
        as well -- cross-backend property tests pin them byte-identical
        at n <= 128. ``"sparse"`` cannot combine with the dense-word
        ``"simulated-3d"`` matmul protocol.
    sparse_auto_min_n / sparse_auto_density:
        The ``"auto"`` crossover: below ``sparse_auto_min_n`` vertices,
        or above ``sparse_auto_density`` edge density, CSR bookkeeping
        costs more than it saves and auto stays dense.
    normalizer_floor_exponent:
        The ``c`` of Section 5.2's check ``W^2[p, q] >= 1/n^c``; midpoint
        normalizers below ``n ** -c`` trigger the brute-force fallback in
        exact mode (and a :class:`~repro.errors.PrecisionError` otherwise).
    start_vertex:
        The arbitrary start of the global walk (machine 1 / vertex 0 in
        the paper).
    max_extensions:
        Safety valve on Appendix 5.1 extensions per phase.
    derived_cache:
        Enable the engine's cross-sample
        :class:`~repro.engine.cache.DerivedGraphCache`: shortcut/Schur
        matrices and power ladders are memoized by vertex subset across
        draws while every run still receives its full per-run round
        charges (the model charges rounds per execution, not per unique
        numeric computation). Output trees and round bills are identical
        with the cache on or off.
    derived_cache_entries:
        LRU entry-count cap of the derived-graph cache (entries are
        per-subset and hold O(|S|^2 log ell) floats each). Secondary to
        the byte budget below when one is set.
    cache_dir:
        Root of the persistent derived-graph store
        (:mod:`repro.engine.store`): entries are spilled to
        content-addressed ``.npy``/``.npz`` blobs under this directory
        and survive process restarts, so ensemble workers and fresh CLI
        invocations warm-start instead of recomputing phase numerics.
        Phase 1's ``S = V`` entry is kept when first built; a later
        phase's only when the directory's sighting table has seen its
        subset before, so a pinned seed persists on its second run and
        fresh seeds leave one entry per graph.
        ``None`` (default) keeps the cache purely in-memory; the
        sentinel ``"auto"`` uses ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-spanning-trees``. The same directory holds this
        machine's sparse-crossover calibration profile
        (:mod:`repro.linalg.calibrate`), which ``linalg_backend="auto"``
        consults when the crossover knobs are left at their defaults.
        Trees and round ledgers are identical with the disk tier cold,
        warm, or absent (property-tested).
    cache_memory_bytes:
        Byte budget of the in-memory tier (``None``: unbounded up to
        ``derived_cache_entries``). Eviction is LRU by total
        :meth:`~repro.engine.cache.PhaseNumerics.nbytes`.
    cache_disk_bytes:
        Byte budget of the disk tier (``None``: unbounded). Requires
        ``cache_dir``. Least-recently-used blobs are deleted past it.
    """

    epsilon: float = 1e-3
    rho: int | None = None
    ell: int | None = None
    on_failure: FailurePolicy = "extend"
    precision_bits: int | None = None
    matmul_backend: Literal["analytic", "simulated-3d"] = "analytic"
    linalg_backend: Literal["auto", "dense", "sparse"] = "auto"
    sparse_auto_min_n: int = 192
    sparse_auto_density: float = 0.25
    normalizer_floor_exponent: float = 40.0
    start_vertex: int = 0
    max_extensions: int = 64
    derived_cache: bool = True
    derived_cache_entries: int = 64
    cache_dir: str | None = None
    cache_memory_bytes: int | None = None
    cache_disk_bytes: int | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.rho is not None and self.rho < 2:
            raise ConfigError(f"rho must be >= 2, got {self.rho}")
        if self.ell is not None:
            if self.ell < 2 or (self.ell & (self.ell - 1)) != 0:
                raise ConfigError(
                    f"ell must be a power of two >= 2, got {self.ell}"
                )
        if self.on_failure not in ("extend", "error"):
            raise ConfigError(f"unknown failure policy {self.on_failure!r}")
        if self.precision_bits is not None and self.precision_bits < 8:
            raise ConfigError(
                f"precision_bits must be >= 8, got {self.precision_bits}"
            )
        if self.matmul_backend not in ("analytic", "simulated-3d"):
            raise ConfigError(
                f"unknown matmul backend {self.matmul_backend!r}"
            )
        if self.linalg_backend not in ("auto", "dense", "sparse"):
            raise ConfigError(
                f"unknown linalg backend {self.linalg_backend!r}"
            )
        if (
            self.linalg_backend == "sparse"
            and self.matmul_backend == "simulated-3d"
        ):
            raise ConfigError(
                "linalg_backend='sparse' cannot combine with "
                "matmul_backend='simulated-3d': the executable 3D protocol "
                "is a dense word-matrix simulation"
            )
        if self.sparse_auto_min_n < 2:
            raise ConfigError(
                f"sparse_auto_min_n must be >= 2, got {self.sparse_auto_min_n}"
            )
        if not (0.0 < self.sparse_auto_density <= 1.0):
            raise ConfigError(
                f"sparse_auto_density must be in (0, 1], got "
                f"{self.sparse_auto_density}"
            )
        if self.max_extensions < 1:
            raise ConfigError("max_extensions must be >= 1")
        if self.derived_cache_entries < 1:
            raise ConfigError(
                f"derived_cache_entries must be >= 1, got "
                f"{self.derived_cache_entries}"
            )
        if self.cache_dir is not None and not self.derived_cache:
            raise ConfigError(
                "cache_dir requires derived_cache=True: the disk tier "
                "sits beneath the in-memory derived-graph cache"
            )
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ConfigError("cache_dir must be a non-empty path or 'auto'")
        if self.cache_memory_bytes is not None and self.cache_memory_bytes < 1:
            raise ConfigError(
                f"cache_memory_bytes must be >= 1 (or None), got "
                f"{self.cache_memory_bytes}"
            )
        if self.cache_disk_bytes is not None and self.cache_disk_bytes < 1:
            raise ConfigError(
                f"cache_disk_bytes must be >= 1 (or None), got "
                f"{self.cache_disk_bytes}"
            )
        if self.cache_disk_bytes is not None and self.cache_dir is None:
            raise ConfigError(
                "cache_disk_bytes without cache_dir has nothing to bound; "
                "set cache_dir (or 'auto') to enable the disk tier"
            )

    # ------------------------------------------------------------------

    def resolve_rho(self, n: int, *, variant: str = "approximate") -> int:
        """The per-phase distinct-vertex quota for an n-vertex input.

        An explicit ``rho`` always wins; otherwise the variant's
        registered policy applies (``floor(sqrt(n))`` for the
        approximate sampler, ``floor(n^(1/3))`` for the exact one, the
        full vertex set for the broadcast sampler -- see
        :mod:`repro.core.variants`). Never below 2.
        """
        if self.rho is not None:
            return self.rho
        from repro.core.variants import get_variant

        return get_variant(variant).resolve_rho(n)

    def resolve_ell(self, n: int) -> int:
        """The nominal walk target length (Section 2.1's ell)."""
        if self.ell is not None:
            return self.ell
        from repro.graphs.covertime import nominal_walk_length

        return nominal_walk_length(n, self.epsilon)

    def normalizer_floor(self, n: int) -> float:
        """Section 5.2's lower bound ``1 / n^c`` on midpoint normalizers."""
        return float(n) ** (-self.normalizer_floor_exponent)
