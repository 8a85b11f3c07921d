"""The batched sampling engine: backends, caching, and ensemble driving.

Three layers sit between the public entry points (:class:`repro.api.Session`,
:func:`repro.sample_spanning_tree`) and the numerics:

1. :mod:`repro.engine.backends` -- the :class:`MatmulBackend` protocol
   unifying the analytic O~(n^alpha) charge model and the executable 3D
   protocol behind one interface;
2. :mod:`repro.engine.cache` / :mod:`repro.engine.store` -- the
   :class:`DerivedGraphCache` (byte-budgeted RAM LRU memoizing
   shortcut/Schur/power-ladder numerics by vertex subset while
   preserving per-run round charges exactly) and the
   :class:`TieredPhaseStore` layering it over a persistent,
   process-shared on-disk blob tier (:class:`DiskTier`);
3. :mod:`repro.engine.runner` / :mod:`repro.engine.ensemble` -- the
   single-draw :class:`SamplerEngine` (every variant's one algorithm
   core) and :class:`EnsembleEngine` with one multi-process
   fan-out, streamed or collected into a batch.

Workloads that want direct control over caching and batching use this
package; a loop of ``SamplerEngine.run(rng)`` over one engine shares its
cache across draws.
"""

# Import order matters: leaf modules (backends/cache/results) come before
# runner, which pulls in repro.core and may re-enter this package.
from repro.engine.backends import (
    AnalyticMatmul,
    MatmulBackend,
    make_matmul_backend,
)
from repro.engine.cache import DerivedGraphCache, PhaseNumerics
from repro.engine.store import (
    DiskTier,
    TieredPhaseStore,
    open_phase_store,
    resolve_cache_root,
)
from repro.engine.results import SampleResult
from repro.engine.runner import SamplerEngine
from repro.engine.ensemble import (
    EnsembleEngine,
    EnsembleResult,
    sample_tree_ensemble,
)

__all__ = [
    "AnalyticMatmul",
    "MatmulBackend",
    "make_matmul_backend",
    "DerivedGraphCache",
    "PhaseNumerics",
    "DiskTier",
    "TieredPhaseStore",
    "open_phase_store",
    "resolve_cache_root",
    "SampleResult",
    "SamplerEngine",
    "EnsembleEngine",
    "EnsembleResult",
    "sample_tree_ensemble",
]
