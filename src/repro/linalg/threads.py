"""One BLAS thread budget per forked worker.

A forked worker inherits its parent's whole OpenBLAS thread pool, so
``w`` workers on ``c`` cores run ``w * c`` BLAS threads that spin against
each other. Every process pool the repo forks (service shards, ensemble
fan-outs) calls :func:`limit_blas_threads` from its initializer with
:func:`blas_budget` of its worker count: ``available_cpus() // workers``,
at least 1. An operator who exports ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` keeps that setting; the budget then steps aside.
"""

from __future__ import annotations

import ctypes
import os

__all__ = [
    "available_cpus",
    "blas_budget",
    "limit_blas_threads",
    "mapped_openblas",
]

OVERRIDE_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MAPS = "/proc/self/maps"
# numpy's wheel exports the 64-bit-suffixed name, scipy's the plain
# scipy_ one, a system OpenBLAS the unprefixed one.
SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _operator_override() -> bool:
    return any(os.environ.get(name) for name in OVERRIDE_VARS)


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def blas_budget(workers: int) -> int | None:
    """Threads each of ``workers`` processes gets; None if the operator set one."""
    if _operator_override():
        return None
    return max(1, available_cpus() // max(1, workers))


def mapped_openblas() -> list[str]:
    """Paths of every OpenBLAS mapped into this process (empty without /proc)."""
    try:
        import scipy.linalg  # noqa: F401 -- maps scipy's own OpenBLAS copy
    except ImportError:  # pragma: no cover - the CI image ships scipy
        pass
    try:
        with open(MAPS) as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    return sorted(path for path in paths if path.startswith("/"))


def limit_blas_threads(threads: int | None) -> int:
    """Cap every mapped OpenBLAS at ``threads``; returns how many were capped.

    A no-op (returns 0) for ``threads=None``, under an operator override,
    or where no OpenBLAS or no ``/proc`` is found.
    """
    if threads is None or _operator_override():
        return 0
    capped = 0
    for path in mapped_openblas():
        library = ctypes.CDLL(path)
        for name in SETTERS:
            if hasattr(library, name):
                getattr(library, name)(int(threads))
                capped += 1
                break
    return capped
