"""The sparse/dense dual-backend numerics layer (``LinalgBackend``).

Every heavy matrix object the sampler touches -- transition matrices,
ShortCut(G, S) matrices, Schur complements, power-ladder entries -- used
to be a dense ``(n, n)`` numpy array, so wall-clock and memory grew
quadratically with ``n`` regardless of how sparse the input graph was.
This module introduces the dispatch point between two storages for the
same numerics:

- :class:`DenseLinalg` -- plain numpy arrays;
- :class:`SparseLinalg` -- ``scipy.sparse`` CSR matrices.

Both build ShortCut(G, S) and Schur(G, S) with the one eliminated-block
kernel in :mod:`repro.linalg.eliminate`: solves against the
``|V \\ S|``-sized block, where the Schur solve runs on LAPACK for
arrays and on SuperLU for CSR. Their ``shortcut_matrix`` /
``schur_transition`` methods only hand the kernel ``P`` or ``L`` in
their storage.

Selection: :func:`resolve_linalg_backend` honours the explicit
``SamplerConfig.linalg_backend`` override and otherwise auto-selects by
graph size and density (``sparse_auto_min_n`` / ``sparse_auto_density``)
-- dense for small or dense instances where BLAS wins, sparse for large
sparse families where the asymptotics win. The executable
``simulated-3d`` matmul protocol is defined over dense word matrices,
so it always pairs with the dense backend.

Numerical contract: both backends evaluate the same formulas over the
same float64 inputs, so sampled trees and (analytic) round bills agree
for the same seed; cross-backend property tests pin byte-identical
trees and ledgers at n <= 128 across every registered graph family.
Individual matrix entries may differ in final ulps (SuperLU and CSR
sums accumulate in a different order than LAPACK/BLAS), which is why
the backend is part of the derived-graph cache key.

The module-level helpers (:func:`matrix_row`, :func:`matrix_col`,
:func:`to_dense`, ...) are the format-agnostic accessors the walk layer
uses instead of raw ``matrix[i, j]`` indexing, so the same walk code
consumes whichever matrix type the backend hands it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.linalg import eliminate

try:  # pragma: no cover - exercised implicitly by every sparse test
    import scipy.sparse as _sp

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - the CI image ships scipy
    _sp = None
    HAVE_SCIPY = False

__all__ = [
    "HAVE_SCIPY",
    "LINALG_BACKENDS",
    "DenseLinalg",
    "SparseLinalg",
    "auto_linalg_name",
    "make_linalg_backend",
    "resolve_linalg_backend",
    "is_sparse_matrix",
    "to_dense",
    "matrix_row",
    "matrix_col",
    "matrix_entry",
    "matrix_density",
    "matrix_nbytes",
    "maybe_densify",
]

LINALG_BACKENDS = ("auto", "dense", "sparse")

# A sparse intermediate denser than this is converted back to a numpy
# array: beyond ~1/4 fill, CSR products cost more than BLAS and the index
# arrays cost more memory than they save. Power ladders hit this quickly
# (P^k fills in as k grows); the guard keeps the sparse backend from ever
# being asymptotically worse than the dense one.
DENSIFY_FILL = 0.25


# ----------------------------------------------------------------------
# Format-agnostic matrix accessors (the walk layer's vocabulary)
# ----------------------------------------------------------------------


def is_sparse_matrix(matrix) -> bool:
    """True when ``matrix`` is a scipy sparse container."""
    return HAVE_SCIPY and _sp.issparse(matrix)


def to_dense(matrix) -> np.ndarray:
    """``matrix`` as a dense ndarray (no copy when already dense)."""
    if is_sparse_matrix(matrix):
        return matrix.toarray()
    return np.asarray(matrix)


def matrix_row(matrix, i: int) -> np.ndarray:
    """Row ``i`` as a dense 1-D vector (a view for dense inputs).

    CSR rows are scattered straight from the ``indptr``/``indices``/
    ``data`` slice -- bit-equal to ``toarray()`` and over 10x cheaper
    than scipy's fancy-indexed row slice. A non-canonical row (unsorted
    or duplicate indices, e.g. from a sparse product) sums its
    duplicates in storage order, as ``toarray()`` does.
    """
    if is_sparse_matrix(matrix):
        if matrix.format != "csr":
            return matrix[[i], :].toarray().ravel()
        start, stop = matrix.indptr[i], matrix.indptr[i + 1]
        row = np.zeros(matrix.shape[1], dtype=matrix.dtype)
        columns, values = matrix.indices[start:stop], matrix.data[start:stop]
        if matrix.has_canonical_format:
            row[columns] = values
        else:
            np.add.at(row, columns, values)
        return row
    return matrix[i, :]


def matrix_col(matrix, j: int) -> np.ndarray:
    """Column ``j`` as a dense 1-D vector (a view for dense inputs)."""
    if is_sparse_matrix(matrix):
        return matrix[:, [j]].toarray().ravel()
    return matrix[:, j]


def matrix_entry(matrix, i: int, j: int) -> float:
    """Scalar entry ``[i, j]`` regardless of storage format."""
    return float(matrix[i, j])


def matrix_density(matrix) -> float:
    """Fraction of stored-nonzero entries (1.0 for dense arrays)."""
    rows, cols = matrix.shape
    size = rows * cols
    if size == 0:
        return 0.0
    if is_sparse_matrix(matrix):
        return matrix.nnz / size
    return float(np.count_nonzero(matrix)) / size

def matrix_nbytes(matrix) -> int:
    """Storage footprint in bytes regardless of format.

    Dense arrays (including disk-backed memmaps) report their buffer
    size; CSR containers report data + index arrays. This is the unit
    the byte-budgeted cache tiers account in.
    """
    if is_sparse_matrix(matrix):
        return int(
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        )
    return int(np.asarray(matrix).nbytes)


def maybe_densify(matrix, threshold: float = DENSIFY_FILL):
    """Convert a sparse matrix back to dense once fill-in crosses ``threshold``.

    Dense inputs pass through untouched; values are preserved exactly
    either way (this changes storage, never numbers).
    """
    if is_sparse_matrix(matrix) and matrix.nnz > threshold * (
        matrix.shape[0] * matrix.shape[1]
    ):
        return matrix.toarray()
    return matrix


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class DenseLinalg:
    """numpy storage: every eliminated-block solve is LAPACK."""

    name = "dense"

    def transition_matrix(self, graph):
        """The phase-1 walk matrix (a private dense copy)."""
        return graph.transition_matrix().copy()

    def shortcut_matrix(self, graph, subset):
        """``ShortCut(G, S)`` as an ``n x n`` array."""
        return eliminate.shortcut(graph.transition_matrix(), subset)

    def schur_transition(self, graph, subset):
        """``(transition, order)`` of the walk on ``Schur(G, S)``, as an array."""
        return eliminate.schur_transition(graph.laplacian(), subset)


class SparseLinalg:
    """CSR storage: the Schur eliminated-block solve is SuperLU."""

    name = "sparse"

    def __init__(self) -> None:
        if not HAVE_SCIPY:
            raise ConfigError(
                "linalg_backend='sparse' requires scipy; install scipy or "
                "use the dense backend"
            )

    def transition_matrix(self, graph):
        """Phase-1 walk matrix as CSR (entries identical to the dense P)."""
        return _sp.csr_array(graph.transition_matrix())

    def shortcut_matrix(self, graph, subset):
        """``ShortCut(G, S)`` as an ``n x n`` CSR array."""
        return eliminate.shortcut(_sp.csr_array(graph.transition_matrix()), subset)

    def schur_transition(self, graph, subset):
        """``(transition, order)`` of the walk on ``Schur(G, S)``, as CSR."""
        return eliminate.schur_transition(_sp.csr_array(graph.laplacian()), subset)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def _crossover_thresholds(config) -> tuple[int, float]:
    """The (min_n, density) crossover ``auto`` should apply for ``config``.

    The dataclass defaults were fitted on one host (BENCH_sparse_scaling);
    when the session points at a persistent cache directory that holds a
    :mod:`repro.linalg.calibrate` profile, that per-machine fit replaces
    them. An *explicit* override on the config always wins -- the profile
    only substitutes for values the user left at the class defaults.
    """
    from dataclasses import fields

    min_n = config.sparse_auto_min_n
    density = config.sparse_auto_density
    defaults = {
        f.name: f.default
        for f in fields(config)
        if f.name in ("sparse_auto_min_n", "sparse_auto_density")
    }
    if (
        min_n == defaults.get("sparse_auto_min_n")
        and density == defaults.get("sparse_auto_density")
        and getattr(config, "cache_dir", None) is not None
    ):
        from repro.linalg.calibrate import profile_for_config

        profile = profile_for_config(config)
        if profile is not None:
            min_n = profile.sparse_auto_min_n
            density = profile.sparse_auto_density
    return min_n, density


def auto_linalg_name(config, graph) -> str:
    """The backend ``"auto"`` resolves to for this (config, graph) pair.

    Sparse wins only when all of the following hold: scipy is available,
    the matmul realization is the analytic black box (the executable 3D
    protocol is a dense word-matrix simulation), the instance is large
    enough that CSR overhead amortizes (``sparse_auto_min_n``), and the
    input graph is actually sparse (``sparse_auto_density``). The two
    thresholds come from the config, or -- when the config carries the
    class defaults and names a persistent ``cache_dir`` holding a
    calibration profile -- from this machine's fitted crossover (see
    :mod:`repro.linalg.calibrate`).
    """
    if not HAVE_SCIPY:
        return "dense"
    if getattr(config, "matmul_backend", "analytic") == "simulated-3d":
        return "dense"
    min_n, max_density = _crossover_thresholds(config)
    n = graph.n
    if n < min_n:
        return "dense"
    # count_nonzero over the weight matrix, not graph.m: the latter
    # materializes the full edge tuple just to throw it away.
    density = float(np.count_nonzero(graph.weights)) / max(1, n * (n - 1))
    if density > max_density:
        return "dense"
    return "sparse"


def make_linalg_backend(name: str):
    """Instantiate a backend by its explicit name (``"dense"``/``"sparse"``).

    The single name->class mapping; every dispatch site (engine, the
    sequential samplers) goes through here so a new backend only has to
    be registered once. ``"sparse"`` raises
    :class:`~repro.errors.ConfigError` when scipy is missing rather
    than silently downgrading the numerics the caller asked for.
    """
    if name == "dense":
        return DenseLinalg()
    if name == "sparse":
        return SparseLinalg()
    raise ConfigError(
        f"unknown linalg backend {name!r}; explicit backends are "
        "'dense' and 'sparse' ('auto' resolves to one of them via "
        "resolve_linalg_backend)"
    )


def resolve_linalg_backend(config, graph):
    """Instantiate the backend named by ``config.linalg_backend``.

    ``"auto"`` defers to :func:`auto_linalg_name`; explicit names are
    honoured verbatim via :func:`make_linalg_backend`.
    """
    name = getattr(config, "linalg_backend", "dense")
    if name == "auto":
        name = auto_linalg_name(config, graph)
    return make_linalg_backend(name)
