"""One eliminated-block kernel for both derived graphs of a phase.

ShortCut(G, S) and Schur(G, S) are absorbing-chain objects on the same
eliminated block ``C = V \\ S`` (Definitions 1-3, Corollaries 2-3,
Section 2.4), so both reduce to one ``|C| x |C|`` solve:

- **ShortCut(G, S)** counts the visits a walk makes before it enters S.
  Those visits are confined to C, so with ``B = P[:, C]`` and
  ``K = P[C, C]`` the fundamental matrix of the absorbing chain
  collapses to ``I + B (I_C - K)^{-1}`` on the C columns, and

      Q = diag(P[:, S] 1) + B (I_C - K)^{-1} diag(P[C, S] 1)

  with rows normalized (:func:`shortcut`). Q keeps its ``n x n``
  shape: Algorithm 4 indexes it by global vertex ids.
- **Schur(G, S)** is ``L_SS - L_SC L_CC^{-1} L_CS``. Columns of
  ``L_CS`` for S-vertices with no edge into C are exactly zero, so only
  the *boundary* columns are solved and the correction lands on the
  boundary block alone (:func:`schur_weights`). The walk on the Schur
  graph is its row-normalized weight matrix (:func:`schur_transition`).

The formulas, subset validation, clipping, symmetrization, isolated-row
handling and :class:`~repro.errors.GraphError` conditions are written
once. The storage of the matrix handed in selects exactly two things:
the Schur block solve (LAPACK for a numpy array, SuperLU ``splu`` for a
scipy CSR array) and the container of the result (same storage as the
input). The ShortCut solve has a dense right-hand side and a dense
solution on either storage, so it is LAPACK on both. The dense
Definition-level constructions in :mod:`repro.linalg.shortcut` and
:mod:`repro.linalg.schur` are the test oracles this kernel is checked
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError

try:  # pragma: no cover - the CI image ships scipy
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
except ImportError:  # pragma: no cover - dense inputs never need scipy
    sp = None
    splu = None

__all__ = [
    "split_subset",
    "shortcut",
    "schur_weights",
    "schur_transition",
]

# Schur weights below this are float noise from the elimination, not edges.
CLIP = 1e-13

_SHORTCUT_UNDEFINED = "shortcut matrix undefined: some vertex cannot reach S"
_SCHUR_UNDEFINED = (
    "Schur complement undefined: eliminated block is singular "
    "(a component of V \\ S is disconnected from S)"
)


def split_subset(n: int, subset: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """``(S, C)``: the sorted distinct subset and the eliminated block V \\ S."""
    s = sorted(set(int(v) for v in subset))
    if not s:
        raise GraphError("S must be non-empty")
    if s[0] < 0 or s[-1] >= n:
        raise GraphError(f"S contains out-of-range vertices for n={n}")
    eliminated = np.ones(n, dtype=bool)
    eliminated[s] = False
    return s, np.flatnonzero(eliminated)


# ----------------------------------------------------------------------
# Storage: the only code that knows ndarray from CSR
# ----------------------------------------------------------------------


def _is_csr(matrix) -> bool:
    return sp is not None and sp.issparse(matrix)


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if _is_csr(matrix) else np.asarray(matrix)


def _solve(block, rhs: np.ndarray, message: str) -> np.ndarray:
    """``block^{-1} rhs`` for the eliminated block, in the block's storage."""
    try:
        if _is_csr(block):
            solved = splu(sp.csc_matrix(block)).solve(rhs)
        else:
            solved = np.linalg.solve(block, rhs)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise GraphError(message) from exc
    if not np.all(np.isfinite(solved)):
        raise GraphError(message)
    return solved


def _diagonal(values: np.ndarray, csr: bool):
    return sp.diags_array(values, format="csr") if csr else np.diag(values)


def _scatter(block: np.ndarray, rows, cols, shape, csr: bool):
    """A ``shape`` matrix holding dense ``block`` at sorted ``rows x cols``."""
    if csr:
        stored = sp.csr_array(block)
        per_row = np.zeros(shape[0], dtype=stored.indptr.dtype)
        per_row[rows] = np.diff(stored.indptr)
        indptr = np.concatenate(([0], np.cumsum(per_row)))
        return sp.csr_array(
            (stored.data, np.asarray(cols)[stored.indices], indptr), shape=shape
        )
    out = np.zeros(shape)
    out[np.ix_(rows, cols)] = block
    return out


def _scale_rows(matrix, divisors: np.ndarray):
    """Divide each row by its divisor (true division, entry by entry).

    Both storages compute the same ``a / b`` per stored entry, so equal
    inputs give bit-equal outputs.
    """
    if not _is_csr(matrix):
        return matrix / divisors[:, None]
    matrix = sp.csr_array(matrix)
    matrix.data = matrix.data / np.repeat(divisors, np.diff(matrix.indptr))
    return matrix


# ----------------------------------------------------------------------
# ShortCut(G, S)
# ----------------------------------------------------------------------


def shortcut(transition, subset: Sequence[int]):
    """``Q`` of ``ShortCut(G, S)`` (Definition 3) from the walk matrix ``P``.

    ``Q[u, v]`` is the probability that ``v`` is the vertex a walk from
    ``u`` visits immediately before its first (time >= 1) entry into S.
    Returned ``n x n`` in the storage of ``transition``.
    """
    n = transition.shape[0]
    s, c = split_subset(n, subset)
    csr = _is_csr(transition)
    if c.size == 0:
        # S = V: every walk is absorbed on its first step.
        return _diagonal(np.ones(n), csr)
    into_s = np.asarray(transition[:, s].sum(axis=1)).ravel()
    # M = B (I_C - K)^{-1}  <=>  M^T = (I_C - K)^{-T} B^T. The visit
    # counts M fill the n x |C| block on either storage, so the solve is
    # dense on both.
    b = _dense(transition[:, c])
    escape = np.eye(c.size) - b[c]
    visits = _solve(escape.T, b.T, _SHORTCUT_UNDEFINED).T
    block = visits * into_s[c]
    row_sums = into_s + block.sum(axis=1)
    if np.any(row_sums < 1.0 - 1e-6):
        raise GraphError(
            "shortcut matrix rows do not sum to 1; S unreachable from "
            "some vertex"
        )
    q = _diagonal(into_s, csr) + _scatter(block, np.arange(n), c, (n, n), csr)
    return _scale_rows(q, row_sums)


# ----------------------------------------------------------------------
# Schur(G, S)
# ----------------------------------------------------------------------


def schur_weights(laplacian, subset: Sequence[int]):
    """Edge weights of ``Schur(G, S)`` (Definition 1) and the order of S.

    Returns ``(weights, s)``: the ``|S| x |S|`` weight matrix in the
    storage of ``laplacian`` -- the negated off-diagonal Schur entries,
    float noise below :data:`CLIP` zeroed, exactly symmetrized -- and
    the sorted subset its rows follow.
    """
    s, c = split_subset(laplacian.shape[0], subset)
    csr = _is_csr(laplacian)
    weights = -laplacian[np.ix_(s, s)]
    if c.size:
        l_cs = laplacian[np.ix_(c, s)]
        boundary = np.flatnonzero(np.asarray(abs(l_cs).sum(axis=0)).ravel())
        if boundary.size == 0:
            raise GraphError(_SCHUR_UNDEFINED)
        solved = _solve(
            laplacian[np.ix_(c, c)],
            _dense(l_cs[:, boundary]),
            _SCHUR_UNDEFINED,
        )
        on_boundary = np.asarray(s)[boundary]
        correction = _dense(laplacian[np.ix_(on_boundary, c)]) @ solved
        weights = weights + _scatter(
            correction, boundary, boundary, weights.shape, csr
        )
    weights = weights - _diagonal(weights.diagonal(), csr)
    values = weights.data if csr else weights  # edits write through
    values[np.abs(values) < CLIP] = 0.0
    if np.any(values < -1e-8):
        raise GraphError(
            "Schur complement produced significantly negative weights; "
            "input Laplacian was not a graph Laplacian"
        )
    np.clip(values, 0.0, None, out=values)
    return (weights + weights.T) * 0.5, s


def schur_transition(laplacian, subset: Sequence[int]):
    """Walk matrix of ``Schur(G, S)`` (Definition 2) and the order of S.

    ``T[u, v]`` is the probability that ``v`` is the first vertex of
    ``S \\ {u}`` a walk on G from ``u`` visits. A vertex left without
    Schur edges keeps an identity (self-absorbing) row, as in
    :meth:`~repro.graphs.core.WeightedGraph.transition_matrix`.
    """
    weights, s = schur_weights(laplacian, subset)
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    isolated = degrees <= 0
    transition = _scale_rows(weights, np.where(isolated, 1.0, degrees))
    if isolated.any():
        transition = transition + _diagonal(isolated.astype(float), _is_csr(weights))
    return transition, s
