"""Matrix power ladders with bounded subtractive error (Lemma 7).

The sampler's Initialization Step computes ``P, P^2, P^4, ..., P^ell`` by
repeated squaring. Lemma 7 shows this is CongestedClique-feasible with
entries truncated to O(log(1/delta)) bits: define ``M'(1) = round(M)`` and
``M'(k) = round(M'(k/2)^2)``, where ``round`` truncates entries downward
(*subtractive* error at most delta). The error then obeys

    E(1) <= delta,      E(k) <= (n + 1) E(k/2) + delta,

so ``E(k) = O(delta * k^c log k)`` and choosing ``delta = Theta(beta /
(k^c log k))`` achieves subtractive error beta with O(log^2 n)-bit entries.

:class:`PowerLadder` implements exactly this and exposes every
intermediate power. It is pure numerics: the rounds of its squarings are
billed by the caller (the engine charges a phase's ladder as a closed form
of its size, ``ell`` and ``bits``; see :mod:`repro.engine.runner`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphError, PrecisionError
from repro.linalg.backend import is_sparse_matrix, maybe_densify

__all__ = ["PowerLadder", "round_matrix_down", "lemma7_error_bound"]


def round_matrix_down(matrix, bits: int):
    """Truncate each entry down to ``bits`` fractional bits.

    This is the paper's ``round``: each entry incurs subtractive error in
    ``[0, 2^-bits)``. Entries are assumed non-negative (probabilities).
    Accepts dense arrays or scipy sparse matrices (implicit zeros floor
    to zero either way; entries truncated to zero are dropped from the
    sparse structure).
    """
    if bits < 1:
        raise PrecisionError(f"rounding needs at least 1 bit, got {bits}")
    scale = float(1 << bits) if bits < 63 else 2.0 ** bits
    if is_sparse_matrix(matrix):
        rounded = matrix.copy()
        rounded.data = np.floor(rounded.data * scale) / scale
        rounded.eliminate_zeros()
        return rounded
    return np.floor(matrix * scale) / scale


def lemma7_error_bound(n: int, k: int, delta: float) -> float:
    """Upper bound on ``E(k)`` from the Lemma 7 recurrence.

    Unrolls ``E(k) <= (n + 1) E(k/2) + delta`` exactly over the
    ``log2(k)`` squarings: ``E(k) <= delta * sum_{i=0}^{log k} (n+1)^i``.
    """
    if k < 1:
        raise GraphError(f"power k must be >= 1, got {k}")
    levels = max(0, math.ceil(math.log2(k)))
    total = 0.0
    term = 1.0
    for _ in range(levels + 1):
        total += term
        term *= n + 1
    return delta * total


class PowerLadder:
    """All powers ``M^(2^i)`` for ``i = 0 .. log2(ell)`` of a stochastic M.

    Parameters
    ----------
    matrix:
        The (row-stochastic) transition matrix P (or S for later phases).
    ell:
        Target power; must be a power of two >= 1.
    bits:
        Fractional bits kept after each squaring. ``None`` (default)
        disables rounding (full float64 precision -- the exact-arithmetic
        idealization of Sections 2.1-2.3). Lemma 7's regime corresponds to
        ``bits = O(log^2 n)``.

    Notes
    -----
    Memory is ``(log2(ell) + 1)`` matrices of shape ``(n, n)``. Powers are
    retrieved with :meth:`power`; arbitrary (non-power-of-two) exponents
    are available through :meth:`power_any` via binary decomposition.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        ell: int,
        *,
        bits: int | None = None,
    ) -> None:
        if not is_sparse_matrix(matrix):
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"matrix must be square, got {matrix.shape}")
        if ell < 1 or (ell & (ell - 1)) != 0:
            raise GraphError(f"ell must be a power of two >= 1, got {ell}")
        self.n = matrix.shape[0]
        self.ell = ell
        self.bits = bits
        self._powers: dict[int, np.ndarray] = {}
        base = matrix if bits is None else round_matrix_down(matrix, bits)
        self._powers[1] = base
        k = 1
        while k < ell:
            squared = self._powers[k] @ self._powers[k]
            k *= 2
            if bits is not None:
                squared = round_matrix_down(squared, bits)
            # Sparse ladders densify once repeated squaring fills a power
            # past the CSR break-even point (values are unchanged).
            self._powers[k] = maybe_densify(squared)

    # ------------------------------------------------------------------

    @classmethod
    def from_powers(
        cls,
        powers: dict[int, np.ndarray],
        *,
        ell: int,
        bits: int | None,
    ) -> "PowerLadder":
        """Rebuild a ladder from already-computed powers (no matmuls).

        This is the deserialization path of the persistent derived-graph
        store (:mod:`repro.engine.store`): the powers were computed by a
        normal constructor call in some earlier process, so re-squaring
        them here would waste exactly the work the cache exists to skip.
        """
        if ell < 1 or (ell & (ell - 1)) != 0:
            raise GraphError(f"ell must be a power of two >= 1, got {ell}")
        missing = [
            k for k in (2 ** i for i in range(ell.bit_length())) if k not in powers
        ]
        if missing:
            raise GraphError(
                f"ladder powers incomplete: missing exponents {missing}"
            )
        ladder = cls.__new__(cls)
        ladder.n = powers[1].shape[0]
        ladder.ell = ell
        ladder.bits = bits
        ladder._powers = dict(powers)
        return ladder

    @property
    def exponents(self) -> tuple[int, ...]:
        """Available power-of-two exponents, ascending."""
        return tuple(sorted(self._powers))

    def power(self, k: int) -> np.ndarray:
        """Return ``M^k`` for a power-of-two ``k <= ell``."""
        try:
            return self._powers[k]
        except KeyError:
            raise GraphError(
                f"power {k} not in ladder (available: {self.exponents})"
            ) from None

    def power_any(self, k: int) -> np.ndarray:
        """``M^k`` for arbitrary ``1 <= k <= ell`` by binary decomposition.

        Costs one extra multiplication per set bit; used only by analysis
        helpers, never on the sampler's hot path (which sticks to powers of
        two by construction).
        """
        if not (1 <= k <= self.ell):
            raise GraphError(f"power {k} outside [1, {self.ell}]")
        result: np.ndarray | None = None
        bit = 1
        while bit <= k:
            if k & bit:
                factor = self.power(bit)
                result = factor if result is None else result @ factor
            bit <<= 1
        assert result is not None
        return result

    def max_subtractive_error_bound(self) -> float:
        """Lemma 7 bound on the error of the top power (0.0 if exact)."""
        if self.bits is None:
            return 0.0
        delta = 2.0 ** (-self.bits)
        return lemma7_error_bound(self.n, self.ell, delta)
