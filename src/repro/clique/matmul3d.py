"""Simulated CongestedClique matrix multiplication (the [17] black box).

The paper charges matrix multiplication analytically at O~(n^alpha)
rounds, alpha = 0.157 -- the Censor-Hillel et al. [17] bound built on
*fast* (Strassen-like rectangular) multiplication. This module implements
the same work's **combinatorial ("semiring") algorithm**, which runs in
O(n^{1/3}) rounds, as an actual simulated protocol:

Machines are arranged in a conceptual n^{1/3} x n^{1/3} x n^{1/3} cube;
machine (i, j, k) is responsible for the block product
``A[i-block, k-block] @ B[k-block, j-block]``. Since the input is stored
row-partitioned (machine v holds row v of A and B, the paper's Section
1.6 layout), the protocol has three communication steps, each of which we
account at word level and convert to rounds by Lenzen's theorem:

1. **A-scatter:** every row owner sends each n^{2/3}-wide slice of its
   A-row to the cube machines needing it (each machine receives an
   n^{2/3} x n^{2/3} block);
2. **B-scatter:** same for B;
3. **C-reduce:** each cube machine sends its partial block to the
   machines owning the corresponding C rows, which sum the n^{1/3}
   contributions per entry.

Each step moves Theta(n^{4/3}) words per machine, i.e. Theta(n^{1/3})
rounds -- matching [17]'s combinatorial bound exactly. The word loads
depend only on ``n``, so the samplers bill *measured* rather than
analytic matmul rounds through :meth:`SimulatedMatmul.charge`;
:meth:`SimulatedMatmul.multiply` also performs the numerics for real
(block numpy products) and bills the same rounds. The README's "Sampler
variants" section records the substitution: measured rounds scale as n^{1/3} instead of the paper's
n^{0.157}, because fast rectangular multiplication inside the clique is
out of scope; the samplers' *headline* exponent with this backend becomes
1/2 + 1/3 < 1 -- still sublinear, and the analytic-charge mode remains
the default for exponent-faithful scaling benches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.clique.cost import RoundLedger
from repro.clique.routing import lenzen_rounds
from repro.errors import ModelError

__all__ = ["SimulatedMatmul", "semiring_matmul_rounds"]


def semiring_matmul_rounds(n: int) -> int:
    """Closed-form round count of the combinatorial protocol: 3 ceil(n^{1/3})."""
    if n < 1:
        raise ModelError(f"matmul needs n >= 1, got {n}")
    return 3 * max(1, math.ceil(n ** (1.0 / 3.0)))


class SimulatedMatmul:
    """Word-accounted 3D block matrix multiplication on ``n`` machines.

    Parameters
    ----------
    n:
        Number of machines = matrix dimension (the model couples them).
    ledger:
        Optional ledger receiving the measured round charges under the
        category ``"matmul-simulated"``.
    """

    name = "simulated-3d"

    def __init__(self, n: int, ledger: RoundLedger | None = None) -> None:
        if n < 1:
            raise ModelError(f"need n >= 1 machines, got {n}")
        self.n = n
        self.ledger = ledger
        self.side = max(1, math.ceil(n ** (1.0 / 3.0)))
        self.block = max(1, math.ceil(n / self.side))
        self.calls = 0
        self.total_rounds = 0
        self._round_cost: int | None = None

    # ------------------------------------------------------------------

    def _block_ranges(self) -> list[tuple[int, int]]:
        """The side-many contiguous index ranges of width ~n^{2/3}."""
        width = max(1, math.ceil(self.n / self.side))
        ranges = []
        start = 0
        while start < self.n:
            ranges.append((start, min(self.n, start + width)))
            start += width
        return ranges

    def _cube_machine(self, i: int, j: int, k: int) -> int:
        """Deterministic cube-coordinate to machine-ID mapping."""
        return (i * self.side * self.side + j * self.side + k) % self.n

    def round_cost(self) -> int:
        """Measured rounds of one multiplication (scatter + reduce).

        The protocol's per-machine word loads depend only on ``n`` and the
        block decomposition -- never on matrix values -- so the cost is a
        deterministic per-instance constant. It is computed once and
        cached; :meth:`charge` relies on this determinism to bill
        products whose numerics came from a cache the exact measured
        amount.
        """
        if self._round_cost is not None:
            return self._round_cost
        ranges = self._block_ranges()
        side = len(ranges)
        send = np.zeros(self.n, dtype=np.int64)
        recv = np.zeros(self.n, dtype=np.int64)

        # Step 1 + 2: scatter A[i, k] and B[k, j] blocks to cube machines.
        # Row owner r (inside block i, resp. k) sends one width-|k| slice
        # per (other-coordinate) cube position.
        for bi, (i_lo, i_hi) in enumerate(ranges):
            for bk, (k_lo, k_hi) in enumerate(ranges):
                width = k_hi - k_lo
                for bj in range(side):
                    destination = self._cube_machine(bi, bj, bk)
                    # A-block rows i_lo..i_hi each ship `width` words.
                    for row in range(i_lo, i_hi):
                        send[row] += width
                        recv[destination] += width
        for bk, (k_lo, k_hi) in enumerate(ranges):
            for bj, (j_lo, j_hi) in enumerate(ranges):
                width = j_hi - j_lo
                for bi in range(side):
                    destination = self._cube_machine(bi, bj, bk)
                    for row in range(k_lo, k_hi):
                        send[row] += width
                        recv[destination] += width
        scatter_rounds = lenzen_rounds(int(send.max()), int(recv.max()), self.n)

        # Step 3: reduce partial C blocks to the owners of the C rows.
        send[:] = 0
        recv[:] = 0
        for bi, (i_lo, i_hi) in enumerate(ranges):
            for bj, (j_lo, j_hi) in enumerate(ranges):
                width = j_hi - j_lo
                for bk in range(side):
                    source = self._cube_machine(bi, bj, bk)
                    for row in range(i_lo, i_hi):
                        send[source] += width
                        recv[row] += width
        reduce_rounds = lenzen_rounds(int(send.max()), int(recv.max()), self.n)

        self._round_cost = scatter_rounds + reduce_rounds
        return self._round_cost

    def multiply(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        entry_words: int | None = None,
        note: str = "",
    ) -> np.ndarray:
        """``a @ b`` with full word-level round accounting.

        Both inputs must be ``n x n`` (the row-partitioned clique layout).
        Returns the exact product; charges the measured rounds through
        :meth:`charge`.
        """
        if a.shape != (self.n, self.n) or b.shape != (self.n, self.n):
            raise ModelError(
                f"matrices must be {self.n} x {self.n}, got {a.shape} and "
                f"{b.shape}"
            )
        result = a @ b  # numerics: the block sums collapse to the product
        self.calls += 1
        self.charge(self.n, entry_words=entry_words, note=note)
        return result

    def charge(
        self,
        size: int,
        *,
        count: int = 1,
        entry_words: int | None = None,
        note: str = "",
    ) -> None:
        """Charge the measured rounds of ``count`` multiplications.

        :meth:`round_cost` is value-independent, so charging a product
        whose numerics were computed elsewhere (or taken from a cache)
        bills exactly what :meth:`multiply` would have measured.
        ``entry_words`` is accepted for
        :class:`~repro.engine.backends.MatmulBackend` interface
        compatibility but ignored: the measured protocol ships raw words.
        """
        if size != self.n:
            raise ModelError(f"product size {size} != backend size {self.n}")
        if count < 1:
            return
        rounds = count * self.round_cost()
        self.total_rounds += rounds
        if self.ledger is not None:
            self.ledger.charge(
                "matmul-simulated",
                rounds,
                note=note or f"3D semiring n={self.n}",
            )

    def measured_rounds_last_call_bound(self) -> int:
        """Upper bound sanity: 4x the closed form (slack for uneven blocks)."""
        return 4 * semiring_matmul_rounds(self.n)
