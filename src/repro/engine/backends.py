"""Pluggable matrix-multiplication charge backends (engine layer 1).

The sampler's numeric core performs one kind of heavy collective
operation: ``n x n`` matrix multiplication, which the paper charges either
analytically (the [17] fast-multiplication black box at O~(n^alpha)
rounds) or via the executable combinatorial 3D protocol at O(n^{1/3})
measured rounds. :class:`MatmulBackend` captures what the engine needs
from either realization: :meth:`~MatmulBackend.charge` bills ``count``
products of one size to the run's ledger. The engine computes the
numerics itself (or takes them from the
:class:`~repro.engine.cache.DerivedGraphCache`) and bills every phase
through this one method, so a cache hit and a cold build charge
identical entries. Every backend can do this because its per-product
charge is a deterministic function of the matrix size (closed-form for
the analytic backends; value-independent word loads for the simulated
protocol).

:class:`AnalyticMatmul` is the black-box realization;
:class:`repro.clique.matmul3d.SimulatedMatmul` satisfies the same
protocol. :func:`make_matmul_backend` maps a
:class:`~repro.core.config.SamplerConfig.matmul_backend` name to an
instance, replacing the if/else dispatch that used to live inside the
sampler's phase loop.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.clique.cost import RoundLedger
from repro.clique.matmul3d import SimulatedMatmul
from repro.core.variants import BROADCAST_BANDWIDTH
from repro.errors import ConfigError

__all__ = [
    "MatmulBackend",
    "AnalyticMatmul",
    "BroadcastCollectiveMatmul",
    "make_matmul_backend",
]


@runtime_checkable
class MatmulBackend(Protocol):
    """Uniform charging interface over analytic and executable matmuls."""

    name: str

    def charge(
        self,
        size: int,
        *,
        count: int = 1,
        entry_words: int | None = None,
        note: str = "",
    ) -> None:
        """Charge ``count`` size-``size`` products to the ledger."""
        ...


class AnalyticMatmul:
    """The paper's accounting: O~(n^alpha) analytic charges per product.

    Each product charges ``CostModel.matmul_rounds(size, entry_words)``
    to the ledger. With no ledger the backend charges nothing.
    """

    name = "analytic"

    def __init__(self, ledger: RoundLedger | None = None) -> None:
        self.ledger = ledger

    def charge(
        self,
        size: int,
        *,
        count: int = 1,
        entry_words: int | None = None,
        note: str = "",
    ) -> None:
        """Charge ``count`` analytic products of dimension ``size``."""
        if self.ledger is not None and count >= 1:
            self.ledger.charge_matmul(
                size, count=count, entry_words=entry_words, note=note
            )


class BroadcastCollectiveMatmul:
    """Broadcast-CC accounting: polylog sketch charges per product.

    The Broadcast Congested Clique variant runs the same floating-point
    products as the unicast variants but bills them in the broadcast
    model: each product charges
    :meth:`~repro.clique.cost.CostModel.broadcast_matmul_rounds` to the
    dedicated ``"broadcast-bandwidth"`` category instead of a unicast
    matmul charge -- a closed form of the matrix size, never of the
    numerics.
    """

    name = "broadcast-collective"
    category = BROADCAST_BANDWIDTH

    def __init__(self, ledger: RoundLedger | None = None) -> None:
        self.ledger = ledger

    def charge(
        self,
        size: int,
        *,
        count: int = 1,
        entry_words: int | None = None,
        note: str = "",
    ) -> None:
        """Charge ``count`` broadcast products of dimension ``size``."""
        if self.ledger is not None and count >= 1:
            rounds = (
                self.ledger.model.broadcast_matmul_rounds(
                    size, entry_words=entry_words
                )
                * count
            )
            self.ledger.charge(self.category, rounds, note)


def make_matmul_backend(
    name: str, size: int, ledger: RoundLedger | None = None
) -> MatmulBackend:
    """Instantiate the configured backend for one phase's matrix size."""
    if name == "analytic":
        return AnalyticMatmul(ledger)
    if name == "simulated-3d":
        return SimulatedMatmul(size, ledger=ledger)
    if name == "broadcast-collective":
        return BroadcastCollectiveMatmul(ledger)
    raise ConfigError(f"unknown matmul backend {name!r}")
