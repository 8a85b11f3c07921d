"""Result records shared by the engine's runner and ensemble layers.

:class:`SampleResult` lives here (rather than in
:mod:`repro.core.sampler`, which re-exports it) so the engine can
construct results without importing :mod:`repro.core.sampler` --
keeping the engine -> core dependency one-directional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.clique.cost import RoundLedger
from repro.graphs.spanning import TreeKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.phase import PhaseStats

__all__ = ["SampleResult"]


@dataclass
class SampleResult:
    """A sampled spanning tree plus full execution diagnostics."""

    tree: TreeKey
    rounds: int
    phases: int
    ledger: RoundLedger
    phase_stats: list["PhaseStats"] = field(default_factory=list)
    clique_stats: dict = field(default_factory=dict)
    # True when this draw was produced by the ensemble driver's
    # sequential fallback after the process pool broke (the tree and
    # ledger are identical either way -- the flag reports the *delivery*
    # degradation so services can surface it instead of masking it).
    degraded: bool = False

    def rounds_by_category(self) -> dict[str, int]:
        """Total rounds per ledger category, descending."""
        return self.ledger.rounds_by_category()

    def to_dict(self) -> dict:
        """JSON-serializable wire form (full diagnostics included)."""
        payload = {
            "tree": [[int(u), int(v)] for u, v in self.tree],
            "rounds": int(self.rounds),
            "phases": int(self.phases),
            "ledger": self.ledger.to_dict(),
            "phase_stats": [stats.to_dict() for stats in self.phase_stats],
            "clique_stats": {
                key: int(value) for key, value in self.clique_stats.items()
            },
        }
        # Keyed in only when set: the healthy wire form stays byte-stable
        # with pre-flag captures (goldens, cached envelopes).
        if self.degraded:
            payload["degraded"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SampleResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.core.phase import PhaseStats

        return cls(
            tree=tuple((int(u), int(v)) for u, v in payload["tree"]),
            rounds=int(payload["rounds"]),
            phases=int(payload["phases"]),
            ledger=RoundLedger.from_dict(payload["ledger"]),
            phase_stats=[
                PhaseStats.from_dict(stats)
                for stats in payload.get("phase_stats", [])
            ],
            clique_stats=dict(payload.get("clique_stats", {})),
            degraded=bool(payload.get("degraded", False)),
        )
