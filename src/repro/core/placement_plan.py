"""Two tracer hooks named after the walk layer's old per-phase memo.

The walk keeps no memo: in Algorithm 2 every ``M_{p,q}`` of a level
gathers its law in the same round, and later-phase subsets never recur
across fresh seeds, so each level's laws come from one gather
(:func:`repro.core.midpoints.level_cdfs`), each segment's end law from
its ladder row, and each phase's first-visit distributions from the
ShortCut rows. Nothing walk-related is cached or persisted; ``plan.npz``
files in cache volumes written by older releases are never read, and
``repro cache --prune-to`` / ``--clear`` remove them with their entries.

:class:`PlacementPlan` holds no state. Its two methods and the
``prepare_contingency_dp`` name below stay only because
``perfbench/tracing.py`` patches them by name; they go when the tracer
reads in-process spans (ROADMAP item 1).
"""

from __future__ import annotations

from repro.matching.sampler import prepare_contingency_dp

__all__ = ["PlacementPlan"]


class PlacementPlan:
    """Stateless hooks kept for ``perfbench/tracing.py``."""

    def first_visit(self, prev, vertex, compute):
        """``compute()``; kept for ``perfbench/tracing.py`` until ROADMAP item 1."""
        return compute()

    def prepared_dp(self, instance):
        """A fresh contingency DP; kept for ``perfbench/tracing.py`` until ROADMAP item 1."""
        return prepare_contingency_dp(instance)
