"""Installation self-check: a fast battery of ground-truth assertions.

``python -m repro verify`` (or :func:`run_self_check`) exercises one
exemplar of every major subsystem against an exactly known answer:

1. Matrix-Tree counts on closed-form families (Cayley, cycles);
2. Foster's theorem on a random graph (electrical substrate);
3. the Figure 2 Schur/shortcut values (derived graphs);
4. a Ryser-vs-class-DP permanent identity (matching substrate);
5. Lenzen routing delivery + round constants (clique substrate);
6. one tree from each sampler, validated as a spanning tree;
7. a quick chi-square sanity on the Theorem-1 sampler.

Runs in a few seconds; each check reports pass/fail independently so a
broken environment (e.g. a miscompiled BLAS) is localized immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CheckResult", "run_self_check"]


@dataclass
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    detail: str = ""


def _check_matrix_tree() -> str:
    from repro import graphs
    from repro.graphs import count_spanning_trees

    cayley = count_spanning_trees(graphs.complete_graph(6))
    assert abs(cayley - 6**4) < 1e-6, f"K6 count {cayley} != 1296"
    cycle = count_spanning_trees(graphs.cycle_graph(9))
    assert abs(cycle - 9) < 1e-9, f"C9 count {cycle} != 9"
    return "Cayley 6^4 and C9 counts exact"


def _check_foster() -> str:
    from repro import graphs
    from repro.graphs import foster_sum

    g = graphs.erdos_renyi_graph(20, rng=np.random.default_rng(1))
    total = foster_sum(g)
    assert abs(total - 19) < 1e-7, f"Foster sum {total} != 19"
    return "Foster sum = n - 1 on G(20, p)"


def _check_figure2() -> str:
    from repro import graphs
    from repro.linalg import DenseLinalg

    g = graphs.figure2_graph()
    schur, _ = DenseLinalg().schur_transition(g, [0, 1, 3])
    assert np.allclose(schur, np.full((3, 3), 0.5) - 0.5 * np.eye(3))
    shortcut = DenseLinalg().shortcut_matrix(g, [0, 1, 3])
    assert np.allclose(shortcut[:, 2], 1.0)
    return "Figure 2 Schur + shortcut values exact"


def _check_permanent() -> str:
    from repro.matching import permanent_class_dp, permanent_ryser

    rng = np.random.default_rng(2)
    weights = rng.random((2, 2))
    expanded = weights[np.ix_([0, 0, 1], [0, 1, 1])]
    dp = permanent_class_dp(weights, [2, 1], [1, 2])
    ryser = permanent_ryser(expanded)
    assert abs(dp - ryser) < 1e-9 * max(1.0, abs(ryser))
    return "class-DP permanent == Ryser on expansion"


def _check_routing() -> str:
    from repro.clique.lenzen import RoutedMessage, lenzen_route

    n = 8
    messages = [RoutedMessage(s, (s * 3 + 1) % n) for s in range(n)]
    outcome = lenzen_route(messages, n)
    delivered = sum(len(inbox) for inbox in outcome.inboxes.values())
    assert delivered == n, f"delivered {delivered} of {n}"
    assert outcome.rounds <= 3, f"{outcome.rounds} rounds for a permutation"
    return "Lenzen routing delivers in O(1) rounds"


def _check_samplers() -> str:
    from repro import graphs
    from repro.core import SamplerConfig, sample_tree_fast_cover
    from repro.engine import SamplerEngine
    from repro.graphs import is_spanning_tree

    rng = np.random.default_rng(3)
    g = graphs.cycle_with_chord(7)
    config = SamplerConfig(ell=1 << 10)
    for sampler in (
        lambda r: SamplerEngine(g, config).run(r).tree,
        lambda r: SamplerEngine(g, config, variant="exact").run(r).tree,
        lambda r: sample_tree_fast_cover(g, r).tree,
    ):
        tree = sampler(rng)
        assert is_spanning_tree(g, tree)
    return "all three samplers produced valid trees"


def _check_uniformity() -> str:
    from repro import graphs
    from repro.analysis import chi_square_uniformity
    from repro.core import SamplerConfig
    from repro.engine import SamplerEngine

    rng = np.random.default_rng(4)
    g = graphs.cycle_graph(5)
    engine = SamplerEngine(g, SamplerConfig(ell=1 << 10))
    trees = [engine.run(rng).tree for _ in range(200)]
    __, p_value = chi_square_uniformity(g, trees)
    assert p_value > 1e-4, f"uniformity rejected (p = {p_value:.2e})"
    return f"chi-square sanity passed (p = {p_value:.2f})"


_CHECKS: dict[str, Callable[[], str]] = {
    "matrix-tree": _check_matrix_tree,
    "electrical": _check_foster,
    "derived-graphs": _check_figure2,
    "permanents": _check_permanent,
    "routing": _check_routing,
    "samplers": _check_samplers,
    "uniformity": _check_uniformity,
}


def run_self_check(*, verbose: bool = False) -> list[CheckResult]:
    """Run the whole battery; never raises, reports per-check results."""
    results = []
    for name, check in _CHECKS.items():
        try:
            detail = check()
            results.append(CheckResult(name, True, detail))
        except Exception as error:  # noqa: BLE001 - report, don't crash
            results.append(CheckResult(name, False, f"{error!r}"))
        if verbose:
            last = results[-1]
            status = "ok" if last.passed else "FAIL"
            print(f"[{status:>4s}] {last.name}: {last.detail}")
    return results


def main_cli() -> int:
    """CLI hook: print the battery and return a process exit code."""
    results = run_self_check(verbose=True)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"\n{len(failed)} of {len(results)} checks FAILED")
        return 1
    print(f"\nall {len(results)} checks passed")
    return 0
