"""Shared infrastructure for the experiment benchmarks.

Each bench file reproduces one of the paper's experiments and records a
human-readable paper-vs-measured summary through the ``report`` fixture;
summaries are printed in the terminal summary so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures the
reproduction numbers alongside the timing table.
"""

from __future__ import annotations

import numpy as np
import pytest

_REPORTS: list[tuple[str, list[str]]] = []


def _record(title: str, lines: list[str]) -> None:
    _REPORTS.append((title, [str(line) for line in lines]))


@pytest.fixture
def report():
    """Callable ``report(title, lines)`` stashing a reproduction summary."""
    return _record


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBE7C11)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 74)
    terminalreporter.write_line("EXPERIMENT REPRODUCTION SUMMARIES (paper vs measured)")
    terminalreporter.write_line("=" * 74)
    for title, lines in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title}")
        for line in lines:
            terminalreporter.write_line(f"    {line}")
