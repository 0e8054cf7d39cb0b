"""Source-size budget: ``src/`` does not grow past its ceiling unnoticed.

ROADMAP aim 2 asks for the same behaviour from the least code, and the
system benchmark records the trajectory (``meta.src_lines`` in its
``report.json``).  This test makes the number a gate: the count is taken
the way ``benchmarks/system/run.py::_src_lines`` takes it — every line of
every ``*.py`` under ``src/`` — and may not exceed the ceiling.  A PR that
needs more room raises ``CEILING`` in its own diff and says in
``CHANGES.md`` what the lines bought.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``src_lines`` once worker time became each attempt's own
#: ``min(until - start, planned)`` instead of a dispatch credit rolled back.
CEILING = 15_138


def src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def test_src_lines_within_budget():
    lines = src_lines()
    assert lines <= CEILING, (
        f"src/ holds {lines} lines of Python, {lines - CEILING} over the budget of "
        f"{CEILING}; delete as much elsewhere, or raise CEILING in this PR's own "
        "diff and say in CHANGES.md what the lines bought"
    )
