"""Import-graph guard: importing the package loads nothing it does not run.

scipy costs ~0.7 s and ~64 MB to import and only three call sites use it
(the GP's Cholesky, EI's ``ndtr``, the curve-extrapolation fit), so each of
them imports it on first use.  The checks run in a fresh interpreter and
compare module *names*, never times.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import CurveExtrapolationRule

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import importlib, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loads_nothing(label):
    assert not scipy_modules(), (label, scipy_modules()[:5])

import repro
loads_nothing("import repro")
from repro.study import Study, StudyMultiplexer
loads_nothing("repro.study")
for cli in ("repro.experiments.__main__", "repro.telemetry.__main__"):
    importlib.import_module(cli)
    loads_nothing(cli)

import numpy as np
from repro.core import CurveExtrapolationRule
from repro.core.types import Trial
from repro.experiments.toys import toy_space
from repro.models import expected_improvement
from repro.searchers import ORIGIN_MODEL, GPEISearcher

rng = np.random.default_rng(0)
searcher = GPEISearcher(num_init=3, num_candidates=16).setup(toy_space())
for i in range(3):
    searcher.on_result(Trial(trial_id=i, config=searcher.suggest(rng)), 1.0, float(i))
loads_nothing("GP warm-up")
searcher.suggest(rng)
assert searcher.origin == ORIGIN_MODEL
assert "scipy.linalg" in sys.modules and "scipy.special" in sys.modules

assert "scipy.optimize" not in sys.modules
assert np.isfinite(expected_improvement(np.zeros(4), np.ones(4), best=0.5)).all()
rule = CurveExtrapolationRule(max_resource=100.0, min_points=4)
for r in (1.0, 2.0, 4.0, 8.0):
    rule.observe(0, r, 0.2 + 0.8 * r**-0.5)
assert rule.extrapolate(0) is not None
assert "scipy.optimize" in sys.modules
assert "scipy.stats" not in sys.modules, "scipy.stats is back on a used path"
print("ok")
"""


def _python(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_package_and_cli_imports_load_no_scipy_until_first_use():
    proc = _python("-c", _CHILD)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("package", ["repro.telemetry", "repro.experiments"])
def test_cli_entry_points_run_without_warnings(package):
    """``-W error``: runpy's "found in sys.modules" warning means the CLI's
    module ran twice (``python -m repro.telemetry.runtime`` did)."""
    proc = _python("-W", "error", "-m", package, "--help")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"usage: python -m {package}")


def test_broken_scipy_raises_from_extrapolate(monkeypatch):
    """The deferred import sits outside ``extrapolate``'s catch-all, so a
    broken install is an error, not a stopping rule that never fires."""
    rule = CurveExtrapolationRule(max_resource=100.0, min_points=4)
    for r in (1.0, 2.0, 4.0, 8.0):
        rule.observe(0, r, 0.2 + 0.8 * r**-0.5)
    assert np.isfinite(rule.extrapolate(0))
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError):
        rule.extrapolate(0)
