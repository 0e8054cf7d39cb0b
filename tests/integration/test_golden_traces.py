"""Golden-trace regression tests for the searcher-extraction refactor.

The JSONL fixtures under ``tests/integration/golden/`` were recorded at the
commit immediately *before* config proposal was extracted out of the
schedulers into :mod:`repro.searchers` — i.e. while BOHB still carried its
private KDE bank and VizierGP its private GP.  A refactored scheduler running
under its default searcher must emit a **byte-identical** telemetry stream:
same trials in the same order with the same configs, same promotions, same
simulated clocks, same serialisation.  Any diff here means the refactor
changed the algorithm under study, not just its plumbing.

The files were rewritten once, mechanically, when ``job_started`` stopped
carrying ``busy_credit`` and ``report``/``job_failed``/``job_timeout``
stopped carrying ``busy_correction``: each equals its previous recording
with those two keys deleted from every line, byte for byte, and nothing
else moved.

Regenerate the fixtures (ONLY for an intentional behaviour change):

    PYTHONPATH=src python tests/integration/test_golden_traces.py
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from repro.backend.process_pool import ProcessPoolBackend
from repro.backend.simulation import SimulatedCluster
from repro.core import ASHA, AsyncHyperband, Hyperband, SynchronousSHA, build_scheduler
from repro.experiments.toys import toy_objective, toy_space
from repro.searchers import KDESearcher
from repro.telemetry import JSONLSink, TelemetryHub

GOLDEN_DIR = Path(__file__).parent / "golden"


def _asha():
    return ASHA(
        toy_space(),
        np.random.default_rng(3),
        min_resource=1,
        max_resource=9,
        eta=3,
        max_trials=30,
    )


def _sha():
    return SynchronousSHA(
        toy_space(),
        np.random.default_rng(5),
        n=27,
        min_resource=1,
        max_resource=9,
        eta=3,
        grow_brackets=True,
    )


def _hyperband():
    return Hyperband(
        toy_space(), np.random.default_rng(7), min_resource=1, max_resource=9, eta=3, max_loops=1
    )


def _async_hyperband():
    return AsyncHyperband(
        toy_space(), np.random.default_rng(8), min_resource=1, max_resource=9, eta=3
    )


def _bohb():
    return build_scheduler(
        "bohb",
        toy_space(),
        np.random.default_rng(9),
        min_resource=1,
        max_resource=9,
        eta=3,
        kwargs={"n": 27, "grow_brackets": True, "random_fraction": 0.2},
    )


def _async_bohb():
    return ASHA(
        toy_space(),
        np.random.default_rng(11),
        min_resource=1,
        max_resource=9,
        eta=3,
        searcher=KDESearcher(random_fraction=0.2, record_origin=False),
    )


def _vizier():
    return build_scheduler(
        "vizier",
        toy_space(),
        np.random.default_rng(13),
        min_resource=1,
        max_resource=9.0,
        eta=3,
        kwargs={"num_init": 4, "num_candidates": 32, "refit_every": 3, "max_trials": 24},
    )


#: name -> (scheduler factory, cluster kwargs, simulated time limit).  The
#: clusters include stragglers and drops where the scheduler tolerates them,
#: so the traces also pin down failure-path behaviour.
SCENARIOS = {
    "asha": (_asha, dict(straggler_std=0.3, drop_probability=0.02, seed=7), 60.0),
    # Recorded *after* churn victim selection moved to the O(1) swap-remove
    # index (the rng draw sequence is unchanged; victim identity is pinned
    # by this trace).
    "asha_churn": (
        _asha,
        dict(straggler_std=0.3, churn_rate=0.15, churn_downtime=5.0, seed=23),
        60.0,
    ),
    "sha": (_sha, dict(straggler_std=0.2, seed=11), 120.0),
    "hyperband": (_hyperband, dict(seed=13), 500.0),
    "async_hyperband": (_async_hyperband, dict(straggler_std=0.2, seed=15), 90.0),
    "bohb": (_bohb, dict(straggler_std=0.2, seed=17), 200.0),
    "async_bohb": (_async_bohb, dict(straggler_std=0.2, seed=19), 80.0),
    "vizier": (_vizier, dict(seed=21), 1000.0),
}


def record_trace(name: str, cluster_cls=SimulatedCluster, **extra_kwargs) -> str:
    """One seeded simulated run of a scenario, exported as canonical JSONL."""
    make_scheduler, cluster_kwargs, time_limit = SCENARIOS[name]
    buffer = io.StringIO()
    hub = TelemetryHub([JSONLSink(buffer)])
    cluster = cluster_cls(4, **cluster_kwargs, **extra_kwargs)
    cluster.run(
        make_scheduler(), toy_objective(max_resource=9.0), time_limit=time_limit, telemetry=hub
    )
    hub.close()
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_pre_refactor_recording(name):
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    assert record_trace(name) == golden


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_process_pool_backend_trace_matches_golden(name):
    """The process-pool backend must emit the byte-identical event stream.

    ``n_procs=4`` forces the pool path even on small machines; speculative
    training in worker processes may not move a single event, clock, or
    serialised byte relative to the inline recordings.
    """
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    assert record_trace(name, cluster_cls=ProcessPoolBackend, n_procs=4) == golden


def test_traces_are_nontrivial():
    """Guard against silently recording empty streams as golden."""
    for name in SCENARIOS:
        golden = (GOLDEN_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
        assert golden.count("\n") > 20, f"{name} trace suspiciously short"
        assert '"kind":"promotion"' in golden or name == "vizier"
        assert '"busy_' not in golden, f"{name} still carries a busy-time credit"


def test_churn_trace_pins_victim_selection():
    """The churn scenario must actually kill jobs to pin victim selection.

    Churn victims are drawn from the O(1) live-job index; this trace freezes
    which jobs die and when, so any change to the index's iteration order or
    the rng draw sequence shows up as a byte diff.
    """
    golden = (GOLDEN_DIR / "asha_churn.jsonl").read_text(encoding="utf-8")
    assert '"reason":"churn"' in golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        path = GOLDEN_DIR / f"{name}.jsonl"
        content = record_trace(name)
        path.write_text(content, encoding="utf-8")
        print(f"recorded {path} ({content.count(chr(10))} events)")
