"""Event-stream parity between the two backends.

``SimulatedCluster`` and ``ThreadPoolBackend`` run the same master loop and
must emit the same trial-lifecycle vocabulary — the same event kinds with
the same identity fields and payload keys — so downstream consumers
(metrics aggregation, trace reconstruction) stay backend-agnostic.  The
clocks differ in when they learn a job's duration, but no event carries
busy time any more (a worker's busy time is its trace spans), so there is
no sanctioned divergence: any payload key one backend adds fails this test
instead of silently skewing one backend's traces.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ProcessPoolBackend, RetryPolicy, SimulatedCluster, ThreadPoolBackend
from repro.backend.faults import FailureInjectingObjective
from repro.core.asha import ASHA
from repro.experiments.toys import scripted_sampler, toy_objective, toy_space
from repro.searchers import FunctionSearcher
from repro.telemetry import InMemorySink, TelemetryHub

CORE_FIELDS = ("trial_id", "job_id", "worker_id", "rung", "bracket")


def _scripted_asha():
    return ASHA(
        toy_space(),
        np.random.default_rng(0),
        min_resource=1,
        max_resource=4,
        eta=2,
        max_trials=4,
        searcher=FunctionSearcher(scripted_sampler([0.1, 0.2, 0.3, 0.4])),
    )


def _run(backend_name: str, *, objective=None, retry_policy=None):
    objective = objective if objective is not None else toy_objective(max_resource=4.0)
    memory = InMemorySink()
    hub = TelemetryHub.with_metrics(memory)
    if backend_name == "sim":
        backend = SimulatedCluster(1, seed=0)
        limit = 200.0
    elif backend_name == "procs":
        backend = ProcessPoolBackend(1, n_procs=2, seed=0)
        limit = 200.0
    else:
        backend = ThreadPoolBackend(1)
        limit = 30.0
    backend.run(
        _scripted_asha(), objective, time_limit=limit,
        telemetry=hub, retry_policy=retry_policy,
    )
    return memory.events


def _payload_keys(events) -> dict[str, set[str]]:
    keys: dict[str, set[str]] = {}
    for event in events:
        keys.setdefault(event.kind.value, set()).update(event.data)
    return keys


def _core_presence(events) -> dict[str, set[str]]:
    present: dict[str, set[str]] = {}
    for event in events:
        bucket = present.setdefault(event.kind.value, set())
        bucket.update(f for f in CORE_FIELDS if getattr(event, f) is not None)
    return present


def _assert_keys_match(sim_events, thread_events):
    sim_keys = _payload_keys(sim_events)
    thread_keys = _payload_keys(thread_events)
    # Kinds are pinned by the vocabulary tests; a kind only one clock
    # happened to emit (``worker_idle`` depends on timing) has no keys to
    # compare.
    for kind in sorted(set(sim_keys) & set(thread_keys)):
        sim, threads = sim_keys[kind], thread_keys[kind]
        assert sim == threads, f"{kind}: sim payload {sim} != threads payload {threads}"


class TestCleanRunParity:
    """Same scripted 4-trial ASHA run through both backends, no faults."""

    def setup_method(self):
        self.sim = _run("sim")
        self.threads = _run("threads")

    def test_same_event_vocabulary(self):
        sim_kinds = {e.kind.value for e in self.sim}
        thread_kinds = {e.kind.value for e in self.threads}
        # worker_idle is timing-dependent on the thread pool (only emitted if
        # a poll actually finds the queue empty); everything else must match.
        assert sim_kinds - {"worker_idle"} == thread_kinds - {"worker_idle"}

    def test_lifecycle_counts_match(self):
        def counts(events):
            out: dict[str, int] = {}
            for e in events:
                if e.kind.value != "worker_idle":
                    out[e.kind.value] = out.get(e.kind.value, 0) + 1
            return out

        # One worker serialises reports, so both backends make identical
        # scheduling decisions: same trials, jobs, promotions, restores.
        assert counts(self.sim) == counts(self.threads)

    def test_payload_keys_match_modulo_allowlist(self):
        _assert_keys_match(self.sim, self.threads)

    def test_core_fields_match(self):
        sim = _core_presence(self.sim)
        threads = _core_presence(self.threads)
        for kind in set(sim) & set(threads):
            assert sim[kind] == threads[kind], kind

    def test_no_backend_emits_busy_time_keys(self):
        """Busy time is read off spans; no event carries a credit for it."""
        for events in (self.sim, self.threads, _run("procs")):
            assert events
            for event in events:
                assert not {"busy_credit", "busy_correction"} & set(event.data), event


class TestFaultPathParity:
    """Crash-injected run: failure/retry/abandon events must agree too."""

    def setup_method(self):
        policy = RetryPolicy(max_attempts=2, backoff=0.01)

        def objective():
            # Every config crashes once and succeeds on retry, except the
            # worst config (0.4) which always crashes and gets quarantined.
            once = FailureInjectingObjective(
                toy_objective(max_resource=4.0),
                crash_first=1,
                target=lambda c: c["quality"] < 0.35,
                seed=0,
            )
            return FailureInjectingObjective(
                once, crash_first=99, target=lambda c: c["quality"] > 0.35, seed=0
            )

        self.sim = _run("sim", objective=objective(), retry_policy=policy)
        self.threads = _run("threads", objective=objective(), retry_policy=policy)

    def test_fault_kinds_present_on_both(self):
        for events in (self.sim, self.threads):
            kinds = {e.kind.value for e in events}
            assert {"job_failed", "job_retried", "trial_abandoned"} <= kinds

    def test_payload_keys_match_modulo_allowlist(self):
        _assert_keys_match(self.sim, self.threads)

    def test_retry_events_carry_identical_schedule_fields(self):
        """Both backends announce when the retry becomes runnable."""
        for events in (self.sim, self.threads):
            retries = [e for e in events if e.kind.value == "job_retried"]
            assert retries
            for e in retries:
                assert set(e.data) == {"attempt", "delay", "retry_at"}
                assert e.data["retry_at"] >= e.time
