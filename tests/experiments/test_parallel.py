"""Tests for the parallel experiment engine.

The contract under test: process fan-out changes *nothing* about the
results — parallel runs return byte-identical records and telemetry metric
reports in the same order as the in-process path — and everything that
cannot run in parallel degrades gracefully to that path.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.methods import MethodSettings, standard_methods
from repro.experiments.parallel import JOBS_ENV_VAR, chunk_spans, parallel_map, resolve_jobs
from repro.experiments.runner import run_methods, run_trials, sequence_seeds
from repro.objectives import sim_workload
from repro.telemetry import TelemetryHub


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"task {x} failed")


# ------------------------------------------------------------ resolve_jobs


def test_resolve_jobs_argument_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "5")
    assert resolve_jobs(None) == 5
    monkeypatch.delenv(JOBS_ENV_VAR)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv(JOBS_ENV_VAR, "")
    assert resolve_jobs(None) == 1


def test_resolve_jobs_negative_means_all_cores():
    assert resolve_jobs(-1) >= 1


def test_resolve_jobs_rejects_zero_and_garbage(monkeypatch):
    with pytest.raises(ValueError):
        resolve_jobs(0)
    monkeypatch.setenv(JOBS_ENV_VAR, "lots")
    with pytest.raises(ValueError):
        resolve_jobs(None)


# ------------------------------------------------------------- chunk_spans


def test_chunk_spans_default_one_dispatch_per_worker():
    # The overhead contract: ceil(n/jobs)-sized chunks mean per-dispatch
    # costs (submit, pipe round-trip, result pickle) are paid `jobs` times
    # per pool, not `n` times.
    assert chunk_spans(8, 2) == [(0, 4), (4, 8)]
    assert chunk_spans(10, 4) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert chunk_spans(3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_chunk_spans_cover_every_task_exactly_once():
    for n_tasks in (0, 1, 7, 16, 23):
        for jobs in (1, 2, 5, 8):
            spans = chunk_spans(n_tasks, jobs)
            covered = [i for start, stop in spans for i in range(start, stop)]
            assert covered == list(range(n_tasks)), (n_tasks, jobs)
            assert len(spans) <= max(jobs, 1) or n_tasks == 0


def test_chunk_spans_explicit_chunksize():
    assert chunk_spans(5, 2, chunksize=2) == [(0, 2), (2, 4), (4, 5)]
    assert chunk_spans(4, 2, chunksize=10) == [(0, 4)]


def test_chunk_spans_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chunk_spans(-1, 2)
    with pytest.raises(ValueError):
        chunk_spans(4, 0)
    with pytest.raises(ValueError):
        chunk_spans(4, 2, chunksize=0)


# ------------------------------------------------------------ parallel_map


def test_parallel_map_preserves_order():
    tasks = list(range(20))
    assert parallel_map(_square, tasks, 4) == [x * x for x in tasks]


def test_parallel_map_sequential_path():
    assert parallel_map(_square, [3], 8) == [9]
    assert parallel_map(_square, list(range(5)), 1) == [0, 1, 4, 9, 16]
    assert parallel_map(_square, [], 4) == []


def test_parallel_map_handles_closures():
    offset = 10
    assert parallel_map(lambda x: x + offset, [1, 2, 3], 2) == [11, 12, 13]


def test_parallel_map_task_errors_surface():
    with pytest.raises(RuntimeError, match="task 0 failed"):
        parallel_map(_boom, [0, 1], 2)


def _boom_on_five(x: int) -> int:
    if x == 5:
        raise RuntimeError(f"task {x} failed")
    return x * x


def test_parallel_map_mid_chunk_error_reraised_at_failing_task():
    # Task 5 sits mid-chunk (chunks of 4: [0..3], [4..7]); the failed chunk
    # is recomputed in-process in task order, so the *original* error for
    # the *right* task surfaces — not a pool error, not a neighbour's.
    with pytest.raises(RuntimeError, match="task 5 failed"):
        parallel_map(_boom_on_five, list(range(8)), 2)


def test_parallel_map_explicit_chunksize_preserves_order():
    tasks = list(range(17))
    assert parallel_map(_square, tasks, 4, chunksize=3) == [x * x for x in tasks]


def test_parallel_map_falls_back_when_fork_unavailable(monkeypatch):
    import multiprocessing

    calls = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    def tracked(x):
        calls.append(x)
        return x * x

    # No fork start method: the engine must run in-process (calls recorded
    # in our interpreter prove it) and still return correct, ordered output.
    assert parallel_map(tracked, [1, 2, 3, 4], 4) == [1, 4, 9, 16]
    assert calls == [1, 2, 3, 4]


def test_parallel_map_unpicklable_results_fall_back():
    # Closures cannot be pickled back from a worker; the engine must fall
    # back to computing them in-process rather than crashing.
    results = parallel_map(lambda x: (lambda: x), [1, 2, 3], 2)
    assert [f() for f in results] == [1, 2, 3]


def test_parallel_map_injected_executor():
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert parallel_map(_square, list(range(8)), executor=pool) == [
            x * x for x in range(8)
        ]


# ---------------------------------------------------------- sequence_seeds


def test_sequence_seeds_exported_and_deterministic():
    from repro.experiments.runner import __all__ as runner_all

    assert "sequence_seeds" in runner_all
    assert list(sequence_seeds(3, 4)) == [3, 1003, 2003, 3003]


# ----------------------------------------------- parallel == sequential


def _make_objective(seed: int):
    return sim_workload.make_objective(seed_salt=seed)


def _run_suite(n_jobs: int):
    settings = MethodSettings(eta=4, min_resource=1.0, max_resource=16.0, n=16)
    factories = standard_methods(settings, include=("ASHA", "SHA"))
    return run_methods(
        factories,
        _make_objective,
        num_workers=4,
        time_limit=80.0,
        seeds=sequence_seeds(0, 3),
        telemetry=lambda seed: TelemetryHub.with_metrics(),
        n_jobs=n_jobs,
    )


def test_parallel_records_identical_to_sequential():
    """Satellite: n_jobs=4 output is byte-identical to n_jobs=1.

    Two methods, three seeds, telemetry on: every record (trace + backend
    log) and every metrics report must serialise to the same bytes.
    """
    sequential = _run_suite(1)
    parallel = _run_suite(4)
    assert list(sequential) == list(parallel) == ["ASHA", "SHA"]
    for method in sequential:
        seq_records = sequential[method]
        par_records = parallel[method]
        assert [r.seed for r in seq_records] == [r.seed for r in par_records]
        for seq, par in zip(seq_records, par_records):
            assert pickle.dumps(seq.trace) == pickle.dumps(par.trace)
            assert seq.backend.telemetry is not None
            # The whole backend log — measurements, failures, utilisation,
            # metrics report — must serialise identically.
            assert pickle.dumps(seq.backend) == pickle.dumps(par.backend)


def test_run_trials_parallel_matches_sequential():
    def make_scheduler(objective, rng):
        from repro.core import ASHA

        return ASHA(objective.space, rng, min_resource=1.0, max_resource=16.0, eta=4)

    kwargs = dict(num_workers=3, time_limit=60.0, seeds=[0, 11, 42])
    seq = run_trials("ASHA", make_scheduler, _make_objective, **kwargs, n_jobs=1)
    par = run_trials("ASHA", make_scheduler, _make_objective, **kwargs, n_jobs=3)
    assert [r.seed for r in seq] == [r.seed for r in par] == [0, 11, 42]
    for a, b in zip(seq, par):
        assert a.trace.times == b.trace.times
        assert a.trace.values == b.trace.values


def test_run_trials_env_knob(monkeypatch):
    def make_scheduler(objective, rng):
        from repro.core import ASHA

        return ASHA(objective.space, rng, min_resource=1.0, max_resource=16.0, eta=4)

    kwargs = dict(num_workers=2, time_limit=40.0, seeds=[0, 1])
    seq = run_trials("ASHA", make_scheduler, _make_objective, **kwargs)
    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    par = run_trials("ASHA", make_scheduler, _make_objective, **kwargs)
    for a, b in zip(seq, par):
        assert a.trace.times == b.trace.times
        assert a.trace.values == b.trace.values
