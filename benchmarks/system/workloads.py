"""The six workloads: what runs, at what size, and how its output is checked.

Every workload is a closed loop — the driver (simulated cluster, multiplexer
or ask/tell client) asks only when a worker or window slot is free — and is
generated from ``--seed`` alone: the seed picks scheduler, cluster and
objective seeds and never changes library behaviour.

A workload has four phases, which the harness times separately:

``prepare``  once per run — input generation (only ``journal_resume`` has
             any: it writes the journal it will restore);
``build``    every round — object construction (``setup_s``);
``run``      every round — the timed region (``ops_per_s``);
``verify``   every round, untimed — the differential output check.

``build`` and ``run`` take a :class:`spans.Tracer` or ``None``.  With
``None`` they use the library's own classes and nothing else; with a tracer
they substitute the proxies from :mod:`proxies`.  No absolute digests are
pinned anywhere: a later PR cannot edit these files, so every check compares
two executions (traced vs untraced, observed vs bare, multiplexed vs solo,
restored vs live).
"""

from __future__ import annotations

import json
import os
import shutil
from array import array
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.backend.simulation import SimulatedCluster
from repro.core import ASHA
from repro.experiments.figures import sequential_benchmarks
from repro.experiments.methods import standard_methods
from repro.experiments.runner import aggregate_methods, run_methods
from repro.experiments.toys import toy_objective, toy_space
from repro.objectives import ptb_lstm
from repro.objectives.surrogate import seeded_uniform
from repro.study import Journal, Study, StudyMultiplexer
from repro.telemetry import JSONLSink, TelemetryHub

import proxies
from spans import Tracer

__all__ = ["WORKLOADS", "Ctx", "Outcome", "Workload", "drive_client"]


@dataclass
class Ctx:
    """One run's inputs and scratch space."""

    seed: int
    #: 1.0 is the committed size; ``--quick`` and the warm-up use 1/8.
    scale: float
    #: Private scratch directory of this run (journals, WAL, event files).
    workdir: str
    #: Whatever ``prepare`` / ``oracle`` left for the rounds.
    prepared: Any = None
    oracle: Any = None
    #: The current round's own directory (see :meth:`new_round_dir`).
    dir: str = ""
    _round: int = 0

    def scaled(self, size: int) -> int:
        return max(1, round(size * self.scale))

    def new_round_dir(self) -> None:
        """A fresh, empty directory for the next round (the last one is removed)."""
        shutil.rmtree(os.path.join(self.workdir, f"round{self._round}"), ignore_errors=True)
        self._round += 1
        self.dir = os.path.join(self.workdir, f"round{self._round}")
        os.makedirs(self.dir)


@dataclass
class Outcome:
    """What one round did, as far as the harness needs to know."""

    #: Operations attempted in the timed region.
    ops: int
    #: Operations that raised (an objective crash, an ask/tell exception).
    failed: int = 0
    #: Seed-determined results; every round of a run — traced or not —
    #: must reproduce these exactly.
    stats: dict[str, Any] = field(default_factory=dict)
    #: Timed-region seconds when narrower than the whole ``run`` call.
    seconds: float | None = None
    #: Journal files the round wrote or read (offline read/encode pass).
    journals: list[str] = field(default_factory=list)
    #: Measurements that vary from run to run (the client's latency samples).
    extras: dict[str, Any] = field(default_factory=dict)


def _span(tracer: Tracer | None, layer: str, name: str):
    return tracer.span(layer, name) if tracer is not None else nullcontext()


class Workload:
    """Base class; see the module docstring for the phase protocol."""

    name: str
    #: Install the runtime registry in *untraced* rounds too (the observed
    #: workload: probes are part of what the operator turned on).
    uses_registry = False

    def prepare(self, ctx: Ctx) -> None:
        """One-time input generation (counted in ``setup_s``)."""

    def make_oracle(self, ctx: Ctx) -> Any:
        """Reference results for ``verify``, computed once, untimed."""
        return None

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        raise NotImplementedError

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        """Problems with the round's output (empty when correct)."""
        return []

    def traced_extras(self, ctx: Ctx) -> dict[str, float]:
        """Extra per-layer measurements taken once, after the traced round."""
        return {}


def _exceptions(result: Any) -> int:
    """Training crashes the simulator absorbed (drops are part of the scenario)."""
    return sum(1 for record in result.failure_log if record.reason == "exception")


# ------------------------------------------------------- simulated ASHA, 500w


class SimAsha(Workload):
    """ASHA (eta=4, r=R/64) on the PTB-LSTM surrogate, 500 workers.

    The bare search runs for 2 x time(R).  The observed one stops at
    1.25 x time(R) — the same seeded search, event for event, up to that
    point, and still past the first max-resource completion (~1.05) — because
    it costs ~2.8x as much per op and a run has to fit several rounds.
    """

    WORKERS = 500
    #: The statistics ``sim_asha_500w_observed`` must share with the bare run.
    SIM_STATS = (
        "jobs_dispatched", "measurements", "completions", "failures",
        "best_loss", "first_R_sim_time", "elapsed", "utilization",
    )

    def __init__(self, name: str, *, observed: bool, horizon: float) -> None:
        self.name = name
        self.observed = observed
        self.uses_registry = observed
        #: Simulated-time budget in units of time(R).
        self.horizon = horizon

    def make_oracle(self, ctx: Ctx) -> Any:
        if not self.observed:
            return None
        bare = SimAsha("sim_asha_500w", observed=False, horizon=self.horizon)
        return bare.run(ctx, bare.build(ctx, None), None).stats

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        big_r = ptb_lstm.R
        objective = ptb_lstm.make_objective(seed_salt=ctx.seed)
        scheduler = ASHA(
            objective.space,
            np.random.default_rng(ctx.seed),
            min_resource=big_r / 64.0,
            max_resource=big_r,
            eta=4,
        )
        cluster = SimulatedCluster(
            ctx.scaled(self.WORKERS),
            straggler_std=0.2,
            drop_probability=0.002,
            seed=ctx.seed + 10_000,
        )
        if tracer is not None:
            proxies.instrument_objective(tracer, objective)
            proxies.instrument_scheduler(tracer, scheduler)
        state = SimpleNamespace(
            objective=objective, cluster=cluster, runnable=scheduler, hub=None, journal=None
        )
        if self.observed:
            study_cls = proxies.traced_study(tracer) if tracer is not None else Study
            journal_cls = proxies.traced_journal(tracer) if tracer is not None else Journal
            hub_cls = proxies.traced_hub(tracer) if tracer is not None else TelemetryHub
            state.journal = os.path.join(ctx.dir, "study.journal.jsonl")
            state.events = os.path.join(ctx.dir, "events.jsonl")
            state.runnable = study_cls(scheduler, journal=journal_cls(state.journal))
            state.hub = hub_cls.with_metrics(JSONLSink(state.events))
        return state

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        kwargs = dict(
            time_limit=self.horizon * ptb_lstm.R, telemetry=state.hub, trace=self.observed
        )
        if tracer is None:
            result = state.cluster.run(state.runnable, state.objective, **kwargs)
        else:
            result = proxies.run_traced_simulation(
                tracer, state.cluster, state.runnable, state.objective, **kwargs
            )
        first = result.first_completion_time()
        stats = {
            "jobs_dispatched": result.jobs_dispatched,
            "measurements": len(result.measurements),
            "completions": len(result.completions),
            "failures": len(result.failures),
            "best_loss": min(m.loss for m in result.measurements),
            "first_R_sim_time": None if first is None else first / ptb_lstm.R,
            "elapsed": result.elapsed,
            "utilization": result.utilization,
        }
        journals = []
        if self.observed:
            state.hub.close()
            state.runnable.close()
            journals = [state.journal]
            stats["journal_bytes"] = os.path.getsize(state.journal)
            stats["event_bytes"] = os.path.getsize(state.events)
            stats["trace_trials"] = len(result.trace.trials)
        return Outcome(
            ops=result.jobs_dispatched + len(result.measurements),
            failed=_exceptions(result),
            stats=stats,
            journals=journals,
        )

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        if ctx.oracle is None:
            return []
        return [
            f"observed run diverged from the bare run on {key}: "
            f"{outcome.stats[key]!r} != {ctx.oracle[key]!r}"
            for key in self.SIM_STATS
            if outcome.stats[key] != ctx.oracle[key]
        ]


# --------------------------------------------------- Figure 4 method line-up


class Fig4Methods(Workload):
    """``run_methods`` over ASHA/PBT/SHA/BOHB on ``cifar_convnet``, then aggregate."""

    name = "fig4_methods_25w"
    WORKERS = 25
    METHODS = ("ASHA", "PBT", "SHA", "BOHB")

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        spec = sequential_benchmarks(grow_brackets=True)["cifar_convnet"]
        factories = standard_methods(spec.settings, include=self.METHODS)
        make_objective = spec.make_objective
        if tracer is not None:
            factories = {
                name: (
                    lambda objective, rng, factory=factory: proxies.instrument_scheduler(
                        tracer, factory(objective, rng)
                    )
                )
                for name, factory in factories.items()
            }

            def make_objective(seed: int, inner=spec.make_objective):
                return proxies.instrument_objective(tracer, inner(seed))

        return SimpleNamespace(
            factories=factories,
            make_objective=make_objective,
            time_limit=3.75 * spec.settings.max_resource,
        )

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        records = run_methods(
            state.factories,
            state.make_objective,
            num_workers=ctx.scaled(self.WORKERS),
            time_limit=state.time_limit,
            seeds=[ctx.seed],
            straggler_std=0.25,
            n_jobs=1,
            executor=proxies.SpanExecutor(tracer) if tracer is not None else None,
        )
        with _span(tracer, "analysis", "aggregate"):
            curves = aggregate_methods(records, time_limit=state.time_limit, grid_points=48)
        results = {name: runs[0].backend for name, runs in records.items()}
        stats: dict[str, Any] = {
            "best_loss": float(np.mean([curve.final_mean for curve in curves.values()])),
        }
        for name, result in results.items():
            stats[f"{name}.jobs_dispatched"] = result.jobs_dispatched
            stats[f"{name}.measurements"] = len(result.measurements)
            stats[f"{name}.final"] = curves[name].final_mean
        return Outcome(
            ops=sum(r.jobs_dispatched + len(r.measurements) for r in results.values()),
            failed=sum(_exceptions(r) for r in results.values()),
            stats=stats,
        )

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        if not np.isfinite(outcome.stats["best_loss"]):
            return ["a method never reported a finite loss"]
        return []


# ------------------------------------------------- multiplexed durable studies


class MuxDurable(Workload):
    """4000 journaled toy ASHA studies (2 workers, 6 measurements) on one WAL."""

    name = "mux_durable_4k"
    STUDIES = 4000
    STUDY_WORKERS = 2
    MEASUREMENTS = 6
    TIME_LIMIT = 200.0

    @staticmethod
    def _scheduler(seed: int, index: int) -> ASHA:
        return ASHA(
            toy_space(),
            np.random.default_rng(seed * 1_000_003 + index),
            min_resource=1.0,
            max_resource=9.0,
            eta=3,
        )

    def _cluster(self, seed: int, index: int) -> SimulatedCluster:
        return SimulatedCluster(self.STUDY_WORKERS, seed=seed * 1_000_003 + 500_000 + index)

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        count = ctx.scaled(self.STUDIES)
        objective = toy_objective()
        study_cls, journal_cls = Study, Journal
        if tracer is not None:
            proxies.instrument_objective(tracer, objective)
            study_cls = proxies.traced_study(tracer)
            journal_cls = proxies.traced_journal(tracer)
        paths = [os.path.join(ctx.dir, f"study{i}.journal.jsonl") for i in range(count)]
        with _span(tracer, "multiplex", "construct"):
            mux = StudyMultiplexer(
                commit_interval=256, wal_path=os.path.join(ctx.dir, "journals.wal")
            )
            if tracer is not None:
                proxies.instrument_journal_writer(tracer, mux.journal_writer)
            for i, path in enumerate(paths):
                scheduler = self._scheduler(ctx.seed, i)
                if tracer is not None:
                    proxies.instrument_scheduler(tracer, scheduler)
                mux.add(
                    study_cls(scheduler, journal=journal_cls(path, writer=mux.journal_writer)),
                    objective,
                    cluster=self._cluster(ctx.seed, i),
                    time_limit=self.TIME_LIMIT,
                    max_measurements=self.MEASUREMENTS,
                )
        return SimpleNamespace(mux=mux, paths=paths)

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        with _span(tracer, "multiplex", "self"):
            results = state.mux.run()
        return Outcome(
            ops=sum(r.jobs_dispatched + len(r.measurements) for r in results),
            failed=sum(_exceptions(r) for r in results),
            stats={
                "ticks": results.ticks,
                "commits": results.journal_commits,
                "journal_bytes": sum(os.path.getsize(path) for path in state.paths),
                "best_loss": min(m.loss for r in results for m in r.measurements),
            },
            journals=state.paths,
        )

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        """Three sampled journals must be byte-equal to solo runs of the same studies."""
        problems = []
        objective = toy_objective()
        count = len(state.paths)
        for index in sorted({0, count // 2, count - 1}):
            solo_path = os.path.join(ctx.dir, f"solo{index}.journal.jsonl")
            study = Study(self._scheduler(ctx.seed, index), journal=solo_path)
            self._cluster(ctx.seed, index).run(
                study,
                objective,
                time_limit=self.TIME_LIMIT,
                max_measurements=self.MEASUREMENTS,
            )
            study.close()
            with open(solo_path, "rb") as solo, open(state.paths[index], "rb") as hosted:
                if solo.read() != hosted.read():
                    problems.append(f"study {index}: multiplexed journal differs from its solo run")
        return problems


# ------------------------------------------------------ the ask/tell client


def _asktell_scheduler(seed: int) -> ASHA:
    big_r = ptb_lstm.R
    return ASHA(
        ptb_lstm.space(),
        np.random.default_rng(seed),
        min_resource=big_r / 64.0,
        max_resource=big_r,
        eta=4,
    )


def drive_client(
    study: Study, seed: int, tells: int, *, window: int = 64, loss_fn=seeded_uniform
) -> SimpleNamespace:
    """One closed-loop client: keep ``window`` jobs in flight, tell the oldest.

    ``Study.ask`` / ``Study.tell`` are called one at a time.  The loss is a
    free synthetic draw (``seeded_uniform`` of the job id — the zero-cost
    objective), so what is left is scheduler + study + journal.  Every call
    is timed from the client's side; an ask or tell that raises is counted
    as failed and the loop carries on.
    """
    in_flight: deque = deque()
    # Packed doubles, not lists of float objects: the samples of every round
    # stay alive until the run ends, and a heap that grows by 200k objects a
    # round makes each round slower than the one before.
    ask_latency = array("d")
    tell_latency = array("d")
    asks = told = failed = 0
    clock = perf_counter
    started = clock()
    while told < tells:
        while len(in_flight) < window:
            before = clock()
            try:
                job = study.ask()
            except Exception:  # noqa: BLE001 — counted, reported, run fails
                failed += 1
                job = None
            ask_latency.append(clock() - before)
            if job is None:
                break
            asks += 1
            in_flight.append(job)
        if not in_flight:
            break
        job = in_flight.popleft()
        loss = loss_fn(seed, job.job_id)
        before = clock()
        try:
            study.tell(job, loss)
        except Exception:  # noqa: BLE001
            failed += 1
        tell_latency.append(clock() - before)
        told += 1
    return SimpleNamespace(
        seconds=clock() - started,
        asks=asks,
        told=told,
        failed=failed,
        in_flight=[job.job_id for job in in_flight],
        ask_latency=ask_latency,
        tell_latency=tell_latency,
    )


class AskTellJournal(Workload):
    """50k tells through ``Study.ask``/``tell`` on an immediate-mode journal."""

    name = "asktell_journal"
    TELLS = 50_000

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        scheduler = _asktell_scheduler(ctx.seed)
        study_cls, journal_cls = Study, Journal
        if tracer is not None:
            proxies.instrument_scheduler(tracer, scheduler)
            study_cls = proxies.traced_study(tracer)
            journal_cls = proxies.traced_journal(tracer)
        path = os.path.join(ctx.dir, "client.journal.jsonl")
        return SimpleNamespace(study=study_cls(scheduler, journal=journal_cls(path)), path=path)

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        loss_fn = seeded_uniform
        if tracer is not None:
            loss_fn = proxies.instrument_loss(tracer, seeded_uniform)
        client = drive_client(state.study, ctx.seed, ctx.scaled(self.TELLS), loss_fn=loss_fn)
        state.study.finalize()
        state.study.close()
        return Outcome(
            ops=client.asks + client.told,
            failed=client.failed,
            stats={
                "asks": client.asks,
                "tells": client.told,
                "in_flight": client.in_flight,
                "journal_bytes": os.path.getsize(state.path),
                "num_trials": state.study.num_trials,
            },
            seconds=client.seconds,
            journals=[state.path],
            extras={"ask_latency": client.ask_latency, "tell_latency": client.tell_latency},
        )

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        with open(state.path, "rb") as fh:
            lines = fh.read().count(b"\n")
        expected = 1 + outcome.stats["asks"] + outcome.stats["tells"]
        if lines != expected:
            return [f"journal holds {lines} records, expected {expected} (header + asks + tells)"]
        return []


class JournalResume(Workload):
    """Restore-mode ``Study.resume`` of the journal a 20k-tell client wrote.

    Smaller than the live client's 50k tells on purpose: a restore builds
    the whole journal in memory at once, which makes a 100k-record round
    both long (four rounds a run) and the most sensitive to a noisy
    neighbour; at 40k records a run fits ten rounds and the fastest of them
    repeats within a few percent.
    """

    name = "journal_resume"
    TELLS = 20_000

    def prepare(self, ctx: Ctx) -> None:
        path = os.path.join(ctx.workdir, "resume.journal.jsonl")
        study = Study(_asktell_scheduler(ctx.seed), journal=path)
        client = drive_client(study, ctx.seed, ctx.scaled(self.TELLS))
        study.finalize()
        study.close()
        ctx.prepared = SimpleNamespace(
            path=path,
            live=study.scheduler,
            in_flight=client.in_flight,
            records=client.asks + client.told,
            write_failed=client.failed,
        )

    def make_oracle(self, ctx: Ctx) -> Any:
        """The live scheduler's state, as one string.

        A string is a single untracked object: keeping the state *dict* (or
        the live scheduler) alive would put ~300k extra objects under every
        full garbage collection of the timed resume, and it is the restarted
        process — whose heap holds only the study — that is being modelled.
        """
        state = json.dumps(ctx.prepared.live.state_dict(), sort_keys=True)
        ctx.prepared.live = None
        return state

    def build(self, ctx: Ctx, tracer: Tracer | None) -> Any:
        scheduler = _asktell_scheduler(ctx.seed)
        study_cls = Study
        if tracer is not None:
            proxies.instrument_scheduler(tracer, scheduler)
            study_cls = proxies.traced_study(tracer)
        return SimpleNamespace(scheduler=scheduler, study_cls=study_cls)

    def run(self, ctx: Ctx, state: Any, tracer: Tracer | None) -> Outcome:
        prepared = ctx.prepared
        failed = prepared.write_failed
        with _span(tracer, "study", "resume_read"):
            try:
                state.study = state.study_cls.resume(
                    prepared.path, scheduler=state.scheduler, mode="restore"
                )
            except Exception:  # noqa: BLE001 — every record of the round counts as failed
                state.study = None
                failed += prepared.records
        restored = state.study
        orphaned = None if restored is None else [job.job_id for job in restored.orphaned_jobs]
        return Outcome(
            ops=prepared.records,
            failed=failed,
            stats={
                "records": prepared.records,
                "orphaned": orphaned,
                "num_trials": None if restored is None else restored.num_trials,
                "journal_bytes": os.path.getsize(prepared.path),
            },
            journals=[prepared.path],
        )

    def verify(self, ctx: Ctx, state: Any, outcome: Outcome) -> list[str]:
        if state.study is None:
            return ["Study.resume raised"]
        problems = []
        if outcome.stats["orphaned"] != ctx.prepared.in_flight:
            problems.append("orphaned jobs differ from the jobs asked but never told")
        if json.dumps(state.study.scheduler.state_dict(), sort_keys=True) != ctx.oracle:
            problems.append("restored scheduler state differs from the live scheduler's")
        state.study.close()
        return problems

    def traced_extras(self, ctx: Ctx) -> dict[str, float]:
        """Replay-mode re-verification: re-run the client against the cursor."""
        prepared = ctx.prepared
        study = Study.resume(prepared.path, scheduler=_asktell_scheduler(ctx.seed), mode="replay")
        client = drive_client(study, ctx.seed, ctx.scaled(self.TELLS))
        still_replaying = study.replaying
        study.close()
        if client.failed or still_replaying:
            raise RuntimeError("replay-mode resume diverged from the journal it replayed")
        return {"study.replay_records_per_s": prepared.records / client.seconds}


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SimAsha("sim_asha_500w", observed=False, horizon=2.0),
        SimAsha("sim_asha_500w_observed", observed=True, horizon=1.25),
        Fig4Methods(),
        MuxDurable(),
        AskTellJournal(),
        JournalResume(),
    )
}
