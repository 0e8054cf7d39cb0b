"""StudyMultiplexer: thousands of concurrent studies in one driver loop.

The paper's system is a *service*: many users' tuning workloads share one
deployment, and per-study overhead is what caps how many studies a single
process can host.  PR 7/8 built the per-study substrate (journal-backed
ask/tell :class:`~repro.study.Study`, the calendar-queue
:class:`~repro.backend.events.EventQueue`); the multiplexer amortises the
remaining O(studies) costs across one shared loop:

* **one simulated clock** — every study's events land on one shared
  calendar queue, tagged with their owning run, and a single event loop
  (:func:`repro.backend.simulation.drive_runs`) delivers them in global
  time order;
* **cross-study dispatch** — free worker capacity is filled by
  round-robin asks across ready studies, with a per-round ``fair_share``
  cap so one hot study cannot starve the rest;
* **group-commit journaling** — all study journals share one
  :class:`~repro.study.journal.JournalWriter`; appends buffer per study
  and flush in one sweep every ``commit_interval`` ticks instead of one
  write+flush per append per study (and no fd is held per journal, so
  study count is not bounded by the process fd limit).

The invariant everything hangs on: **a study multiplexed with ten
thousand others behaves byte-for-byte as if it ran alone** — same journal
bytes, same :class:`~repro.backend.trial_runner.BackendResult` records,
same telemetry stream.  Studies share no mutable state (each keeps its own
cluster physics RNG, worker pool, and checkpoint store); the shared queue's
(time, seq) FIFO tie-break preserves each study's private event order; and
cross-study interleaving only happens *between* events, at identical
simulated instants, where no study can observe it.  ``tests/study/
test_multiplex.py`` pins this against solo runs.

See ``docs/service.md`` for the architecture tour and the path from this
in-process multiplexer to the ask/tell daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..telemetry import runtime
from .journal import JournalWriter

if TYPE_CHECKING:  # imported lazily at runtime: backend.simulation imports study
    from ..backend.simulation import SimRun, SimulatedCluster
    from ..backend.trial_runner import BackendResult

__all__ = ["MultiplexResult", "StudyMultiplexer"]


@dataclass
class MultiplexResult:
    """Per-study results plus the shared-loop counters.

    Indexing, iteration and ``len`` delegate to ``results`` (one
    :class:`~repro.backend.trial_runner.BackendResult` per added study, in
    add order), so existing single-study result-handling code ports over
    unchanged.
    """

    results: "list[BackendResult]" = field(default_factory=list)
    #: Events delivered by the shared loop.
    ticks: int = 0
    #: Group-commit sweeps performed by the shared journal writer.
    journal_commits: int = 0

    def __iter__(self) -> "Iterator[BackendResult]":
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> "BackendResult":
        return self.results[index]


class StudyMultiplexer:
    """Drive N studies from a single loop over shared machinery.

    Parameters
    ----------
    fair_share:
        Maximum jobs one study dispatches per fill round before every
        other study waiting for workers gets a turn (``None`` — no cap,
        each study fills all its free workers at once; the fairness
        difference is only *within* one simulated instant, so results are
        unaffected either way — this knob matters for latency fairness
        once asks carry real cost, e.g. expensive search strategies).
    commit_interval:
        Loop ticks (delivered events) between group-commit sweeps of the
        shared :class:`~repro.study.journal.JournalWriter`.  1 commits
        every tick (tightest durability window); larger values coalesce
        more appends per file open.  Journals are always committed and
        fsynced at the end of the run regardless.
    wal_path:
        Optional shared write-ahead log.  When set, every commit sweep
        makes its window *crash-durable* with one fsync of this single
        file (database-style group commit) instead of relying on page
        cache, and the per-journal files become replayable caches —
        :func:`repro.study.journal.read_wal` rebuilds them after a crash.
        This is the knob that makes durable journaling affordable at
        thousands of studies; without it, durability is end-of-run only
        (per-journal fsync at finalize), exactly as in a solo run.
    scraper:
        Optional :class:`~repro.telemetry.runtime.RuntimeScraper`: its
        ``on_tick`` rides the shared loop, appending periodic registry
        snapshots to JSONL on the simulated clock.  The multiplexer calls
        ``scraper.close()`` (which writes a final snapshot) when the run
        finishes.  Install the runtime registry *before* constructing the
        multiplexer and its studies so their probes resolve.

    Usage::

        mux = StudyMultiplexer()
        for seed in range(10_000):
            scheduler = make_scheduler(seed)
            study = Study(scheduler, journal=Journal(path(seed), writer=mux.journal_writer))
            mux.add(study, objective, cluster=SimulatedCluster(4, seed=seed),
                    time_limit=100.0)
        results = mux.run()

    Each study needs its *own* cluster instance — the cluster holds the
    failure-physics RNG, and sharing one would entangle the studies' draw
    sequences (breaking solo byte-identity).  ``add`` enforces this.
    """

    def __init__(
        self,
        *,
        fair_share: int | None = None,
        commit_interval: int = 64,
        wal_path: "str | None" = None,
        scraper=None,
    ):
        if fair_share is not None and fair_share < 1:
            raise ValueError(f"fair_share must be >= 1, got {fair_share}")
        if commit_interval < 1:
            raise ValueError(f"commit_interval must be >= 1, got {commit_interval}")
        self.fair_share = fair_share
        self.commit_interval = commit_interval
        self.scraper = scraper
        #: Shared group-commit coordinator; pass as ``Journal(..., writer=...)``
        #: when building the studies' journals.
        self.journal_writer = JournalWriter(wal_path=wal_path)
        self._runs: "list[SimRun]" = []
        self._clusters: set[int] = set()
        self._queue = None
        self._ran = False
        #: Shared-clock tick count, boxed so each ``SimRun`` can stamp its
        #: ``last_dispatch_tick`` from it (the starvation-age gauges).
        self._tick_box = [0]

    def __len__(self) -> int:
        return len(self._runs)

    @property
    def studies(self) -> list[Any]:
        """The added studies, in add order."""
        return [run.study for run in self._runs]

    def add(
        self,
        scheduler,
        objective,
        *,
        cluster: "SimulatedCluster",
        time_limit: float,
        max_resource: float | None = None,
        max_measurements: int | None = None,
        stop_on_first_completion: bool = False,
        telemetry=None,
        retry_policy=None,
        trace: bool = False,
    ) -> None:
        """Register one study; arguments mirror :meth:`SimulatedCluster.run`.

        ``scheduler`` may be a bare scheduler or a (possibly journal-backed,
        possibly resume-armed) :class:`~repro.study.Study`, exactly as with
        a solo run.
        """
        from ..backend.events import EventQueue
        from ..backend.simulation import SimRun

        if self._ran:
            raise RuntimeError("StudyMultiplexer.run() already called")
        if id(cluster) in self._clusters:
            raise ValueError(
                "each study needs its own SimulatedCluster instance: sharing one "
                "would entangle the studies' failure-physics RNG draws"
            )
        self._clusters.add(id(cluster))
        if self._queue is None:
            self._queue = EventQueue()
        self._runs.append(
            SimRun(
                cluster,
                scheduler,
                objective,
                queue=self._queue,
                time_limit=time_limit,
                max_resource=max_resource,
                max_measurements=max_measurements,
                stop_on_first_completion=stop_on_first_completion,
                telemetry=telemetry,
                retry_policy=retry_policy,
                trace=trace,
                fill_cap=self.fair_share,
            )
        )

    def run(self) -> MultiplexResult:
        """Drive every added study to completion over the shared clock.

        Single-use: the studies' event state is consumed by the run.
        Returns per-study results in add order.
        """
        from ..backend.simulation import drive_runs

        if self._ran:
            raise RuntimeError("StudyMultiplexer.run() already called")
        if not self._runs:
            raise ValueError("no studies added")
        self._ran = True
        out = MultiplexResult()
        writer = self.journal_writer
        interval = self.commit_interval
        pending = 0
        tick_box = self._tick_box
        scraper = self.scraper
        probes = runtime.probes("mux")
        if probes is not None:
            runtime.watch(self, runtime.collect_mux)
            for run in self._runs:
                run.obs = probes
                run.tick_box = tick_box

        def on_tick() -> None:
            nonlocal pending
            tick_box[0] += 1
            if probes is not None:
                probes.ticks.inc()
            pending += 1
            if pending >= interval:
                pending = 0
                writer.commit()
            if scraper is not None:
                scraper.on_tick()

        try:
            drive_runs(self._queue, self._runs, on_tick=on_tick)
        finally:
            for run in self._runs:
                # Commits any buffered journal tail and fsyncs (via
                # Study.finalize -> Journal.finalize) after tearing down the
                # run's training pool, if it has one.
                run.close()
            if writer.wal_path is not None:
                # WAL mode defers every journal's tail to here: one final
                # group commit (one fsync total) covers them all.
                writer.finalize_all()
            if scraper is not None:
                scraper.close()
        out.results = [run.finish() for run in self._runs]
        out.ticks = tick_box[0]
        out.journal_commits = writer.commits
        return out
