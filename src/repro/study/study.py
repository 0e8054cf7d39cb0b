"""Study: the ask/tell core every backend drives, with a crash-safe journal.

A :class:`Study` owns a scheduler (its searcher, RNG, and trial table
included) and exposes the handful of interactions a backend needs — ``ask``
for the next job, ``tell`` for a finished one, and the three fault hooks —
while appending one typed record per interaction to a JSONL
:class:`~repro.study.journal.Journal`.  The ``tell`` append happens
*before* the scheduler sees the loss (write-ahead), so a crash can lose
work, but never a recorded result.

Two resume modes exist because the two kinds of backend differ in what can
be re-executed:

* ``mode="replay"`` (simulated clock: :class:`~repro.backend.SimulatedCluster`
  and :class:`~repro.backend.ProcessPoolBackend`) re-runs the experiment
  from t=0 against a freshly constructed scheduler/cluster/objective and
  *verifies* every interaction against the journal instead of re-appending
  it.  Training whose loss the journal already holds is skipped (the
  backends consult :meth:`cached_loss` / :meth:`has_cached_loss`), and once
  the cursor is exhausted the run continues live, appending to the same
  file — the resumed journal, telemetry stream, and trace are
  byte-identical to an uninterrupted run's.
* ``mode="restore"`` (wall-clock :class:`~repro.backend.ThreadPoolBackend`,
  whose timings cannot be reproduced) eagerly drives the scheduler through
  the journalled interactions once; jobs that were asked but never resolved
  are handed out again by the next :meth:`ask` calls.
"""

from __future__ import annotations

import json
import os
from collections import deque
from time import perf_counter
from typing import Any, Iterable, Iterator

from ..core.scheduler import Scheduler
from ..core.serialization import config_state
from ..core.types import Job, Trial
from ..searchers.base import Searcher
from ..telemetry import runtime
from .journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    JournalWriter,
    _JournalScan,
    encode_record,
)
from .spec import scheduler_from_spec

__all__ = ["JournalReplayError", "Study"]


class JournalReplayError(JournalError):
    """Replay diverged from the journal (wrong scheduler, seed, or scenario)."""


class Study:
    """Ask/tell facade over a scheduler, with an optional write-ahead journal.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.core.Scheduler` (wrappers like
        :class:`~repro.core.ContractChecker` included).
    journal:
        ``None`` (no journaling), a path (a fresh :class:`Journal` is
        created there), or an already-open :class:`Journal`.
    spec:
        Header recipe recorded when ``journal`` is a path — see
        :func:`repro.study.spec.build_spec`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        journal: Journal | str | os.PathLike[str] | None = None,
        spec: dict[str, Any] | None = None,
    ):
        self.scheduler = scheduler
        self.paused = False
        if journal is None or isinstance(journal, Journal):
            self.journal = journal
        else:
            self.journal = Journal(journal, spec=spec)
        # Replay cursor: the journal lines still to be verified (decoded again
        # only when a verification misses), each record's ``(job_id, loss)``
        # key (``loss`` None unless a tell), and job_id -> loss of every tell
        # not yet consumed (a dict: an empty set is 152 bytes more a study).
        self._cursor_lines: list[str] = []
        self._cursor_keys: list[tuple[Any, float | None]] = []
        self._cursor_pos = 0
        self._replay_tells: dict[Any, float] = {}
        # Restore-mode asks the crash left unresolved; re-dispatched by
        # ask() in journal order.  A deque: a restore can leave hundreds of
        # in-flight asks, and list.pop(0) made re-dispatch quadratic.  None
        # until a restore leaves some (an empty deque is 760 bytes a study).
        self._orphaned: deque[Job] | None = None
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        self._probes = runtime.probes("study")

    # ------------------------------------------------------------- ask/tell

    def ask(self) -> Job | None:
        """The next job to run, or ``None`` (paused, rung barrier, or done).

        Every job handed out is journalled as an ``ask`` record; a ``None``
        is not an event and never journalled.
        """
        if self.paused:
            return None
        if self._orphaned:
            # Restore mode: the crash left this job in flight.  Its ask
            # record is already on disk, so hand it out without journaling.
            job = self._orphaned.popleft()
        else:
            job = self.scheduler.next_job()
            if job is None:
                return None
            if self.journal is not None or self._cursor_pos < len(self._cursor_keys):
                # Unjournalled live studies skip building the record outright:
                # the config round-trip through canonical JSON dominated the
                # simulator's ask cost and the dict was thrown away unseen.
                self._record(self._ask_record(job))
        if self._probes is not None:
            # Counter.inc() written out, here and in tell(): on a ~10 us
            # ask/tell the Python-level call alone is ~1% of the operation,
            # a third of the observability_overhead budget.
            self._probes.asks.value += 1.0
        return job

    def ask_batch(self, k: int) -> list[Job]:
        """Up to ``k`` jobs: :meth:`ask` ``k`` times, trailing ``None`` dropped.

        Short means blocked/paused/done.  Same jobs, RNG draws and journal
        bytes as the single calls it is made of.
        """
        jobs: list[Job] = []
        for _ in range(k):
            job = self.ask()
            if job is None:
                break
            jobs.append(job)
        return jobs

    def _ask_record(self, job: Job) -> dict[str, Any]:
        return {
            "kind": "ask",
            "job_id": job.job_id,
            "trial_id": job.trial_id,
            "config": config_state(job.config),
            "resource": job.resource,
            "checkpoint_resource": job.checkpoint_resource,
            "rung": job.rung,
            "bracket": job.bracket,
            "inherit_from": job.inherit_from,
        }

    def tell(self, job: Job, loss: float, *, time: float = 0.0) -> None:
        """Report a finished job's loss.

        The journal append precedes ``scheduler.report`` (write-ahead): a
        crash between the two re-applies the tell on resume instead of
        losing it.
        """
        probes = self._probes
        # Latency is sampled — one tell in eight, keyed by job id so it is
        # stateless and seeded runs time the same tells: the two clock reads
        # are the costliest part of the probes, and every tell is one call.
        timed = probes is not None and not job.job_id & 7
        started = perf_counter() if timed else 0.0
        if self.journal is not None or self._cursor_pos < len(self._cursor_keys):
            self._record(self._tell_record(job, loss, time))
        self.scheduler.report(job, loss)
        if probes is not None:
            probes.tells.value += 1.0
            if timed:
                probes.tell_seconds.observe(perf_counter() - started)

    def tell_batch(
        self, results: Iterable[tuple[Job, float]], *, time: float = 0.0
    ) -> None:
        """Report finished jobs' losses in order: :meth:`tell` per pair.

        Write-ahead holds per result — each record lands before its loss
        reaches the scheduler — so a crash mid-batch re-applies exactly the
        journalled tells on resume.
        """
        for job, loss in results:
            self.tell(job, loss, time=time)

    def _tell_record(self, job: Job, loss: float, time: float) -> dict[str, Any]:
        return {
            "kind": "tell",
            "job_id": job.job_id,
            "trial_id": job.trial_id,
            "loss": loss,
            "resource": job.resource,
            "time": time,
        }

    def on_job_failed(self, job: Job) -> None:
        """A job crashed with no retry policy — the attempt is forfeited."""
        self._record({"kind": "fail", "job_id": job.job_id, "trial_id": job.trial_id})
        self.scheduler.on_job_failed(job)

    def on_job_requeued(self, job: Job) -> None:
        """A failed job will be re-dispatched verbatim after backoff."""
        self._record({"kind": "requeue", "job_id": job.job_id, "trial_id": job.trial_id})
        self.scheduler.on_job_requeued(job)

    def on_trial_abandoned(self, job: Job) -> None:
        """A trial exhausted its retry budget and is quarantined."""
        self._record({"kind": "abandon", "job_id": job.job_id, "trial_id": job.trial_id})
        self.scheduler.on_trial_abandoned(job)

    def _record(self, record: dict[str, Any]) -> None:
        """Verify against the replay cursor, or append live."""
        if self._cursor_pos < len(self._cursor_keys):
            line = encode_record(record)
            if line != self._cursor_lines[self._cursor_pos]:
                # Not the bytes on disk: a hand-edited journal may still
                # hold the same record in another spelling.
                expected = encode_record(json.loads(self._cursor_lines[self._cursor_pos]))
                if line != expected:
                    raise JournalReplayError(
                        f"replay diverged at journal line {self._cursor_pos + 2}: "
                        f"journal has {expected}, re-execution produced {line}; "
                        "was the study reconstructed with the same scheduler, "
                        "seed, and backend scenario?"
                    )
            self._cursor_pos += 1
            if record["kind"] == "tell":
                self._replay_tells.pop(record["job_id"], None)
            return
        if self.journal is not None:
            self.journal.append(record)

    # --------------------------------------------------------- replay peeks

    @property
    def replaying(self) -> bool:
        """Whether a resume cursor is still verifying against the journal."""
        return self._cursor_pos < len(self._cursor_keys)

    def cached_loss(self, job: Job) -> float | None:
        """The journalled loss for ``job`` iff its tell is the next record.

        Backends call this when a job completes during replay: a hit means
        training can be skipped outright and the recorded loss reported.
        """
        if self._cursor_pos < len(self._cursor_keys):
            job_id, loss = self._cursor_keys[self._cursor_pos]
            if loss is not None and job_id == job.job_id:
                return loss
        return None

    def has_cached_loss(self, job_id: int) -> bool:
        """Whether the journal still holds a result for this job (peek-ahead).

        Used at *dispatch* time: a job whose result is anywhere later in
        the journal need not be trained speculatively.
        """
        return job_id in self._replay_tells

    # ------------------------------------------------------ snapshot/resume

    def snapshot(self) -> dict[str, Any]:
        """Deterministically serializable study state (JSON-compatible)."""
        return {
            "version": JOURNAL_VERSION,
            "scheduler": self.scheduler.state_dict(),
            "paused": self.paused,
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict[str, Any],
        *,
        scheduler: Scheduler,
        journal: Journal | str | os.PathLike[str] | None = None,
        spec: dict[str, Any] | None = None,
    ) -> Study:
        """Rebuild a study from :meth:`snapshot` onto a same-shape scheduler."""
        scheduler.load_state(snapshot["scheduler"])
        study = cls(scheduler, journal=journal, spec=spec)
        study.paused = bool(snapshot.get("paused", False))
        return study

    @classmethod
    def resume(
        cls,
        journal_path: str | os.PathLike[str],
        *,
        scheduler: Scheduler | None = None,
        mode: str = "replay",
        journal_writer: JournalWriter | None = None,
    ) -> Study:
        """Reopen a journal and bring a scheduler back to its recorded state.

        The file is read once and decoded a record at a time; neither mode
        holds the decoded records.  ``scheduler=None`` rebuilds the scheduler
        from the header's recipe, present whenever the study was built from
        registered names.  A file with no complete record (the process died
        before the header landed) resumes as an empty study on a fresh
        journal, which needs the scheduler passed in.

        ``mode="replay"`` keeps each record's line and ``(job_id, loss)``
        key as the verification cursor; hand the study to the same simulated
        backend and the run re-executes, skipping journalled training.
        ``mode="restore"`` drives the scheduler with each record as it is
        decoded (for the wall-clock thread backend, which cannot replay).

        The journal is opened (its torn tail healed, ``journal_writer``
        registered) only after the last record: a resume that raises opens
        nothing and leaves the file alone, though a scheduler passed in is
        left driven up to the line the :class:`JournalError` names.

        ``journal_writer`` switches the reopened journal into group-commit
        mode (see :class:`~repro.study.journal.JournalWriter`), so a crashed
        study can resume *inside* a :class:`~repro.study.StudyMultiplexer`.
        """
        if mode not in ("replay", "restore"):
            raise ValueError(f"mode must be 'replay' or 'restore', got {mode!r}")
        path = os.fspath(journal_path)
        lines: list[str] | None = [] if mode == "replay" else None
        scan = _JournalScan(path, lines)
        records = iter(scan)
        header = next(records, None)
        if header is not None:
            if header.get("kind") != "journal_header":
                raise JournalError(f"{path}: missing journal header")
            if header.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"{path}: journal version {header.get('version')!r} "
                    f"not supported (expected {JOURNAL_VERSION})"
                )
        if scheduler is None:
            if header is None or header.get("spec") is None:
                what = "no journal header" if header is None else "no recipe in the journal header"
                raise JournalError(f"{path}: {what}; pass the reconstructed scheduler explicitly")
            scheduler = scheduler_from_spec(header["spec"])
        study = cls(scheduler)
        if lines is None:
            study._restore(records)
        else:
            keys = [
                (r.get("job_id"), float(r["loss"]) if r.get("kind") == "tell" else None)
                for r in records
            ]
            del lines[:1]  # the header's
            study._cursor_lines, study._cursor_keys = lines, keys
            study._replay_tells = {job_id: loss for job_id, loss in keys if loss is not None}
        # Healed from the drained scan's verdict, not a second read.
        study.journal = Journal(
            path, mode="a", writer=journal_writer, _scanned=(scan.valid, scan.terminated)
        )
        return study

    def _restore(self, body: Iterator[dict[str, Any]]) -> None:
        """Re-drive the scheduler through ``body``, the records after the header."""
        outstanding: dict[int, Job] = {}

        def resolve(record: dict[str, Any], line: int, *, keep: bool = False) -> Job:
            job = (outstanding.get if keep else outstanding.pop)(record["job_id"], None)
            if job is None:
                raise JournalReplayError(
                    f"restore diverged at journal line {line}: "
                    f"{record['kind']} for job {record['job_id']} which is not in flight"
                )
            return job

        for line, record in enumerate(body, start=2):
            kind = record.get("kind")
            if kind == "ask":
                job = self.scheduler.next_job()
                if job is None or job.job_id != record["job_id"]:
                    produced = "nothing" if job is None else f"job {job.job_id}"
                    raise JournalReplayError(
                        f"restore diverged at journal line {line}: journal asked "
                        f"job {record['job_id']}, scheduler produced {produced}"
                    )
                outstanding[job.job_id] = job
            elif kind == "tell":
                self.scheduler.report(resolve(record, line), float(record["loss"]))
            elif kind == "fail":
                self.scheduler.on_job_failed(resolve(record, line))
            elif kind == "requeue":
                self.scheduler.on_job_requeued(resolve(record, line, keep=True))
            elif kind == "abandon":
                self.scheduler.on_trial_abandoned(resolve(record, line))
            else:
                raise JournalError(f"unknown journal record kind {kind!r} on line {line}")
        self._orphaned = deque(outstanding.values()) if outstanding else None

    @property
    def orphaned_jobs(self) -> list[Job]:
        """Restore-mode jobs asked before the crash but never resolved."""
        return list(self._orphaned or ())

    # ------------------------------------------------------------ lifecycle

    def pause(self) -> None:
        """Stop handing out jobs; in-flight results are still accepted."""
        self.paused = True

    def unpause(self) -> None:
        """Resume handing out jobs."""
        self.paused = False

    def finalize(self) -> None:
        """Make the journal durable (flush + fsync); call at end of run."""
        if self.journal is not None:
            self.journal.finalize()

    def close(self) -> None:
        """Close the journal file (the study itself stays usable unjournalled)."""
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # ---------------------------------------------------------- passthrough

    def is_done(self) -> bool:
        """Whether the scheduler will never produce another job."""
        return self.scheduler.is_done()

    @property
    def telemetry(self):
        return self.scheduler.telemetry

    def attach_telemetry(self, hub) -> Study:
        """Forward the hub to the scheduler (events come from it)."""
        self.scheduler.attach_telemetry(hub)
        return self

    @property
    def searcher(self) -> Searcher | None:
        return self.scheduler.searcher

    @property
    def space(self):
        return self.scheduler.space

    @property
    def rng(self):
        return self.scheduler.rng

    @property
    def trials(self) -> dict[int, Trial]:
        return self.scheduler.trials

    @property
    def num_trials(self) -> int:
        return self.scheduler.num_trials

    def best_trial(self) -> Trial | None:
        return self.scheduler.best_trial()

    def __repr__(self) -> str:
        journal = self.journal.path if self.journal is not None else None
        return (
            f"Study({type(self.scheduler).__name__}, journal={journal!r}, "
            f"trials={self.num_trials})"
        )
