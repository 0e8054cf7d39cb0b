"""What a backend run returns: the result record and its failure records.

Every backend produces a :class:`BackendResult` — the chronological stream
of measurements plus bookkeeping the analysis layer needs (completions at
the maximum resource for Appendix A.1, worker utilisation for the wall-clock
claims of Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.types import Measurement
from ..telemetry import MetricsReport
from ..telemetry.tracing import Trace

__all__ = ["BackendResult", "FailureRecord"]


@dataclass(frozen=True)
class FailureRecord:
    """One failed job attempt, with everything the fault layer knew about it.

    ``action`` is what happened next: ``"retried"`` (the job was re-queued
    under a retry policy), ``"abandoned"`` (the trial's retry budget ran out
    and it was quarantined), or ``"forfeited"`` (no policy — the legacy
    hand-it-to-the-scheduler path).  ``error`` carries ``repr(exc)`` for
    crashes and ``None`` for drops/churn/timeouts.
    """

    time: float
    trial_id: int
    job_id: int
    reason: str
    action: str
    attempt: int = 1
    error: str | None = None
    #: Backend time the failed attempt burned (what the failure wasted).
    lost: float = 0.0


@dataclass
class BackendResult:
    """Everything observed while a backend drove one search."""

    measurements: list[Measurement] = field(default_factory=list)
    #: (time, trial_id) for every job finishing at resource >= max_resource.
    completions: list[tuple[float, int]] = field(default_factory=list)
    #: One record per failed attempt, in order: the run's one failure account.
    failure_log: list[FailureRecord] = field(default_factory=list)
    #: completed-bracket counter snapshots, parallel to ``measurements``
    #: (None for schedulers without the notion) — Appendix A.2 accounting.
    bracket_snapshots: list[int | None] = field(default_factory=list)
    #: Final backend clock.
    elapsed: float = 0.0
    #: Total busy worker-time divided by (workers x elapsed).
    utilization: float = 0.0
    #: Jobs dispatched (including dropped ones).
    jobs_dispatched: int = 0
    #: End-of-run metrics snapshot when the run had a telemetry hub with a
    #: :class:`~repro.telemetry.MetricsCollector` attached; ``None`` otherwise.
    telemetry: MetricsReport | None = None
    #: Reconstructed span/timeline trace when the run was started with
    #: ``trace=True`` (see :mod:`repro.telemetry.tracing`); ``None`` otherwise.
    trace: Trace | None = None

    @property
    def failures(self) -> list[tuple[float, int]]:
        """(time, trial_id) for every dropped/failed job."""
        return [(record.time, record.trial_id) for record in self.failure_log]

    @property
    def jobs_retried(self) -> int:
        """Re-dispatches granted by the run's retry policy (0 without one)."""
        return sum(1 for record in self.failure_log if record.action == "retried")

    @property
    def trials_abandoned(self) -> int:
        """Trials quarantined after exhausting their retry budget."""
        return sum(1 for record in self.failure_log if record.action == "abandoned")

    @property
    def time_lost_to_failures(self) -> float:
        """Backend time spent on attempts that ultimately failed."""
        lost = 0.0
        for record in self.failure_log:  # in order: ``sum`` rounds differently on 3.12
            lost += record.lost
        return lost

    def first_completion_time(self) -> float | None:
        """Clock time of the first job finishing at the max resource."""
        return self.completions[0][0] if self.completions else None

    def num_completions(self, by_time: float | None = None) -> int:
        """How many max-resource completions happened by ``by_time``."""
        if by_time is None:
            return len(self.completions)
        return sum(1 for t, _ in self.completions if t <= by_time)
