#!/usr/bin/env python
"""Torn-tail recovery at size (used by the CI ``crash-resume`` job).

One closed-loop client (64 jobs in flight, losses fixed by job id) writes a
journal of ``--records`` records; a crash is then faked at the worst spot
for the reader — the next append half written, no newline.  The journal is
resumed in both modes and the check passes iff, each time,

* the healed file is byte-identical to the journal before the tear, and
* the resumed scheduler's ``state_dict()`` equals the live scheduler's
  (restore: straight after ``Study.resume``; replay: after the client has
  been re-run against the cursor until it is exhausted).

A third resume runs in a fresh interpreter, restore mode, timed from
process start to exit: the restart an operator sees is import + resume, and
the in-process numbers leave the import out.  The child reports its own
import/resume split and its peak RSS after each, and must heal the file
to the same bytes.

All wall times and the restart's peak RSS are printed, and appended as a
markdown table to ``--summary`` (CI passes ``$GITHUB_STEP_SUMMARY``).  The
RSS is informational; ``tests/test_footprint.py`` gates what resume holds.

Usage::

    PYTHONPATH=src python scripts/torn_resume_check.py [--records N] [--summary FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import ASHA
from repro.objectives import ptb_lstm
from repro.objectives.surrogate import seeded_uniform
from repro.study import Study

WINDOW = 64

#: The restart child: this module's scheduler recipe, one restore-mode resume.
_RESTART = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, {scripts!r})
from torn_resume_check import Study, make_scheduler, peak_rss_mb
imported = time.perf_counter()
rss_imported = peak_rss_mb()
Study.resume({journal!r}, scheduler=make_scheduler(), mode="restore").close()
print(imported - started, time.perf_counter() - imported, rss_imported, peak_rss_mb())
"""


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB.

    Linux's ``VmHWM`` where there is one: an exec'd child's ``ru_maxrss``
    starts at its parent's peak at the fork, which here is the writer's.
    """
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return maxrss / 1024 ** (2 if sys.platform == "darwin" else 1)  # bytes there, else KiB


def make_scheduler() -> ASHA:
    return ASHA(
        ptb_lstm.space(),
        np.random.default_rng(0),
        min_resource=ptb_lstm.R / 64.0,
        max_resource=ptb_lstm.R,
        eta=4,
    )


def drive(study: Study, tells: int) -> None:
    in_flight: deque = deque()
    for _ in range(tells):
        while len(in_flight) < WINDOW and (job := study.ask()) is not None:
            in_flight.append(job)
        job = in_flight.popleft()
        study.tell(job, seeded_uniform(0, job.job_id))


def state_of(study: Study) -> str:
    return json.dumps(study.scheduler.state_dict(), sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=50_000)
    parser.add_argument("--summary", type=Path, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="torn-resume-") as workdir:
        return check(Path(workdir) / "torn.journal.jsonl", args.records, args.summary)


def check(path: Path, target_records: int, summary: Path | None) -> int:
    # The first tell follows WINDOW asks, every later one exactly one more.
    tells = (target_records - WINDOW + 1) // 2

    live = Study(make_scheduler(), journal=path)
    drive(live, tells)
    live.finalize()
    live.close()
    reference_bytes = path.read_bytes()
    reference_state = state_of(live)
    records = reference_bytes.count(b"\n") - 1
    last_line = reference_bytes.splitlines()[-1]
    torn = reference_bytes + last_line[: len(last_line) // 2]
    print(f"journal: {records} records, {len(reference_bytes)} bytes; "
          f"torn {len(torn) - len(reference_bytes)} bytes into the next append")

    ok = True
    seconds = {}
    for mode in ("restore", "replay"):
        path.write_bytes(torn)
        scheduler = make_scheduler()
        started = perf_counter()
        resumed = Study.resume(path, scheduler=scheduler, mode=mode)
        if mode == "replay":
            drive(resumed, tells)
        seconds[mode] = perf_counter() - started
        still_replaying = resumed.replaying
        resumed.close()
        for label, match in [
            ("healed bytes", path.read_bytes() == reference_bytes),
            ("scheduler state", state_of(resumed) == reference_state),
            ("cursor exhausted", not still_replaying),
        ]:
            ok &= match
            print(f"{mode}: {label}: {'ok' if match else 'MISMATCH'}")
        print(f"{mode}: {seconds[mode]:.3f} s ({records / seconds[mode]:,.0f} records/s)")

    path.write_bytes(torn)
    code = _RESTART.format(scripts=str(Path(__file__).parent), journal=str(path))
    started = perf_counter()
    child = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    restart = perf_counter() - started
    importing, resuming, rss_imported, rss_resumed = map(float, child.stdout.split())
    healed = path.read_bytes() == reference_bytes
    ok &= healed
    print(f"restart: healed bytes: {'ok' if healed else 'MISMATCH'}")
    print(f"restart: {restart:.3f} s from process start to study resumed "
          f"(import {importing:.3f} s + resume {resuming:.3f} s); peak RSS "
          f"{rss_imported:.1f} MB after import, {rss_resumed:.1f} MB after resume")

    if summary is not None:
        with open(summary, "a") as fh:
            fh.write(
                f"## Torn-tail resume of a {records}-record journal\n\n"
                "| mode | wall time | records/s | peak RSS |\n|---|---:|---:|---:|\n"
                + "".join(
                    f"| `{mode}` | {s:.3f} s | {records / s:,.0f} | (in process) |\n"
                    for mode, s in seconds.items()
                )
                + f"| fresh interpreter, `restore` (import {importing:.3f} s + resume "
                f"{resuming:.3f} s) | {restart:.3f} s | {records / restart:,.0f} "
                f"| {rss_imported:.1f} MB after import, {rss_resumed:.1f} MB after resume |\n\n"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
