"""Unit tests for the write-ahead journal file format and its healing rules."""

from __future__ import annotations

import json
import os

import pytest

from repro.study import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    JournalWriter,
    encode_record,
    read_journal,
    read_wal,
)
from repro.telemetry import JSONLSink

RECORDS = [
    {"kind": "ask", "job_id": 0, "trial_id": 0, "resource": 1.0},
    {"kind": "tell", "job_id": 0, "trial_id": 0, "loss": 0.5, "time": 1.0},
    {"kind": "ask", "job_id": 1, "trial_id": 1, "resource": 1.0},
]


def write_journal(path, records=RECORDS, spec=None):
    journal = Journal(path, spec=spec)
    for record in records:
        journal.append(record)
    journal.close()


def test_append_read_round_trip(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    records, valid, terminated = read_journal(path)
    assert records[0]["kind"] == "journal_header"
    assert records[0]["version"] == JOURNAL_VERSION
    assert records[1:] == RECORDS
    assert terminated
    assert valid == path.stat().st_size


def test_encoding_is_canonical(tmp_path):
    """Sorted keys, no whitespace — byte-comparable across runs."""
    line = encode_record({"b": 1, "a": {"d": 2, "c": 3}})
    assert line == '{"a":{"c":3,"d":2},"b":1}'


def test_append_flushes_immediately(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    journal = Journal(path)
    journal.append(RECORDS[0])
    # Visible on disk before close: the WAL property a crash relies on.
    on_disk, _, _ = read_journal(path)
    assert on_disk[1:] == RECORDS[:1]
    journal.close()


def test_torn_trailing_line_is_dropped(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    whole = path.read_bytes()
    lines = whole.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    records, valid, terminated = read_journal(path)
    assert records[1:] == RECORDS[:-1]
    assert valid == sum(len(line) for line in lines[:-1])
    assert terminated


def test_unterminated_parseable_tail_is_accepted(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    records, valid, terminated = read_journal(path)
    assert records[1:] == RECORDS
    assert not terminated
    assert valid == path.stat().st_size


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"{garbage\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(JournalError, match="line 2"):
        read_journal(path)


def test_reopen_append_heals_torn_tail(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + b'{"kind":"tel')  # torn mid-record
    journal = Journal(path, mode="a")
    journal.append({"kind": "tell", "job_id": 1, "trial_id": 1, "loss": 0.25, "time": 2.0})
    journal.close()
    records, _, terminated = read_journal(path)
    assert records[1:] == RECORDS + [
        {"kind": "tell", "job_id": 1, "trial_id": 1, "loss": 0.25, "time": 2.0}
    ]
    assert terminated


def test_reopen_append_terminates_unterminated_tail(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    journal = Journal(path, mode="a")
    journal.append({"kind": "abandon", "job_id": 2, "trial_id": 2})
    journal.close()
    records, _, _ = read_journal(path)
    assert records[-2] == RECORDS[-1]
    assert records[-1] == {"kind": "abandon", "job_id": 2, "trial_id": 2}


def test_append_mode_on_missing_file_writes_fresh_header(tmp_path):
    path = tmp_path / "fresh.journal.jsonl"
    journal = Journal(path, mode="a", spec={"scheduler": "asha"})
    journal.close()
    records, _, _ = read_journal(path)
    assert records == [
        {"kind": "journal_header", "version": JOURNAL_VERSION, "spec": {"scheduler": "asha"}}
    ]


@pytest.mark.parametrize("on_disk", [b"", b'{"kind":"journal_hea'], ids=["empty", "torn-header"])
@pytest.mark.parametrize("group_commit", [False, True], ids=["immediate", "group-commit"])
def test_append_mode_on_a_file_with_no_complete_record_writes_fresh_header(
    tmp_path, on_disk, group_commit
):
    """Nothing valid on disk is the missing-file case: header first, then records.

    Zero bytes is every group-commit journal between its creation and its
    writer's first commit; healing that to an empty file and appending
    left a journal no resume would accept.
    """
    path = tmp_path / "died-early.journal.jsonl"
    path.write_bytes(on_disk)
    writer = JournalWriter() if group_commit else None
    journal = Journal(path, mode="a", spec={"scheduler": "asha"}, writer=writer)
    journal.append(RECORDS[0])
    journal.close()
    records, _, terminated = read_journal(path)
    assert terminated
    assert records == [
        {"kind": "journal_header", "version": JOURNAL_VERSION, "spec": {"scheduler": "asha"}},
        RECORDS[0],
    ]


def test_header_spec_round_trips(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    spec = {"scheduler": "asha", "seed": 7, "eta": 3}
    write_journal(path, spec=spec)
    records, _, _ = read_journal(path)
    assert records[0]["spec"] == spec


def test_append_after_close_raises(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    journal = Journal(path)
    journal.close()
    with pytest.raises(ValueError):
        journal.append(RECORDS[0])


def test_finalize_fsyncs_and_is_idempotent(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    journal = Journal(path)
    journal.append(RECORDS[0])
    journal.finalize()
    journal.finalize()  # second call must not raise
    journal.close()
    journal.finalize()  # nor after close
    records, _, _ = read_journal(path)
    assert records[1:] == RECORDS[:1]


def test_jsonl_sink_finalize_flushes_and_survives_close(tmp_path):
    """Satellite: JSONLSink.finalize makes the event file durable."""
    from repro.telemetry.events import EventKind, TelemetryEvent

    path = tmp_path / "events.jsonl"
    sink = JSONLSink(path)
    sink.write(TelemetryEvent(seq=0, kind=EventKind.JOB_STARTED, time=0.0, wall_time=0.0))
    sink.finalize()
    assert json.loads(path.read_text().splitlines()[0])["seq"] == 0
    sink.close()
    sink.finalize()  # finalize after close must be a harmless no-op
    os.stat(path)  # file still present and intact


# ---------------------------------------------------------------- group commit


def test_group_commit_buffers_until_commit(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    writer = JournalWriter()
    journal = Journal(path, writer=writer)
    journal.append(RECORDS[0])
    journal.append_batch(RECORDS[1:])
    # Nothing on disk yet — not even the header.
    assert path.read_bytes() == b""
    writer.commit()
    records, _, terminated = read_journal(path)
    assert terminated
    assert records[0]["kind"] == "journal_header"
    assert records[1:] == RECORDS
    assert writer.commits == 1


def test_group_commit_bytes_match_immediate_mode(tmp_path):
    immediate, buffered = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_journal(immediate, spec={"s": 1})
    writer = JournalWriter()
    journal = Journal(buffered, writer=writer, spec={"s": 1})
    for record in RECORDS:
        journal.append(record)
        writer.commit()  # commit cadence must not change the bytes
    journal.close()
    assert immediate.read_bytes() == buffered.read_bytes()


def test_group_commit_finalize_lands_pending(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    writer = JournalWriter()
    journal = Journal(path, writer=writer)
    journal.append(RECORDS[0])
    writer.finalize_all()
    records, _, _ = read_journal(path)
    assert records[1:] == RECORDS[:1]
    journal.finalize()  # idempotent with nothing pending


def test_group_commit_close_commits_tail(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    journal = Journal(path, writer=JournalWriter())
    journal.append(RECORDS[0])
    journal.close()
    records, _, _ = read_journal(path)
    assert records[1:] == RECORDS[:1]
    with pytest.raises(ValueError):
        journal.append(RECORDS[1])


def test_group_commit_append_mode_heals_torn_tail(tmp_path):
    path = tmp_path / "run.journal.jsonl"
    write_journal(path)
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "tell", "job_id": 1, "tr')  # torn mid-append
    writer = JournalWriter()
    journal = Journal(path, mode="a", writer=writer)
    journal.append({"kind": "tell", "job_id": 1, "trial_id": 1, "loss": 0.25, "time": 2.0})
    writer.commit()
    records, _, _ = read_journal(path)
    assert [r["kind"] for r in records[1:]] == ["ask", "tell", "ask", "tell"]


def test_group_commit_holds_no_fd_between_commits(tmp_path):
    """Journal count is not bounded by the process fd limit."""

    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    writer = JournalWriter()
    before = open_fds()
    journals = [Journal(tmp_path / f"j{i}.jsonl", writer=writer) for i in range(64)]
    for journal in journals:
        journal.append(RECORDS[0])
    assert open_fds() <= before + 1  # the /proc listing itself may cost one
    writer.commit()
    assert open_fds() <= before + 1
    for journal in journals:
        records, _, _ = read_journal(journal.path)
        assert records[1:] == RECORDS[:1]


# ---------------------------------------------------------------------------
# WAL mode: database-style group commit — one shared log, one fsync per
# commit window, per-journal files as replayable caches.
# ---------------------------------------------------------------------------


def test_wal_reconstructs_every_journal(tmp_path):
    wal_path = tmp_path / "journals.wal"
    writer = JournalWriter(wal_path=wal_path)
    journals = [Journal(tmp_path / f"j{i}.jsonl", writer=writer) for i in range(3)]
    for i, journal in enumerate(journals):
        journal.append(RECORDS[i])
    writer.commit()
    journals[0].append(RECORDS[1])  # second window, one dirty journal
    writer.finalize_all()
    replayed = read_wal(wal_path)
    assert len(replayed) == 3
    for journal in journals:
        file_bytes = open(journal.path, "rb").read()
        assert replayed[journal.path] == file_bytes
    # And the files themselves are byte-identical to immediate mode.
    solo = Journal(tmp_path / "solo.jsonl")
    solo.append(RECORDS[0])
    solo.append(RECORDS[1])
    solo.close()
    assert open(journals[0].path, "rb").read() == open(solo.path, "rb").read()


def test_wal_torn_final_frame_is_dropped(tmp_path):
    wal_path = tmp_path / "journals.wal"
    writer = JournalWriter(wal_path=wal_path)
    journal = Journal(tmp_path / "j.jsonl", writer=writer)
    journal.append(RECORDS[0])
    writer.commit()
    full = read_wal(wal_path)
    with open(wal_path, "ab") as fh:
        fh.write(b"=wal 7 999\npartial")  # commit a crash interrupted
    assert read_wal(wal_path) == full
    with open(wal_path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
    # Corruption before the tail is loud, not silently skipped.
    with open(wal_path, "r+b") as fh:
        fh.seek(0)
        fh.write(b"XXXX")
    with pytest.raises(JournalError):
        read_wal(wal_path)


def test_wal_defers_tail_fsync_to_group_commit(tmp_path, monkeypatch):
    """finalize_all in WAL mode costs one fsync total, not one per journal."""
    fsyncs: list[int] = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    wal_path = tmp_path / "journals.wal"
    writer = JournalWriter(wal_path=wal_path)
    journals = [Journal(tmp_path / f"j{i}.jsonl", writer=writer) for i in range(8)]
    for journal in journals:
        journal.append(RECORDS[0])
        journal.finalize()  # defers: the tail stays buffered for the writer
        assert read_journal(journal.path)[0] == []  # nothing written yet
    writer.finalize_all()
    assert len(fsyncs) == 1  # the WAL, once — never the 8 journal files
    for journal in journals:
        records, _, _ = read_journal(journal.path)
        assert records[1:] == RECORDS[:1]


def test_wal_fsync_failure_is_not_a_durable_commit(tmp_path, monkeypatch):
    """A WAL fsync that raises fails the commit: no journal write, no count."""
    import errno

    from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

    registry = install_runtime_registry()
    try:
        writer = JournalWriter(wal_path=tmp_path / "journals.wal")
        journal = Journal(tmp_path / "j.jsonl", writer=writer)
        journal.append(RECORDS[0])
        writer.commit()  # a healthy window first
        committed = open(journal.path, "rb").read()
        counted = registry.snapshot()["counters"]['journal_fsync_total{target="wal"}']
        assert committed and counted == 1

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        journal.append(RECORDS[1])
        with pytest.raises(OSError) as raised:
            writer.commit()
        assert raised.value.errno == errno.EIO
        assert open(journal.path, "rb").read() == committed
        snap = registry.snapshot()
        assert snap["counters"]['journal_fsync_total{target="wal"}'] == counted
        assert snap["counters"]["wal_commits_total"] == 1
        assert writer.commits == 1
    finally:
        uninstall_runtime_registry()


@pytest.mark.parametrize("group_commit", [False, True], ids=["immediate", "group-commit"])
def test_journal_fsync_failure_is_not_a_durable_finalize(tmp_path, monkeypatch, group_commit):
    """The solo-journal twin: a finalize whose fsync raises fails, uncounted."""
    import errno

    from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

    registry = install_runtime_registry()
    try:
        writer = JournalWriter() if group_commit else None  # no WAL: per-file fsync
        journal = Journal(tmp_path / "j.jsonl", writer=writer)
        journal.append(RECORDS[0])

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError) as raised:
            journal.finalize()
        assert raised.value.errno == errno.EIO
        counters = registry.snapshot()["counters"]
        assert counters.get('journal_fsync_total{target="journal"}', 0) == 0
    finally:
        uninstall_runtime_registry()


def test_wal_corruption_error_names_byte_offset_and_frame_index(tmp_path):
    """A corrupt frame is located precisely: byte offset AND frame index.

    Ops recovering a crashed multiplexer need to know *where* the WAL went
    bad — `dd`-style surgery on the file needs the byte offset, while the
    frame index says how many commits were replayable before the damage.
    """
    wal_path = tmp_path / "journals.wal"
    writer = JournalWriter(wal_path=wal_path)
    journals = [Journal(tmp_path / f"j{i}.jsonl", writer=writer) for i in range(2)]
    for record in RECORDS:
        for journal in journals:
            journal.append(record)
        writer.commit()  # one frame per journal per window -> 6 frames
    intact = wal_path.read_bytes()

    # Find the third frame's header offset by walking the intact file the
    # same way read_wal does, then stomp its magic in place.
    offsets = []
    pos = 0
    while pos < len(intact):
        offsets.append(pos)
        header_end = intact.index(b"\n", pos)
        name_len, data_len = map(int, intact[pos + 5 : header_end].split())
        pos = header_end + 1 + name_len + data_len
    assert len(offsets) == 6
    target = offsets[2]

    corrupt = bytearray(intact)
    corrupt[target : target + 4] = b"XXXX"
    wal_path.write_bytes(bytes(corrupt))
    with pytest.raises(JournalError) as excinfo:
        read_wal(wal_path)
    message = str(excinfo.value)
    assert f"byte {target}" in message
    assert "(frame 2)" in message
    assert str(wal_path) in message

    # An unparseable length field is the other corruption class: same
    # byte/frame coordinates, different diagnosis.
    corrupt = bytearray(intact)
    header_end = intact.index(b"\n", target)
    corrupt[target + 5 : header_end] = b"x" * (header_end - target - 5)
    wal_path.write_bytes(bytes(corrupt))
    with pytest.raises(JournalError) as excinfo:
        read_wal(wal_path)
    message = str(excinfo.value)
    assert f"byte {target}" in message
    assert "(frame 2)" in message
    assert "<name_len> <data_len>" in message
