"""``Study.resume`` does each thing once: one read, one decode, one encode.

Counted from outside, with wrappers around the three places the work
happens — ``open`` for reading, the decoders in :mod:`repro.study.journal`
(the C scanner of the fast pass, ``_decode_line`` of the per-line reader),
and ``encode_record`` as :mod:`repro.study.study` sees it.
"""

from __future__ import annotations

import builtins
import json

import pytest

from repro.study import JournalReplayError, Study
from repro.study import journal as journal_module
from repro.study import study as study_module

from .test_resume import make_scheduler, run_scenario


class Calls:
    """A pass-through wrapper that counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.inner(*args, **kwargs)


@pytest.fixture
def journal_path(tmp_path):
    """A complete journal of the seeded faulty scenario (asks, tells, fault records)."""
    path = tmp_path / "run.journal.jsonl"
    run_scenario(path)
    return path


def count_reads(monkeypatch, path):
    """Count read-mode opens of ``path`` (the heal's ``r+b`` is a truncate, not a read)."""
    reads = Calls(builtins.open)

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and mode in ("r", "rb"):
            return reads(file, mode, *args, **kwargs)
        return reads.inner(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return reads


def count_decodes(monkeypatch):
    scanner = Calls(journal_module._scan_once)
    per_line = Calls(journal_module._decode_line)
    monkeypatch.setattr(journal_module, "_scan_once", scanner)
    monkeypatch.setattr(journal_module, "_decode_line", per_line)
    return scanner, per_line


@pytest.mark.parametrize("mode", ["replay", "restore"])
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn-tail"])
def test_resume_reads_the_file_once_and_decodes_each_line_once(
    monkeypatch, journal_path, mode, torn
):
    lines = journal_path.read_bytes().splitlines(keepends=True)
    if torn:
        # A crash mid-append: the last record is half written and has no
        # newline — the tail the per-line reader is kept for.
        journal_path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        lines = lines[:-1]
    reads = count_reads(monkeypatch, journal_path)
    scanner, per_line = count_decodes(monkeypatch)
    study = Study.resume(journal_path, scheduler=make_scheduler(), mode=mode)
    study.close()
    assert reads.count == 1
    assert scanner.count == len(lines)
    assert per_line.count == (1 if torn else 0)  # the torn tail, offered once
    assert journal_path.read_bytes() == b"".join(lines)


def test_fallback_reader_also_decodes_each_line_once(monkeypatch, journal_path):
    """CRLF keeps the fast pass out after its first line; the rest is per-line."""
    raw = journal_path.read_bytes()
    journal_path.write_bytes(raw.replace(b"\n", b"\r\n"))
    reads = count_reads(monkeypatch, journal_path)
    scanner, per_line = count_decodes(monkeypatch)
    study = Study.resume(journal_path, scheduler=make_scheduler(), mode="restore")
    study.close()
    assert reads.count == 1
    assert scanner.count == 1  # gave up at the first carriage return
    assert per_line.count == raw.count(b"\n")


def test_replay_encodes_each_verified_record_once(monkeypatch, journal_path):
    records = journal_path.read_bytes().count(b"\n") - 1
    encodes = Calls(study_module.encode_record)
    monkeypatch.setattr(study_module, "encode_record", encodes)
    run_scenario(journal_path, resume=True)
    assert encodes.count == records


def reorder_and_space(line: bytes) -> bytes:
    """The same record, keys reversed and spaces added: equivalent, not canonical."""
    record = json.loads(line)
    return json.dumps(dict(reversed(record.items())), separators=(" , ", " : ")).encode() + b"\n"


def test_non_canonical_but_equivalent_journal_replays_clean(monkeypatch, journal_path):
    reference = journal_path.read_bytes()
    lines = reference.splitlines(keepends=True)
    cut = len(lines) // 2
    edited = [reorder_and_space(line) for line in lines[:cut]]
    assert all(a != b for a, b in zip(edited, lines))
    journal_path.write_bytes(b"".join(edited))
    encodes = Calls(study_module.encode_record)
    monkeypatch.setattr(study_module, "encode_record", encodes)
    run_scenario(journal_path, resume=True)
    # Every replayed record missed the byte comparison and was settled by
    # re-encoding the parsed one: two encodes each, none raised.
    assert encodes.count == 2 * (cut - 1)
    assert journal_path.read_bytes() == b"".join(edited) + b"".join(lines[cut:])


def drive_by_hand(study):
    """Ask then tell, one job at a time, with a loss fixed by the job id."""
    told = 0
    while (job := study.ask()) is not None:
        study.tell(job, 1.0 / (1 + job.job_id), time=float(told))
        told += 1
    return told


def test_diverging_replay_raises_with_both_encodings(monkeypatch, tmp_path):
    path = tmp_path / "by-hand.journal.jsonl"
    study = Study(make_scheduler(), journal=path)
    assert drive_by_hand(study) >= 6
    study.close()
    lines = path.read_bytes().splitlines(keepends=True)
    target = 6  # lines[6] is the third tell: header, then ask/tell pairs
    journalled = json.loads(lines[target])
    assert journalled["kind"] == "tell"
    tampered = dict(journalled, loss=journalled["loss"] + 1.0)
    encode = study_module.encode_record
    lines[target] = encode(tampered).encode() + b"\n"
    path.write_bytes(b"".join(lines))
    encodes = Calls(encode)
    monkeypatch.setattr(study_module, "encode_record", encodes)
    study = Study.resume(path, scheduler=make_scheduler(), mode="replay")
    with pytest.raises(JournalReplayError) as caught:
        drive_by_hand(study)
    study.close()
    message = str(caught.value)
    assert f"journal line {target + 1}" in message
    assert f"journal has {encode(tampered)}" in message
    assert f"re-execution produced {encode(journalled)}" in message
    # One encode per verified record, two for the one that diverged.
    assert encodes.count == (target - 1) + 2
