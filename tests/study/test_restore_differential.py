"""Streaming restore against restoring from the reference reader's records.

``Study.resume(mode="restore")`` drives the scheduler with each record as
the journal reader decodes it and never holds the list.  The oracle here
reads the whole file first with ``reference_reader.read_journal`` (the
per-line reader, kept verbatim) and drives a fresh scheduler through those
records.  Over the mutated journals of ``test_reader_differential.py`` both
must give the same scheduler ``state_dict()`` and orphaned jobs, or the
same exception type and message; a resume that raises leaves the file's
bytes as they were, and one that succeeds heals it as the reference reader
says.

Two differences are deliberate, and the oracle spells them out:

* a line that is JSON but not an object is no record (as in
  ``test_reader_differential.py``): a ``JournalError`` naming it mid-file,
  a torn tail at the very end;
* streaming meets problems in file order.  The reference reader refuses a
  corrupt line before any record is driven; a streaming restore drives
  every record before that line first, so a divergence there is what it
  reports, and otherwise the corrupt line's ``JournalError``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study import JOURNAL_VERSION, JournalError, Study
from repro.study.spec import scheduler_from_spec

from .reference_reader import read_journal as reference_read_journal
from .test_reader_differential import (
    GOLDEN,
    LINES,
    _mutations,
    expected_heal,
    first_non_object,
    mutate,
)

SPEC = json.loads(LINES[0])["spec"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    """One file reused by every example (hypothesis rejects per-test fixtures)."""
    return tmp_path_factory.mktemp("restore-differential") / "mutated.journal.jsonl"


def restored(study: Study) -> tuple:
    return (
        "restored",
        json.dumps(study.scheduler.state_dict(), sort_keys=True),
        [job.job_id for job in study.orphaned_jobs],
    )


def raised(exc: Exception) -> tuple:
    return "raised", type(exc), str(exc)


def reference_records(path: Path, raw: bytes):
    """What a streaming reader yields before it stops, per the reference reader.

    Returns ``(records, valid, terminated, error)``: the records up to the
    first line the shipped reader refuses, the heal point they give, and
    that refusal (``None`` if the file reads to its end).
    """
    pieces = raw.split(b"\n")
    error = None
    found = first_non_object(raw)
    if found is not None:
        number, is_tail = found
        if not is_tail:
            error = JournalError(
                f"{path}: unparseable record on line {number} "
                "(only the final line of a journal may be torn)"
            )
    else:
        try:
            return (*reference_read_journal(path), None)
        except JournalError as exc:
            error = exc
            number = int(re.search(r"on line (\d+) ", str(exc)).group(1))
    # Read again up to the line that stops it (a non-object tail: up to the
    # final newline).
    path.write_bytes(b"".join(piece + b"\n" for piece in pieces[: number - 1]))
    try:
        return (*reference_read_journal(path), error)
    finally:
        path.write_bytes(raw)


def oracle(path: Path, records: list, error: Exception | None) -> tuple:
    """Restore from the reference reader's records, problems taken in file order."""
    try:
        if records:
            header = records[0]
            if header.get("kind") != "journal_header":
                raise JournalError(f"{path}: missing journal header")
            if header.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"{path}: journal version {header.get('version')!r} "
                    f"not supported (expected {JOURNAL_VERSION})"
                )
        study = Study(scheduler_from_spec(SPEC))
        study._restore(iter(records[1:]))
        if error is not None:
            raise error
    except Exception as exc:  # noqa: BLE001 — the exception *is* the result
        return raised(exc)
    return restored(study)


def check(path: Path, raw: bytes) -> None:
    path.write_bytes(raw)
    records, valid, terminated, error = reference_records(path, raw)
    expected = oracle(path, records, error)
    try:
        study = Study.resume(path, scheduler=scheduler_from_spec(SPEC), mode="restore")
    except Exception as exc:  # noqa: BLE001
        assert raised(exc) == expected
        assert path.read_bytes() == raw  # nothing was opened, nothing healed
        return
    outcome = restored(study)
    study.close()
    assert outcome == expected
    assert path.read_bytes() == expected_heal(raw, valid, terminated)


# ------------------------------------------------------------ the mutations


def _with_line(index: int, line: bytes) -> bytes:
    return b"".join(LINES[:index]) + line + b"".join(LINES[index + 1 :])


def test_unmutated_journal(scratch):
    check(scratch, GOLDEN)
    check(scratch, b"")
    check(scratch, LINES[0])


def test_truncation_at_every_byte_of_the_last_three_records(scratch):
    for cut in range(len(GOLDEN) - sum(map(len, LINES[-3:])), len(GOLDEN) + 1):
        check(scratch, GOLDEN[:cut])


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda raw: raw.replace(b"\n", b"\r\n"),
        lambda raw: raw.replace(b"\n", b"\r\n", 7),
        lambda raw: raw.replace(b"\n", b" \n"),
        lambda raw: raw.replace(b",", b", ").replace(b":", b": "),
        lambda raw: raw + b"\n",
        lambda raw: b"\xef\xbb\xbf" + raw,
    ],
    ids=["crlf", "crlf-first-seven", "trailing-space", "inter-token-spaces",
         "blank-last-line", "bom"],
)  # fmt: skip
def test_line_ending_and_padding_variants(scratch, rewrite):
    check(scratch, rewrite(GOLDEN))
    check(scratch, rewrite(GOLDEN)[:-40])


@pytest.mark.parametrize(
    "index, line",
    [
        (9, b"{not json\n"),
        (9, b'{"kind":"\xc3\xa4sk"}\n'),
        (9, b'{"kind":"a\xff\xfesk"}\n'),
        (9, b"[1]\n"),
        (20, LINES[20].replace(b'"job_id":', b'"job_id":\n', 1)),
        (len(LINES) - 2, b"\n"),
        (1, LINES[2]),  # a tell for a job never asked
        (0, LINES[0].replace(b'"version":1', b'"version":2')),
    ],
    ids=["garbage", "non-ascii-kind", "invalid-utf8", "non-object", "split-value",
         "blank-line", "diverges-first", "bad-version"],
)  # fmt: skip
def test_lines_broken_mid_file(scratch, index, line):
    check(scratch, _with_line(index, line))
    check(scratch, _with_line(index, line).replace(b"\n", b"\r\n"))


def test_a_divergence_before_a_corrupt_line_is_what_streaming_reports(scratch):
    raw = _with_line(30, b"{not json\n")
    raw = raw.replace(LINES[3], LINES[5], 1)  # the second ask asks job 2, not job 1
    check(scratch, raw)
    with pytest.raises(JournalError, match="restore diverged at journal line 4"):
        Study.resume(scratch, scheduler=scheduler_from_spec(SPEC), mode="restore")


@settings(max_examples=200, deadline=None, database=None)  # no .hypothesis/ writes in the repo
@given(st.lists(_mutations, min_size=1, max_size=4))
def test_random_mutations_restore_like_the_reference(scratch, mutations):
    raw = GOLDEN
    for mutation in mutations:
        raw = mutate(raw, mutation)
    check(scratch, raw)
